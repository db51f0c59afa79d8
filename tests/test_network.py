import io
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from stoseg import cli, losses, network, ops, suite
from stoseg.activations import ActivationKind, act_forward, default_pool
from stoseg.rng import SplitMix64


def small_config():
    return network.NetworkConfig(input_size=16, stem_width=4, down_width=8,
                                 aspp_width=4, fuse_width=8)


def relu_assignment(cfg):
    return tuple([ActivationKind.RELU] * cfg.site_count)


class TestNetworkConfig:
    def test_default_site_channels(self):
        cfg = network.NetworkConfig()
        assert cfg.site_count == 7
        assert cfg.site_channels() == (16, 32, 32, 16, 16, 16, 32)

    def test_input_size_must_be_multiple_of_four(self):
        with pytest.raises(ValueError, match="divisible"):
            network.NetworkConfig(input_size=30)

    def test_dilations_must_be_positive(self):
        with pytest.raises(ValueError, match="dilations"):
            network.NetworkConfig(aspp_dilations=(1, 0))

    def test_two_dilations_shrink_the_topology(self):
        cfg = network.NetworkConfig(aspp_dilations=(1, 2))
        assert cfg.site_count == 6


class TestAssignActivations:
    def test_act_mode_repeats_one_kind(self):
        pool = default_pool()
        asn = network.assign_activations("act", pool, 7, 0, 99)
        assert asn == tuple([ActivationKind.RELU] * 7)
        asn3 = network.assign_activations("act", pool, 7, 3, 0)
        assert asn3 == tuple([pool[3]] * 7)

    def test_relu_mode_ignores_index_and_seed(self):
        asn = network.assign_activations("relu", default_pool(), 7, 3, 12345)
        assert asn == tuple([ActivationKind.RELU] * 7)

    def test_act_mode_range_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            network.assign_activations("act", default_pool(), 7, 17, 0)

    def test_sto_mode_is_seed_deterministic(self):
        pool = default_pool()
        a = network.assign_activations("sto", pool, 7, 0, 42)
        b = network.assign_activations("sto", pool, 7, 0, 42)
        assert a == b
        c = network.assign_activations("sto", pool, 7, 0, 43)
        assert a != c  # 17^-7 collision odds

    def test_sto_draws_come_from_the_pool(self):
        pool = default_pool()[:5]
        asn = network.assign_activations("sto", pool, 20, 0, 7)
        assert set(asn) <= set(pool)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            network.assign_activations("both", default_pool(), 7, 0, 0)

    def test_all_modes_same_length(self):
        pool = default_pool()
        for mode in ("act", "sto", "relu"):
            assert len(network.assign_activations(mode, pool, 7, 1, 5)) == 7


class TestBuildModel:
    def test_deterministic_bit_identical(self):
        cfg = small_config()
        m1 = network.build_model(cfg, relu_assignment(cfg), 7)
        m2 = network.build_model(cfg, relu_assignment(cfg), 7)
        for k in m1.params:
            np.testing.assert_array_equal(m1.params[k], m2.params[k])

    def test_init_seed_changes_weights_not_shapes(self):
        cfg = small_config()
        m1 = network.build_model(cfg, relu_assignment(cfg), 1)
        m2 = network.build_model(cfg, relu_assignment(cfg), 2)
        assert any((m1.params[k] != m2.params[k]).any() for k in m1.params if k.endswith(".w"))
        for k in m1.params:
            assert m1.params[k].shape == m2.params[k].shape

    def test_default_parameter_budget(self):
        cfg = network.NetworkConfig()
        m = network.build_model(cfg, relu_assignment(cfg), 0)
        total = sum(v.size for v in m.parameters().values())
        assert 25_000 < total < 35_000  # desk-scale by construction

    def test_assignment_length_checked(self):
        cfg = small_config()
        with pytest.raises(ValueError, match="assignment length"):
            network.build_model(cfg, (ActivationKind.RELU,) * 5, 0)

    def test_biases_start_at_zero(self):
        cfg = small_config()
        m = network.build_model(cfg, relu_assignment(cfg), 3)
        for k, v in m.params.items():
            if k.endswith(".b"):
                np.testing.assert_array_equal(v, 0.0)


class TestPredict:
    def test_output_shape_and_normalization(self):
        cfg = network.NetworkConfig()
        m = network.build_model(cfg, relu_assignment(cfg), 11)
        img = SplitMix64(0).uniform_array(3 * 64 * 64).reshape(3, 64, 64).astype(np.float32)
        probs = network.predict_batch(m, img[None])[0]
        assert probs.shape == (2, 64, 64)
        np.testing.assert_allclose(probs.sum(axis=0), 1.0, atol=1e-6)

    def test_untrained_probabilities_are_not_saturated(self):
        cfg = small_config()
        asn = network.assign_activations("sto", default_pool(), cfg.site_count, 0, 5)
        m = network.build_model(cfg, asn, 5)
        img = SplitMix64(6).uniform_array(3 * 16 * 16).reshape(3, 16, 16).astype(np.float32)
        probs = network.predict_batch(m, img[None])[0]
        assert probs.min() > 0.0
        assert probs.max() < 1.0

    def test_pure_function_of_inputs(self):
        cfg = small_config()
        m = network.build_model(cfg, relu_assignment(cfg), 9)
        img = SplitMix64(1).uniform_array(3 * 16 * 16).reshape(3, 16, 16).astype(np.float32)
        np.testing.assert_array_equal(network.predict_batch(m, img[None])[0],
                                      network.predict_batch(m, img[None])[0])

    def test_wrong_spatial_size_rejected(self):
        cfg = small_config()
        m = network.build_model(cfg, relu_assignment(cfg), 9)
        with pytest.raises(ValueError, match="input_size"):
            network.predict_batch(m, np.zeros((3, 32, 32), dtype=np.float32)[None])

    def test_wrong_channel_count_rejected(self):
        cfg = small_config()
        m = network.build_model(cfg, relu_assignment(cfg), 9)
        with pytest.raises(ValueError, match=r"\(n, 3"):
            network.forward(m, np.zeros((1, 4, 16, 16), dtype=np.float32))


def noised_model(cfg, seed, dtype=np.float64, asn=None):
    """A model, sto-assigned unless ``asn`` is given, whose biases (the
    head's too) and activation parameters are moved off their init values."""
    if asn is None:
        asn = network.assign_activations("sto", default_pool(), cfg.site_count, 0, seed)
    m = network.build_model(cfg, asn, seed, dtype=dtype)
    rng = SplitMix64(seed + 1)
    for name, b in m.params.items():
        if name.endswith(".b"):
            b += ((rng.uniform_array(b.size) - 0.5) * 0.5).astype(dtype)
    for st in m.acts:
        suite._noise_params(st, rng)
    return m


class TestPredictBlocks:
    """predict_batch runs forward over blocks of _PREDICT_BLOCK images."""

    @staticmethod
    def pool_models(dtype):
        """Noised models whose sites together hold every kind of the pool."""
        cfg = small_config()
        pool, sites, models = default_pool(), cfg.site_count, []
        for start in range(0, len(pool), sites):
            asn = tuple((pool * 2)[start : start + sites])
            models.append(noised_model(cfg, start, dtype, asn))
        assert {k for m in models for k in m.assignment} == set(default_pool())
        return models

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 17])
    def test_equals_one_forward_bit_for_bit(self, dtype, n):
        img = SplitMix64(n).uniform_array(n * 3 * 16 * 16).reshape(n, 3, 16, 16).astype(dtype)
        for m in self.pool_models(dtype):
            got = network.predict_batch(m, img)
            want, _ = network.forward(m, img)
            assert got.dtype == want.dtype == dtype
            assert np.array_equal(got, want)

    def test_peak_memory_is_one_block(self):
        cfg = network.NetworkConfig()
        m = network.build_model(cfg, relu_assignment(cfg), 13)
        img = SplitMix64(14).uniform_array(64 * 3 * 64 * 64).reshape(64, 3, 64, 64)
        img = img.astype(np.float32)
        peaks = {}
        tracemalloc.start()
        try:
            for n in (8, 64):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                probs = network.predict_batch(m, img[:n])
                peaks[n] = tracemalloc.get_traced_memory()[1] - base
                del probs
        finally:
            tracemalloc.stop()
        assert peaks[64] <= peaks[8] + 2 * (64 * 2 * 64 * 64 * 4), peaks

    def test_empty_batch_rejected(self):
        cfg = small_config()
        m = network.build_model(cfg, relu_assignment(cfg), 9)
        empty = np.zeros((0, 3, 16, 16), dtype=np.float32)
        for fn in (network.forward, network.predict_batch):
            with pytest.raises(ValueError, match=r"\(0, 3, 16, 16\)"):
                fn(m, empty)


class TestResume:
    """forward(..., resume=(cache, k)) reruns stages k.. and the decoder."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_full_forward_at_every_stage(self, dtype):
        img = SplitMix64(5).uniform_array(2 * 3 * 16 * 16).reshape(2, 3, 16, 16).astype(dtype)
        for m in TestPredictBlocks.pool_models(dtype):
            probs, cache = network.forward(m, img)
            lengths = {key: len(cache[key]) for key in ("xs", "pre")}
            for k in range(len(m._stages) + 1):
                got, got_cache = network.forward(m, img, resume=(cache, k))
                assert got.dtype == dtype and np.array_equal(got, probs)
                assert got_cache["probs"] is got
                for key in ("xs", "pre"):
                    assert got_cache[key] is not cache[key]
                    assert len(got_cache[key]) == lengths[key]
                    for a, b in zip(got_cache[key], cache[key], strict=True):
                        assert a.dtype == b.dtype and np.array_equal(a, b)
            assert {key: len(cache[key]) for key in ("xs", "pre")} == lengths

    def test_rejects_foreign_images_and_stages_out_of_range(self):
        m = noised_model(small_config(), 3)
        img = SplitMix64(6).uniform_array(3 * 16 * 16).reshape(1, 3, 16, 16)
        _, cache = network.forward(m, img)
        with pytest.raises(ValueError, match="another images array"):
            network.forward(m, img.copy(), resume=(cache, 1))
        for k in (-1, len(m._stages) + 1):
            with pytest.raises(ValueError, match=f"resume stage {k} is outside 0..5"):
                network.forward(m, img, resume=(cache, k))


class TestDecoder:
    @pytest.mark.parametrize("dilations", [(1, 2, 4), (3,)])
    def test_head_before_upsample_equals_upsample_before_head(self, dilations):
        """The head runs before the x4 upsample; in float64 that matches the
        feature-upsampling order to rounding, head bias included."""
        cfg = network.NetworkConfig(input_size=16, stem_width=4, down_width=8, aspp_width=4,
                                    fuse_width=8, aspp_dilations=dilations)
        m = noised_model(cfg, 41)
        assert np.all(m.params["head.b"] != 0.0)
        img = SplitMix64(42).uniform_array(2 * 3 * 16 * 16).reshape(2, 3, 16, 16)
        probs, cache = network.forward(m, img)
        head = ops.ConvSpec(cfg.num_classes, cfg.fuse_width, 1, 1)
        up = ops.upsample_bilinear(cache["xs"][-1], 4)
        old = ops.softmax_channel(ops.conv2d(up, m.params["head.w"], m.params["head.b"], head))
        np.testing.assert_allclose(probs, old, rtol=0, atol=1e-12)

    def test_only_the_stem_skips_its_input_gradient(self, monkeypatch):
        cfg = small_config()
        m = noised_model(cfg, 43)
        img = SplitMix64(44).uniform_array(2 * 3 * 16 * 16).reshape(2, 3, 16, 16)
        probs, cache = network.forward(m, img)
        calls = []
        real = ops.conv2d_backward

        def recorder(grad, x, weight, spec, **kwargs):
            calls.append((spec, kwargs.get("need_dx", True)))
            return real(grad, x, weight, spec, **kwargs)

        monkeypatch.setattr(ops, "conv2d_backward", recorder)
        network.backward(m, cache, np.ones_like(probs))
        layers = {spec: name for name, spec in network._conv_layers(cfg)}
        skipped = [layers[spec] for spec, need_dx in calls if not need_dx]
        assert len(calls) == len(layers) and skipped == ["stem"]


class TestParentCheckpoint:
    """A checkpoint written before the decoder ran its head first must still
    predict within float32 rounding.

    ``tests/data/parent_checkpoint.npz`` and ``parent_checkpoint_probs.npy``
    were written by the code at commit d5b3a57 (upsample, then head) with::

        cfg = network.NetworkConfig(input_size=16, stem_width=4, down_width=8, aspp_width=4,
                                    fuse_width=8, aspp_dilations=(1, 2))
        asn = network.assign_activations("sto", default_pool(), cfg.site_count, 0, 61)
        m = network.build_model(cfg, asn, 61)
        rng = SplitMix64(62)
        for name, b in m.params.items():
            if name.endswith(".b"):
                b += ((rng.uniform_array(b.size) - 0.5) * 0.5).astype(b.dtype)
        for st in m.acts:
            suite._noise_params(st, rng)
        network.save_model("parent_checkpoint.npz", m)
        images = SplitMix64(63).uniform_array(4 * 3 * 16 * 16).reshape(4, 3, 16, 16)
        np.save("parent_checkpoint_probs.npy",
                network.predict_batch(m, images.astype(np.float32)))

    The model is ``noised_model(cfg, 61, np.float32)``, which the test checks.
    """

    DATA = Path(__file__).parent / "data"

    def test_loads_and_predicts_within_float32_rounding(self):
        m = network.load_model(self.DATA / "parent_checkpoint.npz")
        recipe = noised_model(m.config, 61, dtype=np.float32)
        assert m.assignment == recipe.assignment
        for name, value in recipe.parameters().items():
            np.testing.assert_array_equal(m.parameters()[name], value)
        assert np.all(m.params["head.b"] != 0.0)
        assert any(st.params.size for st in m.acts)
        images = SplitMix64(63).uniform_array(4 * 3 * 16 * 16).reshape(4, 3, 16, 16)
        want = np.load(self.DATA / "parent_checkpoint_probs.npy")
        got = network.predict_batch(m, images.astype(np.float32))
        assert got.dtype == want.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)


def pyramid_config(dilations):
    return network.NetworkConfig(input_size=8, stem_width=3, down_width=4, aspp_width=3,
                                 fuse_width=4, aspp_dilations=dilations)


def pyramid_problem(dilations):
    """A noised float64 pyramid at 8x8, a batch of 2 images and a target, and
    the generator that drew them, for the central-difference checks."""
    cfg = pyramid_config(dilations)
    asn = network.assign_activations("sto", default_pool(), cfg.site_count, 0, 17)
    m = network.build_model(cfg, asn, 17, dtype=np.float64)
    rng = SplitMix64(18)
    for name, b in m.params.items():
        if name.endswith(".b"):
            b += (rng.uniform_array(b.size) - 0.5) * 0.1
    for st in m.acts:
        suite._noise_params(st, rng)
    img = rng.uniform_array(2 * 3 * 8 * 8).reshape(2, 3, 8, 8)
    fg = rng.uniform_array(2 * 8 * 8).reshape(2, 8, 8) < 0.4
    target = np.stack([1.0 - fg, fg * 1.0], axis=1)
    return m, img, target, rng


def central_difference(m, img, target, direction, h=1e-6):
    """(L(p + h*v) - L(p - h*v)) / 2h of the dice loss along ``direction``
    (a dict over some of the parameter keys); restores the parameters."""
    params = m.parameters()
    base = {k: params[k].copy() for k in direction}

    def loss_at(t):
        for k, v in direction.items():
            params[k][...] = base[k] + t * v
        return losses.dice_loss(network.forward(m, img)[0], target)[0]

    try:
        return (loss_at(h) - loss_at(-h)) / (2 * h)
    finally:
        for k, v in base.items():
            params[k][...] = v


PYRAMID_CONV_KEYS = [f"{name}.w" for name, _ in network._conv_layers(pyramid_config((1, 3)))]


def directional_error(key):
    """Relative error of ``network.backward``'s derivative of the dice loss
    along a random direction in ``key`` alone, on the two-branch pyramid."""
    m, img, target, rng = pyramid_problem((1, 3))
    probs, cache = network.forward(m, img)
    _, dprobs = losses.dice_loss(probs, target)
    analytic_grad = network.backward(m, cache, dprobs)[key]
    direction = {key: rng.normal_array(analytic_grad.shape)}
    analytic = float(np.vdot(analytic_grad, direction[key]))
    numeric = central_difference(m, img, target, direction)
    assert abs(analytic) > 1e-6
    return abs(numeric - analytic) / abs(analytic)


class TestGradMap:
    def test_backward_covers_every_parameter(self):
        cfg = small_config()
        asn = network.assign_activations("sto", default_pool(), cfg.site_count, 0, 3)
        m = network.build_model(cfg, asn, 3)
        img = SplitMix64(2).uniform_array(2 * 3 * 16 * 16).reshape(2, 3, 16, 16).astype(np.float32)
        probs, cache = network.forward(m, img)
        grads = network.backward(m, cache, np.ones_like(probs))
        params = m.parameters()
        assert set(grads) == set(params)
        for k in grads:
            assert grads[k].shape == params[k].shape

    def test_cache_lists_site_inputs_in_order(self):
        cfg = small_config()
        asn = network.assign_activations("sto", default_pool(), cfg.site_count, 0, 3)
        m = network.build_model(cfg, asn, 3)
        img = SplitMix64(2).uniform_array(3 * 16 * 16).reshape(1, 3, 16, 16).astype(np.float32)
        _, cache = network.forward(m, img)
        assert [z.shape[1] for z in cache["pre"]] == list(cfg.site_channels())
        # site 0 is the whole first stage, so its output is the next stage's input
        np.testing.assert_array_equal(act_forward(cache["pre"][0], m.acts[0]), cache["xs"][1])

    @pytest.mark.parametrize("dilations", [(2,), (1, 3)])
    def test_backward_matches_central_difference(self, dilations):
        """Directional derivative of the dice loss along a random direction in
        every parameter, float64, on one- and two-branch pyramids."""
        m, img, target, rng = pyramid_problem(dilations)
        probs, cache = network.forward(m, img)
        # steps of h = 1e-6 move pre-activations by ~1e-5, so no kink is crossed
        assert suite._min_kink_distance(m, cache) > 1e-4
        _, dprobs = losses.dice_loss(probs, target)
        grads = network.backward(m, cache, dprobs)
        params = m.parameters()
        direction = {k: rng.normal_array(v.shape) for k, v in params.items()}
        analytic = sum(float(np.vdot(grads[k], direction[k])) for k in params)
        numeric = central_difference(m, img, target, direction)
        assert abs(analytic) > 1e-3
        assert abs(numeric - analytic) <= 1e-7 * abs(analytic)

    @pytest.mark.parametrize("key", PYRAMID_CONV_KEYS)
    def test_each_conv_weight_matches_central_difference(self, key):
        """The same check along a direction in one conv weight only. Unlike
        the gradient suite's end-to-end row, whose relative error floors its
        denominator at 1, this sees a 10% error in a small gradient."""
        assert directional_error(key) <= 1e-6

    def test_each_conv_weight_check_sees_a_tenth_off(self, monkeypatch):
        backward = network.backward

        def skewed(model, cache, dprobs):
            grads = backward(model, cache, dprobs)
            grads["stem.w"] = grads["stem.w"] * 1.1
            return grads

        monkeypatch.setattr(network, "backward", skewed)
        assert directional_error("stem.w") > 1e-6


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        cfg = small_config()
        asn = network.assign_activations("sto", default_pool(), cfg.site_count, 0, 21)
        m = network.build_model(cfg, asn, 21)
        # make the learnable activation params non-trivial before saving
        for st in m.acts:
            if st.params.size:
                st.params += 0.125
        path = tmp_path / "model.npz"
        network.save_model(path, m)
        m2 = network.load_model(path)
        assert m2.config == m.config
        assert m2.assignment == m.assignment
        assert m2.init_seed == m.init_seed
        for k in m.params:
            np.testing.assert_array_equal(m.params[k], m2.params[k])
        for a, b in zip(m.acts, m2.acts):
            np.testing.assert_array_equal(a.params, b.params)

    def test_loaded_model_predicts_identically(self, tmp_path):
        cfg = small_config()
        m = network.build_model(cfg, relu_assignment(cfg), 4)
        network.save_model(tmp_path / "m.npz", m)
        m2 = network.load_model(tmp_path / "m.npz")
        img = SplitMix64(3).uniform_array(3 * 16 * 16).reshape(3, 16, 16).astype(np.float32)
        np.testing.assert_array_equal(network.predict_batch(m, img[None])[0],
                                      network.predict_batch(m2, img[None])[0])

    def test_rejects_non_checkpoint(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, __meta__=np.array('{"format": "other"}'), x=np.zeros(3))
        with pytest.raises(ValueError, match="checkpoint"):
            network.load_model(path)


def _meta_edit(edit):
    """Tamper that rewrites the JSON metadata with ``edit(meta)``."""
    def tamper(arrays):
        meta = json.loads(str(arrays["__meta__"]))
        edit(meta)
        arrays["__meta__"] = np.array(json.dumps(meta))
    return tamper


# name -> (edit of the saved arrays, key the error must name)
TAMPERS = {
    "wrong_weight_shape": (lambda a: a.update({"param:down1.w": a["param:down1.w"][:, :-1]}),
                           "param:down1.w"),
    "wrong_bias_dtype": (lambda a: a.update({"param:stem.b": a["param:stem.b"].astype(np.float64)}),
                         "param:stem.b"),
    "wrong_act_shape": (lambda a: a.update({"act:6": np.zeros((a["act:6"].shape[0] + 1, 8))}),
                        "act:6"),
    "missing_bias": (lambda a: a.pop("param:head.b"), "param:head.b"),
    "missing_act": (lambda a: a.pop("act:3"), "act:3"),
    "missing_meta": (lambda a: a.pop("__meta__"), "__meta__"),
    "unexpected_array": (lambda a: a.update({"param:extra.w": np.zeros(2, np.float32)}),
                         "param:extra.w"),
    "short_assignment": (_meta_edit(lambda m: m["assignment"].pop()), "assignment"),
    "missing_dtype": (_meta_edit(lambda m: m.pop("dtype")), "dtype"),
}


def tampered_checkpoint(tmp_path, name):
    cfg = small_config()
    asn = network.assign_activations("sto", default_pool(), cfg.site_count, 0, 21)
    good = tmp_path / "good.npz"
    network.save_model(good, network.build_model(cfg, asn, 21))
    with np.load(good) as data:
        arrays = {k: data[k] for k in data.files}
    edit, key = TAMPERS[name]
    edit(arrays)
    bad = tmp_path / f"{name}.npz"
    np.savez(bad, **arrays)
    return bad, key


def npy_bytes():
    """The bytes np.save writes: a bare .npy array, which np.load returns as is."""
    buf = io.BytesIO()
    np.save(buf, np.zeros(3))
    return buf.getvalue()


# name -> bytes of a file that is not a readable .npz archive
UNREADABLE = {"zip_garbage": b"PK\x03\x04garbage", "empty": b"",
              "text": b"not a checkpoint\n", "npy": npy_bytes()}


class TestCheckpointValidation:
    @pytest.mark.parametrize("name", sorted(TAMPERS))
    def test_rejected_naming_file_and_key(self, tmp_path, name):
        bad, key = tampered_checkpoint(tmp_path, name)
        with pytest.raises(ValueError, match=re.escape(key)) as err:
            network.load_model(bad)
        assert str(bad) in str(err.value)

    @pytest.mark.parametrize("name", sorted(UNREADABLE))
    def test_unreadable_file_rejected_naming_file(self, tmp_path, name):
        bad = tmp_path / f"{name}.npz"
        bad.write_bytes(UNREADABLE[name])
        with pytest.raises(ValueError, match="unreadable") as err:
            network.load_model(bad)
        assert str(bad) in str(err.value)

    def test_corrupt_array_rejected_naming_file(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "flipped.npz"
        network.save_model(path, network.build_model(cfg, relu_assignment(cfg), 1))
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # inside an array's payload: its CRC no longer matches
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="CRC") as err:
            network.load_model(path)
        assert str(path) in str(err.value)

    def test_cli_reports_unreadable_checkpoint(self, tmp_path, capsys):
        bad = tmp_path / "zip_garbage.npz"
        bad.write_bytes(UNREADABLE["zip_garbage"])
        code = cli.main(["eval", "--out", str(tmp_path / "out"), "--checkpoint", str(bad)])
        assert code == 1
        assert str(bad) in capsys.readouterr().err

    def test_cli_reports_bad_checkpoint(self, tmp_path, capsys):
        bad, key = tampered_checkpoint(tmp_path, "missing_act")
        code = cli.main(["eval", "--out", str(tmp_path / "out"), "--checkpoint", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert str(bad) in err and key in err
