import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from stoseg import cli, losses, network, ops, suite
from stoseg.activations import ActivationKind, act_forward, act_init, default_pool
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

    def test_layer_table_is_built_once_and_not_compared(self):
        cfg, fresh = network.NetworkConfig(), network.NetworkConfig()
        assert cfg.stages is cfg.stages and cfg.head is cfg.head
        assert cfg == fresh and hash(cfg) == hash(fresh)
        assert dataclasses.asdict(cfg) == dataclasses.asdict(fresh)


class TestAssignActivations:
    def test_is_seed_deterministic(self):
        pool = default_pool()
        a = network.assign_activations(pool, 7, 42)
        assert a == network.assign_activations(pool, 7, 42)
        assert a != network.assign_activations(pool, 7, 43)  # 17^-7 collision odds

    def test_draws_come_from_the_kinds(self):
        """One uniform draw per site from the stream seeded by ``seed``."""
        kinds = default_pool()[3:8]
        rng = SplitMix64(7)
        asn = network.assign_activations(kinds, 20, 7)
        assert asn == tuple(kinds[rng.below(5)] for _ in range(20))
        assert set(asn) <= set(kinds)

    def test_one_kind_fills_every_site(self):
        for seed in (0, 12345):
            asn = network.assign_activations([ActivationKind.ELU], 7, seed)
            assert asn == (ActivationKind.ELU,) * 7

    def test_length_is_the_site_count(self):
        for count in (1, 5, 17):
            for sites in (0, 1, 7):
                assert len(network.assign_activations(default_pool()[:count], sites, 5)) == sites

    def test_empty_kinds_rejected(self):
        with pytest.raises(ValueError, match="n >= 1"):
            network.assign_activations([], 7, 0)


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
        asn = network.assign_activations(default_pool(), cfg.site_count, 5)
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
        asn = network.assign_activations(default_pool(), cfg.site_count, seed)
    m = network.build_model(cfg, asn, seed, dtype=dtype)
    rng = SplitMix64(seed + 1)
    for name, b in m.params.items():
        if name.endswith(".b"):
            b += ((rng.uniform_array(b.size) - 0.5) * 0.5).astype(dtype)
    for st in m.acts:
        suite._noise_params(st, rng)
    return m


def small_images(n, dtype=np.float32):
    return SplitMix64(n).uniform_array(n * 3 * 16 * 16).reshape(n, 3, 16, 16).astype(dtype)


class TestPredictBlocks:
    """predict_batch runs forward over blocks of _PREDICT_BLOCK images, or
    over half-blocks in two threads when there are more images and
    network._use_second_thread allows (two usable CPUs and one BLAS thread)."""

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
        img = small_images(n, dtype)
        for m in self.pool_models(dtype):
            got = network.predict_batch(m, img)
            want, _ = network.forward(m, img)
            assert got.dtype == want.dtype == dtype
            assert np.array_equal(got, want)

    @pytest.fixture(scope="class")
    def default_case(self):
        cfg = network.NetworkConfig()
        img = SplitMix64(15).uniform_array(64 * 3 * 64 * 64).reshape(64, 3, 64, 64)
        return noised_model(cfg, 16, np.float32), img.astype(np.float32)

    @pytest.mark.parametrize("n", [1, 4, 5, 8, 9, 12, 64])
    def test_default_config_equals_one_forward(self, default_case, n):
        m, img = default_case
        got = network.predict_batch(m, img[:n])
        assert got.dtype == np.float32
        assert np.array_equal(got, network.forward(m, img[:n])[0])

    def test_short_switch_interval_keeps_the_bits(self, monkeypatch):
        # the two threads hand the GIL over at nearly every bytecode
        monkeypatch.setattr(network, "_use_second_thread", lambda: True)
        m = noised_model(small_config(), 3, np.float32)
        img = small_images(41)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = network.predict_batch(m, img)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, network.forward(m, img)[0])

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        m = noised_model(small_config(), 4, np.float32)
        img = small_images(17)
        want = network.predict_batch(m, img)

        def no_threads(*args, **kwargs):
            raise AssertionError("a thread pool was created")

        monkeypatch.setattr(network, "_use_second_thread", lambda: False)
        monkeypatch.setattr(network, "ThreadPoolExecutor", no_threads)
        assert network.predict_batch(m, img).tobytes() == want.tobytes()

    @pytest.mark.parametrize("start", [2, 4])  # a block of the worker, then of the caller
    def test_a_failing_block_raises_and_leaves_no_thread(self, monkeypatch, start):
        m = noised_model(small_config(), 5, np.float32)
        img = np.repeat(np.arange(12, dtype=np.float32), 3 * 16 * 16).reshape(12, 3, 16, 16)
        forward = network.forward

        def failing_forward(model, images, **kwargs):
            if images[0, 0, 0, 0] == start:
                raise RuntimeError(f"block at image {start}")
            return forward(model, images, **kwargs)

        monkeypatch.setattr(network, "_use_second_thread", lambda: True)
        threads = threading.active_count()
        with monkeypatch.context() as patch:
            patch.setattr(network, "forward", failing_forward)
            with pytest.raises(RuntimeError, match=f"block at image {start}"):
                network.predict_batch(m, img)
        assert threading.active_count() == threads
        network.predict_batch(m, img)
        assert threading.active_count() == threads

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


class TestWorkerPolicy:
    """One function decides every worker thread: two usable CPUs, and
    numpy's BLAS known to run one thread."""

    @pytest.mark.parametrize("cpus, blas, allowed", [
        (1, 1, False), (2, 2, False), (2, None, False), (2, 1, True), (4, 1, True)])
    def test_cpus_and_blas_threads(self, monkeypatch, cpus, blas, allowed):
        monkeypatch.setattr(network, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(network, "_blas_threads", lambda: blas)
        assert network._use_second_thread() is allowed

    def test_blas_threads_follow_the_environment(self):
        if network._blas_threads() is None:
            pytest.skip("numpy's BLAS is not its bundled OpenBLAS")
        code = "from stoseg import network; print(network._blas_threads())"
        src = str(Path(network.__file__).parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out == "1\n"

    def test_unknown_blas_counts_as_threaded(self, monkeypatch, tmp_path):
        fake = tmp_path / "numpy" / "__init__.py"
        monkeypatch.setattr(network.np, "__file__", str(fake))
        assert network._blas_threads() is None
        (tmp_path / "numpy.libs").mkdir()
        (tmp_path / "numpy.libs" / "libscipy_openblas64_-0.so").write_bytes(b"not a library")
        assert network._blas_threads() is None


class TestVariants:
    """forward(..., variants=[(key, values), ...]) runs one image under B_i
    values of each named parameter array on the batch axis."""

    @staticmethod
    def variant_values(p, dtype, seed, count=3):
        rng = SplitMix64(seed)
        step = (rng.uniform_array(count * p.size).reshape((count,) + p.shape) - 0.5) * 0.2
        return (p[None] + step).astype(dtype)

    @staticmethod
    def image(dtype, seed=5):
        return SplitMix64(seed).uniform_array(3 * 16 * 16).reshape(1, 3, 16, 16).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_a_forward_with_the_values_in_place(self, dtype):
        """Three variants and one of a single key."""
        img = self.image(dtype)
        for m in TestPredictBlocks.pool_models(dtype):
            for i, (key, p) in enumerate(sorted(m.parameters().items())):
                for count in (3, 1):
                    values = self.variant_values(p, dtype, i, count)
                    orig, want = p.copy(), []
                    try:
                        for v in values:
                            p[...] = v
                            want.append(network.forward(m, img)[0][0])
                    finally:
                        p[...] = orig
                    got, _ = network.forward(m, img, variants=[(key, values)])
                    assert got.dtype == dtype and got.shape == (count, 2, 16, 16)
                    for b, w in enumerate(want):
                        assert np.array_equal(got[b], w), (key, count, b)
                    assert np.array_equal(p, orig)

    def assert_rows_are_one_key_forwards(self, m, img, values, order):
        got, _ = network.forward(m, img, variants=[(key, values[key]) for key in order])
        want = [network.forward(m, img, variants=[(key, values[key])])[0] for key in order]
        assert got.shape == (sum(len(values[key]) for key in order), 2, 16, 16)
        assert np.array_equal(got, np.concatenate(want))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_key_in_one_call(self, dtype):
        """Every parameter array of the pool models (all 17 kinds), in
        sorted and in reversed key order: each key's rows are those of its
        one-key forward, in the order given."""
        img = self.image(dtype, 7)
        for m in TestPredictBlocks.pool_models(dtype):
            params = sorted(m.parameters().items())
            values = {key: self.variant_values(p, dtype, i, 1 + i % 3)
                      for i, (key, p) in enumerate(params)}
            for order in (sorted(values), sorted(values, reverse=True)):
                self.assert_rows_are_one_key_forwards(m, img, values, order)

    def test_pyramid_branches_join_next_to_their_neighbours(self):
        """Keys of two of the three pyramid branches, of both convs and
        sites, with keys of the stages before and after the pyramid."""
        cfg = small_config()
        m = noised_model(cfg, 11, asn=tuple([ActivationKind.PRELU] * cfg.site_count))
        img = self.image(np.float64, 12)
        params = m.parameters()
        order = ["fuse.w", "aspp2.b", "act3.params", "down2.b", "aspp0.w", "act5.params",
                 "act2.params", "act6.params", "aspp2.w", "down1.w"]
        values = {key: self.variant_values(params[key], np.float64, i, 2)
                  for i, key in enumerate(order)}
        self.assert_rows_are_one_key_forwards(m, img, values, order)
        self.assert_rows_are_one_key_forwards(m, img, values, order[::-1])

    def test_rejects_what_it_cannot_run(self):
        m = noised_model(small_config(), 3)
        img = SplitMix64(6).uniform_array(2 * 3 * 16 * 16).reshape(2, 3, 16, 16)
        one = img[:1]
        w, b = m.params["down2.w"], m.params["down2.b"]
        cases = [
            (img, [("down2.w", w[None])], "'down2.w' take one image, got 2"),
            (one, [("down2.b", b[None]), ("down3.w", w[None])], "unknown variant key 'down3.w'"),
            (one, [("down2.w", w[None]), ("down2.b", b[None]), ("down2.w", w[None])],
             "variant key 'down2.w' is given twice"),
            (one, [("down2.w", w)],
             r"'down2.w' have shape \(8, 8, 3, 3\), expected \(B >= 1,\) \+ \(8, 8, 3, 3\)"),
            (one, [("down2.b", b[None]), ("down2.w", w[None, :1])], "'down2.w' have shape"),
            (one, [("down2.w", w[None][:0])], r"'down2.w' have shape \(0, 8, 8, 3, 3\)"),
            (one, [], "at least one"),
        ]
        for images, variants, message in cases:
            with pytest.raises(ValueError, match=message):
                network.forward(m, images, variants=variants)


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
        asn = network.assign_activations(default_pool(), cfg.site_count, 61)
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
    asn = network.assign_activations(default_pool(), cfg.site_count, 17)
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
        asn = network.assign_activations(default_pool(), cfg.site_count, 3)
        m = network.build_model(cfg, asn, 3)
        img = SplitMix64(2).uniform_array(2 * 3 * 16 * 16).reshape(2, 3, 16, 16).astype(np.float32)
        probs, cache = network.forward(m, img)
        grads = network.backward(m, cache, np.ones_like(probs))
        params = m.parameters()
        assert set(grads) == set(params)
        for k in grads:
            assert grads[k].shape == params[k].shape

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_parameter_set(self, dtype, tmp_path):
        """The GradMap, ``parameters()`` and the checkpoint hold the same
        arrays, a fixed kind's (0, C) site array included."""
        img = SplitMix64(4).uniform_array(2 * 3 * 16 * 16).reshape(2, 3, 16, 16).astype(dtype)
        for j, m in enumerate(TestPredictBlocks.pool_models(dtype)):
            params = m.parameters()
            probs, cache = network.forward(m, img)
            assert set(network.backward(m, cache, np.ones_like(probs))) == set(params)
            network.save_model(tmp_path / f"m{j}.npz", m)
            with np.load(tmp_path / f"m{j}.npz") as z:
                for i, st in enumerate(m.acts):
                    p, saved = params[f"act{i}.params"], z[f"act:{i}"]
                    assert p is st.params
                    assert saved.dtype == p.dtype and saved.shape == p.shape
                    np.testing.assert_array_equal(saved, p)

    def test_cache_lists_site_inputs_in_order(self):
        cfg = small_config()
        asn = network.assign_activations(default_pool(), cfg.site_count, 3)
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
        asn = network.assign_activations(default_pool(), cfg.site_count, 21)
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

    def test_loaded_sites_read_kind_and_channels_from_their_arrays(self, tmp_path):
        cfg = small_config()
        asn = network.assign_activations(default_pool(), cfg.site_count, 5)
        network.save_model(tmp_path / "m.npz", network.build_model(cfg, asn, 5))
        m = network.load_model(tmp_path / "m.npz")
        with np.load(tmp_path / "m.npz") as z:
            shapes = [z[f"act:{i}"].shape for i in range(cfg.site_count)]
        assert [st.params.shape for st in m.acts] == shapes
        assert tuple(st.channels for st in m.acts) == cfg.site_channels()
        assert m.assignment == asn
        m.acts[0] = act_init(ActivationKind.ELU, 3)
        assert m.assignment == (ActivationKind.ELU,) + asn[1:]
        assert m.acts[0].channels == 3

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
    asn = network.assign_activations(default_pool(), cfg.site_count, 21)
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
