import sys
import threading

import numpy as np
import pytest

from stoseg import losses, network, suite
from stoseg.activations import ActivationKind, default_pool
from stoseg.data import synth_blobs
from stoseg.losses import (
    DICE_EPS,
    TrainConfig,
    TrainingDiverged,
    dice_loss,
    dice_per_sample,
    sgd_step,
    train_model,
    weighted_ce,
    weighted_ce_per_sample,
)
from stoseg.rng import SplitMix64, derive_seed


def half_foreground_target(h=8, w=8):
    fg = np.zeros((h, w))
    fg[: h // 2] = 1.0
    return np.stack([1.0 - fg, fg])


class TestDiceLoss:
    def test_perfect_overlap_is_zero(self):
        target = half_foreground_target()[None]
        loss, _ = dice_loss(target.copy(), target)
        assert loss == 0.0  # the eps terms cancel exactly when p == g

    def test_uniform_half_probs(self):
        target = half_foreground_target()[None]
        probs = np.full_like(target, 0.5)
        n = target[0, 0].size
        # direct substitution: per class, num = 2*(0.5*n/2) + eps, den = n + eps
        expected = 1.0 - (0.5 * n + DICE_EPS) / (n + DICE_EPS)
        loss, _ = dice_loss(probs, target)
        assert loss == pytest.approx(expected, abs=1e-12)
        assert loss == pytest.approx(0.5, abs=1e-6)

    def test_gradient_matches_central_differences(self):
        worst = max(suite.check_dice(s) for s in range(20))
        assert worst <= 1e-4

    def test_pixel_permutation_invariance(self):
        rng = SplitMix64(4)
        probs_fg = rng.uniform_array(64).reshape(8, 8)
        probs = np.stack([1 - probs_fg, probs_fg])
        target = half_foreground_target()
        loss, _ = dice_loss(probs[None], target[None])
        perm = list(range(64))
        SplitMix64(5).shuffle(perm)
        p2 = probs.reshape(2, -1)[:, perm].reshape(2, 8, 8)
        t2 = target.reshape(2, -1)[:, perm].reshape(2, 8, 8)
        loss2, _ = dice_loss(p2[None], t2[None])
        assert loss == pytest.approx(loss2, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            dice_loss(np.zeros((1, 2, 4, 4)), np.zeros((1, 2, 4, 5)))

    def test_batch_is_mean_of_samples(self):
        rng = SplitMix64(6)
        t1, t2 = half_foreground_target(), half_foreground_target()
        p1 = rng.uniform_array(128).reshape(2, 8, 8)
        p2 = rng.uniform_array(128).reshape(2, 8, 8)
        l1, g1 = dice_loss(p1[None], t1[None])
        l2, g2 = dice_loss(p2[None], t2[None])
        lb, gb = dice_loss(np.stack([p1, p2]), np.stack([t1, t2]))
        assert lb == pytest.approx((l1 + l2) / 2, abs=1e-12)
        np.testing.assert_allclose(gb, np.concatenate([g1, g2]) / 2, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 3])
    def test_per_sample_losses_are_each_map_alone(self, n):
        """dice_loss is their mean, and each equals the map's loss on its
        own, bit for bit, which the batched end-to-end gradient check
        relies on."""
        rng = SplitMix64(7 + n)
        probs = rng.uniform_array(n * 128).reshape(n, 2, 8, 8)
        target = np.stack([half_foreground_target()] * n)
        per = dice_per_sample(probs, target)
        assert per.shape == (n,)
        assert float(np.mean(per)) == dice_loss(probs, target)[0]
        assert [float(v) for v in per] == [dice_loss(p[None], t[None])[0]
                                           for p, t in zip(probs, target)]
        with pytest.raises(ValueError, match="batch"):
            dice_per_sample(probs[0], target[0])

    def test_single_map_rejected(self):
        target = half_foreground_target()
        with pytest.raises(ValueError, match="batch"):
            dice_loss(target.copy(), target)
        with pytest.raises(ValueError, match="batch"):
            weighted_ce(target.copy(), target, (1.0, 1.0))


class TestWeightedCE:
    def test_correct_class_probability_one(self):
        target = half_foreground_target()[None]
        loss, _ = weighted_ce(target.copy(), target, (1.0, 1.0))
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_uniform_probs_give_ln2(self):
        target = half_foreground_target()[None]
        probs = np.full_like(target, 0.5)
        loss, _ = weighted_ce(probs, target, (1.0, 1.0))
        assert loss == pytest.approx(np.log(2.0), abs=1e-9)

    def test_foreground_weight_scales_only_foreground(self):
        target = half_foreground_target()
        rng = SplitMix64(8)
        fg = 0.2 + 0.6 * rng.uniform_array(64).reshape(8, 8)
        probs = np.stack([1 - fg, fg])[None]
        target = target[None]
        base, _ = weighted_ce(probs, target, (1.0, 1.0))
        bg_only, _ = weighted_ce(probs, target, (1.0, 1e-9))
        doubled, _ = weighted_ce(probs, target, (1.0, 2.0))
        fg_part = base - bg_only
        assert doubled == pytest.approx(bg_only + 2 * fg_part, rel=1e-6)

    def test_non_positive_weight_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            weighted_ce(np.full((1, 2, 2, 2), 0.5), half_foreground_target(2, 2)[None],
                        (1.0, 0.0))

    @pytest.mark.parametrize("n", [1, 3])
    def test_per_sample_losses_are_each_map_alone(self, n):
        """weighted_ce is their mean, and each equals weighted_ce of the map
        on its own, bit for bit, which the batched loss check relies on."""
        rng = SplitMix64(17 + n)
        probs = 0.05 + 0.9 * rng.uniform_array(n * 128).reshape(n, 2, 8, 8)
        target = np.stack([half_foreground_target()] * n)
        per = weighted_ce_per_sample(probs, target, (0.5, 2.0))
        assert per.shape == (n,)
        assert [float(v) for v in per] == [weighted_ce(p[None], t[None], (0.5, 2.0))[0]
                                           for p, t in zip(probs, target)]
        assert float(np.mean(per)) == weighted_ce(probs, target, (0.5, 2.0))[0]
        with pytest.raises(ValueError, match="positive"):
            weighted_ce_per_sample(probs, target, (0.0, 1.0))

    def test_gradient_matches_central_differences(self):
        worst = max(suite.check_weighted_ce(s) for s in range(20))
        assert worst <= 1e-4


class TestSgd:
    def test_single_step_no_momentum(self):
        p = {"w": np.array([1.0])}
        sgd_step(p, {"w": np.array([0.5])}, lr=0.01, momentum=0.0, velocity={})
        assert p["w"][0] == pytest.approx(0.995)

    def test_zero_gradient_is_a_fixed_point(self):
        p = {"w": np.array([3.0, -2.0])}
        sgd_step(p, {"w": np.zeros(2)}, lr=0.1, momentum=0.9, velocity={})
        np.testing.assert_array_equal(p["w"], [3.0, -2.0])

    def test_two_momentum_steps_unrolled(self):
        p = {"w": np.array([0.0])}
        vel = {}
        g = {"w": np.array([1.0])}
        sgd_step(p, g, lr=0.1, momentum=0.9, velocity=vel)
        assert p["w"][0] == pytest.approx(-0.1)
        sgd_step(p, g, lr=0.1, momentum=0.9, velocity=vel)
        assert vel["w"][0] == pytest.approx(1.9)
        assert p["w"][0] == pytest.approx(-0.29)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            sgd_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, 0.1, 0.9, {})


def tiny_setup(seed=0, n=12, size=16):
    ds = synth_blobs(n, size, seed)
    cfg = network.NetworkConfig(input_size=size, stem_width=4, down_width=8,
                                aspp_width=4, fuse_width=8)
    asn = tuple([ActivationKind.RELU] * cfg.site_count)
    model = network.build_model(cfg, asn, seed + 1)
    return list(ds), model


class TestTrainModel:
    def test_bit_identical_across_runs(self):
        cfg = TrainConfig(epochs=2, batch_size=4, shuffle_seed=3)
        samples, _ = tiny_setup()
        _, m1 = tiny_setup()
        _, m2 = tiny_setup()
        m1, h1 = train_model(m1, samples, cfg)
        m2, h2 = train_model(m2, samples, cfg)
        assert h1 == h2
        for k, v in m1.parameters().items():
            np.testing.assert_array_equal(v, m2.parameters()[k])

    def test_history_length_and_finiteness(self):
        samples, model = tiny_setup(1)
        _, hist = train_model(model, samples, TrainConfig(epochs=3, batch_size=4))
        assert len(hist) == 3
        assert all(np.isfinite(v) for v in hist)

    def test_loss_decreases_on_easy_data(self):
        samples, model = tiny_setup(2, n=16)
        _, hist = train_model(model, samples, TrainConfig(epochs=6, batch_size=4))
        assert hist[-1] < hist[0]

    def test_epochs_zero_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("lr", [0.0, -0.1, np.nan, np.inf, -np.inf])
    def test_bad_learning_rate_rejected(self, lr):
        with pytest.raises(ValueError, match="learning rate"):
            TrainConfig(learning_rate=lr)

    @pytest.mark.parametrize("momentum", [-0.1, np.nan, np.inf])
    def test_bad_momentum_rejected(self, momentum):
        with pytest.raises(ValueError, match="momentum"):
            TrainConfig(momentum=momentum)

    def test_zero_momentum_accepted(self):
        assert TrainConfig(momentum=0.0).momentum == 0.0

    @pytest.mark.parametrize("weights", [(1.0, -2.0), (0.0, 1.0), (1.0, np.nan),
                                         (np.inf, 1.0), (1.0,), (1.0, 1.0, 1.0)])
    def test_bad_class_weights_rejected(self, weights):
        # checked for either loss: dice ignores the weights, so a bad value
        # there would pass unseen
        with pytest.raises(ValueError, match="class weights"):
            TrainConfig(class_weights=weights)

    def test_empty_dataset_rejected(self):
        _, model = tiny_setup(3)
        with pytest.raises(ValueError, match="empty"):
            train_model(model, [], TrainConfig(epochs=1))

    def test_wrong_sample_size_rejected(self):
        samples, model = tiny_setup(4)
        big = synth_blobs(1, 32, 0)[0]
        with pytest.raises(ValueError, match="shape"):
            train_model(model, [big], TrainConfig(epochs=1))

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_nonfinite_loss_aborts_with_location(self):
        samples, model = tiny_setup(5)
        model.params["stem.w"][...] = np.inf
        with pytest.raises(TrainingDiverged, match="epoch 0, batch 0"):
            train_model(model, samples, TrainConfig(epochs=1, batch_size=4))

    def test_nonfinite_last_step_raises_naming_the_parameter(self, monkeypatch):
        samples, model = tiny_setup(7, n=8)
        step, steps = losses.sgd_step, []

        def last_step_inf(params, grads, *args):
            steps.append(1)
            if len(steps) == 4:  # 2 epochs of 2 batches: the last step
                grads = {**grads, "head.b": np.full_like(grads["head.b"], np.inf)}
            return step(params, grads, *args)

        monkeypatch.setattr(losses, "sgd_step", last_step_inf)
        with pytest.raises(TrainingDiverged, match="'head.b'"):
            train_model(model, samples, TrainConfig(epochs=2, batch_size=4))
        assert len(steps) == 4

    def test_weighted_ce_training_runs(self):
        samples, model = tiny_setup(6)
        _, hist = train_model(
            model, samples,
            TrainConfig(epochs=2, batch_size=4, loss="weighted_ce",
                        class_weights=(1.0, 2.0)),
        )
        assert len(hist) == 2


def sto_setup(seed, n):
    """Samples and a tiny model whose sites draw from the whole pool, so the
    GradMap holds activation parameters too."""
    samples, model = tiny_setup(seed, n)
    asn = network.assign_activations(default_pool(), model.config.site_count, seed)
    return samples, network.build_model(model.config, asn, seed + 1)


def first_epoch_order(n, shuffle_seed):
    """The sample order of train_model's first epoch."""
    erng = SplitMix64(SplitMix64(derive_seed(shuffle_seed, losses._TRAIN_TAG)).next_u64())
    order = list(range(n))
    erng.shuffle(order)
    return order


def parameter_bytes(model):
    return {k: v.tobytes() for k, v in model.parameters().items()}


class TestSplitStep:
    """A minibatch of 4 or more images runs as two halves, the second in a
    worker thread when the policy allows; the bits do not depend on it."""

    def test_threaded_and_caller_only_halves_give_the_same_bytes(self, monkeypatch):
        forward, threads = network.forward, set()

        def recording_forward(model, images, **kwargs):
            threads.add(threading.get_ident())
            return forward(model, images, **kwargs)

        monkeypatch.setattr(network, "forward", recording_forward)
        cfg = TrainConfig(epochs=2, batch_size=5, shuffle_seed=4)  # halves of 3 and 2, then 2 whole
        results = {}
        for allowed in (True, False):
            monkeypatch.setattr(network, "_use_second_thread", lambda: allowed)
            samples, model = sto_setup(8, 12)
            threads.clear()
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # the threads hand the GIL over at nearly every bytecode
            try:
                _, history = train_model(model, samples, cfg)
            finally:
                sys.setswitchinterval(interval)
            assert len(threads) == (2 if allowed else 1)
            results[allowed] = parameter_bytes(model), history
        assert results[True] == results[False]

    @pytest.mark.parametrize("allowed", [True, False])
    def test_batch_of_three_is_one_whole_batch_step(self, monkeypatch, allowed):
        monkeypatch.setattr(network, "_use_second_thread", lambda: allowed)
        samples, model = sto_setup(9, 3)
        cfg = TrainConfig(epochs=1, batch_size=3, augment=False, shuffle_seed=2)
        _, want = sto_setup(9, 3)
        images, targets = losses._batch_arrays(samples, first_epoch_order(3, 2), want.dtype)
        probs, cache = network.forward(want, images)
        loss, dprobs = dice_loss(probs, targets)
        sgd_step(want.parameters(), network.backward(want, cache, dprobs),
                 cfg.learning_rate, cfg.momentum, {})
        _, history = train_model(model, samples, cfg)
        assert history == [loss * 3 / 3]
        assert parameter_bytes(model) == parameter_bytes(want)

    def test_batch_of_eight_keeps_the_loss_and_sums_the_halves(self, monkeypatch):
        samples, model = sto_setup(10, 8)
        cfg = TrainConfig(epochs=1, batch_size=8, augment=False, shuffle_seed=5)
        images, targets = losses._batch_arrays(samples, first_epoch_order(8, 5), model.dtype)
        probs, cache = network.forward(model, images)
        loss, dprobs = dice_loss(probs, targets)
        whole = network.backward(model, cache, dprobs)
        forward, backward, rows, steps = network.forward, network.backward, [], []

        def recording_forward(model, images, **kwargs):
            rows.append(len(images))
            return forward(model, images, **kwargs)

        def recording_backward(model, cache, dprobs):
            rows.append(len(dprobs))
            return backward(model, cache, dprobs)

        monkeypatch.setattr(network, "forward", recording_forward)
        monkeypatch.setattr(network, "backward", recording_backward)
        monkeypatch.setattr(losses, "sgd_step", lambda params, grads, *args: steps.append(grads))
        _, history = train_model(model, samples, cfg)
        assert sorted(rows) == [4, 4, 4, 4]
        assert history == [loss * 8 / 8]
        (grads,) = steps
        assert grads.keys() == whole.keys()
        for key, g in grads.items():
            assert g.dtype == whole[key].dtype and g.shape == whole[key].shape
            scale = np.abs(whole[key]).max(initial=0.0)
            assert np.abs(g - whole[key]).max(initial=0.0) <= 1e-6 * scale, key

    @pytest.mark.parametrize("fn", ["forward", "backward"])
    @pytest.mark.parametrize("fails", [("worker",), ("caller",), ("caller", "worker")])
    def test_a_failing_half_raises_and_leaves_no_thread(self, monkeypatch, fn, fails):
        monkeypatch.setattr(network, "_use_second_thread", lambda: True)
        samples, model = tiny_setup(11, n=8)
        cfg = TrainConfig(epochs=1, batch_size=8)
        caller, original = threading.get_ident(), getattr(network, fn)

        def failing(*args, **kwargs):
            who = "caller" if threading.get_ident() == caller else "worker"
            if who in fails:
                raise RuntimeError(f"{fn} of the {who}'s half")
            return original(*args, **kwargs)

        threads = threading.active_count()
        with monkeypatch.context() as patch:
            patch.setattr(network, fn, failing)
            with pytest.raises(RuntimeError, match=f"{fn} of the {fails[0]}'s half"):
                train_model(model, samples, cfg)
        assert threading.active_count() == threads
        train_model(model, samples, cfg)
        assert threading.active_count() == threads
