import numpy as np
import pytest

from stoseg import network, suite
from stoseg.activations import ActivationKind
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
from stoseg.rng import SplitMix64


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
        backward, calls = network.backward, []

        def last_step_inf(model, cache, dprobs):
            grads = backward(model, cache, dprobs)
            calls.append(1)
            if len(calls) == 4:  # 2 epochs of 2 batches: the last step
                grads["head.b"] = np.full_like(grads["head.b"], np.inf)
            return grads

        monkeypatch.setattr(network, "backward", last_step_inf)
        with pytest.raises(TrainingDiverged, match="'head.b'"):
            train_model(model, samples, TrainConfig(epochs=2, batch_size=4))
        assert len(calls) == 4

    def test_weighted_ce_training_runs(self):
        samples, model = tiny_setup(6)
        _, hist = train_model(
            model, samples,
            TrainConfig(epochs=2, batch_size=4, loss="weighted_ce",
                        class_weights=(1.0, 2.0)),
        )
        assert len(hist) == 2
