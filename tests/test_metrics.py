import numpy as np
import pytest

from oracles import confusion_naive, metrics_naive
from stoseg.metrics import (
    ConfusionCounts,
    confusion,
    evaluate_set,
    metrics_from_counts,
)
from stoseg.rng import SplitMix64


def random_masks(seed, shape=(8, 8)):
    rng = SplitMix64(seed)
    n = int(np.prod(shape))
    pred = (rng.uniform_array(n) < 0.5).astype(np.uint8).reshape(shape)
    gt = (rng.uniform_array(n) < 0.5).astype(np.uint8).reshape(shape)
    return pred, gt


class TestConfusion:
    def test_hand_counted_four_pixels(self):
        pred = np.array([[1, 1], [0, 0]], dtype=np.uint8)
        gt = np.array([[1, 0], [1, 0]], dtype=np.uint8)
        c = confusion(pred, gt)
        assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 1)

    def test_identical_masks(self):
        pred, _ = random_masks(1)
        c = confusion(pred, pred)
        assert c.fp == 0 and c.fn == 0

    def test_complement_masks(self):
        pred, _ = random_masks(2)
        c = confusion(pred, 1 - pred)
        assert c.tp == 0 and c.tn == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            confusion(np.zeros((2, 2), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8))

    def test_non_binary_rejected(self):
        bad = np.array([[0, 2]], dtype=np.uint8)
        with pytest.raises(ValueError, match="binary"):
            confusion(bad, np.zeros((1, 2), dtype=np.uint8))

    @pytest.mark.parametrize("mask", [
        pytest.param(np.array([[0.0, np.nan]]), id="nan"),
        pytest.param(np.array([[1.0, 2.0]]), id="two"),
        pytest.param(np.array([[0.5, 1.0]]), id="half"),
        pytest.param(np.array([[-0.0, 1.0]]), id="negative_zero"),
        pytest.param(np.array([[-0.0, -0.0]]), id="all_negative_zero"),
        pytest.param(np.array([[True, False]]), id="bool"),
        pytest.param(np.array([[1, 0]], dtype=np.int64), id="int"),
        pytest.param(np.zeros((0, 2)), id="empty"),
    ])
    def test_binary_rule_is_the_unique_rule(self, mask):
        """Exactly the masks whose distinct values are all in (0, 1) pass."""
        want = np.isin(np.unique(mask), (0, 1)).all()
        zeros = np.zeros(mask.shape, dtype=np.uint8)
        for pred, gt, name in ((mask, zeros, "prediction"), (zeros, mask, "ground truth")):
            if want:
                assert confusion(pred, gt).total == mask.size
            else:
                message = f"{name} mask is not binary (values {np.unique(mask)[:8]})"
                with pytest.raises(ValueError) as info:
                    confusion(pred, gt)
                assert str(info.value) == message

    def test_counts_total_matches_pixels(self):
        pred, gt = random_masks(3, (13, 7))
        assert confusion(pred, gt).total == 13 * 7


class TestMetricsFromCounts:
    def test_balanced_hand_case(self):
        r = metrics_from_counts(ConfusionCounts(tp=1, tn=1, fp=1, fn=1))
        assert r.accuracy == 0.5
        assert r.precision == 0.5
        assert r.recall == 0.5
        assert r.f2 == 0.5
        assert r.iou == pytest.approx(1 / 3)
        assert r.dice == 0.5

    def test_perfect_prediction(self):
        r = metrics_from_counts(ConfusionCounts(tp=10, tn=0, fp=0, fn=0))
        assert (r.accuracy, r.precision, r.recall, r.f2, r.iou, r.dice) == (
            1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
        )

    def test_second_hand_case(self):
        r = metrics_from_counts(ConfusionCounts(tp=2, tn=60, fp=1, fn=1))
        assert r.iou == 0.5
        assert r.dice == pytest.approx(2 / 3)
        assert r.precision == pytest.approx(2 / 3)
        assert r.recall == pytest.approx(2 / 3)
        assert r.f2 == pytest.approx(2 / 3)  # p == r forces dice == f2 == p
        assert r.accuracy == 62 / 64

    def test_both_empty_convention(self):
        r = metrics_from_counts(ConfusionCounts(tp=0, tn=9, fp=0, fn=0))
        assert (r.precision, r.recall, r.f2, r.iou, r.dice) == (
            1.0, 1.0, 1.0, 1.0, 1.0,
        )
        assert r.accuracy == 1.0

    def test_one_empty_convention(self):
        # empty ground truth, non-empty prediction
        r = metrics_from_counts(ConfusionCounts(tp=0, tn=5, fp=3, fn=0))
        assert (r.precision, r.recall, r.f2, r.iou, r.dice) == (
            0.0, 0.0, 0.0, 0.0, 0.0,
        )
        # empty prediction, non-empty ground truth
        r = metrics_from_counts(ConfusionCounts(tp=0, tn=5, fp=0, fn=3))
        assert (r.precision, r.recall, r.f2, r.iou, r.dice) == (
            0.0, 0.0, 0.0, 0.0, 0.0,
        )

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            metrics_from_counts(ConfusionCounts(0, 0, 0, 0))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1, tn=0, fp=0, fn=0)


class TestOracleAgreement:
    def test_1000_random_pairs_match_brute_force(self):
        for seed in range(1000):
            pred, gt = random_masks(seed)
            c = confusion(pred, gt)
            tp, tn, fp, fn = confusion_naive(pred, gt)
            assert (c.tp, c.tn, c.fp, c.fn) == (tp, tn, fp, fn)
            got = metrics_from_counts(c)
            want = metrics_naive(tp, tn, fp, fn)
            for name, w in want.items():
                assert abs(getattr(got, name) - w) <= 1e-12, (seed, name)


class TestIdentities:
    def test_dice_equals_f1_and_iou_relation(self):
        rng = SplitMix64(71)
        for _ in range(1000):
            tp, tn, fp, fn = (rng.below(50) for _ in range(4))
            if tp + tn + fp + fn == 0:
                continue
            r = metrics_from_counts(ConfusionCounts(tp, tn, fp, fn))
            if tp + fp + fn > 0:  # non-degenerate
                assert r.dice == 2 * tp / (2 * tp + fp + fn)  # F1
                assert r.dice == pytest.approx(2 * r.iou / (1 + r.iou), abs=1e-12)
            assert r.iou <= r.dice
            for v in (r.accuracy, r.precision, r.recall, r.f2, r.iou, r.dice):
                assert 0.0 <= v <= 1.0


class TestEvaluateSet:
    def test_single_pair_is_its_own_report(self):
        pred, gt = random_masks(5)
        single = metrics_from_counts(confusion(pred, gt))
        assert evaluate_set([(pred, gt)]) == single

    def test_mean_of_two(self):
        a = np.ones((2, 2), dtype=np.uint8)
        b = np.array([[1, 1], [0, 0]], dtype=np.uint8)
        # pair 1 dice 1.0; pair 2 dice 2*2/(2*2+2) = 2/3... use half overlap
        r = evaluate_set([(a, a), (b, a)])
        d2 = metrics_from_counts(confusion(b, a)).dice
        assert r.dice == pytest.approx((1.0 + d2) / 2)

    def test_empty_pair_contributes_ones(self):
        z = np.zeros((3, 3), dtype=np.uint8)
        pred, gt = random_masks(6)
        alone = evaluate_set([(pred, gt)])
        with_empty = evaluate_set([(pred, gt), (z, z)])
        assert with_empty.dice == pytest.approx((alone.dice + 1.0) / 2)
        assert with_empty.iou == pytest.approx((alone.iou + 1.0) / 2)

    def test_macro_differs_from_pooled(self):
        # a small perfect image and a large poor one
        small = np.ones((2, 2), dtype=np.uint8)
        big_pred = np.zeros((10, 10), dtype=np.uint8)
        big_pred[0, 0] = 1
        big_gt = np.ones((10, 10), dtype=np.uint8)
        macro = evaluate_set([(small, small), (big_pred, big_gt)])
        tp = 4 + 1
        fp = 0
        fn = 99
        pooled_dice = 2 * tp / (2 * tp + fp + fn)
        assert macro.dice != pytest.approx(pooled_dice)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            evaluate_set([])
