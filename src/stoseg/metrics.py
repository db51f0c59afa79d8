"""Confusion counts and the six binary-segmentation scores (Dice is F1).

Division-by-zero conventions: when prediction and ground truth are both
empty, the overlap ratios (precision, recall, f2, iou, dice) are all
1.0 -- correctly predicting absence counts as a perfect score. When
exactly one of them is empty, the affected ratios are 0.0.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence, Tuple

import numpy as np

CSV_COLUMNS = ("IoU", "Dice", "F2", "Precision", "Recall", "Accuracy")


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricReport:
    accuracy: float
    precision: float
    recall: float
    f2: float
    iou: float
    dice: float

    def csv_values(self) -> Tuple[float, ...]:
        """Values in CSV column order (see CSV_COLUMNS)."""
        return (self.iou, self.dice, self.f2, self.precision, self.recall, self.accuracy)


def confusion(pred: np.ndarray, gt: np.ndarray) -> ConfusionCounts:
    """Exact pixel counts of a binary prediction against a binary mask."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"prediction shape {pred.shape} != ground truth shape {gt.shape}")
    for name, m in (("prediction", pred), ("ground truth", gt)):
        if not ((m == 0) | (m == 1)).all():  # no sort: np.unique only for the message
            raise ValueError(f"{name} mask is not binary (values {np.unique(m)[:8]})")
    p = pred.astype(bool)
    g = gt.astype(bool)
    return ConfusionCounts(
        tp=int(np.count_nonzero(p & g)),
        tn=int(np.count_nonzero(~p & ~g)),
        fp=int(np.count_nonzero(p & ~g)),
        fn=int(np.count_nonzero(~p & g)),
    )


def metrics_from_counts(c: ConfusionCounts) -> MetricReport:
    if c.total <= 0:
        raise ValueError("confusion counts are all zero")
    tp, tn, fp, fn = c.tp, c.tn, c.fp, c.fn
    accuracy = (tp + tn) / c.total
    pred_pos = tp + fp
    gt_pos = tp + fn
    if pred_pos == 0 and gt_pos == 0:
        one = 1.0
        return MetricReport(accuracy, one, one, one, one, one)
    precision = tp / pred_pos if pred_pos else 0.0
    recall = tp / gt_pos if gt_pos else 0.0
    f2_den = 4 * precision + recall
    f2 = 5 * precision * recall / f2_den if f2_den > 0 else 0.0
    iou = tp / (tp + fp + fn)
    dice = 2 * tp / (2 * tp + fp + fn)
    return MetricReport(accuracy, precision, recall, f2, iou, dice)


def evaluate_set(pairs: Sequence[tuple[np.ndarray, np.ndarray]]) -> MetricReport:
    """Macro average: one report per (pred, gt) image pair, then the mean.

    This is deliberately NOT the pooled-count metric; images of different
    sizes contribute equally.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("cannot evaluate an empty set of mask pairs")
    reports = [metrics_from_counts(confusion(p, g)) for p, g in pairs]
    k = len(reports)
    return MetricReport(**{
        f.name: sum(getattr(r, f.name) for r in reports) / k for f in fields(MetricReport)
    })
