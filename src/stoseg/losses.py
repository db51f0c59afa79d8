"""Training losses, SGD with momentum, and the training loop.

Both losses take a batch (n, c, h, w) of post-softmax probabilities and
return ``(loss, grad)`` with the gradient taken with respect to those
probabilities; the caller chains it through the softmax backward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import network
from .data import Sample, augment as augment_sample, mask_to_onehot
from .rng import SplitMix64, derive_seed

DICE_EPS = 1e-5
CE_EPS = 1e-12

_TRAIN_TAG = 0x7121
_SPLIT_BATCH = 4  # minibatches of this many images or more run as two halves


class TrainingDiverged(RuntimeError):
    """Raised when a non-finite loss or parameter appears during training."""


@dataclass
class TrainConfig:
    epochs: int = 20
    learning_rate: float = 1e-2
    momentum: float = 0.9
    batch_size: int = 8
    loss: str = "dice"
    augment: bool = True
    shuffle_seed: int = 0
    class_weights: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning rate must be finite and > 0, got {self.learning_rate}")
        if not (math.isfinite(self.momentum) and self.momentum >= 0):
            raise ValueError(f"momentum must be finite and >= 0, got {self.momentum}")
        w = self.class_weights
        if len(w) != 2 or not all(math.isfinite(v) and v > 0 for v in w):
            raise ValueError(f"class weights must be two finite values > 0, got {w}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.loss not in ("dice", "weighted_ce"):
            raise ValueError(f"unknown loss {self.loss!r}")


def _check_probs_target(probs, target):
    probs, target = np.asarray(probs), np.asarray(target)
    if probs.shape != target.shape:
        raise ValueError(f"probs shape {probs.shape} != target shape {target.shape}")
    if probs.ndim != 4:
        raise ValueError(f"expected a batch (n, c, h, w), got ndim {probs.ndim}")
    return probs, target


def _dice_parts(probs: np.ndarray, target: np.ndarray):
    """Per-sample losses (n,) of a batch, and the numerators and
    denominators (n, c) of its per-class ratios."""
    inter = (probs * target).sum(axis=(2, 3))  # (n, c)
    psum = probs.sum(axis=(2, 3))
    gsum = target.sum(axis=(2, 3))
    num = 2.0 * inter + DICE_EPS
    den = psum + gsum + DICE_EPS
    return 1.0 - (num / den).mean(axis=1), num, den


def dice_per_sample(probs: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Soft dice loss of each map of a batch (n, c, h, w), shape (n,): the
    values whose mean ``dice_loss`` returns."""
    probs, target = _check_probs_target(probs, target)
    return _dice_parts(probs, target)[0]


def dice_loss(probs: np.ndarray, target: np.ndarray):
    """Soft dice loss, macro-averaged over the two classes.

    L = 1 - mean_c (2*sum(p*g) + eps) / (sum(p) + sum(g) + eps), eps = 1e-5.
    The loss of a batch (n, c, h, w) is the mean of its per-sample losses
    (``dice_per_sample``). Returns (loss, dL/dprobs).
    """
    probs, target = _check_probs_target(probs, target)
    n, c = probs.shape[0], probs.shape[1]
    per_sample, num, den = _dice_parts(probs, target)
    loss = float(np.mean(per_sample))
    scale = 1.0 / (n * c)
    grad = -scale * (2.0 * target * den[:, :, None, None] - num[:, :, None, None]) \
        / (den * den)[:, :, None, None]
    return loss, grad.astype(probs.dtype, copy=False)


def _class_weight_block(probs: np.ndarray, class_weights) -> np.ndarray:
    """The class weights as a (1, c, 1, 1) array of ``probs``' dtype."""
    w = np.asarray(class_weights, dtype=np.float64)
    if w.shape != (probs.shape[1],):
        raise ValueError(
            f"need {probs.shape[1]} class weights, got shape {w.shape}"
        )
    if np.any(w <= 0):
        raise ValueError(f"class weights must be positive, got {class_weights}")
    return w.reshape(1, -1, 1, 1).astype(probs.dtype)


def weighted_ce_per_sample(probs: np.ndarray, target: np.ndarray, class_weights) -> np.ndarray:
    """Weighted cross entropy of each map of a batch (n, c, h, w), shape
    (n,): the map's weighted sum times 1/(h*w), the values whose mean
    ``weighted_ce`` returns."""
    probs, target = _check_probs_target(probs, target)
    wb = _class_weight_block(probs, class_weights)
    n, _, h, wd = probs.shape
    terms = (wb * target * np.log(probs + CE_EPS)).reshape(n, -1)
    return -terms.sum(axis=1) * (1.0 / (h * wd))


def weighted_ce(probs: np.ndarray, target: np.ndarray, class_weights):
    """Per-pixel cross entropy of a batch with one positive weight per class.
    The loss is the mean of ``weighted_ce_per_sample``. Returns (loss, dL/dprobs)."""
    loss = float(np.mean(weighted_ce_per_sample(probs, target, class_weights)))
    probs, target = _check_probs_target(probs, target)
    wb = _class_weight_block(probs, class_weights)
    n, _, h, wd = probs.shape
    scale = 1.0 / (n * h * wd)
    return loss, (-(wb * target) / (probs + CE_EPS) * scale).astype(probs.dtype, copy=False)


def sgd_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    lr: float,
    momentum: float,
    velocity: dict[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """One in-place SGD update: v <- momentum*v + g; p <- p - lr*v."""
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != param {name} shape {p.shape}")
        v = velocity.get(name)
        if v is None:
            v = np.zeros_like(p)
            velocity[name] = v
        v *= momentum
        v += g.astype(p.dtype, copy=False)
        p -= lr * v
    return params


def _batch_arrays(samples, idxs, dtype, aug_seeds=None):
    images, targets = [], []
    for j in idxs:
        s = samples[j]
        if aug_seeds is not None:
            s = augment_sample(s, aug_seeds[j])
        images.append(s.image.astype(dtype, copy=False))
        targets.append(mask_to_onehot(s.mask).astype(dtype, copy=False))
    return np.stack(images), np.stack(targets)


def _parts(n: int) -> list[slice]:
    """The rows of a minibatch of ``n`` images that each run one forward and
    backward: the whole batch below ``_SPLIT_BATCH``, else its first
    ceil(n/2) images and the rest."""
    if n < _SPLIT_BATCH:
        return [slice(0, n)]
    h = (n + 1) // 2
    return [slice(0, h), slice(h, n)]


def train_model(model, train_set: Sequence[Sample], config: TrainConfig):
    """SGD training, fully determined by (model, data, config).

    Per epoch: a fresh stream derived from the shuffle seed orders the
    samples and (when enabled) seeds per-sample augmentation; minibatches
    of ``batch_size`` follow that order, keeping the last short batch.
    Returns ``(model, history)`` with one mean sample loss per epoch. Raises
    ``TrainingDiverged`` on a non-finite loss before a step, and on a
    non-finite parameter after the last step.

    A minibatch of ``_SPLIT_BATCH`` (4) images or more runs as two halves,
    its first ceil(n/2) images and the rest. Each half runs its own forward;
    the loss, the divergence check and dL/dprobs are those of the whole
    batch (every op of the forward works per image, so the concatenated
    halves are the whole batch's probabilities bit for bit). Each half runs
    ``network.backward`` on its rows of dL/dprobs, and the step's GradMap
    is the first half's plus the second's, in that order. So only the
    parameter gradients' sums over the batch differ from one whole-batch
    backward, in rounding; a smaller batch runs whole. The halves and their
    sum are the same whether a worker thread runs each second half or the
    caller runs both, so the trained bits do not depend on threads; the
    worker is opened and joined by ``network._worker`` (see ``network``'s
    module docstring).
    """
    samples = list(train_set)
    if not samples:
        raise ValueError("training set is empty")
    size = model.config.input_size
    for s in samples:
        if s.image.shape != (3, size, size):
            raise ValueError(
                f"sample {s.ident!r} has shape {s.image.shape}, expected (3, {size}, {size})"
            )
    n = len(samples)
    params = model.parameters()
    velocity: dict[str, np.ndarray] = {}
    seed_stream = SplitMix64(derive_seed(config.shuffle_seed, _TRAIN_TAG))
    history: list[float] = []

    with network._worker() as pool:
        for epoch in range(config.epochs):
            erng = SplitMix64(seed_stream.next_u64())
            order = list(range(n))
            erng.shuffle(order)
            aug_seeds = [erng.next_u64() for _ in range(n)] if config.augment else None
            total = 0.0
            for b, start in enumerate(range(0, n, config.batch_size)):
                idxs = order[start : start + config.batch_size]
                images, targets = _batch_arrays(samples, idxs, model.dtype, aug_seeds)
                parts = _parts(len(idxs))
                outs = network._run(pool, network.forward, [(model, images[p]) for p in parts])
                probs = np.concatenate([out[0] for out in outs])
                if config.loss == "dice":
                    loss, dprobs = dice_loss(probs, targets)
                else:
                    loss, dprobs = weighted_ce(probs, targets, config.class_weights)
                if not np.isfinite(loss):
                    raise TrainingDiverged(
                        f"non-finite loss {loss!r} at epoch {epoch}, batch {b}"
                    )
                calls = [(model, cache, dprobs[p]) for p, (_, cache) in zip(parts, outs)]
                grads = network._run(pool, network.backward, calls)
                if len(grads) == 2:
                    grads[0] = {key: g + grads[1][key] for key, g in grads[0].items()}
                sgd_step(params, grads[0], config.learning_rate, config.momentum, velocity)
                total += loss * len(idxs)
            history.append(total / n)
    for key, p in params.items():
        if not np.all(np.isfinite(p)):
            raise TrainingDiverged(f"non-finite parameter {key!r} after the last step")
    return model, history
