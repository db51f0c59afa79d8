"""Central-difference verification of hand-written backward passes."""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence

import numpy as np

from .rng import SplitMix64, derive_seed

DEFAULT_STEP = 1e-3
# The most values one call's perturbations, or its outputs, hold; a larger
# input is evaluated in several calls. At 2**14 every parameter array of the
# reduced network but down2's weights (144 values, 3 calls) takes one call,
# and the largest batch stays small: at 2**16 gradcheck_f64's peak RSS read
# about 0.65 MB more, at the same speed.
_BATCH_VALUES = 2**14


class GradcheckError(RuntimeError):
    """Raised when a non-finite value appears during a gradient check."""


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    """|a - n| / max(1, |a|, |n|), elementwise."""
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return np.abs(analytic - numeric) / denom


def _perturbations(flat: np.ndarray, shape, h: float, lo: int, hi: int) -> np.ndarray:
    """Copies of ``flat`` shaped ``(2c,) + shape`` for elements lo..hi-1
    (c = hi - lo): row j holds element lo + j at ``orig + h`` and row c + j
    at ``orig - h``; every other element keeps its value."""
    c = hi - lo
    values = np.tile(flat, (2, c, 1))
    j = np.arange(c)
    values[0, j, lo + j] = flat[lo:hi] + h
    values[1, j, lo + j] = flat[lo:hi] - h
    return values.reshape((2 * c,) + tuple(shape))


def _evaluate_in_place(fn: Callable, inputs: list, k: int, values: np.ndarray) -> np.ndarray:
    """The default ``evaluate``: ``fn``'s output for each row of ``values``,
    written in turn into the live ``inputs[k]``, which is restored after,
    also when ``fn`` raises."""
    x = inputs[k]
    orig = x.copy()
    outs = []
    try:
        for v in values:
            x[...] = v
            outs.append(np.array(fn(*inputs)[0]))  # a copy: fn may return a view of x
    finally:
        x[...] = orig
    return np.stack(outs)


def gradcheck(
    fn: Callable,
    inputs: Sequence[np.ndarray],
    h: float = DEFAULT_STEP,
    cotangent_seed: int = 0,
    evaluate: Callable | None = None,
) -> float:
    """Compare analytic gradients against central differences.

    ``fn(*inputs)`` must return ``(output, vjp)`` where ``vjp(upstream)``
    gives one gradient array per input. The check projects the output onto
    a fixed random cotangent ``u`` and differentiates ``sum(u * output)``
    numerically, scalar by scalar, in float64. Returns the maximum relative
    error; callers decide the pass threshold (1e-4 by convention).

    The perturbations of input k are stacked on a leading axis: for
    elements taken in C order, ``values`` holds one copy of the input per
    element at ``orig + h``, then one per element at ``orig - h``, and
    ``evaluate(k, values)`` returns the outputs for all of them, stacked the
    same way. A large input is split into several such calls. The default
    ``evaluate`` calls ``fn`` once per row on the live input, perturbed in
    place, and restores it after, also when ``fn`` raises; so inputs may
    have any strides, and ``fn`` may read the same arrays from elsewhere. A
    caller can pass an ``evaluate`` that computes every row in one batched
    call; if its rows equal ``fn``'s outputs bit for bit, the result is the
    same float. There is one numeric path: the objectives, differences and
    errors are computed here either way.
    """
    inputs = [np.asarray(v) for v in inputs]
    for k, v in enumerate(inputs):
        if v.dtype != np.float64:
            raise ValueError(f"gradcheck requires float64 inputs; input {k} is {v.dtype}")

    y0, vjp = fn(*inputs)
    y0 = np.asarray(y0)
    if not np.all(np.isfinite(y0)):
        raise GradcheckError("non-finite value in unperturbed output")

    u = SplitMix64(derive_seed(cotangent_seed, 0xC07A)).normal_array(y0.shape)
    analytic = [np.asarray(g) for g in vjp(u)]
    if len(analytic) != len(inputs):
        raise ValueError(f"vjp returned {len(analytic)} gradients for {len(inputs)} inputs")
    for k, (g, v) in enumerate(zip(analytic, inputs)):
        if g.shape != v.shape:
            raise ValueError(f"gradient {k} shape {g.shape} != input shape {v.shape}")
        if not np.all(np.isfinite(g)):
            raise GradcheckError(f"non-finite analytic gradient for input {k}")

    if evaluate is None:
        evaluate = partial(_evaluate_in_place, fn, inputs)

    max_err = 0.0
    for k, (x, ana) in enumerate(zip(inputs, analytic)):
        flat = x.reshape(-1)  # C order; a copy when x is not contiguous
        numeric = np.empty(flat.size)
        per_call = max(1, _BATCH_VALUES // (2 * max(flat.size, y0.size, 1)))
        for lo in range(0, flat.size, per_call):
            hi = min(lo + per_call, flat.size)
            values = _perturbations(flat, x.shape, h, lo, hi)
            y = np.asarray(evaluate(k, values))
            if y.shape != (len(values),) + y0.shape:
                raise ValueError(f"evaluate returned shape {y.shape} for {len(values)} "
                                 f"perturbations of an output of shape {y0.shape}")
            if not np.all(np.isfinite(y)):
                raise GradcheckError("non-finite value in perturbed output")
            f = (u * y).reshape(len(y), -1).sum(axis=1)
            numeric[lo:hi] = (f[: hi - lo] - f[hi - lo :]) / (2.0 * h)
        numeric = numeric.reshape(x.shape)
        max_err = max(max_err, float(relative_error(ana, numeric).max(initial=0.0)))
    return max_err
