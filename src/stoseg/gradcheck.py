"""Central-difference verification of hand-written backward passes."""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence

import numpy as np

from .rng import SplitMix64, derive_seed

DEFAULT_STEP = 1e-3
# The most values one ``evaluate`` call's perturbations, or its outputs,
# hold, each row counted at the size of the larger of its input and the
# output; a larger input is split over several calls, and the chunks of
# small inputs share one. For the end-to-end check at 2**15 the reduced
# network's 23 parameter arrays take 3 forwards (about 1,170 rows, at most
# 540 in one), with a traced peak of about 3.1 MB per seed; 2**14 takes 6
# (1.8 MB) and ran run_suite(2, 2) about 10% slower, 2**16 takes 2 (5.2 MB)
# at the speed of 2**15.
_BATCH_VALUES = 2**15


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


def _evaluate_in_place(fn: Callable, inputs: list, chunks: list) -> np.ndarray:
    """The default ``evaluate``: ``fn``'s output for each row of each chunk's
    ``values``, written in turn into the live ``inputs[k]``, which is
    restored after, also when ``fn`` raises."""
    outs = []
    for k, values in chunks:
        x = inputs[k]
        orig = x.copy()
        try:
            for v in values:
                x[...] = v
                outs.append(np.array(fn(*inputs)[0]))  # a copy: fn may return a view of x
        finally:
            x[...] = orig
    return np.stack(outs)


def _plan(sizes: list[int], out_size: int) -> list[list[tuple[int, int, int]]]:
    """The ``evaluate`` calls, each a list of ``(k, lo, hi)`` chunks: elements
    lo..hi-1 of input k, whose 2(hi - lo) rows cost ``max(size_k, out_size)``
    values each. Inputs are taken in order and a call is filled up to
    ``_BATCH_VALUES``, so it holds at most one chunk of each input, and
    always at least one element."""
    calls, call, used = [], [], 0
    for k, size in enumerate(sizes):
        cost = 2 * max(size, out_size, 1)
        lo = 0
        while lo < size:
            fit = (_BATCH_VALUES - used) // cost
            if fit <= 0 and call:
                calls.append(call)
                call, used = [], 0
                continue
            hi = min(size, lo + max(1, fit))
            call.append((k, lo, hi))
            used += (hi - lo) * cost
            lo = hi
    if call:
        calls.append(call)
    return calls


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
    elements lo..hi-1 taken in C order, ``values`` holds one copy of the
    input per element at ``orig + h``, then one per element at ``orig - h``.
    ``evaluate(chunks)`` gets a list of such ``(k, values)`` chunks and
    returns the outputs of all their rows, stacked in the same order. The
    chunks of one call come from consecutive inputs, at most one per input
    and in input order, and hold at most ``_BATCH_VALUES`` values, each row
    counted at ``max(size_k, output size)``; so a large input is split over
    several calls, and the small inputs share one. The default ``evaluate``
    calls ``fn`` once per row on the live input, perturbed in place, and
    restores it after, also when ``fn`` raises; so inputs may have any
    strides, and ``fn`` may read the same arrays from elsewhere. A caller
    can pass an ``evaluate`` that computes the rows in batched calls; if
    they equal ``fn``'s outputs bit for bit, the result is the same float.
    There is one numeric path: the objectives, differences and errors are
    computed here either way.
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

    flats = [x.reshape(-1) for x in inputs]  # C order; a copy when x is not contiguous
    numeric = [np.empty(flat.size) for flat in flats]
    for call in _plan([flat.size for flat in flats], y0.size):
        chunks = [(k, _perturbations(flats[k], inputs[k].shape, h, lo, hi))
                  for k, lo, hi in call]
        rows = sum(len(values) for _, values in chunks)
        y = np.asarray(evaluate(chunks))
        if y.shape != (rows,) + y0.shape:
            raise ValueError(f"evaluate returned shape {y.shape} for {rows} "
                             f"perturbations of an output of shape {y0.shape}")
        if not np.all(np.isfinite(y)):
            raise GradcheckError("non-finite value in perturbed output")
        f = (u * y).reshape(rows, -1).sum(axis=1)
        at = 0
        for k, lo, hi in call:
            c = hi - lo
            numeric[k][lo:hi] = (f[at : at + c] - f[at + c : at + 2 * c]) / (2.0 * h)
            at += 2 * c
    return max((float(relative_error(ana, num.reshape(ana.shape)).max(initial=0.0))
                for ana, num in zip(analytic, numeric)), default=0.0)
