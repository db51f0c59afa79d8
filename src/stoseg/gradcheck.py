"""Central-difference verification of hand-written backward passes."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .rng import SplitMix64, derive_seed

DEFAULT_STEP = 1e-3


class GradcheckError(RuntimeError):
    """Raised when a non-finite value appears during a gradient check."""


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    """|a - n| / max(1, |a|, |n|), elementwise."""
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return np.abs(analytic - numeric) / denom


def gradcheck(
    fn: Callable,
    inputs: Sequence[np.ndarray],
    h: float = DEFAULT_STEP,
    cotangent_seed: int = 0,
) -> float:
    """Compare analytic gradients against central differences.

    ``fn(*inputs)`` must return ``(output, vjp)`` where ``vjp(upstream)``
    gives one gradient array per input. The check projects the output onto
    a fixed random cotangent ``u`` and differentiates ``sum(u * output)``
    numerically, scalar by scalar, in float64. Returns the maximum relative
    error; callers decide the pass threshold (1e-4 by convention).
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

    def objective() -> float:
        y, _ = fn(*inputs)
        y = np.asarray(y)
        if not np.all(np.isfinite(y)):
            raise GradcheckError("non-finite value in perturbed output")
        return float(np.sum(u * y))

    max_err = 0.0
    for k, x in enumerate(inputs):
        flat = x.reshape(-1)
        ana = analytic[k].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = objective()
            flat[i] = orig - h
            f_minus = objective()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            err = float(relative_error(np.float64(ana[i]), np.float64(numeric)))
            if err > max_err:
                max_err = err
    return max_err
