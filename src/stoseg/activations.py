"""Pool of 17 activation functions with learnable per-channel parameters.

Each kind applies elementwise, carries zero or more learnable scalars per
channel, and knows its derivative with respect to both the input and the
parameters (parameter gradients are summed over batch and spatial axes).

Kinds and their per-channel parameter rows (in storage order):

    relu             --                       max(0, x)
    leaky_relu       --                       x>0: x, else 0.01*x
    elu              --                       x>0: x, else exp(x)-1
    prelu            a                        x>0: x, else a*x
    srelu            t_l, a_l, t_r, a_r       three-piece linear
    aplu             a_1..a_3                 relu + sum a_s*relu(b_s - x)
    melu4 / melu8    c_0, c_1..c_{k-1}        prelu(c_0) + sum c_j * hat_j(x)
    galu4 / galu8    c_0, c_1..c_{k-1}        prelu(c_0) + sum c_j * wave_j(x)
    pdelu            alpha                    x>0: x, else alpha*(clamp(1+0.1x)^10 - 1)
    swish_fixed      --                       x * sigmoid(x)
    swish_learnable  beta                     x * sigmoid(beta*x)
    soft_root_sign   alpha, beta              x / (x/alpha + exp(-x/beta))
    mish_fixed       --                       x * tanh(softplus(x))
    mish_learnable   beta                     x * tanh(softplus(beta*x))
    soft_learnable   beta                     softplus(beta*x) / beta

with prelu(a) = relu(x) + a*(x - relu(x)) and

    hat(c, w)  = relu(x-c+w) - 2*relu(x-c) + relu(x-c-w)   (= max(0, w-|x-c|))
    wave(c, w) = hat(c, w) - hat(c+2w, w)

A fixed kind is its learnable formula at beta = 1, with no parameter rows;
the two forms share one forward and backward, and only a learnable one
computes a beta gradient.

Hat/wave (center, width) pairs follow a dyadic schedule over [0, 2*MAX_INPUT]:
(1, 1), (0.5, 0.5), (1.5, 0.5), then the four quarter-width hats from 0.25
to 1.75; melu4/galu4 take the first three. APLU hinges b_s are evenly spaced
in [-MAX_INPUT, MAX_INPUT]. Inputs are normalized to [0, 1] upstream, so
MAX_INPUT = 1.

Derivative convention: at a non-differentiable point every kind uses the
right-hand derivative, i.e. a point on a kink takes the slope of the piece
to its right.

Table kinds: aplu, melu4/8 and galu4/8 are sums of relu terms with fixed
knots, so between consecutive knots each is affine in x with a slope and
intercept that are linear in the channel's parameters. At import each of
these kinds gets a knot vector and two fixed maps from its parameters to
per-segment slopes and intercepts, built from the definitions above. The
forward pass finds each input's segment as the count of knots at or below
x (the same index as ``searchsorted(knots, x, side="right")``, but faster
for so few knots), so a point on a knot takes the piece to its right (the
right-derivative convention), and applies that segment's affine piece; the
parameter gradient is the transposed maps applied to per-(channel, segment)
sums of ``upstream * x`` and ``upstream``. One code path serves all five.

The other kinds are bespoke: srelu has learnable knots, the smooth kinds
have no finite segment form, and relu, leaky_relu and prelu are kept
elementwise because the table is slower for them (at 8x16x64x64 float32:
about 15x for relu, and about 2x in the backward pass for the other two).

The bespoke kinds pick their pieces without ``np.where``, whose data-
dependent branch costs several times a ufunc pass on mixed signs: with
``np.maximum``/``np.minimum`` where one piece bounds the other, and else by
multiplying the pieces with 0/1 masks and adding them. Both are exact, so
every value equals that of the ``np.where`` form (zeros may differ in sign).
A masked piece must be finite, so srelu maps an infinite input to NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable

import numpy as np

MAX_INPUT = 1.0
LEAKY_SLOPE = 0.01
PRELU_INIT = 0.25
APLU_HINGE_COUNT = 3
PDELU_SLOPE = 0.1  # 1 - t with t = 0.9
PDELU_POWER = 10.0  # 1 / (1 - t)
SRS_ALPHA_INIT = 2.0
SRS_BETA_INIT = 3.0
_EXP_CLAMP = 60.0  # keeps exp() finite in float32 far outside the data range


class ActivationKind(str, Enum):
    """The pool, in documented order."""

    RELU = "relu"
    LEAKY_RELU = "leaky_relu"
    ELU = "elu"
    PRELU = "prelu"
    SRELU = "srelu"
    APLU = "aplu"
    MELU4 = "melu4"
    MELU8 = "melu8"
    GALU4 = "galu4"
    GALU8 = "galu8"
    PDELU = "pdelu"
    SWISH_FIXED = "swish_fixed"
    SWISH_LEARNABLE = "swish_learnable"
    SOFT_ROOT_SIGN = "soft_root_sign"
    MISH_FIXED = "mish_fixed"
    MISH_LEARNABLE = "mish_learnable"
    SOFT_LEARNABLE = "soft_learnable"


def default_pool() -> list[ActivationKind]:
    """The full pool in documented order; callers may truncate a prefix."""
    return list(ActivationKind)


# Dyadic (center, width) schedule over [0, 2*MAX_INPUT]; melu4/galu4 take the
# first 3 rows, melu8/galu8 all 7.
_HAT_SCHEDULE = np.array(
    [
        [1.0, 1.0],
        [0.5, 0.5],
        [1.5, 0.5],
        [0.25, 0.25],
        [0.75, 0.25],
        [1.25, 0.25],
        [1.75, 0.25],
    ]
) * MAX_INPUT

_APLU_HINGES = np.linspace(-MAX_INPUT, MAX_INPUT, APLU_HINGE_COUNT)


@dataclass
class ActivationState:
    """One activation site: a kind plus its learnable per-channel scalars."""

    kind: ActivationKind
    params: np.ndarray  # (param_count, channels); mutated in place by training

    @property
    def channels(self) -> int:
        return self.params.shape[1]


def _bc(state: ActivationState, row: int) -> np.ndarray:
    """Parameter row broadcast to (1, C, 1, 1)."""
    return state.params[row].reshape(1, state.channels, 1, 1)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))  # never overflows: 1/(1+e) for z >= 0, e/(1+e) below
    s = np.maximum(e, z >= 0)  # e <= 1, so this is 1 for z >= 0 and e below
    e += 1.0
    return np.divide(s, e, out=s)


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(np.zeros((), dtype=z.dtype), z)


def _sum_cnhw(a: np.ndarray) -> np.ndarray:
    """Reduce (n, c, h, w) to per-channel totals (c,)."""
    return a.sum(axis=(0, 2, 3))


# --- bespoke kinds: (x, state) -> y and (x, state, upstream) -> (dx, dparams) ---


def _fwd_relu(x, st):
    return np.maximum(x, 0.0)


def _bwd_relu(x, st, up):
    return up * (x >= 0), None


def _fwd_leaky(x, st):
    return np.maximum(x, LEAKY_SLOPE * x)


def _bwd_leaky(x, st, up):
    return up * np.maximum(x >= 0, x.dtype.type(LEAKY_SLOPE)), None  # slope 1 or LEAKY_SLOPE


def _fwd_elu(x, st):
    y = np.minimum(x, 0.0)
    np.expm1(y, out=y)
    return np.maximum(y, x, out=y)  # expm1(x) > x below 0


def _bwd_elu(x, st, up):
    return up * np.exp(np.minimum(x, 0.0)), None


def _fwd_prelu(x, st):
    y = np.minimum(x, 0.0)
    y *= _bc(st, 0)
    y += np.maximum(x, 0.0)
    return y


def _bwd_prelu(x, st, up):
    neg = (x < 0).astype(x.dtype)
    slope = neg * _bc(st, 0)
    slope += 1.0 - neg
    da = _sum_cnhw(up * x * neg)
    return np.multiply(up, slope, out=slope), da[None, :]


def _fwd_srelu(x, st):
    tl, al, tr, ar = (_bc(st, i) for i in range(4))
    y = np.maximum(x - tr, 0.0)
    y *= ar
    y += np.minimum(x, tr)  # x below tr, tr + ar * (x - tr) from tr up
    left = x < tl  # takes precedence if thresholds ever cross during training
    lo = (x - tl) * al
    lo += tl
    y *= ~left
    lo *= left
    y += lo
    return y


def _bwd_srelu(x, st, up):
    tl, al, tr, ar = (_bc(st, i) for i in range(4))
    left = x < tl  # takes precedence if thresholds ever cross during training
    right = (x >= tr) & ~left
    dtl = _sum_cnhw(up * (1.0 - al) * left)
    dal = _sum_cnhw(up * (x - tl) * left)
    dtr = _sum_cnhw(up * (1.0 - ar) * right)
    dar = _sum_cnhw(up * (x - tr) * right)
    slope = left * al  # al, ar or 1: each of the three masks is 1 on its piece
    slope += right * ar
    slope += ~(left | right)
    return np.multiply(up, slope, out=slope), np.stack([dtl, dal, dtr, dar])


def _pdelu_base(x):
    """The clamped base of the negative branch; 1 for x >= 0."""
    return np.maximum(1.0 + PDELU_SLOPE * np.minimum(x, 0.0), 0.0)


def _fwd_pdelu(x, st):
    y = _pdelu_base(x) ** PDELU_POWER
    y -= 1.0
    y *= _bc(st, 0)  # 0 from x = 0 up, where the base is 1
    y += np.maximum(x, 0.0)
    return y


def _bwd_pdelu(x, st, up):
    neg, base = x < 0, _pdelu_base(x)
    dalpha = _sum_cnhw(up * (base**PDELU_POWER - 1.0) * neg)
    slope = base ** (PDELU_POWER - 1.0)
    slope *= _bc(st, 0)
    slope *= neg
    slope += ~neg  # alpha * base^9 below 0 and 1 from 0 up
    return np.multiply(up, slope, out=slope), dalpha[None, :]


def _beta(st):
    """Row 0 of a learnable form, or 1.0 for its fixed form (no rows)."""
    return _bc(st, 0) if len(st.params) else 1.0


def _fwd_swish(x, st):
    return x * _sigmoid(_beta(st) * x)


def _bwd_swish(x, st, up):
    beta = _beta(st)
    s = _sigmoid(beta * x)
    y = x * s
    dbeta = _sum_cnhw(up * x * y * (1.0 - s))[None, :] if len(st.params) else None
    return up * (s + beta * y * (1.0 - s)), dbeta


def _fwd_srs(x, st):
    alpha, beta = _bc(st, 0), _bc(st, 1)
    e = np.exp(np.minimum(-x / beta, _EXP_CLAMP))
    return x / (x / alpha + e)


def _bwd_srs(x, st, up):
    alpha, beta = _bc(st, 0), _bc(st, 1)
    z = -x / beta
    clamped = z > _EXP_CLAMP
    e = np.exp(np.minimum(z, _EXP_CLAMP))
    live = (~clamped).astype(x.dtype)
    denom = x / alpha + e
    r = 1.0 / denom
    inv2 = r * r  # underflows to 0 where denom * denom would overflow
    d_denom_dx = 1.0 / alpha - (e / beta) * live
    dx = up * (denom - x * d_denom_dx) * inv2
    dalpha = _sum_cnhw(up * (x * x) * inv2 / (alpha * alpha))
    dbeta = _sum_cnhw(up * (-(x * x) * e * live) * inv2 / (beta * beta))
    return dx, np.stack([dalpha, dbeta])


def _fwd_mish(x, st):
    return x * np.tanh(_softplus(_beta(st) * x))


def _bwd_mish(x, st, up):
    bx = _beta(st) * x
    s = _sigmoid(bx)
    u = np.tanh(_softplus(bx))
    dbeta = _sum_cnhw(up * x * x * (1.0 - u * u) * s)[None, :] if len(st.params) else None
    return up * (u + bx * (1.0 - u * u) * s), dbeta


def _fwd_soft_learn(x, st):
    beta = _bc(st, 0)
    return _softplus(beta * x) / beta


def _bwd_soft_learn(x, st, up):
    beta = _bc(st, 0)
    s = _sigmoid(beta * x)
    sp = _softplus(beta * x)
    dx = up * s
    dbeta = _sum_cnhw(up * (x * s / beta - sp / (beta * beta)))
    return dx, dbeta[None, :]


# --- fixed-knot segment tables ---
#
# A term (row, weight, direction, knot) stands for
#     weight * coef[row] * relu(direction * (x - knot)),
# where coef is the channel's parameter column with a constant 1 prepended
# as row 0 (the parameter-free part).

_RELU_BASE = [(0, 1.0, 1.0, 0.0)]
_PRELU_BASE = _RELU_BASE + [(1, -1.0, -1.0, 0.0)]  # x - relu(x) = -relu(-x)


def _hat_terms(row, c, w, weight=1.0):
    return [(row, weight, 1.0, c - w), (row, -2.0 * weight, 1.0, c), (row, weight, 1.0, c + w)]


def _wave_terms(row, c, w):
    return _hat_terms(row, c, w) + _hat_terms(row, c + 2 * w, w, weight=-1.0)


@dataclass(frozen=True)
class _Table:
    knots: np.ndarray  # sorted; segment s covers [knots[s-1], knots[s])
    slope: np.ndarray  # (1 + p, segments): coef -> slope of each segment
    icpt: np.ndarray  # (1 + p, segments): coef -> intercept of each segment


def _build_table(terms, p: int) -> _Table:
    knots = np.array(sorted({t[3] for t in terms}))
    # one point inside each segment; a term is 0 or affine on a whole segment
    inner = np.concatenate([[knots[0] - 1.0], (knots[:-1] + knots[1:]) / 2, [knots[-1] + 1.0]])
    slope = np.zeros((1 + p, inner.size))
    icpt = np.zeros_like(slope)
    for row, weight, direction, knot in terms:
        on = direction * (inner - knot) > 0
        slope[row, on] += weight * direction
        icpt[row, on] -= weight * direction * knot
    return _Table(knots, slope, icpt)


def _segment_index(table: _Table, x: np.ndarray) -> np.ndarray:
    """Flat (channel, segment) index of every element; a point on a knot
    falls in the segment to its right.

    The segment is the count of knots at or below x, which equals
    ``searchsorted(knots, x, side="right")``; with the 3-13 knots here,
    counting is several times faster than numpy's per-element binary search.
    """
    knots = table.knots.astype(x.dtype).reshape(-1, 1, 1, 1, 1)
    seg = (x >= knots).sum(axis=0, dtype=np.uint8)
    return seg + (table.knots.size + 1) * np.arange(x.shape[1]).reshape(1, -1, 1, 1)


def _segment_coefs(table: _Table, st: ActivationState, dtype):
    """Per-(channel, segment) slopes and intercepts, flat and channel-major."""
    coef = np.empty((1 + len(st.params), st.channels))  # a row of ones, then the parameters
    coef[0] = 1.0
    coef[1:] = st.params
    return (coef.T @ table.slope).astype(dtype).ravel(), (coef.T @ table.icpt).astype(dtype).ravel()


def _fwd_table(table, x, st):
    idx = _segment_index(table, x)
    slope, icpt = _segment_coefs(table, st, x.dtype)
    return slope[idx] * x + icpt[idx]


def _bwd_table(table, x, st, up):
    idx = _segment_index(table, x)
    slope, _ = _segment_coefs(table, st, x.dtype)
    flat = idx.ravel()
    sum_ux = np.bincount(flat, (up * x).ravel(), slope.size).reshape(st.channels, -1)
    sum_u = np.bincount(flat, up.ravel(), slope.size).reshape(st.channels, -1)
    return up * slope[idx], (table.slope @ sum_ux.T + table.icpt @ sum_u.T)[1:]


# --- one record per kind ---


@dataclass(frozen=True)
class _Kind:
    init: tuple[float, ...]  # init value of each parameter row
    forward: Callable  # (x, state) -> y
    backward: Callable  # (x, state, upstream) -> (dx, dparams or None)
    kinks: Callable  # channel-0 parameter column -> non-smooth points


def _table_kind(init, terms) -> _Kind:
    table = _build_table(terms, len(init))
    return _Kind(tuple(init), partial(_fwd_table, table), partial(_bwd_table, table),
                 lambda p: table.knots)


def _melu_galu_kind(k: int, bump) -> _Kind:
    terms = list(_PRELU_BASE)
    for j, (c, w) in enumerate(_HAT_SCHEDULE[: k - 1]):
        terms += bump(j + 2, c, w)
    return _table_kind([PRELU_INIT] + [0.0] * (k - 1), terms)


def _at_zero(p):
    return (0.0,)


def _smooth(p):
    return ()


_KINDS: dict[ActivationKind, _Kind] = {
    ActivationKind.RELU: _Kind((), _fwd_relu, _bwd_relu, _at_zero),
    ActivationKind.LEAKY_RELU: _Kind((), _fwd_leaky, _bwd_leaky, _at_zero),
    ActivationKind.ELU: _Kind((), _fwd_elu, _bwd_elu, _at_zero),
    ActivationKind.PRELU: _Kind((PRELU_INIT,), _fwd_prelu, _bwd_prelu, _at_zero),
    ActivationKind.SRELU: _Kind((0.0, 0.0, MAX_INPUT, 1.0), _fwd_srelu, _bwd_srelu,
                                lambda p: (p[0], p[2])),
    ActivationKind.APLU: _table_kind(
        [0.0] * APLU_HINGE_COUNT,
        _RELU_BASE + [(s + 1, 1.0, -1.0, b) for s, b in enumerate(_APLU_HINGES)],
    ),
    ActivationKind.MELU4: _melu_galu_kind(4, _hat_terms),
    ActivationKind.MELU8: _melu_galu_kind(8, _hat_terms),
    ActivationKind.GALU4: _melu_galu_kind(4, _wave_terms),
    ActivationKind.GALU8: _melu_galu_kind(8, _wave_terms),
    ActivationKind.PDELU: _Kind((1.0,), _fwd_pdelu, _bwd_pdelu,
                                lambda p: (0.0, -1.0 / PDELU_SLOPE)),
    ActivationKind.SWISH_FIXED: _Kind((), _fwd_swish, _bwd_swish, _smooth),
    ActivationKind.SWISH_LEARNABLE: _Kind((1.0,), _fwd_swish, _bwd_swish, _smooth),
    ActivationKind.SOFT_ROOT_SIGN: _Kind((SRS_ALPHA_INIT, SRS_BETA_INIT), _fwd_srs, _bwd_srs,
                                         _smooth),
    ActivationKind.MISH_FIXED: _Kind((), _fwd_mish, _bwd_mish, _smooth),
    ActivationKind.MISH_LEARNABLE: _Kind((1.0,), _fwd_mish, _bwd_mish, _smooth),
    ActivationKind.SOFT_LEARNABLE: _Kind((1.0,), _fwd_soft_learn, _bwd_soft_learn, _smooth),
}

PARAM_COUNTS: dict[ActivationKind, int] = {k: len(r.init) for k, r in _KINDS.items()}


def act_init(kind: ActivationKind, channels: int, dtype=np.float32) -> ActivationState:
    """Freshly initialized state for ``kind`` over ``channels`` channels."""
    if channels < 1:
        raise ValueError(f"channels must be >= 1, got {channels}")
    kind = ActivationKind(kind)
    init = np.asarray(_KINDS[kind].init, dtype=dtype).reshape(-1, 1)
    return ActivationState(kind=kind, params=np.repeat(init, channels, axis=1))


def _check_channels(x: np.ndarray, state: ActivationState) -> None:
    if x.ndim != 4:
        raise ValueError(f"input must be 4-D (n, c, h, w), got ndim {x.ndim}")
    if x.shape[1] != state.channels:
        raise ValueError(f"input channels {x.shape[1]} != state channels {state.channels}")


def act_forward(x: np.ndarray, state: ActivationState) -> np.ndarray:
    """Apply the state's activation elementwise."""
    _check_channels(x, state)
    return _KINDS[state.kind].forward(x, state)


def act_forward_variants(x: np.ndarray, state: ActivationState, values: np.ndarray) -> np.ndarray:
    """``act_forward(x, ·)`` under each of B parameter arrays ``values``
    (B, p, channels) of the state's kind: B*n rows on the batch axis,
    variant b's at b*n .. b*n + n - 1.

    The variants fold into the channels of one call: channel b*c + j of
    ``x`` tiled B times reads ``values[b, :, j]``. Every kind works per
    channel, so each variant's output equals that of a state holding its
    parameters, bit for bit.
    """
    _check_channels(x, state)
    if values.ndim != 3 or values.shape[1:] != state.params.shape:
        raise ValueError(f"parameter variants of shape {values.shape}, expected "
                         f"(B,) + {state.params.shape}")
    nb, (n, c, h, w) = len(values), x.shape
    folded = ActivationState(state.kind,
                             values.transpose(1, 0, 2).reshape(len(state.params), nb * c))
    y = act_forward(np.tile(x, (1, nb, 1, 1)), folded)
    return y.reshape(n, nb, c, h, w).swapaxes(0, 1).reshape(-1, c, h, w)


def act_backward(x: np.ndarray, state: ActivationState, upstream: np.ndarray):
    """Input gradient and per-channel parameter gradients.

    Returns ``(dx, dparams)`` where ``dparams`` has the same (p, channels)
    shape as ``state.params`` (or is empty for parameter-free kinds).
    """
    _check_channels(x, state)
    if upstream.shape != x.shape:
        raise ValueError(f"upstream shape {upstream.shape} != input shape {x.shape}")
    dx, dparams = _KINDS[state.kind].backward(x, state, upstream)
    if dparams is None:
        dparams = np.zeros((0, state.channels))
    return dx, np.asarray(dparams, dtype=state.params.dtype)


def kink_points(state: ActivationState) -> np.ndarray:
    """Locations where the function is non-smooth (channel 0's parameters)."""
    p = state.params[:, 0]
    return np.unique(np.asarray(_KINDS[state.kind].kinks(p), dtype=np.float64))
