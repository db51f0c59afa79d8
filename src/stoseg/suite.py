"""Gradient verification suite: every differentiable piece against central
differences, plus the end-to-end reduced network. Used by the CLI
``gradcheck`` subcommand and by the acceptance tests."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import network, ops
from .activations import (
    PARAM_COUNTS,
    ActivationKind,
    act_backward,
    act_forward,
    act_init,
    default_pool,
    kink_points,
)
from .gradcheck import DEFAULT_STEP, gradcheck
from .losses import dice_loss, weighted_ce
from .rng import SplitMix64, derive_seed

ACT_TOL = 1e-4
LOSS_TOL = 1e-4
OP_TOL = 1e-4
E2E_TOL = 1e-3
E2E_STEP = 1e-5  # smaller step keeps kink crossings out of the stencil

REDUCED_CONFIG = network.NetworkConfig(
    input_size=8, stem_width=2, down_width=4, aspp_width=2, fuse_width=4
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_err <= self.tolerance


def sample_away_from_kinks(rng: SplitMix64, shape, kinks, margin: float) -> np.ndarray:
    """Uniform draws in [-3, 3], nudged so no value sits within ``margin``
    of a non-smooth point."""
    x = rng.uniform_array(int(np.prod(shape))) * 6.0 - 3.0
    for k in kinks:
        near = np.abs(x - k) < margin
        x[near] = k + margin * np.where(x[near] >= k, 2.0, -2.0)
    return x.reshape(shape)


def _noise_params(state, rng: SplitMix64) -> None:
    """Move the learnable scalars off their init values so every slope term
    is actually exercised (a wrong slope scaled by a zero coefficient would
    otherwise pass). SReLU thresholds stay put so the kink set is shared
    across channels."""
    p = state.params
    if not p.size:
        return
    noise = (rng.uniform_array(p.size).reshape(p.shape) - 0.5) * 0.8
    if state.kind == ActivationKind.SRELU:
        noise[0] = 0.0  # t_l
        noise[2] = 0.0  # t_r
        noise *= 0.5
    elif state.kind == ActivationKind.SOFT_ROOT_SIGN:
        noise *= 0.5  # keep the denominator comfortably positive
    p += noise.astype(p.dtype)


def check_activation(kind: ActivationKind, seed: int, h: float = DEFAULT_STEP) -> float:
    channels = 2
    state = act_init(kind, channels, dtype=np.float64)
    rng = SplitMix64(derive_seed(seed, default_pool().index(kind)))
    _noise_params(state, rng)
    x = sample_away_from_kinks(rng, (2, channels, 3, 3), kink_points(state), 10.0 * h)

    if PARAM_COUNTS[kind]:
        def fn(xv, pv):
            st = replace(state, params=pv)
            y = act_forward(xv, st)
            return y, lambda u: act_backward(xv, st, u)
        return gradcheck(fn, [x, state.params.copy()], h=h, cotangent_seed=seed)

    def fn(xv):
        y = act_forward(xv, state)
        return y, lambda u: [act_backward(xv, state, u)[0]]
    return gradcheck(fn, [x], h=h, cotangent_seed=seed)


def check_conv(seed: int, h: float = DEFAULT_STEP) -> float:
    rng = SplitMix64(derive_seed(seed, 0xC0))
    variants = [
        ops.ConvSpec(2, 2, 3, 3, stride=1, padding=1, dilation=1),
        ops.ConvSpec(3, 2, 3, 3, stride=2, padding=1, dilation=1),
        ops.ConvSpec(2, 2, 3, 3, stride=1, padding=2, dilation=2),
        ops.ConvSpec(2, 3, 1, 1),
    ]
    spec = variants[seed % len(variants)]
    x = rng.normal_array((1, spec.in_channels, 5, 5))
    w = rng.normal_array((spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w))
    b = rng.normal_array((spec.out_channels,))

    def fn(xv, wv, bv):
        y = ops.conv2d(xv, wv, bv, spec)
        def vjp(u):
            dx, dw, db = ops.conv2d_backward(u, xv, wv, spec)
            return dx, dw, db
        return y, vjp
    return gradcheck(fn, [x, w, b], h=h, cotangent_seed=seed)


def check_upsample(seed: int, h: float = DEFAULT_STEP) -> float:
    rng = SplitMix64(derive_seed(seed, 0x0B))
    factor = 2 + seed % 3
    x = rng.normal_array((1, 2, 3, 4))

    def fn(xv):
        y = ops.upsample_bilinear(xv, factor)
        return y, lambda u: [ops.upsample_bilinear_backward(u, 3, 4, factor)]
    return gradcheck(fn, [x], h=h, cotangent_seed=seed)


def check_softmax(seed: int, h: float = DEFAULT_STEP) -> float:
    rng = SplitMix64(derive_seed(seed, 0x50))
    x = rng.normal_array((2, 3, 3, 3))

    def fn(xv):
        y = ops.softmax_channel(xv)
        return y, lambda u: [ops.softmax_channel_backward(u, y)]
    return gradcheck(fn, [x], h=h, cotangent_seed=seed)


def _random_probs_target(seed: int, shape=(2, 4, 4)):
    rng = SplitMix64(derive_seed(seed, 0x10))
    probs = 0.1 + 0.8 * rng.uniform_array(int(np.prod(shape))).reshape(shape)
    fg = (rng.uniform_array(shape[1] * shape[2]).reshape(shape[1:]) < 0.4)
    target = np.stack([1.0 - fg, fg * 1.0])
    return probs, target


def check_dice(seed: int, h: float = DEFAULT_STEP) -> float:
    probs, target = _random_probs_target(seed)

    def fn(pv):
        loss, grad = dice_loss(pv, target)
        return np.float64(loss), lambda u: [u * grad]
    return gradcheck(fn, [probs], h=h, cotangent_seed=seed)


def check_weighted_ce(seed: int, h: float = DEFAULT_STEP) -> float:
    probs, target = _random_probs_target(seed)

    def fn(pv):
        loss, grad = weighted_ce(pv, target, (0.5, 2.0))
        return np.float64(loss), lambda u: [u * grad]
    return gradcheck(fn, [probs], h=h, cotangent_seed=seed)


def _flatten(params: dict[str, np.ndarray]):
    keys = sorted(params)
    vec = np.concatenate([params[k].reshape(-1) for k in keys])
    return keys, vec.astype(np.float64)


def _unflatten_into(params: dict[str, np.ndarray], keys, vec) -> None:
    at = 0
    for k in keys:
        p = params[k]
        p[...] = vec[at : at + p.size].reshape(p.shape)
        at += p.size


def _min_kink_distance(model, cache) -> float:
    """Smallest distance from any activation input to that site's kink set."""
    dmin = np.inf
    for z, st in zip(cache["pre"], model.acts, strict=True):
        for k in kink_points(st):
            dmin = min(dmin, float(np.abs(z - k).min()))
    return dmin


def check_network(seed: int, h: float = E2E_STEP) -> float:
    """Dice-loss gradient of every weight, bias, and activation parameter of
    the reduced network against central differences.

    The check runs at a generic parameter point: biases and activation
    parameters get small random offsets, and the point is re-drawn until no
    pre-activation sits near an activation kink (at the raw init, dead-ReLU
    regions plus zero biases put downstream inputs exactly on kinks, where
    the loss is genuinely non-differentiable and the comparison meaningless).
    """
    cfg = REDUCED_CONFIG
    assignment = network.assign_activations(
        "sto", default_pool(), cfg.site_count, 0, derive_seed(seed, 0xA55)
    )
    rng = SplitMix64(derive_seed(seed, 0xDA7A))
    image = rng.uniform_array(3 * cfg.input_size**2).reshape(1, 3, cfg.input_size, cfg.input_size)
    fg = rng.uniform_array(cfg.input_size**2).reshape(cfg.input_size, cfg.input_size) < 0.35
    target = np.stack([1.0 - fg, fg * 1.0])[None]

    margin = 100.0 * h
    for attempt in range(50):
        model = network.build_model(
            cfg, assignment, derive_seed(seed, 0x111, attempt), dtype=np.float64
        )
        nrng = SplitMix64(derive_seed(seed, 0xB1A5, attempt))
        for name in sorted(model.params):
            if name.endswith(".b"):
                b = model.params[name]
                b += (nrng.uniform_array(b.size) - 0.5) * 0.1
        for st in model.acts:
            _noise_params(st, nrng)
        _, cache = network.forward(model, image)
        if _min_kink_distance(model, cache) > margin:
            break
    else:
        raise RuntimeError(f"could not find a kink-free evaluation point for seed {seed}")

    params = model.parameters()
    keys, vec0 = _flatten(params)

    def fn(vec):
        _unflatten_into(params, keys, vec)
        probs, cache = network.forward(model, image)
        loss, dprobs = dice_loss(probs, target)

        def vjp(u):
            grads = network.backward(model, cache, float(u) * dprobs)
            _, gvec = _flatten(grads)
            return [gvec]

        return np.float64(loss), vjp

    try:
        return gradcheck(fn, [vec0.copy()], h=h, cotangent_seed=seed)
    finally:
        _unflatten_into(params, keys, vec0)


def run_suite(seeds: int = 20, e2e_seeds: int = 20) -> list[CheckResult]:
    """The full suite; one result row per named check."""
    results: list[CheckResult] = []
    for kind in default_pool():
        err = max(check_activation(kind, s) for s in range(seeds))
        results.append(CheckResult(f"activation/{kind.value}", err, ACT_TOL))
    results.append(CheckResult("op/conv2d", max(check_conv(s) for s in range(seeds)), OP_TOL))
    results.append(
        CheckResult("op/upsample_bilinear", max(check_upsample(s) for s in range(seeds)), OP_TOL)
    )
    results.append(
        CheckResult("op/softmax_channel", max(check_softmax(s) for s in range(seeds)), OP_TOL)
    )
    results.append(CheckResult("loss/dice", max(check_dice(s) for s in range(seeds)), LOSS_TOL))
    results.append(
        CheckResult("loss/weighted_ce", max(check_weighted_ce(s) for s in range(seeds)), LOSS_TOL)
    )
    results.append(
        CheckResult(
            "network/end_to_end",
            max(check_network(s) for s in range(e2e_seeds)),
            E2E_TOL,
        )
    )
    return results
