"""Gradient verification suite: every differentiable piece against central
differences, plus the end-to-end reduced network. Used by the CLI
``gradcheck`` subcommand and by the acceptance tests.

Every check has one shape: it draws float64 inputs from its seed, wraps the
piece as ``fn(*inputs) -> (y, vjp)`` and returns ``gradcheck``'s largest
relative error. The inputs are the live arrays the piece reads, parameters
included; no check copies them. ``gradcheck`` stacks the ±h perturbations
of each input array and asks an ``evaluate`` callback for the outputs of a
list of such chunks at a time; its default runs ``fn`` once per
perturbation on the live array. Every check here passes a callback that
runs each chunk in one batched call instead (``_each_chunk``), by one
rule: perturbations are rows on the batch axis. An input of an op that
works on each map alone (an activation, a conv, the upsample, the softmax)
carries them on the op's batch axis (``_on_batch_axis``); a loss scores
the perturbed maps with a per-sample objective that equals its loss for a
batch of one; conv weights and biases run as ``ops.conv2d``'s leading
variants axis, one GEMM of the unbatched shape each, and activation
parameters fold into channels (``act_forward_variants``). The end-to-end
check is one ``gradcheck`` over every parameter array of the network; each
``evaluate`` call is one forward (``network.forward(..., variants=...)``)
that carries the chunks of several arrays on the batch axis, each joining
at its own layer, so the 23 arrays take three forwards. Each batched
output is an elementwise op, a reduction within one map, or a GEMM of the
unbatched shape, so every objective, and so every row, is the same float
as from one call per perturbation.

``run_suite`` is one loop over a table of ``(name, check, tolerance, seed
count)`` rows. The table is built on each call, not at import, so it
reads the module's functions when the suite runs: a tracer that swaps
them for timing wrappers (``perfbench/run.py --trace 1``) would otherwise
be bypassed by a table holding the originals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import network, ops
from .activations import (
    ActivationKind,
    act_backward,
    act_forward,
    act_forward_variants,
    act_init,
    default_pool,
    kink_points,
)
from .gradcheck import DEFAULT_STEP, gradcheck
from .losses import dice_loss, dice_per_sample, weighted_ce, weighted_ce_per_sample
from .rng import SplitMix64, derive_seed

TOL = 1e-4  # activations, ops and losses
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


def _on_batch_axis(op, values: np.ndarray) -> np.ndarray:
    """``op``'s output for each perturbation in ``values`` (B, n, ...) of an
    input whose first axis is a batch of n, from one call of ``op`` on the
    B*n maps, shaped (B, n, ...). For an op that works on each map of a
    batch alone, in an order that does not depend on the batch size, each
    row equals ``op`` of that perturbation bit for bit."""
    y = op(values.reshape((-1,) + values.shape[2:]))
    return y.reshape(values.shape[:2] + y.shape[1:])


def _each_chunk(evaluate_one):
    """A ``gradcheck`` ``evaluate`` from ``evaluate_one(k, values)``, which
    gives the outputs of one chunk: the chunks' outputs concatenated."""
    return lambda chunks: np.concatenate([evaluate_one(k, values) for k, values in chunks])


def _noise_params(state, rng: SplitMix64) -> None:
    """Move the learnable scalars off their init values so every slope term
    is actually exercised (a wrong slope scaled by a zero coefficient would
    otherwise pass). SReLU thresholds stay put so the kink set is shared
    across channels. A fixed kind's (0, C) array draws no values."""
    p = state.params
    noise = (rng.uniform_array(p.size).reshape(p.shape) - 0.5) * 0.8
    if state.kind == ActivationKind.SRELU:
        noise[0] = 0.0  # t_l
        noise[2] = 0.0  # t_r
        noise *= 0.5
    elif state.kind == ActivationKind.SOFT_ROOT_SIGN:
        noise *= 0.5  # keep the denominator comfortably positive
    p += noise.astype(p.dtype)


def check_activation(kind: ActivationKind, seed: int) -> float:
    """Input and parameter gradients of one kind at noised parameters. A
    parameter-free kind's (0, channels) parameter array adds no scalars.

    Each input's perturbations run in one call: those of ``x`` on the batch
    axis, since the activation works per element, and those of the
    parameters folded into channels (``act_forward_variants``)."""
    channels = 2
    state = act_init(kind, channels, dtype=np.float64)
    rng = SplitMix64(derive_seed(seed, default_pool().index(kind)))
    _noise_params(state, rng)
    x = sample_away_from_kinks(rng, (2, channels, 3, 3), kink_points(state), 10.0 * DEFAULT_STEP)

    def fn(xv, _params):  # the parameters are state.params itself
        return act_forward(xv, state), lambda u: act_backward(xv, state, u)

    def evaluate(k, values):
        if k == 0:
            return _on_batch_axis(lambda v: act_forward(v, state), values)
        return act_forward_variants(x, state, values).reshape((len(values),) + x.shape)

    return gradcheck(fn, [x, state.params], cotangent_seed=seed, evaluate=_each_chunk(evaluate))


def check_conv(seed: int) -> float:
    """Input, weight and bias gradients of one of four conv geometries.

    The perturbations of ``x`` run as one batch of images; those of the
    weight or the bias as one ``ops.conv2d`` call's leading variants axis,
    one GEMM of the unbatched shape for each."""
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
        return ops.conv2d(xv, wv, bv, spec), lambda u: ops.conv2d_backward(u, xv, wv, spec)

    def evaluate(k, values):
        if k == 0:
            return _on_batch_axis(lambda v: ops.conv2d(v, w, b, spec), values)
        y = ops.conv2d(x, values, b, spec) if k == 1 else ops.conv2d(x, w, values, spec)
        return y[:, None]  # x is one image: (B, 1, cout, oh, ow)

    return gradcheck(fn, [x, w, b], cotangent_seed=seed, evaluate=_each_chunk(evaluate))


def check_upsample(seed: int) -> float:
    rng = SplitMix64(derive_seed(seed, 0x0B))
    factor = 2 + seed % 3
    x = rng.normal_array((1, 2, 3, 4))

    def fn(xv):
        y = ops.upsample_bilinear(xv, factor)
        return y, lambda u: [ops.upsample_bilinear_backward(u, 3, 4, factor)]

    def evaluate(_k, values):
        return _on_batch_axis(lambda v: ops.upsample_bilinear(v, factor), values)

    return gradcheck(fn, [x], cotangent_seed=seed, evaluate=_each_chunk(evaluate))


def check_softmax(seed: int) -> float:
    rng = SplitMix64(derive_seed(seed, 0x50))
    x = rng.normal_array((2, 3, 3, 3))

    def fn(xv):
        y = ops.softmax_channel(xv)
        return y, lambda u: [ops.softmax_channel_backward(u, y)]

    def evaluate(_k, values):
        return _on_batch_axis(ops.softmax_channel, values)

    return gradcheck(fn, [x], cotangent_seed=seed, evaluate=_each_chunk(evaluate))


def _check_loss(loss_fn, per_sample_fn, seed: int) -> float:
    """Gradient of ``loss_fn(probs, target) -> (loss, dprobs)`` with respect to
    probabilities in [0.1, 0.9] against a random two-class 4x4 target, as a
    batch of one.

    The perturbed maps run as one batch scored by ``per_sample_fn(probs,
    target) -> (n,)``, whose value for a batch of one must equal
    ``loss_fn``'s loss bit for bit."""
    rng = SplitMix64(derive_seed(seed, 0x10))
    probs = 0.1 + 0.8 * rng.uniform_array(2 * 4 * 4).reshape(1, 2, 4, 4)
    fg = rng.uniform_array(4 * 4).reshape(4, 4) < 0.4
    target = np.stack([1.0 - fg, fg * 1.0])[None]

    def fn(pv):
        loss, grad = loss_fn(pv, target)
        return np.float64(loss), lambda u: [u * grad]

    def evaluate(_k, values):
        maps = values.reshape((-1,) + probs.shape[1:])
        return per_sample_fn(maps, np.broadcast_to(target, maps.shape))

    return gradcheck(fn, [probs], cotangent_seed=seed, evaluate=_each_chunk(evaluate))


def check_dice(seed: int) -> float:
    return _check_loss(dice_loss, dice_per_sample, seed)


def check_weighted_ce(seed: int) -> float:
    weights = (0.5, 2.0)
    return _check_loss(partial(weighted_ce, class_weights=weights),
                       partial(weighted_ce_per_sample, class_weights=weights), seed)


def _min_kink_distance(model, cache) -> float:
    """Smallest distance from any activation input to that site's kink set."""
    dmin = np.inf
    for z, st in zip(cache["pre"], model.acts, strict=True):
        for k in kink_points(st):
            dmin = min(dmin, float(np.abs(z - k).min()))
    return dmin


def check_network(seed: int) -> float:
    """Dice-loss gradient of every weight, bias, and activation parameter of
    the reduced network against central differences.

    The check runs at a generic parameter point: biases and activation
    parameters get small random offsets, and the point is re-drawn until no
    pre-activation sits near an activation kink (at the raw init, dead-ReLU
    regions plus zero biases put downstream inputs exactly on kinks, where
    the loss is genuinely non-differentiable and the comparison meaningless).

    All parameter arrays are checked in one ``gradcheck`` call, in sorted
    key order. Each ``evaluate`` call runs its chunks, the ±h
    perturbations of consecutive arrays up to gradcheck's bound, in one
    batched forward (``network.forward(..., variants=[...])``), scored by
    ``dice_per_sample``: three forwards for the reduced network's 23
    arrays. Every batched op on a variant is an elementwise op, a
    reduction within one map, or a GEMM of the unbatched shape, so its
    arithmetic is that of a forward with the perturbed array in place, bit
    for bit; per-sample dice of a batch equals dice of each map alone, so
    every numeric gradient, and so the row, is the same as from one
    forward per perturbation.
    """
    cfg = REDUCED_CONFIG
    assignment = network.assign_activations(
        default_pool(), cfg.site_count, derive_seed(seed, 0xA55)
    )
    rng = SplitMix64(derive_seed(seed, 0xDA7A))
    image = rng.uniform_array(3 * cfg.input_size**2).reshape(1, 3, cfg.input_size, cfg.input_size)
    fg = rng.uniform_array(cfg.input_size**2).reshape(cfg.input_size, cfg.input_size) < 0.35
    target = np.stack([1.0 - fg, fg * 1.0])[None]

    margin = 100.0 * E2E_STEP
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
        _, base = network.forward(model, image)
        if _min_kink_distance(model, base) > margin:
            break
    else:
        raise RuntimeError(f"could not find a kink-free evaluation point for seed {seed}")

    params = model.parameters()
    keys = sorted(params)

    def fn(*_params):  # the model reads the same arrays
        probs, cache = network.forward(model, image)
        loss, dprobs = dice_loss(probs, target)

        def vjp(u):
            grads = network.backward(model, cache, float(u) * dprobs)
            return [grads[key] for key in keys]

        return np.float64(loss), vjp

    def evaluate(chunks):
        probs, _ = network.forward(model, image,
                                   variants=[(keys[i], values) for i, values in chunks])
        return dice_per_sample(probs, np.broadcast_to(target, probs.shape))

    return gradcheck(fn, [params[key] for key in keys], h=E2E_STEP, cotangent_seed=seed,
                     evaluate=evaluate)


def run_suite(seeds: int = 20, e2e_seeds: int = 20) -> list[CheckResult]:
    """The full suite: one result row per named check, holding the largest
    error over the row's seeds."""
    rows = [(f"activation/{kind.value}", partial(check_activation, kind), TOL, seeds)
            for kind in default_pool()]
    rows += [
        ("op/conv2d", check_conv, TOL, seeds),
        ("op/upsample_bilinear", check_upsample, TOL, seeds),
        ("op/softmax_channel", check_softmax, TOL, seeds),
        ("loss/dice", check_dice, TOL, seeds),
        ("loss/weighted_ce", check_weighted_ce, TOL, seeds),
        ("network/end_to_end", check_network, E2E_TOL, e2e_seeds),
    ]
    return [CheckResult(name, max(check(s) for s in range(n)), tol)
            for name, check, tol, n in rows]
