"""Per-layer metrics of stoseg, derived from tracer spans, and the
activation kernel sweep.

Every per-layer metric is emitted on every workload. A layer the workload
does not exercise reads 0. Totals, call counts and byte counts are per
repetition of the timed phase; percentiles are over single calls. Conv
GFLOP/s are computed from shapes, not counted by hardware.

Which end-to-end metric each layer should move:

- ``ops.conv2d*``: items_per_s on all three workloads; on eval_relu conv is
  nearly all of the forward pass; on gradcheck_f64 shapes are tiny, so an
  extra Python loop per kernel tap can lose there.
- ``activations.*``: items_per_s on train_sto; no change on eval_relu.
- ``network.*.self_ms_total`` and per-call overhead: items_per_s on
  gradcheck_f64.
- ``network.predict_batch`` working set: peak_rss_mb and items_per_s on
  eval_relu.
- ``ensemble.fuse_probs``, ``data.resize_pred_back``,
  ``metrics.evaluate_set``, ``pnm.read_pnm``: items_per_s on eval_relu;
  negligible on train_sto.
- ``losses.sgd_step``, ``losses.dice_loss``, ``data.augment``: items_per_s
  on train_sto, by small amounts.
- ``ensemble.fused_dice`` and ``ensemble.dice_gain`` should not move under
  pure speed work; a changed summation order can move them.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from stoseg import activations, ops
from stoseg.network import NetworkConfig

from .tracer import Span, child_ms

TRACED_MODULES = ("ensemble", "losses", "network", "ops", "activations", "data",
                  "pnm", "metrics", "suite", "gradcheck")

CONV_LAYERS = ("stem", "down1", "down2", "aspp0", "aspp1", "aspp2", "fuse", "head")

SWEEP_SHAPE = (8, 16, 64, 64)  # batch 8, 64x64, the stem site's channels
SWEEP_REPEATS = 3


def conv_layer_names(cfg: NetworkConfig) -> dict[ops.ConvSpec, str]:
    """ConvSpec -> layer name for the topology documented in stoseg.network,
    built from public config fields so that it survives a rewrite of the
    network's internal layer table."""
    layers = {
        ops.ConvSpec(cfg.stem_width, 3, 3, 3, stride=1, padding=1): "stem",
        ops.ConvSpec(cfg.down_width, cfg.stem_width, 3, 3, stride=2, padding=1): "down1",
        ops.ConvSpec(cfg.down_width, cfg.down_width, 3, 3, stride=2, padding=1): "down2",
    }
    for i, d in enumerate(cfg.aspp_dilations):
        layers[ops.ConvSpec(cfg.aspp_width, cfg.down_width, 3, 3,
                            stride=1, padding=d, dilation=d)] = f"aspp{i}"
    cat = cfg.aspp_width * len(cfg.aspp_dilations)
    layers[ops.ConvSpec(cfg.fuse_width, cat, 1, 1)] = "fuse"
    layers[ops.ConvSpec(cfg.num_classes, cfg.fuse_width, 1, 1)] = "head"
    return layers


def _conv_flops(spec: ops.ConvSpec, n: int, oh: int, ow: int) -> int:
    """Multiply-adds of one forward convolution, counted as 2 FLOPs each."""
    return 2 * n * spec.out_channels * oh * ow * spec.in_channels * spec.kernel_h * spec.kernel_w


def annotators(cfg: NetworkConfig) -> dict:
    """Span attributes computed from shapes: the conv layer and its FLOPs
    (backward = dx + dweight = twice the forward), and PNM payload bytes."""
    names = conv_layer_names(cfg)

    def conv(args, kwargs, y):
        spec = args[3] if len(args) > 3 else kwargs["spec"]
        n, _, oh, ow = y.shape
        return {"layer": names.get(spec), "flops": _conv_flops(spec, n, oh, ow)}

    def conv_backward(args, kwargs, result):
        grad = args[0] if args else kwargs["grad"]
        spec = args[3] if len(args) > 3 else kwargs["spec"]
        n, _, oh, ow = grad.shape
        return {"layer": names.get(spec), "flops": 2 * _conv_flops(spec, n, oh, ow)}

    def read_pnm(args, kwargs, result):
        return {"bytes": result[0].nbytes}

    return {"ops.conv2d": conv, "ops.conv2d_backward": conv_backward,
            "pnm.read_pnm": read_pnm}


def activation_sweep(seed: int, shape=SWEEP_SHAPE, repeats: int = SWEEP_REPEATS) -> dict[str, float]:
    """Median forward and backward ms of every activation kind at ``shape``."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3.0, 3.0, size=shape).astype(np.float32)
    up = rng.standard_normal(size=shape).astype(np.float32)
    out = {}
    for kind in activations.default_pool():
        state = activations.act_init(kind, shape[1])
        for label, call in (("fwd", lambda: activations.act_forward(x, state)),
                            ("bwd", lambda: activations.act_backward(x, state, up))):
            call()  # warm-up
            times = []
            for _ in range(repeats):
                t = perf_counter()
                call()
                times.append((perf_counter() - t) * 1e3)
            out[f"activations.{kind.value}.{label}_ms"] = statistics.median(times)
    return out


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def per_layer_metrics(spans: list[Span], reps: int, setup_spans: list[Span],
                      quality: dict[str, float], overhead_share: float,
                      sweep: dict[str, float]) -> dict[str, float]:
    """All per-layer metrics from the spans of ``reps`` traced repetitions
    (plus one traced set-up for the checkpoint write)."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def ms(name):
        return [s.ms for s in by_name.get(name, [])]

    def total(name):
        return sum(ms(name)) / reps

    def calls(name):
        return len(by_name.get(name, [])) / reps

    def layer_p50(name, layer):
        return _pct([s.ms for s in by_name.get(name, []) if s.attrs["layer"] == layer], 50)

    def gflops_per_s(name):
        done = by_name.get(name, [])
        secs = sum(s.ms for s in done) / 1e3
        return sum(s.attrs["flops"] for s in done) / secs / 1e9 if secs else 0.0

    compute = child_ms(spans, lambda s: s.name.startswith(("ops.", "activations.")))
    every_child = child_ms(spans)

    def self_total(name, covered):
        return sum(s.ms - covered[i] for i, s in enumerate(spans) if s.name == name) / reps

    m: dict[str, float] = {
        "ops.conv2d.ms_total": total("ops.conv2d"),
        "ops.conv2d_backward.ms_total": total("ops.conv2d_backward"),
        "ops.conv2d.calls": calls("ops.conv2d"),
    }
    for op in ("conv2d", "conv2d_backward"):
        for layer in CONV_LAYERS:
            m[f"ops.{op}.{layer}.ms_p50"] = layer_p50(f"ops.{op}", layer)
    m.update({
        "ops.conv2d.gflops_per_s": gflops_per_s("ops.conv2d"),
        "ops.conv2d_backward.gflops_per_s": gflops_per_s("ops.conv2d_backward"),
        "ops.upsample_bilinear.ms_total": total("ops.upsample_bilinear"),
        "ops.upsample_bilinear_backward.ms_total": total("ops.upsample_bilinear_backward"),
        "ops.softmax_channel.ms_total": total("ops.softmax_channel"),
        "activations.act_forward.ms_total": total("activations.act_forward"),
        "activations.act_backward.ms_total": total("activations.act_backward"),
        "activations.act_forward.calls": calls("activations.act_forward"),
        "network.forward.ms_p50": _pct(ms("network.forward"), 50),
        "network.forward.ms_p90": _pct(ms("network.forward"), 90),
        "network.forward.calls": calls("network.forward"),
        "network.backward.ms_p50": _pct(ms("network.backward"), 50),
        "network.backward.ms_p90": _pct(ms("network.backward"), 90),
        "network.backward.calls": calls("network.backward"),
        "network.predict_batch.ms_p50": _pct(ms("network.predict_batch"), 50),
        "network.forward.self_ms_total": self_total("network.forward", compute),
        "network.backward.self_ms_total": self_total("network.backward", compute),
        "losses.train_model.s_p50": _pct(ms("losses.train_model"), 50) / 1e3,
        "losses.train_model.self_ms_total": self_total("losses.train_model", every_child),
        "losses.dice_loss.ms_total": total("losses.dice_loss"),
        "losses.sgd_step.ms_total": total("losses.sgd_step"),
        "data.augment.ms_total": total("data.augment"),
        "data.resize_for_train.ms_total": total("data.resize_for_train"),
        "data.resize_pred_back.ms_total": total("data.resize_pred_back"),
        "data.load_dir.ms": _pct(ms("data.load_dir"), 50),
        "pnm.read_pnm.ms_total": total("pnm.read_pnm"),
        "pnm.read_pnm.bytes": sum(s.attrs["bytes"] for s in by_name.get("pnm.read_pnm", [])) / reps,
        "ensemble.train_ensemble.s": _pct(ms("ensemble.train_ensemble"), 50) / 1e3,
        "ensemble.evaluate_models.s": _pct(ms("ensemble.evaluate_models"), 50) / 1e3,
        "ensemble.fuse_probs.ms_total": total("ensemble.fuse_probs"),
        "ensemble.save_ensemble.ms": _pct([s.ms for s in setup_spans
                                           if s.name == "ensemble.save_ensemble"], 50),
        "ensemble.load_ensemble.ms": _pct(ms("ensemble.load_ensemble"), 50),
        "ensemble.fused_dice": quality.get("fused_dice", 0.0),
        "ensemble.dice_gain": quality.get("dice_gain", 0.0),
        "metrics.evaluate_set.ms_total": total("metrics.evaluate_set"),
        "suite.check_activation.ms_total": total("suite.check_activation"),
        "suite.check_conv.ms_total": total("suite.check_conv"),
        "suite.check_network.ms_total": total("suite.check_network"),
        "gradcheck.gradcheck.calls": calls("gradcheck.gradcheck"),
        "trace.overhead_share": overhead_share,
    })
    m.update(sweep)
    return m
