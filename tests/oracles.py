"""Independent brute-force oracles used by both the unit and acceptance
tests. Everything here is deliberately written as plain loops over Python
scalars so it shares no code path with the package implementation."""

from __future__ import annotations

import math

import numpy as np


def conv2d_naive(x, w, b, stride=1, padding=0, dilation=1):
    """Direct seven-loop convolution oracle."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    oh = (h + 2 * padding - dilation * (kh - 1) - 1) // stride + 1
    ow = (wd + 2 * padding - dilation * (kw - 1) - 1) // stride + 1
    out = np.zeros((n, cout, oh, ow), dtype=np.float64)
    for ni in range(n):
        for oc in range(cout):
            for oy in range(oh):
                for ox in range(ow):
                    acc = float(b[oc])
                    for ic in range(cin):
                        for ky in range(kh):
                            for kx in range(kw):
                                iy = oy * stride + ky * dilation - padding
                                ix = ox * stride + kx * dilation - padding
                                if 0 <= iy < h and 0 <= ix < wd:
                                    acc += float(x[ni, ic, iy, ix]) * float(w[oc, ic, ky, kx])
                    out[ni, oc, oy, ox] = acc
    return out


def upsample_naive(x, factor):
    """Per-pixel half-pixel bilinear oracle with edge clamping."""
    n, c, h, w = x.shape
    oh, ow = h * factor, w * factor
    out = np.zeros((n, c, oh, ow), dtype=np.float64)

    def sample(plane, sy, sx):
        sy = min(max(sy, 0.0), h - 1.0)
        sx = min(max(sx, 0.0), w - 1.0)
        y0, x0 = int(math.floor(sy)), int(math.floor(sx))
        y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
        fy, fx = sy - y0, sx - x0
        top = plane[y0, x0] + fx * (plane[y0, x1] - plane[y0, x0])
        bot = plane[y1, x0] + fx * (plane[y1, x1] - plane[y1, x0])
        return top + fy * (bot - top)

    for ni in range(n):
        for ci in range(c):
            for oy in range(oh):
                for ox in range(ow):
                    sy = (oy + 0.5) / factor - 0.5
                    sx = (ox + 0.5) / factor - 0.5
                    out[ni, ci, oy, ox] = sample(x[ni, ci], sy, sx)
    return out


def confusion_naive(pred, gt):
    """Pixel-by-pixel confusion counting with Python ints."""
    tp = tn = fp = fn = 0
    for p, g in zip(np.asarray(pred).ravel().tolist(), np.asarray(gt).ravel().tolist()):
        if p == 1 and g == 1:
            tp += 1
        elif p == 0 and g == 0:
            tn += 1
        elif p == 1 and g == 0:
            fp += 1
        else:
            fn += 1
    return tp, tn, fp, fn


def metrics_naive(tp, tn, fp, fn):
    """The six scores straight from their defining ratios (Dice is F1).

    Same degenerate-count conventions as the package: both-empty -> 1.0,
    one-empty -> 0.0 for the affected ratios.
    """
    total = tp + tn + fp + fn
    acc = (tp + tn) / total
    if tp + fp == 0 and tp + fn == 0:
        return {"accuracy": acc, "precision": 1.0, "recall": 1.0,
                "f2": 1.0, "iou": 1.0, "dice": 1.0}
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f2 = 5 * prec * rec / (4 * prec + rec) if 4 * prec + rec > 0 else 0.0
    iou = tp / (tp + fp + fn)
    dice = 2 * tp / (2 * tp + fp + fn)
    return {"accuracy": acc, "precision": prec, "recall": rec,
            "f2": f2, "iou": iou, "dice": dice}


# Fixed-knot kinds, from the definitions in the activations module docstring.
HAT_SCHEDULE = [(1.0, 1.0), (0.5, 0.5), (1.5, 0.5),
                (0.25, 0.25), (0.75, 0.25), (1.25, 0.25), (1.75, 0.25)]
APLU_HINGES = [-1.0, 0.0, 1.0]


def _hat(x, c, w):
    """max(0, w - |x - c|) and its right-hand slope."""
    if c - w <= x < c:
        slope = 1.0
    elif c <= x < c + w:
        slope = -1.0
    else:
        slope = 0.0
    return max(0.0, w - abs(x - c)), slope


def _piecewise_terms(kind, x):
    """(value, right slope) of the parameter-free part and of each
    parameter's term; the function is part + sum(param_r * term_r)."""
    relu = (max(x, 0.0), 1.0 if x >= 0 else 0.0)
    if kind == "aplu":
        return relu, [(max(0.0, b - x), -1.0 if x < b else 0.0) for b in APLU_HINGES]
    terms = [(min(x, 0.0), 0.0 if x >= 0 else 1.0)]  # prelu: relu(x) + c_0 * min(x, 0)
    for c, w in HAT_SCHEDULE[: int(kind[-1]) - 1]:
        h = _hat(x, c, w)
        if kind.startswith("galu"):  # wave(c, w) = hat(c, w) - hat(c + 2w, w)
            h2 = _hat(x, c + 2 * w, w)
            h = (h[0] - h2[0], h[1] - h2[1])
        terms.append(h)
    return relu, terms


def piecewise_naive(kind, x, params, up):
    """Forward, input gradient and per-channel parameter gradients of
    ``aplu``, ``melu4/8`` or ``galu4/8`` by scalar loops over (n, c, h, w)."""
    y = np.zeros(x.shape)
    dx = np.zeros(x.shape)
    dparams = np.zeros(params.shape)
    for idx in np.ndindex(*x.shape):
        ch = idx[1]
        (val, slope), terms = _piecewise_terms(kind, float(x[idx]))
        u = float(up[idx])
        for r, (g, g_slope) in enumerate(terms):
            p = float(params[r, ch])
            val += p * g
            slope += p * g_slope
            dparams[r, ch] += u * g
        y[idx] = val
        dx[idx] = u * slope
    return y, dx, dparams
