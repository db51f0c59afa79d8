"""Dense NCHW tensor operations with hand-written backward passes.

Tensors are plain numpy arrays in (batch, channel, height, width) layout,
float32 during training and float64 when gradients are being verified.
Every operation is a pure function, and all reductions happen in a fixed
order, so repeated runs produce bit-identical results. Convolution is
im2col + GEMM over a read-only strided view of the padded input's patches:
no index arrays and no gather. A padded input is copied once into a zeroed
buffer (an unpadded one is viewed in place), the view is flattened with at
most one more copy, and the bias is added into the GEMM's output.
Parameter variants are rows on the batch axis (see ``conv2d``).

The convolution's backward pass builds no im2col columns. It copies the
padded input once into its stride phases, each phase's rows extended to a
common width, so that every kernel tap reads one contiguous run of a phase;
each tap is then one batched GEMM for dweight and one for dx, and dx is
accumulated by contiguous adds into a phase-split buffer. dx and dbias are
bit-identical to the im2col backward; dweight sums over a longer run that
holds exact zeros, so it differs from it only in rounding (up to about
5e-7 of its largest entry in float32, 9e-16 in float64).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided


@dataclass(frozen=True)
class ConvSpec:
    """Shape and geometry of one convolution layer."""

    out_channels: int
    in_channels: int
    kernel_h: int
    kernel_w: int
    stride: int = 1
    padding: int = 0
    dilation: int = 1

    def __post_init__(self):
        if self.out_channels < 1 or self.in_channels < 1:
            raise ValueError("channel counts must be >= 1")
        if self.kernel_h < 1 or self.kernel_w < 1:
            raise ValueError("kernel dims must be >= 1")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.padding < 0:
            raise ValueError(f"padding must be >= 0, got {self.padding}")
        if self.dilation < 1:
            raise ValueError(f"dilation must be >= 1, got {self.dilation}")

    @property
    def extent_h(self) -> int:
        """Effective kernel extent along rows: d*(k-1)+1."""
        return self.dilation * (self.kernel_h - 1) + 1

    @property
    def extent_w(self) -> int:
        return self.dilation * (self.kernel_w - 1) + 1

    def output_hw(self, h: int, w: int) -> tuple[int, int]:
        oh = (h + 2 * self.padding - self.extent_h) // self.stride + 1
        ow = (w + 2 * self.padding - self.extent_w) // self.stride + 1
        if oh < 1:
            raise ValueError(
                f"input height {h} too small for kernel extent {self.extent_h} "
                f"with padding {self.padding}"
            )
        if ow < 1:
            raise ValueError(
                f"input width {w} too small for kernel extent {self.extent_w} "
                f"with padding {self.padding}"
            )
        return oh, ow


def _check_conv_args(x, weight, spec, bias=None):
    """With ``bias`` (the forward), ``weight`` and ``bias`` may each carry one
    leading axis of variants; without (the backward), ``weight`` may not."""
    if x.ndim != 4:
        raise ValueError(f"input must be 4-D (n, c, h, w), got ndim {x.ndim}")
    want_w = (spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w)
    if weight.shape[-4:] != want_w or weight.ndim > 4 + (bias is not None):
        raise ValueError(f"weight shape {weight.shape} != spec kernel {want_w}")
    if bias is not None and (bias.shape[-1:] != (spec.out_channels,) or bias.ndim > 2):
        raise ValueError(
            f"bias length {bias.shape} != out_channels {spec.out_channels}"
        )
    if x.shape[1] != spec.in_channels:
        raise ValueError(
            f"input channels {x.shape[1]} != spec in_channels {spec.in_channels}"
        )


def _patches(x, spec, oh, ow):
    """Read-only (n, c, kh, kw, oh, ow) view of the receptive fields of the
    zero-padded ``x``.

    With padding, ``x`` is copied into the interior of a zeroed
    (n, c, h + 2p, w + 2p) buffer of its dtype, and the view sits on that
    buffer; without, the view sits on ``x`` itself, whatever its strides.
    """
    p, d, s = spec.padding, spec.dilation, spec.stride
    xp = x
    if p:
        n, c, h, w = x.shape
        xp = np.zeros((n, c, h + 2 * p, w + 2 * p), x.dtype)
        xp[:, :, p : p + h, p : p + w] = x
    sn, sc, sh, sw = xp.strides
    shape = xp.shape[:2] + (spec.kernel_h, spec.kernel_w, oh, ow)
    return as_strided(xp, shape, (sn, sc, sh * d, sw * d, sh * s, sw * s), writeable=False)


def conv2d(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """2-D convolution with stride, zero padding, and dilation: one batched
    matmul of the weights with the flattened patch view, reducing over
    c*kh*kw in a fixed order. The bias is added into the matmul's output,
    in place in a plain call, so a wider ``bias`` is cast down.

    Variants are rows on the batch axis: ``weight`` (B, cout, cin, kh, kw)
    and/or ``bias`` (B, cout), whose leading axes broadcast, give B*n rows,
    variant b's at b*n .. b*n + n - 1. Each weight array runs the plain
    (cout, K) @ (K, P) GEMM on ``np.matmul``'s batch axis against one set of
    columns, so every row equals a plain conv's bit for bit; folding the
    variants into the output channels would run one GEMM of B times the
    rows, which BLAS may round differently."""
    _check_conv_args(x, weight, spec, bias)
    n, _, h, w = x.shape
    oh, ow = spec.output_hw(h, w)
    cols = _patches(x, spec, oh, ow).reshape(n, -1, oh * ow)
    if weight.ndim == 4 and bias.ndim == 1:
        y = np.matmul(weight.reshape(spec.out_channels, -1), cols)
        y += bias[:, None]
    else:
        wmats = weight.reshape(-1, 1, spec.out_channels, cols.shape[1])
        y = np.matmul(wmats, cols) + bias.reshape(-1, 1, spec.out_channels, 1)
    return y.reshape(-1, spec.out_channels, oh, ow)


def _phase_runs(n_in: int, p: int, s: int) -> list[tuple[slice, slice]]:
    """For each phase a of one axis: the unpadded indices whose padded index
    ``k + p`` is a mod ``s``, and where they sit along phase a's axis."""
    runs = []
    for a in range(s):
        k0 = (a - p) % s
        q0 = (k0 + p) // s
        runs.append((slice(k0, n_in, s), slice(q0, q0 + len(range(k0, n_in, s)))))
    return runs


def conv2d_backward(grad: np.ndarray, x: np.ndarray, weight: np.ndarray, spec: ConvSpec,
                    need_dx: bool = True):
    """Gradients of conv2d: returns (dx, dweight, dbias).

    The padded input is split into its s*s stride phases, phase (a, b)
    holding padded rows a::s and columns b::s, in a zeroed
    (n, c, s*s, hq*wq) buffer with ``hq = ceil((h + 2p)/s) + 1`` and
    ``wq = ceil((w + 2p)/s)``. The upstream gradient is copied into a zeroed
    (n, cout, oh, wq) buffer, whose columns past ``ow`` are exact zeros.
    Tap (i, j) then reads one contiguous run of ``oh*wq`` values of one
    phase, so each tap is one batched GEMM with no column copy: dweight's
    tap is ``grad @ run^T`` summed over the batch in index order, and dx's
    tap is ``W[:, :, i, j]^T @ grad`` into one reused buffer, added to the
    same run of a phase-split dx that reuses the input's zeroed phase
    buffer. The spare zero row keeps the last tap's run inside its phase,
    and the reads past ``ow`` meet zero gradient.

    dx and dbias are bit-identical to scattering im2col columns of
    ``W^T @ grad`` tap by tap; dweight reduces over oh*wq instead of oh*ow
    terms and so differs from the im2col GEMM in the last bits. With
    ``need_dx=False`` (a layer whose input needs no gradient, such as the
    image) dx is returned as None and its GEMMs are skipped; dweight and
    dbias are unchanged.

    A 1x1, stride-1, unpadded layer has one tap, whose run is the whole of
    ``x`` and of ``grad``: ``_pointwise_backward`` reads both in place.
    """
    _check_conv_args(x, weight, spec)
    n, cin, h, w = x.shape
    cout = spec.out_channels
    oh, ow = spec.output_hw(h, w)
    if grad.shape != (n, cout, oh, ow):
        raise ValueError(f"upstream shape {grad.shape} != output shape {(n, cout, oh, ow)}")
    p, d, s = spec.padding, spec.dilation, spec.stride
    if (spec.kernel_h, spec.kernel_w, s, p) == (1, 1, 1, 0):
        return _pointwise_backward(grad, x, weight, need_dx)
    rows, cols = _phase_runs(h, p, s), _phase_runs(w, p, s)
    hq, wq = -(-(h + 2 * p) // s) + 1, -(-(w + 2 * p) // s)
    run = oh * wq

    xph = np.zeros((n, cin, s, s, hq, wq), x.dtype)
    for a, (xr, qr) in enumerate(rows):
        for b, (xc, qc) in enumerate(cols):
            xph[:, :, a, b, qr, qc] = x[:, :, xr, xc]
    xph = xph.reshape(n, cin, s * s, hq * wq)
    gext = np.zeros((n, cout, oh, wq), grad.dtype)
    gext[..., :ow] = grad
    gext = gext.reshape(n, cout, run)
    taps = [(i, j, (i * d % s) * s + j * d % s, (i * d // s) * wq + j * d // s)
            for i in range(spec.kernel_h) for j in range(spec.kernel_w)]

    dbias = grad.sum(axis=(0, 2, 3))
    dweight = np.empty(weight.shape, np.result_type(grad, x))
    for i, j, ph, off in taps:
        xrun = xph[:, :, ph, off : off + run].transpose(0, 2, 1)
        dweight[:, :, i, j] = np.matmul(gext, xrun).sum(axis=0)
    if not need_dx:
        return None, dweight, dbias

    buf = np.empty((n, cin, run), np.result_type(weight, grad))
    dph = xph  # not read again: its pages, already faulted in, hold dx's phases
    dph.fill(0)
    for i, j, ph, off in taps:
        np.matmul(weight[:, :, i, j].T, gext, out=buf)
        dph[:, :, ph, off : off + run] += buf
    dph = dph.reshape(n, cin, s, s, hq, wq)
    dx = np.empty(x.shape, x.dtype)
    for a, (xr, qr) in enumerate(rows):
        for b, (xc, qc) in enumerate(cols):
            dx[:, :, xr, xc] = dph[:, :, a, b, qr, qc]
    return dx, dweight, dbias


def _pointwise_backward(grad, x, weight, need_dx):
    """``conv2d_backward`` of a 1x1, stride-1, unpadded layer: the tap's
    GEMMs of the phase-split backward over ``x`` and ``grad`` themselves,
    with no phase buffer or extended gradient, and nothing written into
    ``x``. The GEMMs see the same values in the same shapes, so dx, dweight
    and dbias equal the phase-split path's."""
    n, cin, h, w = x.shape
    g = grad.reshape(n, -1, h * w)
    dbias = grad.sum(axis=(0, 2, 3))
    dweight = np.empty(weight.shape, np.result_type(grad, x))
    dweight[:, :, 0, 0] = np.matmul(g, x.reshape(n, cin, h * w).transpose(0, 2, 1)).sum(axis=0)
    if not need_dx:
        return None, dweight, dbias
    dx = np.matmul(weight[:, :, 0, 0].T, g).astype(x.dtype, copy=False)
    return dx.reshape(x.shape), dweight, dbias


@functools.lru_cache(maxsize=256)
def _axis_map(n_in: int, n_out: int):
    """Half-pixel source mapping with edge clamp for one axis.

    Returns (idx0, idx1, frac) such that out[k] = in[idx0[k]] +
    frac[k] * (in[idx1[k]] - in[idx0[k]]). Memoised per (n_in, n_out), so
    the arrays are shared by every caller and read-only; the bound keeps a
    dataset of many original sizes from growing the memo without limit.
    """
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    idx0 = np.floor(src).astype(np.intp)
    idx1 = np.minimum(idx0 + 1, n_in - 1)
    frac = src - idx0
    for a in (idx0, idx1, frac):
        a.flags.writeable = False
    return idx0, idx1, frac


def _lerp_axis(x: np.ndarray, axis: int, idx0, idx1, frac) -> np.ndarray:
    a = np.take(x, idx0, axis=axis)
    b = np.take(x, idx1, axis=axis)
    shape = [1] * x.ndim
    shape[axis] = len(frac)
    f = frac.astype(x.dtype).reshape(shape)
    # a + f*(b-a) is exact on constant inputs regardless of f
    return a + f * (b - a)


def _interp_matrix(n_in: int, n_out: int, dtype) -> np.ndarray:
    idx0, idx1, frac = _axis_map(n_in, n_out)
    A = np.zeros((n_out, n_in), dtype=np.float64)
    rows = np.arange(n_out)
    A[rows, idx0] += 1.0 - frac
    A[rows, idx1] += frac
    return A.astype(dtype, copy=False)


def upsample_bilinear(x: np.ndarray, factor: int) -> np.ndarray:
    """Bilinear upsampling by an integer factor (half-pixel centers, edge clamp)."""
    if x.ndim != 4:
        raise ValueError(f"input must be 4-D, got ndim {x.ndim}")
    if not isinstance(factor, (int, np.integer)) or factor < 1:
        raise ValueError(f"factor must be a positive integer, got {factor!r}")
    return bilinear_resize(x, x.shape[2] * factor, x.shape[3] * factor)


def upsample_bilinear_backward(grad: np.ndarray, in_h: int, in_w: int, factor: int) -> np.ndarray:
    """Adjoint of upsample_bilinear for an (in_h, in_w) input."""
    oh, ow = in_h * factor, in_w * factor
    if grad.shape[2] != oh or grad.shape[3] != ow:
        raise ValueError(
            f"upstream spatial shape {grad.shape[2:]} != expected {(oh, ow)}"
        )
    A_h = _interp_matrix(in_h, oh, grad.dtype)
    A_w = _interp_matrix(in_w, ow, grad.dtype)
    return np.matmul(np.matmul(A_h.T, grad), A_w)


def bilinear_resize(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of the trailing two axes to an arbitrary size."""
    if out_h < 1 or out_w < 1:
        raise ValueError("output dims must be >= 1")
    h, w = x.shape[-2], x.shape[-1]
    y = x
    if out_h != h:
        y = _lerp_axis(y, y.ndim - 2, *_axis_map(h, out_h))
    if out_w != w:
        y = _lerp_axis(y, y.ndim - 1, *_axis_map(w, out_w))
    return y if y is not x else x.copy()


def nearest_resize(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbor resize of the trailing two axes (half-pixel mapping)."""
    if out_h < 1 or out_w < 1:
        raise ValueError("output dims must be >= 1")
    h, w = x.shape[-2], x.shape[-1]
    ih = np.minimum((np.arange(out_h) + 0.5) * (h / out_h), h - 1).astype(np.intp)
    iw = np.minimum((np.arange(out_w) + 0.5) * (w / out_w), w - 1).astype(np.intp)
    y = np.take(x, ih, axis=x.ndim - 2)
    return np.take(y, iw, axis=x.ndim - 1)


def softmax_channel(x: np.ndarray) -> np.ndarray:
    """Per-pixel softmax across the channel axis, max-subtracted for stability."""
    if x.ndim != 4:
        raise ValueError(f"input must be 4-D, got ndim {x.ndim}")
    if x.shape[1] < 2:
        raise ValueError(f"softmax needs >= 2 channels, got {x.shape[1]}")
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=1, keepdims=True)


def softmax_channel_backward(grad: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Backward of softmax_channel given its output ``y``."""
    if grad.shape != y.shape:
        raise ValueError(f"upstream shape {grad.shape} != output shape {y.shape}")
    dot = (grad * y).sum(axis=1, keepdims=True)
    return y * (grad - dot)
