"""Dense NCHW tensor operations with hand-written backward passes.

Tensors are plain numpy arrays in (batch, channel, height, width) layout,
float32 during training and float64 when gradients are being verified.
Every operation is a pure function, and all reductions happen in a fixed
order, so repeated runs produce bit-identical results. Convolution is
im2col + GEMM over a read-only strided view of the padded input's patches:
no index arrays, no gather, and at most one copy, to flatten that view.
"""

from __future__ import annotations

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
    if x.ndim != 4:
        raise ValueError(f"input must be 4-D (n, c, h, w), got ndim {x.ndim}")
    want_w = (spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w)
    if weight.shape != want_w:
        raise ValueError(f"weight shape {weight.shape} != spec kernel {want_w}")
    if bias is not None and bias.shape != (spec.out_channels,):
        raise ValueError(
            f"bias length {bias.shape} != out_channels {spec.out_channels}"
        )
    if x.shape[1] != spec.in_channels:
        raise ValueError(
            f"input channels {x.shape[1]} != spec in_channels {spec.in_channels}"
        )


def _patches(x, spec, oh, ow):
    """Read-only (n, c, kh, kw, oh, ow) view of the receptive fields of the
    zero-padded ``x``, sharing memory with the padded input."""
    p, d, s = spec.padding, spec.dilation, spec.stride
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
    sn, sc, sh, sw = xp.strides
    shape = xp.shape[:2] + (spec.kernel_h, spec.kernel_w, oh, ow)
    return as_strided(xp, shape, (sn, sc, sh * d, sw * d, sh * s, sw * s), writeable=False)


def conv2d(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """2-D convolution with stride, zero padding, and dilation: one batched
    matmul of the weights with the flattened patch view, reducing over
    c*kh*kw in a fixed order."""
    _check_conv_args(x, weight, spec, bias)
    n, _, h, w = x.shape
    oh, ow = spec.output_hw(h, w)
    cols = _patches(x, spec, oh, ow).reshape(n, -1, oh * ow)
    wmat = weight.reshape(spec.out_channels, -1)
    y = np.matmul(wmat, cols) + bias[:, None]
    return y.reshape(n, spec.out_channels, oh, ow)


def conv2d_backward(grad: np.ndarray, x: np.ndarray, weight: np.ndarray, spec: ConvSpec,
                    need_dx: bool = True):
    """Gradients of conv2d: returns (dx, dweight, dbias).

    dweight multiplies the upstream gradient by the forward pass's columns
    per image, then sums over the batch in index order. dx scatters the
    columns of W^T @ grad back onto the padded input one tap at a time.
    With ``need_dx=False`` (a layer whose input needs no gradient, such as
    the image) dx is returned as None and neither the columns of W^T @ grad
    nor the scatter are computed; dweight and dbias are unchanged.
    """
    _check_conv_args(x, weight, spec)
    n, _, h, w = x.shape
    oh, ow = spec.output_hw(h, w)
    if grad.shape != (n, spec.out_channels, oh, ow):
        raise ValueError(
            f"upstream shape {grad.shape} != output shape {(n, spec.out_channels, oh, ow)}"
        )
    p, d, s = spec.padding, spec.dilation, spec.stride
    cols = _patches(x, spec, oh, ow).reshape(n, -1, oh * ow)
    g2 = grad.reshape(n, spec.out_channels, oh * ow)

    dbias = grad.sum(axis=(0, 2, 3))
    dweight = np.matmul(g2, cols.transpose(0, 2, 1)).sum(axis=0).reshape(weight.shape)
    if not need_dx:
        return None, dweight, dbias

    wmat = weight.reshape(spec.out_channels, -1)
    dcols = np.matmul(wmat.T, g2)
    dpatch = dcols.reshape(n, spec.in_channels, spec.kernel_h, spec.kernel_w, oh, ow)

    dxp = np.zeros((n, spec.in_channels, h + 2 * p, w + 2 * p), dtype=x.dtype)
    for i in range(spec.kernel_h):
        for j in range(spec.kernel_w):
            dxp[
                :, :, i * d : i * d + s * (oh - 1) + 1 : s, j * d : j * d + s * (ow - 1) + 1 : s
            ] += dpatch[:, :, i, j]
    return np.ascontiguousarray(dxp[:, :, p : p + h, p : p + w]), dweight, dbias


def _axis_map(n_in: int, n_out: int):
    """Half-pixel source mapping with edge clamp for one axis.

    Returns (idx0, idx1, frac) such that out[k] = in[idx0[k]] +
    frac[k] * (in[idx1[k]] - in[idx0[k]]).
    """
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    idx0 = np.floor(src).astype(np.intp)
    idx1 = np.minimum(idx0 + 1, n_in - 1)
    frac = src - idx0
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
