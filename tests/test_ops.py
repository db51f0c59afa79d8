import tracemalloc

import numpy as np
import pytest

from oracles import conv2d_naive, upsample_naive
from stoseg import network, ops, suite
from stoseg.rng import SplitMix64


class TestConvSpec:
    def test_effective_extent(self):
        spec = ops.ConvSpec(1, 1, 3, 3, dilation=2)
        assert spec.extent_h == 5 and spec.extent_w == 5

    @pytest.mark.parametrize("bad", [
        dict(stride=0), dict(dilation=0), dict(padding=-1), dict(kernel_h=0),
    ])
    def test_rejects_bad_geometry(self, bad):
        kwargs = dict(out_channels=1, in_channels=1, kernel_h=3, kernel_w=3)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            ops.ConvSpec(**kwargs)

    def test_output_too_small_names_axis(self):
        with pytest.raises(ValueError, match="height"):
            ops.ConvSpec(1, 1, 5, 1).output_hw(3, 8)
        with pytest.raises(ValueError, match="width"):
            ops.ConvSpec(1, 1, 1, 5).output_hw(8, 3)


class TestConv2d:
    def test_identity_kernel_1x1(self):
        x = SplitMix64(0).normal_array((1, 1, 3, 3))
        y = ops.conv2d(x, np.ones((1, 1, 1, 1)), np.zeros(1), ops.ConvSpec(1, 1, 1, 1))
        np.testing.assert_array_equal(y, x)

    def test_all_ones_3x3_padded(self):
        x = np.ones((1, 1, 3, 3))
        w = np.ones((1, 1, 3, 3))
        y = ops.conv2d(x, w, np.zeros(1), ops.ConvSpec(1, 1, 3, 3, padding=1))
        expected = np.array([[4, 6, 4], [6, 9, 6], [4, 6, 4]], dtype=float)
        np.testing.assert_array_equal(y[0, 0], expected)

    def test_dilation_2_gives_extent_5(self):
        x = np.ones((1, 1, 5, 5))
        w = np.ones((1, 1, 3, 3))
        y = ops.conv2d(x, w, np.zeros(1), ops.ConvSpec(1, 1, 3, 3, dilation=2))
        assert y.shape == (1, 1, 1, 1)
        np.testing.assert_array_equal(y.ravel(), [9.0])

    def test_delta_kernel_is_identity(self):
        rng = SplitMix64(1)
        x = rng.normal_array((2, 3, 5, 6))
        w = np.zeros((3, 3, 3, 3))
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        y = ops.conv2d(x, w, np.zeros(3), ops.ConvSpec(3, 3, 3, 3, padding=1))
        np.testing.assert_array_equal(y, x)

    @pytest.mark.parametrize("stride,padding,dilation", [
        (1, 0, 1), (1, 1, 1), (2, 1, 1), (1, 2, 2), (2, 2, 2), (3, 0, 1),
    ])
    def test_matches_naive_oracle(self, stride, padding, dilation):
        for seed in range(4):
            rng = SplitMix64(seed * 101 + stride * 7 + padding * 3 + dilation)
            x = rng.normal_array((2, 3, 7, 8))
            w = rng.normal_array((4, 3, 3, 3))
            b = rng.normal_array((4,))
            spec = ops.ConvSpec(4, 3, 3, 3, stride=stride, padding=padding, dilation=dilation)
            got = ops.conv2d(x, w, b, spec)
            want = conv2d_naive(x, w, b, stride=stride, padding=padding, dilation=dilation)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_channel_mismatch_names_dimension(self):
        x = np.zeros((1, 2, 4, 4))
        spec = ops.ConvSpec(1, 3, 3, 3, padding=1)
        with pytest.raises(ValueError, match="channels"):
            ops.conv2d(x, np.zeros((1, 3, 3, 3)), np.zeros(1), spec)

    def test_bit_identical_across_calls(self):
        rng = SplitMix64(5)
        x = rng.normal_array((2, 4, 9, 9)).astype(np.float32)
        w = rng.normal_array((4, 4, 3, 3)).astype(np.float32)
        b = rng.normal_array((4,)).astype(np.float32)
        spec = ops.ConvSpec(4, 4, 3, 3, padding=1)
        a = ops.conv2d(x, w, b, spec)
        c = ops.conv2d(x, w, b, spec)
        np.testing.assert_array_equal(a, c)


BACKWARD_GRID = [
    (3, 3, 1, 0, 1), (3, 3, 1, 1, 1), (3, 3, 2, 1, 1), (3, 3, 1, 2, 2), (3, 3, 2, 2, 2),
    (3, 3, 3, 0, 1), (1, 3, 1, 1, 1), (3, 1, 2, 1, 2), (2, 3, 1, 1, 1),
    (1, 1, 1, 0, 1), (1, 1, 2, 0, 1),
]


class TestConvBackward:
    def test_bias_gradient_counts_positions(self):
        x = SplitMix64(2).normal_array((2, 1, 4, 4))
        w = np.ones((1, 1, 1, 1))
        spec = ops.ConvSpec(1, 1, 1, 1)
        grad = np.ones((2, 1, 4, 4))
        _, _, db = ops.conv2d_backward(grad, x, w, spec)
        np.testing.assert_array_equal(db, [32.0])

    def test_upstream_shape_checked(self):
        x = np.zeros((1, 1, 4, 4))
        w = np.zeros((1, 1, 3, 3))
        spec = ops.ConvSpec(1, 1, 3, 3, padding=1)
        with pytest.raises(ValueError, match="upstream"):
            ops.conv2d_backward(np.zeros((1, 1, 3, 3)), x, w, spec)

    @pytest.mark.parametrize("x_shape,w_shape,match", [
        ((1, 2, 4, 4), (1, 3, 3, 3), "input channels"),
        ((1, 3, 4, 4), (1, 3, 3, 2), "weight shape"),
        ((1, 3, 4, 4), (2, 3, 3, 3), "weight shape"),
        ((3, 4, 4), (1, 3, 3, 3), "4-D"),
    ])
    def test_inputs_checked_against_spec(self, x_shape, w_shape, match):
        spec = ops.ConvSpec(1, 3, 3, 3, padding=1)
        with pytest.raises(ValueError, match=match):
            ops.conv2d_backward(np.zeros((1, 1, 4, 4)), np.zeros(x_shape), np.zeros(w_shape), spec)

    @pytest.mark.parametrize("kh,kw,stride,padding,dilation", BACKWARD_GRID)
    def test_adjoint_identity_and_bias_count(self, kh, kw, stride, padding, dilation):
        # <conv(x, w), g> == <x, dx> == <w, dw>, with conv from the loop oracle
        rng = SplitMix64(kh * 31 + kw * 13 + stride * 7 + padding * 3 + dilation)
        spec = ops.ConvSpec(4, 3, kh, kw, stride=stride, padding=padding, dilation=dilation)
        x = rng.normal_array((2, 3, 7, 8))
        w = rng.normal_array((4, 3, kh, kw))
        y = conv2d_naive(x, w, np.zeros(4), stride=stride, padding=padding, dilation=dilation)
        g = rng.normal_array(y.shape)
        dx, dw, db = ops.conv2d_backward(g, x, w, spec)
        assert dx.shape == x.shape and dw.shape == w.shape
        lhs = float(np.sum(y * g))
        assert abs(lhs - float(np.sum(x * dx))) <= 1e-10
        assert abs(lhs - float(np.sum(w * dw))) <= 1e-10
        want_db = np.zeros(4)
        for ni in range(y.shape[0]):
            for oc in range(4):
                for oy in range(y.shape[2]):
                    for ox in range(y.shape[3]):
                        want_db[oc] += g[ni, oc, oy, ox]
        np.testing.assert_allclose(db, want_db, atol=1e-10)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kh,kw,stride,padding,dilation", BACKWARD_GRID)
    def test_weight_gradients_without_dx(self, kh, kw, stride, padding, dilation, dtype):
        # need_dx=False skips only dx: dweight and dbias are the full call's, bit for bit
        rng = SplitMix64(kh * 29 + kw * 11 + stride * 5 + padding * 3 + dilation)
        spec = ops.ConvSpec(4, 3, kh, kw, stride=stride, padding=padding, dilation=dilation)
        x = rng.normal_array((2, 3, 7, 8)).astype(dtype)
        w = rng.normal_array((4, 3, kh, kw)).astype(dtype)
        g = rng.normal_array((2, 4) + spec.output_hw(7, 8)).astype(dtype)
        _, dw, db = ops.conv2d_backward(g, x, w, spec)
        dx_skipped, dw_skipped, db_skipped = ops.conv2d_backward(g, x, w, spec, need_dx=False)
        assert dx_skipped is None
        assert dw_skipped.dtype == dw.dtype and db_skipped.dtype == db.dtype
        np.testing.assert_array_equal(dw_skipped, dw)
        np.testing.assert_array_equal(db_skipped, db)


class TestStridedInputs:
    """The patch view sits on ``x`` itself when padding is 0, so non-contiguous
    inputs reach the strided view directly."""

    @staticmethod
    def _strided_inputs(dtype=np.float64):
        base = SplitMix64(40).normal_array((2, 6, 7, 9)).astype(dtype)
        return {
            "channel_step": base[:, ::2],
            "negative_width": base[:, :3, :, ::-1],
            "both": base[:, 1::2, :, ::-1],
        }

    @pytest.mark.parametrize("kind", ["channel_step", "negative_width", "both"])
    @pytest.mark.parametrize("kh,kw,stride,dilation", [(3, 3, 1, 1), (2, 3, 2, 1), (1, 1, 1, 1), (3, 3, 1, 2)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_contiguous_bit_for_bit(self, kind, kh, kw, stride, dilation, dtype):
        x = self._strided_inputs(dtype)[kind]
        assert not x.flags.c_contiguous
        rng = SplitMix64(kh * 5 + kw + stride * 11 + dilation)
        spec = ops.ConvSpec(4, 3, kh, kw, stride=stride, padding=0, dilation=dilation)
        w = rng.normal_array((4, 3, kh, kw)).astype(dtype)
        b = rng.normal_array((4,)).astype(dtype)
        xc = np.ascontiguousarray(x)
        y = ops.conv2d(x, w, b, spec)
        np.testing.assert_array_equal(y, ops.conv2d(xc, w, b, spec))
        g = rng.normal_array(y.shape).astype(dtype)
        got = ops.conv2d_backward(g, x, w, spec)
        for a, c in zip(got, ops.conv2d_backward(g, xc, w, spec)):
            np.testing.assert_array_equal(a, c)
        for a, c in zip(got, ops.conv2d_backward(g, x, w, spec)):
            np.testing.assert_array_equal(a, c)

    def test_patch_view_is_read_only(self):
        x = self._strided_inputs()["negative_width"]
        spec = ops.ConvSpec(1, 3, 3, 3)
        oh, ow = spec.output_hw(7, 9)
        view = ops._patches(x, spec, oh, ow)
        assert view.shape == (2, 3, 3, 3, oh, ow)
        assert not view.flags.writeable
        assert np.shares_memory(view, x)
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0, 0, 0, 0, 0] = 1.0


def _np_pad_patches(x, spec, oh, ow):
    """The patch view over an ``np.pad`` copy: the reference for ``_patches``."""
    p, d, s = spec.padding, spec.dilation, spec.stride
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    sn, sc, sh, sw = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, xp.shape[:2] + (spec.kernel_h, spec.kernel_w, oh, ow),
        (sn, sc, sh * d, sw * d, sh * s, sw * s))


def _im2col_backward(grad, x, weight, spec):
    """The im2col backward that ``conv2d_backward`` replaced: dweight from the
    full columns, dx by scattering the columns of W^T @ grad tap by tap.
    The reference for ``conv2d_backward``."""
    n, _, h, w = x.shape
    oh, ow = spec.output_hw(h, w)
    p, d, s = spec.padding, spec.dilation, spec.stride
    cols = _np_pad_patches(x, spec, oh, ow).reshape(n, -1, oh * ow)
    g2 = grad.reshape(n, spec.out_channels, oh * ow)
    dbias = grad.sum(axis=(0, 2, 3))
    dweight = np.matmul(g2, cols.transpose(0, 2, 1)).sum(axis=0).reshape(weight.shape)
    dcols = np.matmul(weight.reshape(spec.out_channels, -1).T, g2)
    dpatch = dcols.reshape(n, spec.in_channels, spec.kernel_h, spec.kernel_w, oh, ow)
    dxp = np.zeros((n, spec.in_channels, h + 2 * p, w + 2 * p), dtype=x.dtype)
    for i in range(spec.kernel_h):
        for j in range(spec.kernel_w):
            dxp[
                :, :, i * d : i * d + s * (oh - 1) + 1 : s, j * d : j * d + s * (ow - 1) + 1 : s
            ] += dpatch[:, :, i, j]
    return np.ascontiguousarray(dxp[:, :, p : p + h, p : p + w]), dweight, dbias


def _assert_matches_im2col_backward(g, x, w, spec, label):
    """dx and dbias bit for bit. dweight within the GEMM's rounding, relative
    to its largest entry: an entry summed with cancellation can differ more
    relative to itself."""
    dx, dw, db = ops.conv2d_backward(g, x, w, spec)
    want_dx, want_dw, want_db = _im2col_backward(g, x, w, spec)
    for got, want in ((dx, want_dx), (db, want_db), (dw, want_dw)):
        assert got.dtype == want.dtype and got.shape == want.shape, label
    assert np.array_equal(dx, want_dx) and np.array_equal(db, want_db), label
    rtol = 1e-5 if dw.dtype == np.float32 else 1e-12
    np.testing.assert_allclose(dw, want_dw, rtol=rtol, atol=rtol * np.abs(want_dw).max(),
                               err_msg=label)


class TestPhaseSplitBackward:
    """``conv2d_backward`` runs per-tap GEMMs over a phase-split copy of the
    input and checks against the im2col backward it replaced."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kh,kw,stride,_,dilation", BACKWARD_GRID)
    def test_matches_im2col_reference(self, kh, kw, stride, _, dilation, dtype):
        for h, w in ((7, 8), (9, 9)):
            rng = SplitMix64(kh * 7 + kw * 3 + stride * 5 + dilation + h * 11)
            base = rng.normal_array((2, 6, h, w)).astype(dtype)
            inputs = {"contiguous": base[:, :3], "channel_step": base[:, ::2],
                      "negative_width": base[:, :3, :, ::-1], "both": base[:, 1::2, :, ::-1]}
            wt = rng.normal_array((4, 3, kh, kw)).astype(dtype)
            for padding in range(5):
                spec = ops.ConvSpec(4, 3, kh, kw, stride=stride, padding=padding,
                                    dilation=dilation)
                g = rng.normal_array((2, 4) + spec.output_hw(h, w)).astype(dtype)
                for name, x in inputs.items():
                    _assert_matches_im2col_backward(g, x, wt, spec, (h, w, padding, name))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_default_layers_match_im2col_reference(self, dtype):
        rng = SplitMix64(31)
        hw = network.NetworkConfig().input_size
        for name, spec in network._conv_layers(network.NetworkConfig()):
            x = rng.normal_array((8, spec.in_channels, hw, hw)).astype(dtype)
            w = rng.normal_array((spec.out_channels, spec.in_channels, spec.kernel_h,
                                  spec.kernel_w)).astype(dtype)
            g = rng.normal_array((8, spec.out_channels) + spec.output_hw(hw, hw)).astype(dtype)
            _assert_matches_im2col_backward(g, x, w, spec, name)
            hw = spec.output_hw(hw, hw)[0]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pointwise_layer_reads_read_only_inputs(self, dtype):
        """A 1x1, stride-1, unpadded layer reads x and grad in place and
        writes into neither, whatever their strides."""
        rng = SplitMix64(33)
        base = rng.normal_array((2, 6, 5, 7)).astype(dtype)
        wt = rng.normal_array((4, 3, 1, 1)).astype(dtype)
        g = rng.normal_array((2, 4, 5, 7)).astype(dtype)
        g.flags.writeable = False
        spec = ops.ConvSpec(4, 3, 1, 1)
        for name, x in {"contiguous": base[:, :3], "channel_step": base[:, ::2],
                        "negative_width": base[:, :3, :, ::-1]}.items():
            x.flags.writeable = False
            _assert_matches_im2col_backward(g, x, wt, spec, name)

    def test_peak_memory_holds_no_full_columns(self):
        """At down1's training shape the full W^T @ grad columns alone are
        4.5 MiB; the phase-split backward peaks near 6 MiB, the im2col one
        at about 13."""
        spec = ops.ConvSpec(32, 16, 3, 3, stride=2, padding=1)
        rng = SplitMix64(32)
        x = rng.normal_array((8, 16, 64, 64)).astype(np.float32)
        w = rng.normal_array((32, 16, 3, 3)).astype(np.float32)
        g = rng.normal_array((8, 32, 32, 32)).astype(np.float32)
        tracemalloc.start()
        try:
            ops.conv2d_backward(g, x, w, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 9 * 2**20


class TestPaddedPatches:
    """A padded input is copied into a zeroed buffer, not through ``np.pad``."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kh,kw,stride,_,dilation", BACKWARD_GRID)
    def test_equals_np_pad_reference_bit_for_bit(self, kh, kw, stride, _, dilation, dtype):
        base = SplitMix64(kh * 7 + kw * 3 + stride * 5 + dilation).normal_array((2, 6, 7, 8))
        base[0, 0, 0, :3] = -0.0
        base = base.astype(dtype)
        inputs = {"contiguous": base[:, :3], "channel_step": base[:, ::2],
                  "negative_width": base[:, :3, :, ::-1]}
        for padding in range(1, 5):
            spec = ops.ConvSpec(4, 3, kh, kw, stride=stride, padding=padding, dilation=dilation)
            oh, ow = spec.output_hw(7, 8)
            for name, x in inputs.items():
                got = ops._patches(x, spec, oh, ow)
                want = _np_pad_patches(x, spec, oh, ow)
                assert got.dtype == want.dtype and got.shape == want.shape, (name, padding)
                assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes(), \
                    (name, padding)
                assert not got.flags.writeable and not np.shares_memory(got, x)

    def test_conv_never_calls_np_pad(self, monkeypatch):
        def no_pad(*args, **kwargs):
            raise AssertionError("np.pad called")

        rng = SplitMix64(8)
        spec = ops.ConvSpec(4, 3, 3, 3, stride=2, padding=2, dilation=2)
        x = rng.normal_array((2, 3, 9, 9))
        w = rng.normal_array((4, 3, 3, 3))
        b = rng.normal_array((4,))
        monkeypatch.setattr(np, "pad", no_pad)
        y = ops.conv2d(x, w, b, spec)
        dx, _, _ = ops.conv2d_backward(np.ones_like(y), x, w, spec)
        assert dx.shape == x.shape
        assert ops.conv2d_backward(np.ones_like(y), x, w, spec, need_dx=False)[0] is None

    @pytest.mark.parametrize("padding", [0, 1])
    def test_float32_bias_added_in_place(self, padding):
        # the in-place add gives the same float32 bits as matmul(...) + b[:, None]
        rng = SplitMix64(9 + padding)
        spec = ops.ConvSpec(5, 3, 3, 3, padding=padding)
        x = rng.normal_array((2, 3, 6, 7)).astype(np.float32)
        w = rng.normal_array((5, 3, 3, 3)).astype(np.float32)
        b = rng.normal_array((5,)).astype(np.float32)
        oh, ow = spec.output_hw(6, 7)
        cols = _np_pad_patches(x, spec, oh, ow).reshape(2, -1, oh * ow)
        want = (np.matmul(w.reshape(5, -1), cols) + b[:, None]).reshape(2, 5, oh, ow)
        y = ops.conv2d(x, w, b, spec)
        assert y.dtype == np.float32 and want.dtype == np.float32
        assert y.tobytes() == want.tobytes()



class TestConvVariants:
    @pytest.mark.parametrize("kh,kw,stride,padding,dilation", [
        (3, 3, 1, 1, 1), (3, 3, 2, 1, 1), (3, 3, 1, 2, 2), (1, 1, 1, 0, 1), (2, 3, 2, 0, 1),
    ])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 2])
    def test_each_variant_is_conv2d_bit_for_bit(self, kh, kw, stride, padding, dilation,
                                                 dtype, n):
        rng = SplitMix64(kh * 7 + stride * 3 + padding + dilation * 13 + n)
        spec = ops.ConvSpec(3, 2, kh, kw, stride=stride, padding=padding, dilation=dilation)
        x = rng.normal_array((n, 2, 6, 5)).astype(dtype)
        weights = rng.normal_array((4, 3, 2, kh, kw)).astype(dtype)
        biases = rng.normal_array((4, 3)).astype(dtype)
        cases = [(weights, biases), (weights[:1], biases), (weights, biases[:1])]
        for ws, bs in cases:
            y = ops.conv2d_variants(x, ws, bs, spec)
            assert y.shape[:3] == (4, n, 3) and y.dtype == dtype
            for v in range(4):
                want = ops.conv2d(x, ws[v % len(ws)], bs[v % len(bs)], spec)
                assert y[v].tobytes() == want.tobytes()

    def test_shapes_checked(self):
        spec = ops.ConvSpec(3, 2, 3, 3)
        x = np.zeros((1, 2, 5, 5))
        with pytest.raises(ValueError, match="need weights"):
            ops.conv2d_variants(x, np.zeros((3, 2, 3, 3)), np.zeros((1, 3)), spec)
        with pytest.raises(ValueError, match="weight shape"):
            ops.conv2d_variants(x, np.zeros((1, 3, 2, 1, 1)), np.zeros((1, 3)), spec)
        with pytest.raises(ValueError, match="bias length"):
            ops.conv2d_variants(x, np.zeros((1, 3, 2, 3, 3)), np.zeros((1, 2)), spec)


class TestUpsample:
    def test_factor_one_is_identity(self):
        x = SplitMix64(3).normal_array((1, 2, 3, 3))
        np.testing.assert_array_equal(ops.upsample_bilinear(x, 1), x)

    def test_half_pixel_row(self):
        x = np.array([[[[0.0, 1.0]]]])
        y = ops.upsample_bilinear(x, 2)
        np.testing.assert_allclose(y[0, 0, 0], [0.0, 0.25, 0.75, 1.0], atol=1e-15)

    def test_constant_stays_exactly_constant(self):
        x = np.full((1, 1, 5, 7), 0.1, dtype=np.float32)
        for factor in (2, 3, 4):
            y = ops.upsample_bilinear(x, factor)
            assert (y == np.float32(0.1)).all()

    def test_constant_mean_preserved_exactly(self):
        x = np.full((2, 3, 4, 4), 1.0 / 3.0)
        y = ops.upsample_bilinear(x, 3)
        assert y.mean() == x.mean()

    def test_factor_zero_rejected(self):
        with pytest.raises(ValueError, match="factor"):
            ops.upsample_bilinear(np.zeros((1, 1, 2, 2)), 0)

    @pytest.mark.parametrize("factor", [2, 3, 4])
    def test_matches_naive_oracle(self, factor):
        x = SplitMix64(factor).normal_array((1, 2, 3, 4))
        got = ops.upsample_bilinear(x, factor)
        np.testing.assert_allclose(got, upsample_naive(x, factor), atol=1e-12)

    @pytest.mark.parametrize("factor", [2, 3])
    def test_backward_is_the_adjoint(self, factor):
        # <Ax, u> == <x, A^T u> for random x, u
        rng = SplitMix64(17 + factor)
        x = rng.normal_array((1, 2, 3, 4))
        u = rng.normal_array((1, 2, 3 * factor, 4 * factor))
        lhs = float(np.sum(ops.upsample_bilinear(x, factor) * u))
        rhs = float(np.sum(x * ops.upsample_bilinear_backward(u, 3, 4, factor)))
        assert abs(lhs - rhs) < 1e-10


class TestResize:
    def test_nearest_replicates_blocks(self):
        m = np.array([[1, 0], [0, 0]], dtype=np.uint8)
        out = ops.nearest_resize(m, 4, 4)
        np.testing.assert_array_equal(out[:2, :2], np.ones((2, 2), dtype=np.uint8))
        assert out.sum() == 4

    def test_bilinear_identity_copy(self):
        x = SplitMix64(8).normal_array((3, 5, 5))
        y = ops.bilinear_resize(x, 5, 5)
        np.testing.assert_array_equal(y, x)
        assert y is not x

    def test_bilinear_downscale_constant(self):
        x = np.full((2, 8, 8), 0.7)
        y = ops.bilinear_resize(x, 3, 5)
        assert y.shape == (2, 3, 5)
        assert (y == 0.7).all()


class TestSoftmax:
    def test_symmetric_logits(self):
        y = ops.softmax_channel(np.zeros((1, 2, 1, 1)))
        np.testing.assert_allclose(y.ravel(), [0.5, 0.5], atol=1e-15)

    def test_ln2_logits(self):
        x = np.zeros((1, 2, 1, 1))
        x[0, 0] = np.log(2.0)
        y = ops.softmax_channel(x)
        np.testing.assert_allclose(y.ravel(), [2 / 3, 1 / 3], atol=1e-12)

    def test_shift_invariance(self):
        rng = SplitMix64(21)
        x = rng.normal_array((2, 3, 4, 4))
        shifted = x + 12.3
        np.testing.assert_allclose(
            ops.softmax_channel(x), ops.softmax_channel(shifted), atol=1e-12
        )

    def test_sums_to_one(self):
        rng = SplitMix64(22)
        x64 = rng.normal_array((2, 4, 5, 5)) * 10
        s64 = ops.softmax_channel(x64).sum(axis=1)
        np.testing.assert_allclose(s64, 1.0, atol=1e-12)
        x32 = x64.astype(np.float32)
        s32 = ops.softmax_channel(x32).sum(axis=1)
        np.testing.assert_allclose(s32, 1.0, atol=1e-6)

    def test_needs_two_channels(self):
        with pytest.raises(ValueError, match="channels"):
            ops.softmax_channel(np.zeros((1, 1, 2, 2)))


class TestAxisMap:
    def test_memoised_and_read_only(self):
        maps = ops._axis_map(3, 12)
        assert all(a is b for a, b in zip(maps, ops._axis_map(3, 12), strict=True))
        for a in maps:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0


class TestGradients:
    def test_conv2d_gradcheck(self):
        worst = max(suite.check_conv(s) for s in range(20))
        assert worst <= 1e-4

    def test_upsample_gradcheck(self):
        worst = max(suite.check_upsample(s) for s in range(20))
        assert worst <= 1e-4

    def test_softmax_gradcheck(self):
        worst = max(suite.check_softmax(s) for s in range(20))
        assert worst <= 1e-4
