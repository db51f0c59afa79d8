from pathlib import Path

import numpy as np
import pytest

from oracles import piecewise_naive
from stoseg import suite
from stoseg.activations import (
    ActivationKind,
    PARAM_COUNTS,
    act_backward,
    act_forward,
    act_init,
    default_pool,
    kink_points,
)
from stoseg.rng import SplitMix64

ALL_KINDS = default_pool()
FIXED_KNOT_KINDS = [ActivationKind.APLU, ActivationKind.MELU4, ActivationKind.MELU8,
                    ActivationKind.GALU4, ActivationKind.GALU8]


def col(values, channels=1):
    """(n=1, c=channels, h=len, w=1) tensor from a flat list, float64."""
    v = np.asarray(values, dtype=np.float64)
    return np.tile(v.reshape(1, 1, -1, 1), (1, channels, 1, 1))


class TestPool:
    def test_order_and_length(self):
        pool = default_pool()
        assert len(pool) == 17
        assert pool[0] == ActivationKind.RELU
        names = [k.value for k in pool]
        assert names == [
            "relu", "leaky_relu", "elu", "prelu", "srelu", "aplu",
            "melu4", "melu8", "galu4", "galu8", "pdelu",
            "swish_fixed", "swish_learnable", "soft_root_sign",
            "mish_fixed", "mish_learnable", "soft_learnable",
        ]

    def test_truncation_is_a_prefix(self):
        assert default_pool()[:14] == default_pool()[:-3]


class TestInit:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_parameter_counts(self, kind):
        st = act_init(kind, 5)
        assert st.params.shape == (PARAM_COUNTS[kind], 5)

    def test_relu_has_no_parameters(self):
        assert act_init(ActivationKind.RELU, 16).params.size == 0

    def test_melu4_init(self):
        st = act_init(ActivationKind.MELU4, 8)
        assert st.params.shape == (4, 8)
        np.testing.assert_array_equal(st.params[0], 0.25)  # prelu slope
        np.testing.assert_array_equal(st.params[1:], 0.0)  # hat coefficients

    def test_swish_learnable_init(self):
        st = act_init(ActivationKind.SWISH_LEARNABLE, 4)
        np.testing.assert_array_equal(st.params[0], 1.0)

    def test_srelu_init_is_identity_like(self):
        st = act_init(ActivationKind.SRELU, 3)
        np.testing.assert_array_equal(st.params[:, 0], [0.0, 0.0, 1.0, 1.0])

    def test_soft_root_sign_init(self):
        st = act_init(ActivationKind.SOFT_ROOT_SIGN, 2)
        np.testing.assert_array_equal(st.params[:, 1], [2.0, 3.0])

    def test_bad_channels(self):
        with pytest.raises(ValueError):
            act_init(ActivationKind.RELU, 0)


class TestForward:
    def test_relu_values(self):
        st = act_init(ActivationKind.RELU, 1, dtype=np.float64)
        y = act_forward(col([-1.0, 2.0, 0.0]), st)
        np.testing.assert_array_equal(y.ravel(), [0.0, 2.0, 0.0])

    def test_swish_fixed_at_one(self):
        st = act_init(ActivationKind.SWISH_FIXED, 1, dtype=np.float64)
        y = act_forward(col([1.0]), st)
        assert y.ravel()[0] == pytest.approx(0.7310585786300049, abs=1e-15)

    def test_mish_fixed_at_zero(self):
        st = act_init(ActivationKind.MISH_FIXED, 1, dtype=np.float64)
        assert act_forward(col([0.0]), st).ravel()[0] == 0.0

    def test_elu_negative_branch(self):
        st = act_init(ActivationKind.ELU, 1, dtype=np.float64)
        y = act_forward(col([-1.0, 1.5]), st)
        np.testing.assert_allclose(y.ravel(), [np.expm1(-1.0), 1.5], atol=1e-15)

    def test_pdelu_saturates_at_minus_alpha(self):
        st = act_init(ActivationKind.PDELU, 1, dtype=np.float64)
        y = act_forward(col([0.0, -20.0]), st)
        np.testing.assert_allclose(y.ravel(), [0.0, -1.0], atol=1e-15)

    @pytest.mark.parametrize("kind", [ActivationKind.MELU4, ActivationKind.MELU8,
                                      ActivationKind.GALU4, ActivationKind.GALU8])
    def test_melu_galu_init_equals_prelu_bitwise(self, kind):
        x = (SplitMix64(123).uniform_array(10000) * 6 - 3).reshape(1, 1, 100, 100)
        st = act_init(kind, 1, dtype=np.float64)
        prelu = act_init(ActivationKind.PRELU, 1, dtype=np.float64)
        np.testing.assert_array_equal(act_forward(x, st), act_forward(x, prelu))

    def test_aplu_init_equals_relu_bitwise(self):
        x = (SplitMix64(321).uniform_array(10000) * 6 - 3).reshape(1, 1, 100, 100)
        st = act_init(ActivationKind.APLU, 1, dtype=np.float64)
        relu = act_init(ActivationKind.RELU, 1, dtype=np.float64)
        np.testing.assert_array_equal(act_forward(x, st), act_forward(x, relu))

    def test_channel_mismatch_rejected(self):
        st = act_init(ActivationKind.RELU, 2)
        with pytest.raises(ValueError, match="channels"):
            act_forward(np.zeros((1, 3, 2, 2), dtype=np.float32), st)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_forward_deterministic_and_shape_preserving(self, kind):
        st = act_init(kind, 3, dtype=np.float64)
        x = SplitMix64(9).normal_array((2, 3, 4, 5))
        y1, y2 = act_forward(x, st), act_forward(x, st)
        assert y1.shape == x.shape
        np.testing.assert_array_equal(y1, y2)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_float32_stays_float32(self, kind):
        st = act_init(kind, 3)
        x = SplitMix64(9).normal_array((2, 3, 4, 5)).astype(np.float32)
        dx, dp = act_backward(x, st, np.ones_like(x))
        assert (act_forward(x, st).dtype, dx.dtype, dp.dtype) == (np.float32,) * 3


class TestBackward:
    def test_relu_gate(self):
        st = act_init(ActivationKind.RELU, 1, dtype=np.float64)
        x = col([-1.0, 2.0])
        up = np.full_like(x, 3.0)
        dx, dp = act_backward(x, st, up)
        np.testing.assert_array_equal(dx.ravel(), [0.0, 3.0])
        assert dp.size == 0

    def test_prelu_slope_gradient(self):
        st = act_init(ActivationKind.PRELU, 1, dtype=np.float64)
        x = col([-2.0])
        dx, dp = act_backward(x, st, np.ones_like(x))
        assert dp[0, 0] == -2.0  # dL/da = x on the negative branch
        assert dx.ravel()[0] == 0.25

    def test_param_gradients_sum_over_batch_and_space(self):
        st = act_init(ActivationKind.PRELU, 2, dtype=np.float64)
        x = -np.ones((3, 2, 4, 4))
        _, dp = act_backward(x, st, np.ones_like(x))
        np.testing.assert_array_equal(dp, np.full((1, 2), -48.0))

    @pytest.mark.parametrize("kind", ["elu", "pdelu", "swish_fixed", "swish_learnable",
                                      "mish_fixed", "mish_learnable", "soft_learnable",
                                      "soft_root_sign"])
    def test_finite_far_outside_data_range(self, kind):
        # pdelu once raised (1 + 0.1x)^10 for positive x too: in float32 it
        # overflowed from about x = 7.1e4, and inf * 0 made dparams NaN.
        # soft_root_sign once squared its denominator, which holds the clamped
        # exp(60) below about x = -180 and overflowed in float32
        st = act_init(kind, 1)
        x = col([-1e5, -3e4, -200.0, 3e4, 1e5]).astype(np.float32)
        dx, dp = act_backward(x, st, np.ones_like(x))
        assert np.all(np.isfinite(act_forward(x, st)))
        assert np.all(np.isfinite(dx)) and np.all(np.isfinite(dp))

    def test_upstream_shape_rejected(self):
        st = act_init(ActivationKind.RELU, 1, dtype=np.float64)
        with pytest.raises(ValueError, match="upstream"):
            act_backward(np.zeros((1, 1, 2, 2)), st, np.zeros((1, 1, 2, 3)))


class TestFixedFormIsLearnableAtOne:
    PAIRS = [(ActivationKind.SWISH_FIXED, ActivationKind.SWISH_LEARNABLE),
             (ActivationKind.MISH_FIXED, ActivationKind.MISH_LEARNABLE)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("fixed, learnable", PAIRS)
    def test_bit_identical_at_beta_one(self, fixed, learnable, dtype):
        rng = SplitMix64(11)
        x = (4.0 * rng.normal_array((2, 3, 5, 5))).astype(dtype)
        x[0, 0, 0, :3] = [0.0, -0.0, 60.0]
        up = rng.normal_array(x.shape).astype(dtype)
        st_f, st_l = act_init(fixed, 3, dtype=dtype), act_init(learnable, 3, dtype=dtype)
        np.testing.assert_array_equal(st_l.params, 1.0)
        y_f, y_l = act_forward(x, st_f), act_forward(x, st_l)
        dx_f, dp_f = act_backward(x, st_f, up)
        dx_l, dp_l = act_backward(x, st_l, up)
        assert y_f.dtype == y_l.dtype == dx_f.dtype == dx_l.dtype == dtype
        assert y_f.tobytes() == y_l.tobytes()
        assert dx_f.tobytes() == dx_l.tobytes()
        assert dp_f.shape == (0, 3) and dp_l.shape == (1, 3)

    @pytest.mark.parametrize("kind", [k for k in ALL_KINDS if PARAM_COUNTS[k] == 0])
    def test_fixed_kind_parameter_gradient_is_empty(self, kind):
        st = act_init(kind, 4, dtype=np.float64)
        x = SplitMix64(12).normal_array((2, 4, 3, 3))
        _, dp = act_backward(x, st, np.ones_like(x))
        assert dp.shape == (0, 4) and dp.dtype == np.float64


class TestFixedKnotOracle:
    @pytest.mark.parametrize("kind", FIXED_KNOT_KINDS)
    def test_matches_scalar_oracle(self, kind):
        st = act_init(kind, 3, dtype=np.float64)
        suite._noise_params(st, SplitMix64(11))
        rng = SplitMix64(12)
        x = rng.uniform_array(2 * 3 * 4 * 24).reshape(2, 3, 4, 24) * 7.0 - 2.5
        # every multiple of 1/4 in [-1, 4], which includes every knot, in every channel
        x[0, :, 0, :21] = np.arange(21) * 0.25 - 1.0
        up = rng.normal_array(x.shape)
        y_ref, dx_ref, dp_ref = piecewise_naive(kind.value, x, st.params, up)
        dx, dp = act_backward(x, st, up)
        np.testing.assert_allclose(act_forward(x, st), y_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dx, dx_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dp, dp_ref, rtol=1e-12, atol=1e-12)


class TestGradcheck:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_all_kinds_pass_at_1e4(self, kind):
        worst = max(suite.check_activation(kind, s) for s in range(20))
        assert worst <= 1e-4, f"{kind.value}: max relative error {worst:.3e}"


class TestContinuity:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_no_jumps_at_kinks(self, kind):
        st = act_init(kind, 1, dtype=np.float64)
        suite._noise_params(st, SplitMix64(77))
        eps = 1e-6
        for k in kink_points(st):
            vals = act_forward(col([k - eps, k, k + eps]), st).ravel()
            assert abs(vals[0] - vals[1]) < 5e-6
            assert abs(vals[2] - vals[1]) < 5e-6

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_backward_takes_right_derivative_at_kinks(self, kind):
        st = act_init(kind, 1, dtype=np.float64)
        suite._noise_params(st, SplitMix64(77))
        h = 1e-7
        for k in kink_points(st):
            f0, f1 = act_forward(col([k, k + h]), st).ravel()
            dx, _ = act_backward(col([k]), st, col([1.0]))
            assert abs(dx.ravel()[0] - (f1 - f0) / h) <= 1e-6, f"kink at {k}"


def parent_cases():
    """``(name, state, x, upstream)`` for every kind in float32 and float64,
    plus one srelu whose thresholds cross. Parameters are noised, and the
    first entries of each (2, 3, 1, 56) input are every kink with its two
    neighbouring floats, ±0.0, ±1e5 and -20; the rest are normal draws."""
    cases = []
    for dtype in (np.float32, np.float64):
        for i, kind in enumerate(ALL_KINDS + [ActivationKind.SRELU]):
            st = act_init(kind, 3, dtype=dtype)
            rng = SplitMix64(7100 + i)
            suite._noise_params(st, rng)
            name = kind.value
            if i == len(ALL_KINDS):
                st.params[0], st.params[2], name = 0.5, -0.5, "srelu_crossed"
            kinks = kink_points(st).astype(dtype)
            special = np.concatenate([kinks, np.nextafter(kinks, -np.inf),
                                      np.nextafter(kinks, np.inf),
                                      [0.0, -0.0, 1e5, -1e5, -20.0]]).astype(dtype)
            x = (rng.normal_array((2, 3, 1, 56)) * 3.0).astype(dtype)
            x[..., : special.size] = special
            up = rng.normal_array(x.shape).astype(dtype)
            cases.append((f"{np.dtype(dtype).name}.{name}", st, x, up))
    return cases


class TestParentActivations:
    """Every kind's forward and backward outputs equal those of the code
    before the activation selects became branch-free, in value and dtype (a
    zero may differ in sign: prelu now maps -0.0 to +0.0).

    ``tests/data/parent_activations.npz`` was written by the code at commit
    7761a23 with::

        arrays = {}
        for name, st, x, up in parent_cases():
            dx, dp = act_backward(x, st, up)
            arrays.update({f"{name}.x": x, f"{name}.up": up, f"{name}.y": act_forward(x, st),
                           f"{name}.dx": dx, f"{name}.dp": dp})
        np.savez("parent_activations.npz", **arrays)
    """

    DATA = Path(__file__).parent / "data" / "parent_activations.npz"

    @pytest.mark.parametrize("case", parent_cases(), ids=lambda c: c[0])
    def test_equals_parent(self, case):
        name, st, x, up = case
        with np.load(self.DATA) as want:
            np.testing.assert_array_equal(want[f"{name}.x"], x)
            np.testing.assert_array_equal(want[f"{name}.up"], up)
            dx, dp = act_backward(x, st, up)
            for field, got in (("y", act_forward(x, st)), ("dx", dx), ("dp", dp)):
                ref = want[f"{name}.{field}"]
                assert got.dtype == ref.dtype, field
                assert np.array_equal(got, ref), field
