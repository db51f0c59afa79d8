import numpy as np
import pytest

from stoseg.gradcheck import GradcheckError, gradcheck, relative_error
from stoseg.rng import SplitMix64


def linear_fn(x):
    w = np.arange(1.0, 1.0 + x.size).reshape(x.shape)
    y = w * x
    return y, lambda u: [u * w]


def test_linear_op_error_is_roundoff_level():
    x = SplitMix64(0).normal_array((3, 4))
    assert gradcheck(linear_fn, [x]) < 1e-9


def test_wrong_backward_fails():
    def doubled(x):
        y, vjp = linear_fn(x)
        return y, lambda u: [2.0 * vjp(u)[0]]

    x = SplitMix64(1).normal_array((3, 3))
    assert gradcheck(doubled, [x]) > 1e-4


def test_requires_float64():
    x = np.ones((2, 2), dtype=np.float32)
    with pytest.raises(ValueError, match="float64"):
        gradcheck(linear_fn, [x])


def test_nonfinite_output_raises_with_location():
    def bad(x):
        y = x.copy()
        y[0] = np.nan
        return y, lambda u: [u]

    with pytest.raises(GradcheckError, match="non-finite"):
        gradcheck(bad, [np.ones(3)])


def test_relative_error_formula():
    # |a - n| / max(1, |a|, |n|)
    assert relative_error(np.float64(2.0), np.float64(1.0)) == 0.5
    assert relative_error(np.float64(0.2), np.float64(0.1)) == pytest.approx(0.1)


def square(x):
    return x * x, lambda u: [2.0 * u * x]


@pytest.mark.parametrize("view", [
    pytest.param(lambda a: a[:, :2], id="column_slice"),
    pytest.param(lambda a: a.T, id="transpose"),
])
def test_strided_inputs_are_perturbed(view):
    # reshape(-1) of these views is a copy, so perturbing through it never
    # reaches fn
    a = SplitMix64(2).normal_array((3, 4))
    before = a.copy()
    assert gradcheck(square, [view(a)]) < 1e-9
    assert np.array_equal(a, before)


def test_input_restored_when_fn_raises():
    def blows_up_below_one(x):
        y = x.copy()
        if x[0] < 1.0:
            y[0] = np.nan
        return y, lambda u: [u]

    x = np.ones(3)
    with pytest.raises(GradcheckError, match="perturbed"):
        gradcheck(blows_up_below_one, [x])
    assert np.array_equal(x, np.ones(3))


def test_inputs_equal_their_concatenation():
    # perturbing inputs in order, each in C order, is perturbing the
    # concatenation of their ravels: the error is the same float
    def fn(a, b, c):
        s, sa = b.sum(), np.sin(a).ravel()
        y = np.concatenate([sa * s, b**3, c.ravel()])

        def vjp(u):
            u1, u2 = u[: a.size], u[a.size : a.size + b.size]
            return [(u1 * s * np.cos(a).ravel()).reshape(a.shape),
                    u1 @ sa + 3.0 * b**2 * u2, np.zeros(c.shape)]
        return y, vjp

    def concatenated(v):
        y, vjp = fn(v[:6].reshape(2, 3), v[6:10], v[10:].reshape(0, 2))
        return y, lambda u: [np.concatenate([g.ravel() for g in vjp(u)])]

    rng = SplitMix64(3)
    inputs = [rng.normal_array((2, 3)), rng.normal_array((4,)), np.empty((0, 2))]
    flat = np.concatenate([v.ravel() for v in inputs])
    err = gradcheck(fn, inputs)
    assert 0.0 < err < 1e-4
    assert err == gradcheck(concatenated, [flat])
