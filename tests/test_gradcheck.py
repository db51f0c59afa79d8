import importlib

import numpy as np
import pytest

from stoseg.gradcheck import GradcheckError, gradcheck, relative_error
from stoseg.rng import SplitMix64

gradcheck_module = importlib.import_module("stoseg.gradcheck")


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


def test_evaluate_gets_plus_then_minus_copies_in_c_order():
    x = SplitMix64(4).normal_array((2, 3)).T  # a strided input
    calls = []

    def evaluate(chunks):
        calls.append(chunks)
        return np.concatenate([np.stack([square(v)[0] for v in values]) for _, values in chunks])

    assert gradcheck(square, [x], h=0.5, evaluate=evaluate) < 1e-9
    ((k, values),) = calls[0]
    assert len(calls) == 1 and k == 0
    assert values.shape == (12, 3, 2)
    for i, index in enumerate(np.ndindex(x.shape)):
        for row, step in ((values[i], 0.5), (values[6 + i], -0.5)):
            want = x.copy()
            want[index] = x[index] + step
            assert np.array_equal(row, want)


def test_batched_evaluate_gives_the_default_float():
    x = SplitMix64(5).normal_array((3, 4))
    w = np.arange(1.0, 13.0).reshape(3, 4)

    def fn(v):
        return np.sin(v) * w, lambda u: [u * w * np.cos(v)]

    def evaluate(chunks):
        ((_, values),) = chunks
        return np.sin(values) * w

    err = gradcheck(fn, [x])
    assert 0.0 < err < 1e-4
    assert gradcheck(fn, [x], evaluate=evaluate) == err


def test_a_large_input_is_split_into_batches(monkeypatch):
    x = SplitMix64(6).normal_array((5, 4))
    err = gradcheck(square, [x])
    sizes = []

    def evaluate(chunks):
        ((_, values),) = chunks
        sizes.append(len(values))
        return values * values

    monkeypatch.setattr(gradcheck_module, "_BATCH_VALUES", 2 * 20 * 7)
    assert gradcheck(square, [x], evaluate=evaluate) == err
    assert sizes == [14, 14, 12]


def test_evaluate_output_checked():
    x = np.ones(3)
    message = r"shape \(6,\) for 6 perturbations of an output of shape \(3,\)"
    with pytest.raises(ValueError, match=message):
        gradcheck(square, [x], evaluate=lambda chunks: chunks[0][1].sum(axis=1))
    with pytest.raises(GradcheckError, match="perturbed"):
        gradcheck(square, [x], evaluate=lambda chunks: chunks[0][1] + np.inf)


def test_chunks_of_consecutive_inputs_share_a_call(monkeypatch):
    """Each row costs max(input size, output size) values of the bound: a
    call is filled from consecutive inputs in order, at most one chunk of
    each, and an empty input adds none."""
    def fn(a, b, c, d):
        y = np.concatenate([a.ravel()**2, np.sin(b), c.ravel(), d**3])

        def vjp(u):
            ua, ub, ud = u[:6], u[6:9], u[9:]
            return [(2.0 * ua * a.ravel()).reshape(a.shape), ub * np.cos(b),
                    np.zeros(c.shape), 3.0 * ud * d**2]
        return y, vjp

    rng = SplitMix64(7)
    inputs = [rng.normal_array((2, 3)), rng.normal_array((3,)), np.empty((0, 2)),
              rng.normal_array((5,))]

    def fn_of(k):
        """fn as a function of input k alone."""
        def one(v):
            y, vjp = fn(*inputs[:k], v, *inputs[k + 1 :])
            return y, lambda u: [vjp(u)[k]]
        return one

    calls = []

    def evaluate(chunks):
        calls.append([(k, len(values)) for k, values in chunks])
        return np.concatenate([np.stack([fn_of(k)(v)[0] for v in values])
                               for k, values in chunks])

    err = gradcheck(fn, inputs)
    assert 0.0 < err < 1e-4
    assert err == max(gradcheck(fn_of(k), [inputs[k]]) for k in range(len(inputs)))
    # the output has 14 values, so every row costs 14: 6 rows fill a bound of 84
    monkeypatch.setattr(gradcheck_module, "_BATCH_VALUES", 14 * 6)
    assert gradcheck(fn, inputs, evaluate=evaluate) == err
    assert calls == [[(0, 6)], [(0, 6)], [(1, 6)], [(3, 6)], [(3, 4)]]
    # 9 rows of 14 values: the rest of input 0 and input 1 share a call,
    # and so do the rest of input 1 and input 3
    calls.clear()
    monkeypatch.setattr(gradcheck_module, "_BATCH_VALUES", 14 * 9)
    assert gradcheck(fn, inputs, evaluate=evaluate) == err
    assert calls == [[(0, 8)], [(0, 4), (1, 4)], [(1, 2), (3, 6)], [(3, 4)]]
