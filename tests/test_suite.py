import pytest

from stoseg import network, ops, suite


class TestCheckNetwork:
    @pytest.mark.parametrize("key", ["stem.w", "aspp1.b", "head.b"])
    def test_fails_a_gradient_off_by_half(self, monkeypatch, key):
        """Every parameter array, from the stem to the head, is checked.
        The relative error's denominator is at least 1, and the largest
        stem.w gradient at seed 0 is about 8.5e-3, so a factor of 1.1 there
        reads only 8.5e-4: use 1.5."""
        backward = network.backward

        def skewed(model, cache, dprobs):
            grads = backward(model, cache, dprobs)
            grads[key] = grads[key] * 1.5
            return grads

        monkeypatch.setattr(network, "backward", skewed)
        assert suite.check_network(0) > suite.E2E_TOL


def _times_1_5(fn, entry):
    """``fn`` with its result, or entry ``entry`` of its result, times 1.5."""
    def skewed(*args, **kwargs):
        out = fn(*args, **kwargs)
        if entry is None:
            return out * 1.5
        out = list(out)
        out[entry] = out[entry] * 1.5
        return tuple(out)
    return skewed


@pytest.mark.parametrize("check, module, name, entry", [
    ("check_conv", ops, "conv2d_backward", 0),
    ("check_conv", ops, "conv2d_backward", 1),
    ("check_conv", ops, "conv2d_backward", 2),
    ("check_upsample", ops, "upsample_bilinear_backward", None),
    ("check_softmax", ops, "softmax_channel_backward", None),
    ("check_dice", suite, "dice_loss", 1),
    ("check_weighted_ce", suite, "weighted_ce", 1),
], ids=["conv_dx", "conv_dweight", "conv_dbias", "upsample", "softmax", "dice",
        "weighted_ce"])
def test_op_and_loss_checks_fail_a_gradient_off_by_half(monkeypatch, check, module, name,
                                                        entry):
    """A backward whose gradient is 1.5 times too large fails its check at
    every seed of a row's first four (each of check_conv's specs): the
    batched perturbations are scored by the real forward, not the backward."""
    monkeypatch.setattr(module, name, _times_1_5(getattr(module, name), entry))
    for seed in range(4):
        assert getattr(suite, check)(seed) > suite.TOL
