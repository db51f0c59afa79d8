import pytest

from stoseg import network, suite


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
