from collections import Counter

import numpy as np
import pytest

from stoseg import network, suite
import test_network


def pool_models():
    """Noised float64 models whose sites together hold every kind of the pool."""
    return test_network.TestPredictBlocks.pool_models(np.float64)


class TestStageGroups:
    def test_partition_the_parameters(self):
        for m in pool_models():
            groups = suite._stage_groups(m)
            assert len(groups) == len(m._stages) + 1
            assert groups[-1] == ["head.b", "head.w"]
            assert all(g == sorted(g) for g in groups)
            counts = Counter(key for g in groups for key in g)
            assert set(counts) == set(m.parameters())
            assert set(counts.values()) == {1}

    def test_a_group_leaves_the_earlier_stages_unchanged(self):
        m = pool_models()[0]
        image = np.linspace(0.0, 1.0, 3 * 16 * 16).reshape(1, 3, 16, 16)
        _, base = network.forward(m, image)
        params = m.parameters()
        for k, keys in enumerate(suite._stage_groups(m)):
            for key in keys:
                orig = params[key].copy()
                params[key] += 0.25
                try:
                    probs, cache = network.forward(m, image)
                finally:
                    params[key][...] = orig
                assert all(np.array_equal(a, b) for a, b in zip(cache["xs"][: k + 1], base["xs"]))
                assert not np.array_equal(probs, base["probs"]), key


class TestCheckNetwork:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_equals_one_gradcheck_over_every_parameter(self, monkeypatch, seed):
        grouped = suite.check_network(seed)
        # one group read from stage 0 on: a full forward for every perturbation
        monkeypatch.setattr(suite, "_stage_groups", lambda m: [sorted(m.parameters())])
        assert suite.check_network(seed) == grouped <= suite.E2E_TOL

    @pytest.mark.parametrize("key", ["stem.w", "aspp1.b", "head.b"])
    def test_fails_a_gradient_off_by_half(self, monkeypatch, key):
        """Every group is checked. The relative error's denominator is at
        least 1, and the largest stem.w gradient at seed 0 is about 8.5e-3,
        so a factor of 1.1 there reads only 8.5e-4: use 1.5."""
        backward = network.backward

        def skewed(model, cache, dprobs):
            grads = backward(model, cache, dprobs)
            grads[key] = grads[key] * 1.5
            return grads

        monkeypatch.setattr(network, "backward", skewed)
        assert suite.check_network(0) > suite.E2E_TOL
