import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from stoseg import suite
from stoseg.activations import default_pool

gradcheck_module = importlib.import_module("stoseg.gradcheck")


class TestParentRows:
    """``run_suite(20, 20)`` rows equal those of the code before the checks
    ran their perturbations in batched calls, to the last bit of every error.

    ``tests/data/parent_suite_rows.json`` was written by the code at commit
    c257ace with::

        rows = suite.run_suite(20, 20)
        with open("parent_suite_rows.json", "w") as f:
            json.dump([[r.name, r.max_err.hex(), r.tolerance] for r in rows], f, indent=1)
    """

    DATA = Path(__file__).parent / "data" / "parent_suite_rows.json"

    def test_rows_equal_the_parents(self):
        want = [tuple(row) for row in json.loads(self.DATA.read_text())]
        got = [(r.name, r.max_err.hex(), r.tolerance) for r in suite.run_suite(20, 20)]
        assert got == want


def numeric_gradients(monkeypatch, check, batched: bool) -> list[np.ndarray]:
    """The numeric gradient of every input of every ``gradcheck`` call that
    ``check()`` makes, with the check's own ``evaluate`` callbacks or, if
    not ``batched``, with gradcheck's default one."""
    seen = []
    relative_error = gradcheck_module.relative_error

    def spy(analytic, numeric):
        seen.append(numeric)
        return relative_error(analytic, numeric)

    def default_evaluate(*args, evaluate=None, **kwargs):
        return gradcheck_module.gradcheck(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(gradcheck_module, "relative_error", spy)
        if not batched:
            patch.setattr(suite, "gradcheck", default_evaluate)
        check()
    return seen


class TestBatchedEvaluate:
    """The checks that evaluate all perturbations of an array in one call
    get the numeric gradients of one call per perturbation, bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_network_keys(self, monkeypatch, seed):
        def check():
            return suite.check_network(seed)
        batched = numeric_gradients(monkeypatch, check, batched=True)
        default = numeric_gradients(monkeypatch, check, batched=False)
        assert len(batched) == len(default) >= 16  # 8 conv layers, plus activation keys
        for got, want in zip(batched, default):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", default_pool(), ids=lambda k: k.value)
    def test_activation_inputs_and_parameters(self, monkeypatch, kind):
        def check():
            return [suite.check_activation(kind, seed) for seed in range(2)]
        batched = numeric_gradients(monkeypatch, check, batched=True)
        default = numeric_gradients(monkeypatch, check, batched=False)
        assert len(batched) == len(default) == 4
        for got, want in zip(batched, default):
            assert got.tobytes() == want.tobytes()
