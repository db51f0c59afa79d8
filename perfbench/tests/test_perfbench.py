"""Tests of the benchmark harness itself (not of stoseg).

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for p in (str(ROOT / "src"), str(ROOT)):
    if p not in sys.path:
        sys.path.insert(0, p)

from perfbench import layers, run, workloads  # noqa: E402
from perfbench.tracer import Tracer, package_modules  # noqa: E402
from stoseg import data, ensemble, losses, network, suite  # noqa: E402
from stoseg.activations import default_pool  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = network.NetworkConfig(input_size=16, stem_width=4, down_width=8, aspp_width=4,
                             fuse_width=8)


def declared(section):
    return [m["name"] for m in BENCH[section]]


def snapshot():
    return {(m.__name__, a): id(o) for m in package_modules("stoseg") for a, o in vars(m).items()}


def tiny_training_run():
    train = [data.resize_for_train(s, 16) for s in data.synth_blobs(4, 16, 3)]
    model = ensemble.build_member(ensemble.EnsembleSpec(mode="sto", size=1, network=TINY), 0, 9)
    losses.train_model(model, train, losses.TrainConfig(epochs=1, batch_size=2))
    network.predict_batch(model, np.stack([s.image for s in train]))


def samples_equal(a, b):
    return len(a) == len(b) and all(
        np.array_equal(x.image, y.image) and np.array_equal(x.mask, y.mask)
        and x.orig_size == y.orig_size for x, y in zip(a, b))


class TestWorkloadInputs:
    def test_train_sto_deterministic_per_seed(self, tmp_path):
        train, test = workloads.TrainSto(7, tmp_path).inputs()
        again_train, again_test = workloads.TrainSto(7, tmp_path).inputs()
        other_train, _ = workloads.TrainSto(8, tmp_path).inputs()
        assert (len(train), len(test)) == (48, 12)
        assert samples_equal(train, again_train) and samples_equal(test, again_test)
        assert not samples_equal(train, other_train)

    def test_eval_relu_deterministic_per_seed(self, tmp_path):
        wl = workloads.EvalRelu(7, tmp_path)
        test, train = wl.inputs()
        again_test, again_train = workloads.EvalRelu(7, tmp_path).inputs()
        other_test, _ = workloads.EvalRelu(8, tmp_path).inputs()
        assert test[0].image.shape == (3, wl.height, wl.width)
        assert samples_equal(list(test), list(again_test)) and samples_equal(train, again_train)
        assert not samples_equal(list(test), list(other_test))


class TestMetricNames:
    def test_declared_names_are_valid_and_unique(self):
        names = declared("end_to_end") + declared("per_layer")
        assert len(names) == len(set(names))
        assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)

    def test_end_to_end_names_declared(self):
        values = run.end_to_end_metrics([0.1, 0.2], [(1.0, 5.0), (1.1, 4.9)], 100.0)
        assert list(values) == declared("end_to_end")

    def test_per_layer_names_declared(self):
        tracer = Tracer("stoseg", layers.TRACED_MODULES, layers.annotators(TINY))
        with tracer.installed():
            tiny_training_run()
        sweep = layers.activation_sweep(0, shape=(1, 2, 4, 4), repeats=1)
        values = layers.per_layer_metrics(tracer.spans, 1, [], {}, 0.0, sweep)
        assert list(values) == declared("per_layer")
        assert all(np.isfinite(v) for v in values.values())
        assert values["network.forward.calls"] == 3  # two training batches + predict
        assert values["ops.conv2d.stem.ms_p50"] > 0

    def test_report_names_valid(self):
        for w in workloads.WORKLOADS.values():
            assert NAME.fullmatch(w.item_metric) and w.item_metric in run.REPORT_UNITS


class TestTracer:
    def test_restores_patched_attributes(self):
        before = snapshot()
        tracer = Tracer("stoseg", layers.TRACED_MODULES)
        originals = (network.act_forward, ensemble.train_model, ensemble.predict_batch,
                     data.read_pnm, suite.gradcheck, network.forward)
        with tracer.installed():
            patched = (network.act_forward, ensemble.train_model, ensemble.predict_batch,
                       data.read_pnm, suite.gradcheck, network.forward)
            assert all(p is not o for p, o in zip(patched, originals))
            assert all(p.__wrapped__ is o for p, o in zip(patched, originals))
        assert snapshot() == before

    def test_restores_after_exception(self):
        before = snapshot()
        with pytest.raises(ValueError):
            with Tracer("stoseg", layers.TRACED_MODULES).installed():
                suite.check_activation(default_pool()[0], 0)
                raise ValueError("boom")
        assert snapshot() == before

    def test_spans_named_by_defining_module_with_parents(self):
        tracer = Tracer("stoseg", layers.TRACED_MODULES)
        with tracer.installed():
            tiny_training_run()
        spans = tracer.spans
        names = {s.name for s in spans}
        assert {"losses.train_model", "data.augment", "network.forward",
                "activations.act_forward", "ops.conv2d"} <= names
        act = next(s for s in spans if s.name == "activations.act_forward")
        assert spans[act.parent].name == "network.forward"
        assert all(s.start_ns <= s.end_ns for s in spans)
