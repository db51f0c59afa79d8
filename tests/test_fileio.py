import os
from pathlib import Path

import numpy as np
import pytest

from stoseg import cli, data, ensemble, network
from stoseg.fileio import write_atomic
from stoseg.metrics import MetricReport
from test_ensemble import tiny_spec
from test_network import noised_model, relu_assignment


def _fail_replace_of(name, monkeypatch):
    """Make ``os.replace`` raise for a destination called ``name`` only."""
    real = os.replace

    def replace(src, dst):
        if Path(dst).name == name:
            raise OSError("disk full")
        real(src, dst)

    monkeypatch.setattr(os, "replace", replace)


class TestWriteAtomic:
    def test_writes_and_overwrites(self, tmp_path):
        path = tmp_path / "f.bin"
        write_atomic(path, b"one")
        write_atomic(path, b"two")
        assert path.read_bytes() == b"two"
        assert os.listdir(tmp_path) == ["f.bin"]

    def test_new_file_has_the_mode_of_a_plain_open(self, tmp_path):
        write_atomic(tmp_path / "a", b"x")
        (tmp_path / "b").write_bytes(b"x")
        assert (tmp_path / "a").stat().st_mode == (tmp_path / "b").stat().st_mode

    def test_failed_replace_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "f.bin"
        path.write_bytes(b"old")
        _fail_replace_of("f.bin", monkeypatch)
        with pytest.raises(OSError, match="disk full"):
            write_atomic(path, b"new")
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["f.bin"]

    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"old")
        with pytest.raises(TypeError):
            write_atomic(path, "not bytes")
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["f.bin"]


def _model():
    cfg = tiny_spec().network
    return network.build_model(cfg, relu_assignment(cfg), 3)


def _ensemble():
    spec = tiny_spec(size=2)
    return ensemble.Ensemble([ensemble.build_member(spec, i) for i in range(2)], spec)


def _report():
    return MetricReport(accuracy=0.5, precision=0.5, recall=0.5, f2=0.5, iou=0.5, dice=0.5)


WRITERS = {
    "model.npz": lambda d: network.save_model(d / "model.npz", _model()),
    "manifest.json": lambda d: ensemble.save_ensemble(d, _ensemble()),
    "config.resolved": lambda d: cli.write_resolved({"seed": "1"}, d),
    "results.csv": lambda d: cli.write_results_csv(d / "results.csv", [("run", _report())]),
    "loss_history.csv": lambda d: cli.write_loss_history(d / "loss_history.csv", [0.5, 0.25]),
}


@pytest.mark.parametrize("name", list(WRITERS))
def test_every_output_file_is_written_atomically(name, tmp_path, monkeypatch):
    WRITERS[name](tmp_path)
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    (tmp_path / name).write_bytes(b"old")
    before[tmp_path / name] = b"old"
    _fail_replace_of(name, monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        WRITERS[name](tmp_path)
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("name", ["images/synth00001.ppm", "masks/synth00001.pgm"])
def test_dataset_files_are_written_atomically(name, tmp_path, monkeypatch):
    ds = data.synth_blobs(2, 16, 5)
    data.save_dataset(ds, tmp_path)

    def tree():
        return {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

    (tmp_path / name).write_bytes(b"old")
    before = tree()
    _fail_replace_of(Path(name).name, monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        data.save_dataset(ds, tmp_path)
    assert tree() == before


def test_save_model_appends_npz_suffix(tmp_path):
    network.save_model(tmp_path / "m", _model())
    assert os.listdir(tmp_path) == ["m.npz"]


def test_save_model_bytes_match_the_parent_checkpoint(tmp_path):
    # tests/data/parent_checkpoint.npz was written by np.savez straight to
    # the file; numpy stamps a fixed zip date, so the bytes are reproducible
    fixture = Path(__file__).parent / "data" / "parent_checkpoint.npz"
    m = network.load_model(fixture)
    network.save_model(tmp_path / "m.npz", noised_model(m.config, 61, dtype=np.float32))
    assert (tmp_path / "m.npz").read_bytes() == fixture.read_bytes()
