import re

import pytest

from stoseg import cli, ensemble
from stoseg.metrics import CSV_COLUMNS

SEED = 3


def tiny_config(tmp_path):
    """A config file for a tiny run that reads the dataset ``synth`` writes."""
    dataset = tmp_path / "synth" / "dataset"
    path = tmp_path / "tiny.cfg"
    path.write_text("\n".join([
        f"seed={SEED}",
        "data.source=dir",
        f"data.images_dir={dataset / 'images'}",
        f"data.masks_dir={dataset / 'masks'}",
        "data.synth_count=12",
        "data.synth_size=16",
        "split.train=8",
        "split.test=4",
        "net.input_size=16",
        "net.stem_width=4",
        "net.down_width=8",
        "net.aspp_width=4",
        "net.fuse_width=8",
        "net.dilations=1,2",
        "train.epochs=1",
        "train.batch_size=4",
        "ensemble.mode=sto",
        "ensemble.size=2",
    ]) + "\n")
    return path


def test_subcommands_end_to_end(tmp_path):
    config = str(tiny_config(tmp_path))
    runs = {
        "synth": [],
        "train": [],
        "eval": ["--checkpoint", str(tmp_path / "train" / "model.npz")],
        "ensemble": [],
    }
    for sub, extra in runs.items():
        out = tmp_path / sub
        assert cli.main([sub, "--config", config, "--out", str(out), *extra]) == 0, sub
        assert (out / "config.resolved").is_file(), sub
    for sub in ("eval", "ensemble"):
        header = (tmp_path / sub / "results.csv").read_text().splitlines()[0]
        assert header == "name," + ",".join(CSV_COLUMNS)

    cfg = cli.parse_config(config)
    ens = ensemble.load_ensemble(tmp_path / "ensemble" / "ensemble", cli.ensemble_spec(cfg, SEED))
    _, test_ds = cli.split_dataset(cfg, cli.load_dataset(cfg, SEED), SEED)
    report = ensemble.ensemble_evaluate(ens, list(test_ds))
    row = (tmp_path / "ensemble" / "results.csv").read_text().splitlines()[1]
    assert row == f"{cfg['name']}_sto," + ",".join(f"{v:.6f}" for v in report.csv_values())


def write_config(tmp_path, *lines):
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestParseConfig:
    def test_no_file_gives_defaults(self):
        assert cli.parse_config(None) == cli.DEFAULTS

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = write_config(tmp_path, "# header", "", "   ", "seed = 7  # trailing", "name=run#2")
        assert cli.parse_config(path) == {**cli.DEFAULTS, "seed": "7", "name": "run"}

    def test_unknown_key_names_file_and_line(self, tmp_path):
        path = write_config(tmp_path, "seed=1", "", "net.widht=4")
        with pytest.raises(cli.ConfigError, match=re.escape(f"{path}:3: unknown config key")):
            cli.parse_config(path)

    def test_line_without_equals_names_file_and_line(self, tmp_path):
        path = write_config(tmp_path, "# header", "seed 1")
        with pytest.raises(cli.ConfigError, match=re.escape(f"{path}:2: expected key=value")):
            cli.parse_config(path)


class TestTypedGetters:
    @pytest.mark.parametrize("key, value, getter", [
        ("net.dilations", "1,two", cli.network_config),
        ("net.input_size", "sixty", cli.network_config),
        ("train.augment", "maybe", lambda cfg: cli.train_config(cfg, 0)),
        ("data.source", "web", lambda cfg: cli.load_dataset(cfg, 0)),
    ])
    def test_bad_value_names_key(self, key, value, getter):
        with pytest.raises(cli.ConfigError, match=re.escape(key)):
            getter({**cli.DEFAULTS, key: value})


class TestMainErrors:
    def test_unknown_key_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, "net.widht=4")
        assert cli.main(["train", "--config", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{path}:1" in err

    def test_bad_activation_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, "data.synth_count=4", "data.synth_size=16", "split.train=2",
                            "split.test=2", "net.input_size=16", "model.activation=tanh")
        assert cli.main(["train", "--config", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: model.activation must be")
