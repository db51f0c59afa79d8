import dataclasses
import re

import numpy as np
import pytest

from stoseg import cli, data, ensemble, network, suite
from stoseg.activations import ActivationKind
from stoseg.losses import TrainConfig
from stoseg.metrics import CSV_COLUMNS
from stoseg.rng import derive_seed

SEED = 3


def tiny_config(tmp_path):
    """A config file for a tiny run that reads the dataset ``synth`` writes."""
    dataset = tmp_path / "synth" / "dataset"
    path = tmp_path / "tiny.cfg"
    path.write_text("\n".join([
        f"seed={SEED}",
        f"data.images_dir={dataset / 'images'}",
        f"data.masks_dir={dataset / 'masks'}",
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
    _, test_ds = cli.load_split(cfg, SEED)
    report = ensemble.ensemble_evaluate(ens, list(test_ds))
    row = (tmp_path / "ensemble" / "results.csv").read_text().splitlines()[1]
    assert row == f"{cfg['name']}_sto," + ",".join(f"{v:.6f}" for v in report.csv_values())


def npz_arrays(path):
    with np.load(path) as z:
        return {k: z[k] for k in z.files}


class TestTrainIsAnEnsembleMember:
    @pytest.fixture
    def config(self, tmp_path):
        """``tiny_config`` with its dataset written; tests append keys to it."""
        path = tiny_config(tmp_path)
        assert cli.main(["synth", "--config", str(path), "--out", str(tmp_path / "synth")]) == 0
        return path

    def run(self, sub, config, out):
        assert cli.main([sub, "--config", str(config), "--out", str(out)]) == 0, sub

    def test_sto_model_is_ensemble_member_0(self, config, tmp_path):
        with config.open("a") as f:
            f.write("model.activation=sto\n")
        self.run("train", config, tmp_path / "train")
        self.run("ensemble", config, tmp_path / "ensemble")
        model = npz_arrays(tmp_path / "train" / "model.npz")
        member = npz_arrays(tmp_path / "ensemble" / "ensemble" / "member_000.npz")
        assert model.keys() == member.keys() and "__meta__" in model
        for key, value in model.items():
            assert value.dtype == member[key].dtype, key
            np.testing.assert_array_equal(value, member[key], err_msg=key)

    def test_kind_model_is_its_act_member(self, config, tmp_path):
        """A kind name trains the member at the kind's pool index of the act
        ensemble over the full pool, with that member's seed."""
        with config.open("a") as f:
            f.write("ensemble.mode=act\nensemble.size=3\nensemble.pool_size=17\n")
        self.run("ensemble", config, tmp_path / "ensemble")
        for i, kind in enumerate(["relu", "leaky_relu", "elu"]):
            with config.open("a") as f:
                f.write(f"model.activation={kind}\n")
            self.run("train", config, tmp_path / kind)
            model = (tmp_path / kind / "model.npz").read_bytes()
            assert model == (tmp_path / "ensemble" / "ensemble" / f"member_{i:03d}.npz").read_bytes()

    def test_kind_name_sets_every_site(self, config, tmp_path):
        # train reads neither ensemble.mode nor ensemble.size, so invalid
        # values of both are no error
        with config.open("a") as f:
            f.write("model.activation=elu\nensemble.mode=mixed\nensemble.size=0\n")
        self.run("train", config, tmp_path / "train")
        model = network.load_model(tmp_path / "train" / "model.npz")
        assert model.assignment == (ActivationKind.ELU,) * model.config.site_count


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
        ("data.images_dir", "images", lambda cfg: cli.load_dataset(cfg, 0)),
    ])
    def test_bad_value_names_key(self, key, value, getter):
        with pytest.raises(cli.ConfigError, match=re.escape(key)):
            getter({**cli.DEFAULTS, key: value})


class TestDataset:
    def test_both_dirs_load_their_files(self, tmp_path):
        root = tmp_path / "set"
        samples = data.synth_blobs(3, 16, SEED).samples
        renamed = tuple(dataclasses.replace(s, ident=f"polyp{i}") for i, s in enumerate(samples))
        data.save_dataset(data.Dataset(renamed, provenance="renamed"), root)
        path = write_config(tmp_path, f"data.images_dir={root / 'images'}",
                            f"data.masks_dir={root / 'masks'}", "split.train=2", "split.test=1")
        ds = cli.load_dataset(cli.parse_config(path), SEED)
        assert [s.ident for s in ds] == ["polyp0", "polyp1", "polyp2"]

    @pytest.mark.parametrize("key", ["data.images_dir", "data.masks_dir"])
    def test_one_dir_names_both_keys(self, tmp_path, key):
        with pytest.raises(cli.ConfigError) as exc:
            cli.load_dataset({**cli.DEFAULTS, key: str(tmp_path)}, SEED)
        assert "data.images_dir" in str(exc.value) and "data.masks_dir" in str(exc.value)

    @pytest.mark.parametrize("train, test", [("-5", "2"), ("0", "0")])
    def test_empty_synthetic_set_names_split_keys(self, train, test):
        cfg = {**cli.DEFAULTS, "split.train": train, "split.test": test}
        with pytest.raises(cli.ConfigError, match=re.escape("split.train + split.test")):
            cli.load_dataset(cfg, SEED)

    def test_synth_writes_one_image_per_split_slot(self, tmp_path):
        path = write_config(tmp_path, "data.synth_size=16", "split.train=5", "split.test=2")
        out = tmp_path / "out"
        assert cli.main(["synth", "--config", path, "--out", str(out)]) == 0
        assert len(list((out / "dataset" / "images").glob("*.ppm"))) == 7
        assert len(list((out / "dataset" / "masks").glob("*.pgm"))) == 7


def test_default_config_resolved(tmp_path):
    cli.write_resolved(cli.parse_config(None), tmp_path)
    assert (tmp_path / "config.resolved").read_text() == """\
data.images_dir=
data.masks_dir=
data.synth_size=64
ensemble.mode=sto
ensemble.pool_size=14
ensemble.size=14
model.activation=relu
name=microseg
net.aspp_width=16
net.dilations=1,2,4
net.down_width=32
net.fuse_width=32
net.input_size=64
net.stem_width=16
out_dir=run_out
seed=0
split.test=40
split.train=200
train.augment=true
train.batch_size=8
train.bg_weight=1.0
train.epochs=20
train.fg_weight=1.0
train.loss=dice
train.lr=0.01
train.momentum=0.9
"""


class TestDefaults:
    """Each default in ``cli.DEFAULTS`` is also the default of the dataclass
    field it sets."""

    def test_network_config(self):
        assert cli.network_config(cli.DEFAULTS) == network.NetworkConfig()

    def test_train_config(self):
        want = TrainConfig(shuffle_seed=derive_seed(SEED, cli.TAG_SHUFFLE))
        assert cli.train_config(cli.DEFAULTS, SEED) == want

    def test_ensemble_size_and_pool_size(self):
        defaults = {f.name: f.default for f in dataclasses.fields(ensemble.EnsembleSpec)}
        spec = cli.ensemble_spec(cli.DEFAULTS, SEED)
        assert (spec.size, spec.pool_size) == (defaults["size"], defaults["pool_size"])


class TestMainErrors:
    def test_unknown_key_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, "net.widht=4")
        assert cli.main(["train", "--config", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{path}:1" in err

    def test_bad_activation_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, "data.synth_size=16", "split.train=2",
                            "split.test=2", "net.input_size=16", "model.activation=tanh")
        assert cli.main(["train", "--config", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: model.activation must be")
        assert not (tmp_path / "out").exists()

    def test_nan_learning_rate_exits_1_without_an_ensemble(self, tmp_path, capsys):
        path = write_config(tmp_path, "data.synth_size=16",
                            "split.train=8", "split.test=4", "net.input_size=16",
                            "train.epochs=1", "ensemble.size=2", "train.lr=nan")
        out = tmp_path / "out"
        assert cli.main(["ensemble", "--config", path, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: learning rate must be finite")
        assert not (out / "ensemble").exists() and not (out / "results.csv").exists()
        assert not out.exists()

    def test_missing_checkpoint_exits_1_without_out(self, tmp_path, capsys):
        missing = tmp_path / "missing.npz"
        out = tmp_path / "out"
        assert cli.main(["eval", "--checkpoint", str(missing), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err
        assert not out.exists()

    def test_parallel_option_is_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, "data.synth_size=16", "split.train=2",
                            "split.test=2", "net.input_size=16", "ensemble.size=2")
        args = ["ensemble", "--config", path, "--out", str(tmp_path / "out"), "--parallel", "2"]
        with pytest.raises(SystemExit) as exit_info:
            cli.main(args)
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --parallel 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", ["data.source=dir", "data.synth_count=12"])
    def test_removed_dataset_key_exits_1(self, tmp_path, capsys, line):
        path = write_config(tmp_path, "seed=1", line)
        out = tmp_path / "out"
        assert cli.main(["synth", "--config", path, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:2: unknown config key")
        assert not out.exists()


class TestGradcheck:
    """``stoseg gradcheck`` prints one row per check of the suite and a
    summary, and exits 1 when a row fails."""

    def test_every_row_passes(self, capsys):
        assert cli.main(["gradcheck"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 24
        assert all(re.fullmatch(r"PASS \S+: max_err=\S+ tol=1e-0[34]", line) for line in lines[:23])
        assert lines[-1] == "gradient suite: PASS"

    def test_a_failing_check_fails_the_suite(self, capsys, monkeypatch):
        # run_suite builds its table on each call, so it reads the patch
        monkeypatch.setattr(suite, "check_network", lambda seed: 1.0)
        assert cli.main(["gradcheck"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == ["FAIL network/end_to_end: max_err=1.000e+00 tol=1e-03",
                              "gradient suite: FAIL"]
        assert sum(line.startswith("PASS ") for line in lines) == 22
