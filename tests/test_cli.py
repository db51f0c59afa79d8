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
