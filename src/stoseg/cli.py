"""Batch experiment runner driven by key=value config files.

Subcommands: ``synth`` (emit a dataset in the PNM layout), ``train`` (one
model), ``eval`` (checkpoint against a test set), ``ensemble`` (train and
evaluate an ensemble), ``gradcheck`` (the full gradient suite). Every run
writes the fully resolved config next to its outputs, and all randomness
flows from the single master seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import data as data_mod
from . import ensemble as ens_mod
from . import network, suite
from .activations import ActivationKind, default_pool
from .fileio import write_atomic
from .losses import TrainConfig, train_model
from .metrics import CSV_COLUMNS, MetricReport
from .rng import derive_seed

# seed stream tags (documented so runs can be reproduced piecewise)
TAG_DATA = 1
TAG_SPLIT = 2
TAG_ENSEMBLE = 3
TAG_SHUFFLE = 4
TAG_INIT = 5
TAG_ASSIGN = 6

DEFAULTS: dict[str, str] = {
    "name": "microseg",
    "seed": "0",
    "out_dir": "run_out",
    "data.source": "synth",
    "data.synth_count": "240",
    "data.synth_size": "64",
    "data.images_dir": "",
    "data.masks_dir": "",
    "split.train": "200",
    "split.test": "40",
    "net.input_size": "64",
    "net.stem_width": "16",
    "net.down_width": "32",
    "net.aspp_width": "16",
    "net.fuse_width": "32",
    "net.dilations": "1,2,4",
    "train.epochs": "20",
    "train.lr": "0.01",
    "train.momentum": "0.9",
    "train.batch_size": "8",
    "train.loss": "dice",
    "train.augment": "true",
    "train.bg_weight": "1.0",
    "train.fg_weight": "1.0",
    "model.activation": "relu",
    "ensemble.mode": "sto",
    "ensemble.size": "14",
    "ensemble.pool_size": "14",
}


class ConfigError(ValueError):
    pass


def parse_config(path: str | None) -> dict[str, str]:
    """key=value file with # comments; unknown keys are rejected."""
    cfg = dict(DEFAULTS)
    if path is None:
        return cfg
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        cfg[key] = value
    return cfg


def _as_int(cfg, key) -> int:
    try:
        return int(cfg[key])
    except ValueError:
        raise ConfigError(f"config key {key} must be an integer, got {cfg[key]!r}")


def _as_float(cfg, key) -> float:
    try:
        return float(cfg[key])
    except ValueError:
        raise ConfigError(f"config key {key} must be a number, got {cfg[key]!r}")


def _as_bool(cfg, key) -> bool:
    v = cfg[key].lower()
    if v in ("true", "1", "yes"):
        return True
    if v in ("false", "0", "no"):
        return False
    raise ConfigError(f"config key {key} must be true/false, got {cfg[key]!r}")


def network_config(cfg) -> network.NetworkConfig:
    try:
        dilations = tuple(int(d) for d in cfg["net.dilations"].split(","))
    except ValueError:
        raise ConfigError(f"net.dilations must be comma-separated integers, got {cfg['net.dilations']!r}")
    return network.NetworkConfig(
        input_size=_as_int(cfg, "net.input_size"),
        stem_width=_as_int(cfg, "net.stem_width"),
        down_width=_as_int(cfg, "net.down_width"),
        aspp_width=_as_int(cfg, "net.aspp_width"),
        fuse_width=_as_int(cfg, "net.fuse_width"),
        aspp_dilations=dilations,
    )


def train_config(cfg, seed: int) -> TrainConfig:
    return TrainConfig(
        epochs=_as_int(cfg, "train.epochs"),
        learning_rate=_as_float(cfg, "train.lr"),
        momentum=_as_float(cfg, "train.momentum"),
        batch_size=_as_int(cfg, "train.batch_size"),
        loss=cfg["train.loss"],
        augment=_as_bool(cfg, "train.augment"),
        shuffle_seed=derive_seed(seed, TAG_SHUFFLE),
        class_weights=(_as_float(cfg, "train.bg_weight"), _as_float(cfg, "train.fg_weight")),
    )


def ensemble_spec(cfg, seed: int) -> ens_mod.EnsembleSpec:
    return ens_mod.EnsembleSpec(
        mode=cfg["ensemble.mode"],
        size=_as_int(cfg, "ensemble.size"),
        master_seed=derive_seed(seed, TAG_ENSEMBLE),
        network=network_config(cfg),
        train=train_config(cfg, seed),
        pool_size=_as_int(cfg, "ensemble.pool_size"),
    )


def load_dataset(cfg, seed: int) -> data_mod.Dataset:
    source = cfg["data.source"]
    if source == "synth":
        return data_mod.synth_blobs(
            _as_int(cfg, "data.synth_count"),
            _as_int(cfg, "data.synth_size"),
            derive_seed(seed, TAG_DATA),
        )
    if source == "dir":
        if not cfg["data.images_dir"] or not cfg["data.masks_dir"]:
            raise ConfigError("data.source=dir requires data.images_dir and data.masks_dir")
        return data_mod.load_dir(cfg["data.images_dir"], cfg["data.masks_dir"])
    raise ConfigError(f"data.source must be 'synth' or 'dir', got {source!r}")


def split_dataset(cfg, ds, seed: int):
    return data_mod.split(
        ds, _as_int(cfg, "split.train"), _as_int(cfg, "split.test"),
        derive_seed(seed, TAG_SPLIT),
    )


def write_resolved(cfg: dict[str, str], out: Path) -> None:
    lines = [f"{k}={cfg[k]}" for k in sorted(cfg)]
    write_atomic(out / "config.resolved", ("\n".join(lines) + "\n").encode())


def write_results_csv(path: Path, rows: list[tuple[str, MetricReport]]) -> None:
    lines = ["name," + ",".join(CSV_COLUMNS)]
    for name, report in rows:
        lines.append(name + "," + ",".join(f"{v:.6f}" for v in report.csv_values()))
    write_atomic(path, ("\n".join(lines) + "\n").encode())


def write_loss_history(path: Path, history: list[float]) -> None:
    lines = ["epoch,mean_loss"]
    lines += [f"{e},{v:.8f}" for e, v in enumerate(history)]
    write_atomic(path, ("\n".join(lines) + "\n").encode())


def _prepare_out(cfg) -> Path:
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    write_resolved(cfg, out)
    return out


def _single_assignment(cfg, net_cfg, seed: int):
    choice = cfg["model.activation"]
    if choice == "sto":
        return network.assign_activations(
            "sto", default_pool()[: _as_int(cfg, "ensemble.pool_size")],
            net_cfg.site_count, 0, derive_seed(seed, TAG_ASSIGN),
        )
    try:
        kind = ActivationKind(choice)
    except ValueError:
        names = ", ".join(k.value for k in default_pool())
        raise ConfigError(f"model.activation must be 'sto' or one of: {names}")
    return tuple([kind] * net_cfg.site_count)


def cmd_synth(cfg) -> int:
    out = _prepare_out(cfg)
    seed = _as_int(cfg, "seed")
    ds = data_mod.synth_blobs(
        _as_int(cfg, "data.synth_count"), _as_int(cfg, "data.synth_size"),
        derive_seed(seed, TAG_DATA),
    )
    data_mod.save_dataset(ds, out / "dataset")
    print(f"wrote {len(ds)} samples to {out / 'dataset'}")
    return 0


def cmd_train(cfg) -> int:
    out = _prepare_out(cfg)
    seed = _as_int(cfg, "seed")
    net_cfg = network_config(cfg)
    ds = load_dataset(cfg, seed)
    train_ds, _ = split_dataset(cfg, ds, seed)
    train_samples = [data_mod.resize_for_train(s, net_cfg.input_size) for s in train_ds]
    model = network.build_model(
        net_cfg, _single_assignment(cfg, net_cfg, seed), derive_seed(seed, TAG_INIT)
    )
    model, history = train_model(model, train_samples, train_config(cfg, seed))
    network.save_model(out / "model.npz", model)
    write_loss_history(out / "loss_history.csv", history)
    print(f"trained {cfg['name']} for {len(history)} epochs; "
          f"final mean loss {history[-1]:.6f}")
    return 0


def cmd_eval(cfg, checkpoint: str) -> int:
    out = _prepare_out(cfg)
    seed = _as_int(cfg, "seed")
    model = network.load_model(checkpoint)
    ds = load_dataset(cfg, seed)
    _, test_ds = split_dataset(cfg, ds, seed)
    report = ens_mod.evaluate_model(model, list(test_ds))
    write_results_csv(out / "results.csv", [(cfg["name"], report)])
    print(f"{cfg['name']}: dice {report.dice:.4f}, iou {report.iou:.4f}")
    return 0


def cmd_ensemble(cfg, parallel: int) -> int:
    out = _prepare_out(cfg)
    seed = _as_int(cfg, "seed")
    spec = ensemble_spec(cfg, seed)
    ds = load_dataset(cfg, seed)
    train_ds, test_ds = split_dataset(cfg, ds, seed)
    train_samples = [data_mod.resize_for_train(s, spec.network.input_size) for s in train_ds]
    ens = ens_mod.train_ensemble(spec, train_samples, parallel=parallel)
    report = ens_mod.ensemble_evaluate(ens, list(test_ds))
    row_name = f"{cfg['name']}_{spec.mode}"
    write_results_csv(out / "results.csv", [(row_name, report)])
    ens_mod.save_ensemble(out / "ensemble", ens)
    print(f"{row_name}: dice {report.dice:.4f}, iou {report.iou:.4f} "
          f"({spec.size} members)")
    return 0


def cmd_gradcheck() -> int:
    results = suite.run_suite()
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: max_err={r.max_err:.3e} tol={r.tolerance:.0e}")
        ok &= r.passed
    print("gradient suite:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="stoseg", description=__doc__)
    parser.add_argument("subcommand",
                        choices=["synth", "train", "eval", "ensemble", "gradcheck"])
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--parallel", type=int, default=1,
                        help="worker processes for ensemble member training")
    parser.add_argument("--checkpoint", help="model checkpoint (eval)")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg["seed"] = str(args.seed)
        if args.out is not None:
            cfg["out_dir"] = args.out
        if args.subcommand == "synth":
            return cmd_synth(cfg)
        if args.subcommand == "train":
            return cmd_train(cfg)
        if args.subcommand == "eval":
            if not args.checkpoint:
                raise ConfigError("eval requires --checkpoint")
            return cmd_eval(cfg, args.checkpoint)
        if args.subcommand == "ensemble":
            return cmd_ensemble(cfg, args.parallel)
        return cmd_gradcheck()
    except (ConfigError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
