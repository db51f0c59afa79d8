"""Batch experiment runner driven by key=value config files.

Subcommands: ``synth`` (emit a dataset in the PNM layout), ``train`` (one
ensemble member), ``eval`` (checkpoint against a test set), ``ensemble``
(train and evaluate an ensemble), ``gradcheck`` (the full gradient suite).
Every run writes the fully resolved config next to its outputs, and all
randomness flows from the single master seed. A run checks its config,
checkpoint and data before it writes ``config.resolved``.

The dataset is ``data.images_dir`` with ``data.masks_dir`` when both are set
(one alone is an error); when neither is, it is ``split.train + split.test``
synthetic images, the only size the split takes. ``synth`` always
synthesises. A setting of a ``NetworkConfig``, ``TrainConfig`` or
``EnsembleSpec`` field reads its default from that field.

``train`` writes the bytes of one ``ensemble`` member file, trained with
that member's seed (for member i, the i-th output of the master seed's
stream). ``model.activation=sto`` is member 0 of the ``sto`` ensemble at the
configured ``ensemble.pool_size``; a kind name is member i, the kind's pool
index, of the ``act`` ensemble with ``ensemble.pool_size=17`` and any
``ensemble.size`` above i. ``train`` reads neither ``ensemble.mode`` nor
``ensemble.size``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import data as data_mod
from . import ensemble as ens_mod
from . import network, suite
from .activations import default_pool
from .fileio import write_atomic
from .losses import TrainConfig
from .metrics import CSV_COLUMNS, MetricReport
from .rng import derive_seed

# seed stream tags (documented so runs can be reproduced piecewise); every
# model, from ``train`` or ``ensemble``, is seeded from the TAG_ENSEMBLE stream
TAG_DATA = 1
TAG_SPLIT = 2
TAG_ENSEMBLE = 3
TAG_SHUFFLE = 4

DEFAULTS: dict[str, str] = {
    "name": "microseg",
    "seed": "0",
    "out_dir": "run_out",
    "data.synth_size": "64",
    "data.images_dir": "",
    "data.masks_dir": "",
    "split.train": "200",
    "split.test": "40",
    "net.input_size": str(network.NetworkConfig.input_size),
    "net.stem_width": str(network.NetworkConfig.stem_width),
    "net.down_width": str(network.NetworkConfig.down_width),
    "net.aspp_width": str(network.NetworkConfig.aspp_width),
    "net.fuse_width": str(network.NetworkConfig.fuse_width),
    "net.dilations": ",".join(map(str, network.NetworkConfig.aspp_dilations)),
    "train.epochs": str(TrainConfig.epochs),
    "train.lr": str(TrainConfig.learning_rate),
    "train.momentum": str(TrainConfig.momentum),
    "train.batch_size": str(TrainConfig.batch_size),
    "train.loss": TrainConfig.loss,
    "train.augment": str(TrainConfig.augment).lower(),
    "train.bg_weight": str(TrainConfig.class_weights[0]),
    "train.fg_weight": str(TrainConfig.class_weights[1]),
    "model.activation": "relu",
    "ensemble.mode": "sto",
    "ensemble.size": str(ens_mod.EnsembleSpec.size),
    "ensemble.pool_size": str(ens_mod.EnsembleSpec.pool_size),
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
    """The two directories when both are set, the synthetic set when neither is."""
    images_dir, masks_dir = cfg["data.images_dir"], cfg["data.masks_dir"]
    if images_dir and masks_dir:
        return data_mod.load_dir(images_dir, masks_dir)
    if images_dir or masks_dir:
        raise ConfigError("data.images_dir and data.masks_dir must be set together")
    count = _as_int(cfg, "split.train") + _as_int(cfg, "split.test")
    if count < 1:
        raise ConfigError(f"split.train + split.test must be >= 1, got {count}")
    return data_mod.synth_blobs(count, _as_int(cfg, "data.synth_size"), derive_seed(seed, TAG_DATA))


def load_split(cfg, seed: int):
    """The configured dataset, split into ``(train, test)`` by the seed."""
    return data_mod.split(
        load_dataset(cfg, seed), _as_int(cfg, "split.train"), _as_int(cfg, "split.test"),
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


def cmd_synth(cfg) -> int:
    synth = {**cfg, "data.images_dir": "", "data.masks_dir": ""}
    ds = load_dataset(synth, _as_int(cfg, "seed"))
    out = _prepare_out(cfg)
    data_mod.save_dataset(ds, out / "dataset")
    print(f"wrote {len(ds)} samples to {out / 'dataset'}")
    return 0


def _resized(samples, size: int) -> list[data_mod.Sample]:
    return [data_mod.resize_for_train(s, size) for s in samples]


def cmd_train(cfg) -> int:
    seed = _as_int(cfg, "seed")
    choice = cfg["model.activation"]
    if choice == "sto":
        index, member = 0, {"ensemble.mode": "sto"}
    else:
        pool = [k.value for k in default_pool()]
        if choice not in pool:
            raise ConfigError(f"model.activation must be 'sto' or one of: {', '.join(pool)}")
        index = pool.index(choice)
        member = {"ensemble.mode": "act", "ensemble.pool_size": str(len(pool))}
    spec = ensemble_spec({**cfg, **member, "ensemble.size": str(index + 1)}, seed)
    train_ds, _ = load_split(cfg, seed)
    out = _prepare_out(cfg)
    model, history = ens_mod.train_member(spec, _resized(train_ds, spec.network.input_size), index)
    network.save_model(out / "model.npz", model)
    write_loss_history(out / "loss_history.csv", history)
    print(f"trained {cfg['name']} for {len(history)} epochs; "
          f"final mean loss {history[-1]:.6f}")
    return 0


def cmd_eval(cfg, checkpoint: str) -> int:
    model = network.load_model(checkpoint)
    _, test_ds = load_split(cfg, _as_int(cfg, "seed"))
    out = _prepare_out(cfg)
    report = ens_mod.evaluate_model(model, list(test_ds))
    write_results_csv(out / "results.csv", [(cfg["name"], report)])
    print(f"{cfg['name']}: dice {report.dice:.4f}, iou {report.iou:.4f}")
    return 0


def cmd_ensemble(cfg) -> int:
    seed = _as_int(cfg, "seed")
    spec = ensemble_spec(cfg, seed)
    train_ds, test_ds = load_split(cfg, seed)
    out = _prepare_out(cfg)
    ens = ens_mod.train_ensemble(spec, _resized(train_ds, spec.network.input_size))
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
            return cmd_ensemble(cfg)
        return cmd_gradcheck()
    except (ConfigError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
