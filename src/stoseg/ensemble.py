"""Train N independent members and fuse their outputs by the sum rule
(the per-pixel mean of the members' softmax maps)."""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .activations import ActivationKind, default_pool
from .data import Sample, resize_for_train, resize_pred_back
from .losses import TrainConfig, train_model
from .metrics import MetricReport, evaluate_set
from .network import (
    Model,
    NetworkConfig,
    assign_activations,
    build_model,
    load_model,
    predict_batch,
    save_model,
)
from .rng import SplitMix64, derive_seed

MANIFEST_NAME = "manifest.json"
_INIT_TAG = 0x1217
DEFAULT_POOL_SIZE = 14


@dataclass(frozen=True)
class EnsembleSpec:
    mode: str
    size: int = 14
    master_seed: int = 0
    network: NetworkConfig = field(default_factory=NetworkConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    pool_size: int = DEFAULT_POOL_SIZE

    def __post_init__(self):
        if self.mode not in ("act", "sto", "relu"):
            raise ValueError(f"unknown ensemble mode {self.mode!r}")
        if self.size < 1:
            raise ValueError(f"ensemble size must be >= 1, got {self.size}")
        if not 1 <= self.pool_size <= len(default_pool()):
            raise ValueError(f"pool_size must be in [1, {len(default_pool())}]")
        if self.mode == "act" and self.size > self.pool_size:
            raise ValueError(
                f"act mode needs size <= pool size ({self.size} > {self.pool_size})"
            )

    def pool(self) -> list[ActivationKind]:
        return default_pool()[: self.pool_size]


@dataclass
class Ensemble:
    members: list[Model]
    spec: EnsembleSpec
    member_seeds: list[int]

    def __post_init__(self):
        if len(self.members) != self.spec.size:
            raise ValueError("member count does not match spec size")
        if len(set(self.member_seeds)) != len(self.member_seeds):
            raise ValueError("member seeds must be pairwise distinct")


def member_seeds(master_seed: int, size: int) -> list[int]:
    """Member i's seed is the i-th output of the stream seeded by master_seed."""
    stream = SplitMix64(master_seed)
    return [stream.next_u64() for _ in range(size)]


def build_member(spec: EnsembleSpec, index: int, seed: int) -> Model:
    assignment = assign_activations(
        spec.mode, spec.pool(), spec.network.site_count, index, seed
    )
    return build_model(spec.network, assignment, derive_seed(seed, _INIT_TAG))


def _train_member(args) -> Model:
    spec, samples, index, seed = args
    model = build_member(spec, index, seed)
    model, _ = train_model(model, samples, spec.train)
    return model


def train_ensemble(
    spec: EnsembleSpec, train_set: Sequence[Sample], parallel: int = 1
) -> Ensemble:
    """Train all members independently on the same data.

    Each member's activation assignment and weight init derive only from
    its own seed, so results are identical whether members run
    sequentially or in a process pool.
    """
    samples = list(train_set)
    if not samples:
        raise ValueError("training set is empty")
    seeds = member_seeds(spec.master_seed, spec.size)
    jobs = [(spec, samples, i, seeds[i]) for i in range(spec.size)]
    models: list[Model] = []
    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            futures = [pool.submit(_train_member, job) for job in jobs]
            for i, fut in enumerate(futures):
                try:
                    models.append(fut.result())
                except Exception as exc:
                    raise RuntimeError(f"training member {i} failed: {exc}") from exc
    else:
        for i, job in enumerate(jobs):
            try:
                models.append(_train_member(job))
            except Exception as exc:
                raise RuntimeError(f"training member {i} failed: {exc}") from exc
    return Ensemble(members=models, spec=spec, member_seeds=seeds)


def fuse_probs(maps: Sequence[np.ndarray]) -> np.ndarray:
    """Sum-rule fusion: the arithmetic mean of the members' probability maps.

    Computed in float64 as ``m0 + sum(mi - m0) / N``. The deviations of
    copies from the first map are exactly zero, so fusing N copies of a map
    returns the map itself in float32 and float64 alike, and member order
    changes the result only by float64 rounding.
    """
    maps = list(maps)
    if not maps:
        raise ValueError("cannot fuse an empty list of probability maps")
    shape = maps[0].shape
    for i, m in enumerate(maps):
        if m.shape != shape:
            raise ValueError(f"map {i} has shape {m.shape}, expected {shape}")
    m0 = np.asarray(maps[0], dtype=np.float64)
    stacked = np.stack([np.asarray(m, dtype=np.float64) for m in maps])
    stacked -= m0
    return m0 + stacked.sum(axis=0) / len(maps)


def _fused_test_probs(models: Sequence[Model], test_set: Sequence[Sample], size: int):
    resized = [resize_for_train(s, size) for s in test_set]
    images = np.stack([s.image for s in resized])
    return fuse_probs([predict_batch(m, images) for m in models])


def evaluate_models(
    models: Sequence[Model], test_set: Sequence[Sample], input_size: int
) -> MetricReport:
    """Shared evaluation path: resize in, predict, fuse, resize back, score
    per image at the original resolution, then macro-average."""
    test_set = list(test_set)
    if not test_set:
        raise ValueError("test set is empty")
    fused = _fused_test_probs(models, test_set, input_size)
    pairs = []
    for i, s in enumerate(test_set):
        pred = resize_pred_back(fused[i, 1], s.orig_size)
        pairs.append((pred, s.mask))
    return evaluate_set(pairs)


def ensemble_evaluate(ens: Ensemble, test_set: Sequence[Sample]) -> MetricReport:
    return evaluate_models(ens.members, test_set, ens.spec.network.input_size)


def evaluate_model(model: Model, test_set: Sequence[Sample]) -> MetricReport:
    return evaluate_models([model], test_set, model.config.input_size)


def _member_path(directory: Path, index: int) -> Path:
    return directory / f"member_{index:03d}.npz"


def _spec_record(spec: EnsembleSpec) -> dict:
    """The manifest entries that describe ``spec``."""
    return {
        "mode": spec.mode,
        "size": spec.size,
        "master_seed": spec.master_seed,
        "pool": [k.value for k in spec.pool()],
        "pool_size": spec.pool_size,
    }


def save_ensemble(directory, ens: Ensemble) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, m in enumerate(ens.members):
        save_model(_member_path(directory, i), m)
    manifest = {
        "format": "stoseg-ensemble",
        "version": 1,
        **_spec_record(ens.spec),
        "member_seeds": ens.member_seeds,
    }
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2) + "\n")


def load_ensemble(directory, spec: EnsembleSpec) -> Ensemble:
    """Reload members saved by save_ensemble.

    ``spec`` supplies the train config the manifest does not store. The
    manifest's mode, size, master seed, pool and seed count, and every
    member's network config, must match ``spec``; a mismatch raises a
    ``ValueError`` naming the manifest or member file and the key.
    """
    directory = Path(directory)
    path = directory / MANIFEST_NAME
    manifest = json.loads(path.read_text())
    if manifest.get("format") != "stoseg-ensemble":
        raise ValueError(f"{path}: not an ensemble checkpoint")
    for key, want in _spec_record(spec).items():
        if manifest.get(key) != want:
            raise ValueError(f"{path}: {key} is {manifest.get(key)!r}, spec has {want!r}")
    seeds = manifest.get("member_seeds", [])
    if len(seeds) != spec.size:
        raise ValueError(f"{path}: member_seeds has {len(seeds)} entries, spec size is {spec.size}")
    members = []
    for i in range(spec.size):
        member = _member_path(directory, i)
        model = load_model(member)
        for f in fields(NetworkConfig):
            got, want = getattr(model.config, f.name), getattr(spec.network, f.name)
            if got != want:
                raise ValueError(f"{member}: config {f.name} is {got!r}, spec has {want!r}")
        members.append(model)
    return Ensemble(members=members, spec=spec, member_seeds=seeds)
