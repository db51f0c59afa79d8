"""Train N independent members and fuse their outputs by the sum rule
(the per-pixel mean of the members' softmax maps).

Members train one after another; each member's training steps, like each
member's prediction, use a second CPU only as ``network``'s one thread
policy allows.

Member i's recipe derives from the spec alone: its seed is
``member_seeds(master_seed, size)[i]``, its mode picks the kinds
(``_MODE_KINDS``) that ``assign_activations`` draws each site from with that
seed, and its weights start from ``derive_seed(seed, _INIT_TAG)``. The pool
starts with relu, so ``act`` member 0 gets ``[relu]`` and the same seed as
``relu`` member 0 under the same master seed: the two are one model, bit for
bit, and an ``act`` ensemble shares that member with the ``relu`` one.
``save_ensemble`` checks each member against this recipe before it writes,
and ``load_ensemble`` checks each member file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .activations import ActivationKind, default_pool
from .data import Sample, resize_for_train, resize_pred_back
from .fileio import write_atomic
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
MANIFEST_VERSION = 1
_INIT_TAG = 0x1217
DEFAULT_POOL_SIZE = 14

# Member i's site kinds given the pool; a new mode is one entry here.
_MODE_KINDS = {
    "act": lambda pool, i: pool[i : i + 1],
    "sto": lambda pool, i: pool,
    "relu": lambda pool, i: [ActivationKind.RELU],
}
ASSIGNMENT_MODES = tuple(_MODE_KINDS)


@dataclass(frozen=True)
class EnsembleSpec:
    mode: str
    size: int = DEFAULT_POOL_SIZE
    master_seed: int = 0
    network: NetworkConfig = field(default_factory=NetworkConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    pool_size: int = DEFAULT_POOL_SIZE

    def __post_init__(self):
        if self.mode not in ASSIGNMENT_MODES:
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

    def __post_init__(self):
        if len(self.members) != self.spec.size:
            raise ValueError("member count does not match spec size")


def member_seeds(master_seed: int, size: int) -> list[int]:
    """Member i's seed is the i-th output of the stream seeded by master_seed.

    The outputs are ``mix64(master_seed + i * GOLDEN)``: ``mix64`` is a
    bijection and ``GOLDEN`` is odd, so the seeds are pairwise distinct.
    """
    stream = SplitMix64(master_seed)
    return [stream.next_u64() for _ in range(size)]


def _member_recipe(spec: EnsembleSpec, index: int, seed: int):
    """Member ``index``'s ``(assignment, init_seed)`` from its seed."""
    kinds = _MODE_KINDS[spec.mode](spec.pool(), index)
    assignment = assign_activations(kinds, spec.network.site_count, seed)
    return assignment, derive_seed(seed, _INIT_TAG)


def build_member(spec: EnsembleSpec, index: int, seed: int | None = None) -> Model:
    """Untrained member ``index``, built from its seed alone: by default
    ``member_seeds(master_seed, size)[index]``. No ``stoseg`` code passes
    ``seed``; perfbench's tests build a model from an arbitrary one."""
    if not 0 <= index < spec.size:
        raise ValueError(f"member index {index} is outside range({spec.size})")
    seed = member_seeds(spec.master_seed, index + 1)[index] if seed is None else seed
    return build_model(spec.network, *_member_recipe(spec, index, seed))


def train_member(spec: EnsembleSpec, samples: Sequence[Sample], index: int):
    """Build and train member ``index``; returns ``(model, history)`` with one
    mean sample loss per epoch."""
    return train_model(build_member(spec, index), samples, spec.train)


def train_ensemble(
    spec: EnsembleSpec, train_set: Sequence[Sample], parallel: int = 1
) -> Ensemble:
    """Train all members independently on the same data, one after another
    in the caller's thread; a failure starts no later member.

    Each member's activation assignment and weight init derive only from
    its own seed. Each member's training steps use a second CPU when
    ``network``'s thread policy allows (``losses.train_model``), so there
    are no member threads. ``parallel`` is kept only for callers that
    still pass ``parallel=1`` (perfbench's workloads); any other value
    raises a ``ValueError`` naming it.
    """
    if parallel != 1:
        raise ValueError(f"parallel must be 1, got {parallel}")
    samples = list(train_set)
    if not samples:
        raise ValueError("training set is empty")
    models = []
    for i in range(spec.size):
        try:
            models.append(train_member(spec, samples, i)[0])
        except Exception as exc:
            raise RuntimeError(f"training member {i} failed: {exc}") from exc
    return Ensemble(members=models, spec=spec)


def fuse_probs(maps: Iterable[np.ndarray]) -> np.ndarray:
    """Sum-rule fusion: the arithmetic mean of the members' probability maps.

    Computed in float64 as ``m0 + sum(mi - m0) / N``, summing the deviations
    in member order. The deviations of copies from the first map are exactly
    zero, so fusing N copies of a map returns the map itself in float32 and
    float64 alike, and member order changes the result only by float64
    rounding. ``maps`` may be any iterable, a generator included: each map
    is added to the running total as it arrives, so besides the first map
    only the one being made or added is held. The inputs are cast to
    float64 inside the ufuncs, so the only full-size temporaries are the
    running total and one deviation.
    """
    maps = iter(maps)
    first = next(maps, None)
    if first is None:
        raise ValueError("cannot fuse an empty list of probability maps")
    total = np.zeros(first.shape, np.float64)
    dev = np.empty_like(total)
    count = 1
    for m in maps:
        if m.shape != first.shape:
            raise ValueError(f"map {count} has shape {m.shape}, expected {first.shape}")
        np.subtract(m, first, out=dev, dtype=np.float64)
        total += dev
        count += 1
        del m  # so the next map is made while only the first is held
    total /= count
    total += first
    return total


def evaluate_models(
    models: Sequence[Model], test_set: Sequence[Sample], input_size: int
) -> MetricReport:
    """Shared evaluation path: resize in, predict, fuse, resize back, score
    per image at the original resolution, then macro-average. Members are
    predicted one at a time as fusion takes their maps."""
    test_set = list(test_set)
    if not test_set:
        raise ValueError("test set is empty")
    images = np.stack([resize_for_train(s, input_size).image for s in test_set])
    fused = fuse_probs(predict_batch(m, images) for m in models)
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


def _check_member(spec: EnsembleSpec, index: int, seed: int, model: Model, where) -> None:
    """Raise a ``ValueError`` naming ``where`` and the key unless ``model``
    holds the network config of ``spec`` and the assignment and init seed
    that ``_member_recipe`` gives member ``index`` with ``seed``."""
    assignment, init_seed = _member_recipe(spec, index, seed)
    checks = [(f"config {f.name}", getattr(model.config, f.name), getattr(spec.network, f.name))
              for f in fields(NetworkConfig)]
    checks += [("assignment", [k.value for k in model.assignment], [k.value for k in assignment]),
               ("init_seed", model.init_seed, init_seed)]
    for key, got, want in checks:
        if got != want:
            raise ValueError(f"{where}: {key} is {got!r}, spec has {want!r}")


def save_ensemble(directory, ens: Ensemble) -> None:
    """Write a manifest and one file per member that ``load_ensemble`` reads
    back under ``ens.spec``. A member that is not the one its index gives
    under the spec raises a ``ValueError`` naming the member and the key,
    before anything is written."""
    directory = Path(directory)
    seeds = member_seeds(ens.spec.master_seed, ens.spec.size)
    for i, (m, seed) in enumerate(zip(ens.members, seeds)):
        _check_member(ens.spec, i, seed, m, f"member {i}")
    directory.mkdir(parents=True, exist_ok=True)
    for i, m in enumerate(ens.members):
        save_model(_member_path(directory, i), m)
    manifest = {
        "format": "stoseg-ensemble",
        "version": MANIFEST_VERSION,
        **_spec_record(ens.spec),
        "member_seeds": seeds,
    }
    write_atomic(directory / MANIFEST_NAME, (json.dumps(manifest, indent=2) + "\n").encode())


def load_ensemble(directory, spec: EnsembleSpec) -> Ensemble:
    """Reload members saved by save_ensemble.

    ``spec`` supplies the train config the manifest does not store. The
    manifest must be version-1 JSON whose mode, size, master seed, pool and
    member seeds match ``spec``, and each member file must hold the network
    config, assignment and init seed that its index gives under ``spec``.
    Anything else raises a ``ValueError`` naming the file and the key.
    """
    directory = Path(directory)
    path = directory / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text())
    except ValueError as exc:  # not UTF-8 or not JSON
        raise ValueError(f"{path}: unreadable manifest: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != "stoseg-ensemble":
        raise ValueError(f"{path}: not an ensemble checkpoint")
    if manifest.get("version") != MANIFEST_VERSION:
        raise ValueError(f"{path}: unsupported manifest version {manifest.get('version')!r}")
    for key, want in _spec_record(spec).items():
        if manifest.get(key) != want:
            raise ValueError(f"{path}: {key} is {manifest.get(key)!r}, spec has {want!r}")
    seeds = manifest.get("member_seeds", [])
    if not isinstance(seeds, list):
        raise ValueError(f"{path}: member_seeds is {seeds!r}, not a list")
    if len(seeds) != spec.size:
        raise ValueError(f"{path}: member_seeds has {len(seeds)} entries, spec size is {spec.size}")
    want_seeds = member_seeds(spec.master_seed, spec.size)
    if seeds != want_seeds:
        raise ValueError(f"{path}: member_seeds are {seeds}, spec master_seed gives {want_seeds}")
    members = []
    for i, seed in enumerate(want_seeds):
        member = _member_path(directory, i)
        model = load_model(member)
        _check_member(spec, i, seed, model, member)
        members.append(model)
    return Ensemble(members=members, spec=spec)
