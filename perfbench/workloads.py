"""The three benchmark workloads, driven through stoseg's public API.

Each workload has ``setup`` (timed as set-up), ``run`` (one repetition of
the timed phase) and ``check`` (output checks, outside the timed phase).
Inputs come only from the workload seed. The ensembles' master seeds are
part of each workload's fixed configuration, so every seed trains the same
activation draw and times the same network mix on different data.
"""

from __future__ import annotations

import shutil
import statistics
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from stoseg import data, ensemble, metrics, network, suite
from stoseg.activations import default_pool
from stoseg.ensemble import EnsembleSpec
from stoseg.losses import TrainConfig
from stoseg.rng import derive_seed

TAG_DATA, TAG_SPLIT, TAG_SHUFFLE, TAG_TRAIN_DATA = 1, 2, 3, 4
ENSEMBLE_SEED = 0
INPUT_SIZE = 64
# A fused pixel is the mean of float32 softmax pairs, each within ~1e-7 of 1.
FUSED_SUM_TOL = 1e-5


@dataclass
class Rep:
    """One repetition of a timed phase, before its outputs are checked."""

    wall_s: float
    items: int  # work units behind items_per_s
    items_s: float  # seconds those units took
    output: tuple


@dataclass
class Checked:
    attempted: int
    failed: int
    quality: dict[str, float]


def bad_fused_maps(fused: np.ndarray) -> np.ndarray:
    """Per image: a pixel is non-finite or its class probabilities do not sum to 1."""
    n = fused.shape[0]
    finite = np.isfinite(fused).reshape(n, -1).all(axis=1)
    sums_ok = (np.abs(fused.sum(axis=1) - 1.0) <= FUSED_SUM_TOL).reshape(n, -1).all(axis=1)
    return ~(finite & sums_ok)


def _differs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per image (leading axis): not bit-identical."""
    if a.shape != b.shape:
        return np.ones(a.shape[0], dtype=bool)
    return (a != b).reshape(a.shape[0], -1).any(axis=1)


def _dice_at_orig(probs: np.ndarray, samples) -> float:
    pairs = [(data.resize_pred_back(probs[i, 1], s.orig_size), s.mask)
             for i, s in enumerate(samples)]
    return metrics.evaluate_set(pairs).dice


class TrainSto:
    """The paper's method at the mini config: a 4-member ``sto`` ensemble
    trained on 48 synthetic images, then scored fused and per member."""

    name = "train_sto"
    item_metric = "train_sample_epochs_per_s"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.spec = EnsembleSpec(
            mode="sto", size=4, pool_size=14, master_seed=ENSEMBLE_SEED,
            train=TrainConfig(epochs=3, batch_size=8,
                              shuffle_seed=derive_seed(seed, TAG_SHUFFLE)),
        )
        self._first = None

    def inputs(self):
        ds = data.synth_blobs(60, INPUT_SIZE, derive_seed(self.seed, TAG_DATA))
        train, test = data.split(ds, 48, 12, derive_seed(self.seed, TAG_SPLIT))
        return [data.resize_for_train(s, INPUT_SIZE) for s in train], list(test)

    def setup(self) -> None:
        self.train, self.test = self.inputs()

    def run(self) -> Rep:
        t0 = perf_counter()
        ens = ensemble.train_ensemble(self.spec, self.train, parallel=1)
        t1 = perf_counter()
        fused = ensemble.ensemble_evaluate(ens, self.test)
        members = [ensemble.evaluate_model(m, self.test) for m in ens.members]
        t2 = perf_counter()
        items = self.spec.size * self.spec.train.epochs * len(self.train)
        return Rep(t2 - t0, items, t1 - t0, (ens, fused, members))

    def check(self, rep: Rep) -> Checked:
        ens, fused, members = rep.output
        bad_members = sum(
            not all(np.isfinite(p).all() for p in m.parameters().values())
            for m in ens.members
        )
        images = np.stack([data.resize_for_train(s, INPUT_SIZE).image for s in self.test])
        maps = ensemble.fuse_probs([network.predict_batch(m, images) for m in ens.members])
        if self._first is None:
            self._first = maps
        bad = bad_fused_maps(maps) | _differs(maps, self._first)
        gain = fused.dice - statistics.fmean(r.dice for r in members)
        return Checked(
            attempted=len(ens.members) + len(self.test),
            failed=bad_members + int(bad.sum()),
            quality={"fused_dice": fused.dice, "dice_gain": gain},
        )


class EvalRelu:
    """Scores from disk a saved 4-member ``relu`` ensemble on 64 non-square
    (80x96) PNM images, the whole test set in one batch per member."""

    name = "eval_relu"
    item_metric = "eval_images_per_s"
    image_count, height, width = 64, 80, 96

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.root = Path(workdir) / self.name
        self.spec = EnsembleSpec(
            mode="relu", size=4, master_seed=ENSEMBLE_SEED,
            train=TrainConfig(epochs=1, batch_size=8,
                              shuffle_seed=derive_seed(seed, TAG_SHUFFLE)),
        )
        self._reference = None
        self._first = None

    def inputs(self):
        """The test set (cropped to height x width) and the training images."""
        ds = data.synth_blobs(self.image_count, self.width, derive_seed(self.seed, TAG_DATA))
        h = self.height
        test = data.Dataset(
            tuple(replace(s, image=s.image[:, :h], mask=s.mask[:h], orig_size=(h, self.width))
                  for s in ds),
            provenance=ds.provenance,
        )
        train = data.synth_blobs(16, INPUT_SIZE, derive_seed(self.seed, TAG_TRAIN_DATA))
        return test, list(train)

    def setup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        test, train = self.inputs()
        data.save_dataset(test, self.root / "data")
        self.saved = ensemble.train_ensemble(self.spec, train, parallel=1)
        ensemble.save_ensemble(self.root / "ensemble", self.saved)
        self._reference = None

    def run(self) -> Rep:
        t0 = perf_counter()
        ens = ensemble.load_ensemble(self.root / "ensemble", self.spec)
        test = list(data.load_dir(self.root / "data" / "images", self.root / "data" / "masks"))
        images = np.stack([data.resize_for_train(s, INPUT_SIZE).image for s in test])
        member_probs = [network.predict_batch(m, images) for m in ens.members]
        fused = ensemble.fuse_probs(member_probs)
        pairs = [(data.resize_pred_back(fused[i, 1], s.orig_size), s.mask)
                 for i, s in enumerate(test)]
        report = metrics.evaluate_set(pairs)
        wall = perf_counter() - t0
        return Rep(wall, len(test), wall, (test, images, member_probs, fused, report))

    def check(self, rep: Rep) -> Checked:
        test, images, member_probs, fused, report = rep.output
        if self._reference is None:
            self._reference = [network.predict_batch(m, images) for m in self.saved.members]
        if self._first is None:
            self._first = fused
        bad = bad_fused_maps(fused) | _differs(fused, self._first)
        if len(member_probs) != len(self._reference):
            bad[:] = True
        for ref, got in zip(self._reference, member_probs):
            bad |= _differs(got, ref)
        gain = report.dice - statistics.fmean(_dice_at_orig(p, test) for p in member_probs)
        return Checked(
            attempted=len(test),
            failed=int(bad.sum()),
            quality={"fused_dice": report.dice, "dice_gain": gain},
        )


class GradcheckF64:
    """The gradient suite in float64 at tiny shapes, with 2 seeds per check.
    The suite fixes its own inputs, so the workload seed does not change them."""

    name = "gradcheck_f64"
    item_metric = "checks_per_s"
    suite_seeds = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self._first = None

    def setup(self) -> None:
        # Warm-up: one call of each cheap check, so lazy set-up is not timed.
        for kind in default_pool():
            suite.check_activation(kind, 0)
        for check in (suite.check_conv, suite.check_upsample, suite.check_softmax,
                      suite.check_dice, suite.check_weighted_ce):
            check(0)

    def run(self) -> Rep:
        t0 = perf_counter()
        rows = suite.run_suite(seeds=self.suite_seeds, e2e_seeds=self.suite_seeds)
        wall = perf_counter() - t0
        return Rep(wall, self.suite_seeds * len(rows), wall, (rows,))

    def check(self, rep: Rep) -> Checked:
        (rows,) = rep.output
        if self._first is None:
            self._first = rows
        failed = sum(not r.passed for r in rows)
        if rows != self._first:
            failed = len(rows)
        return Checked(attempted=len(rows), failed=failed, quality={})


WORKLOADS = {w.name: w for w in (TrainSto, EvalRelu, GradcheckF64)}
