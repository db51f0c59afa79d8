"""Datasets: synthetic blob generation, PNM ingestion, splits, augmentation,
and the resize-in / resize-back protocol.

Images are (3, H, W) float32 in [0, 1]; masks are (H, W) uint8 in {0, 1}.
Every sample remembers its original resolution so predictions can be scored
against the untouched ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .ops import bilinear_resize, nearest_resize
from .pnm import read_pnm, write_pgm, write_ppm
from .rng import SplitMix64, derive_seed

MASK_THRESHOLD = 0.5  # mask values above this fraction of the file's maxval are foreground
FG_FRACTION_RANGE = (0.05, 0.4)

_SYNTH_TAG = 0x5B0B


@dataclass(frozen=True)
class Sample:
    ident: str
    image: np.ndarray  # (3, H, W) float32 in [0, 1]
    mask: np.ndarray  # (H, W) uint8 in {0, 1}
    orig_size: tuple[int, int]  # resolution the ground truth was produced at


@dataclass(frozen=True)
class Dataset:
    samples: tuple[Sample, ...]
    provenance: str

    def __post_init__(self):
        ids = [s.ident for s in self.samples]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate sample identifiers in dataset")

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def __getitem__(self, i) -> Sample:
        return self.samples[i]


def _ellipse_r2(size: int, rng: SplitMix64):
    """Squared elliptical radius field for one random ellipse."""
    cx = (0.22 + 0.56 * rng.uniform()) * size
    cy = (0.22 + 0.56 * rng.uniform()) * size
    ax = (0.10 + 0.18 * rng.uniform()) * size
    ay = (0.10 + 0.18 * rng.uniform()) * size
    theta = rng.uniform() * np.pi
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    dx, dy = xs - cx, ys - cy
    u = (dx * np.cos(theta) + dy * np.sin(theta)) / ax
    v = (-dx * np.sin(theta) + dy * np.cos(theta)) / ay
    return u * u + v * v


def _render_sample(ident: str, size: int, rng: SplitMix64) -> Sample:
    lo, hi = FG_FRACTION_RANGE
    for _ in range(1000):
        k = 1 + rng.below(3)
        fields = [_ellipse_r2(size, rng) for _ in range(k)]
        mask = np.zeros((size, size), dtype=bool)
        for r2 in fields:
            mask |= r2 <= 1.0
        frac = mask.mean()
        if lo <= frac <= hi:
            break
    else:
        raise RuntimeError(f"could not hit foreground fraction window for {ident}")

    base = np.array([0.15 + 0.3 * rng.uniform() for _ in range(3)])
    ramp_amp = np.array([(rng.uniform() - 0.5) * 0.2 for _ in range(3)])
    blob_color = np.array([0.3 + 0.35 * rng.uniform() for _ in range(3)])
    noise = (rng.uniform_array(3 * size * size).reshape(3, size, size) - 0.5) * 0.12

    ys = np.linspace(0.0, 1.0, size)[:, None] * np.ones((1, size))
    profile = np.zeros((size, size))
    for r2 in fields:
        r = np.sqrt(r2)
        bump = 1.0 / (1.0 + np.exp((r - 1.0) * 6.0))
        profile = np.maximum(profile, bump)

    image = (
        base[:, None, None]
        + ramp_amp[:, None, None] * ys[None]
        + blob_color[:, None, None] * profile[None]
        + noise
    )
    image = np.clip(image, 0.0, 1.0).astype(np.float32)
    return Sample(ident=ident, image=image, mask=mask.astype(np.uint8),
                  orig_size=(size, size))


def synth_blobs(n: int, size: int, seed: int) -> Dataset:
    """Deterministic synthetic set: 1-3 smooth elliptical blobs per image.

    The foreground fraction of every mask is rejection-sampled into
    [0.05, 0.4]; images get per-channel base color, a vertical ramp,
    uniform pixel noise, and a bright smooth bump over each blob.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 samples, got {n}")
    if size < 16:
        raise ValueError(f"need size >= 16, got {size}")
    samples = [
        _render_sample(f"synth{i:05d}", size, SplitMix64(derive_seed(seed, _SYNTH_TAG, i)))
        for i in range(n)
    ]
    return Dataset(tuple(samples), provenance=f"synthetic:seed={seed}")


def save_dataset(ds: Dataset, root) -> None:
    """Export to the on-disk layout: images/<id>.ppm + masks/<id>.pgm."""
    root = Path(root)
    (root / "images").mkdir(parents=True, exist_ok=True)
    (root / "masks").mkdir(parents=True, exist_ok=True)
    for s in ds:
        rgb = np.clip(np.rint(s.image * 255.0), 0, 255).astype(np.uint8)
        write_ppm(root / "images" / f"{s.ident}.ppm", rgb.transpose(1, 2, 0))
        write_pgm(root / "masks" / f"{s.ident}.pgm", (s.mask * 255).astype(np.uint8))


def load_dir(images_dir, masks_dir) -> Dataset:
    """Load image/mask pairs by matching filename stems.

    Images must be PPM (P6); masks PGM (P5 or P2). Images are scaled to
    [0, 1]. A mask value is foreground when it exceeds half its file's
    maxval: at maxval 255 that is >= 128, and at maxval 1 it is the value 1.
    """
    images_dir = Path(images_dir)
    masks_dir = Path(masks_dir)
    image_files = sorted(images_dir.glob("*.ppm"))
    if not image_files:
        raise FileNotFoundError(f"no .ppm images found in {images_dir}")
    mask_stems = {p.stem for p in masks_dir.glob("*.pgm")}
    samples = []
    for img_path in image_files:
        mask_path = masks_dir / f"{img_path.stem}.pgm"
        if img_path.stem not in mask_stems:
            raise FileNotFoundError(f"missing mask file {mask_path}")
        rgb, maxval = read_pnm(img_path)
        if rgb.ndim != 3:
            raise ValueError(f"{img_path}: expected a color (P6) image")
        gray, mask_maxval = read_pnm(mask_path)
        if gray.ndim != 2:
            raise ValueError(f"{mask_path}: expected a grayscale (P5/P2) mask")
        if gray.shape != rgb.shape[:2]:
            raise ValueError(
                f"{mask_path}: mask size {gray.shape} != image size {rgb.shape[:2]}"
            )
        image = (rgb.astype(np.float32) / maxval).transpose(2, 0, 1)
        mask = (gray > MASK_THRESHOLD * mask_maxval).astype(np.uint8)
        samples.append(Sample(ident=img_path.stem, image=image, mask=mask,
                              orig_size=gray.shape))
    extra = mask_stems - {p.stem for p in image_files}
    if extra:
        raise FileNotFoundError(
            f"missing image file for mask stem(s): {sorted(extra)[:5]}"
        )
    return Dataset(tuple(samples), provenance=str(images_dir))


def split(ds: Dataset, train_count: int, test_count: int, seed: int):
    """Seeded shuffle, then prefix/suffix split into disjoint subsets."""
    if train_count < 0 or test_count < 0:
        raise ValueError(f"split counts {train_count}+{test_count} must not be negative")
    if train_count + test_count != len(ds):
        raise ValueError(
            f"split counts {train_count}+{test_count} != dataset size {len(ds)}"
        )
    order = list(range(len(ds)))
    SplitMix64(seed).shuffle(order)
    train = tuple(ds[i] for i in order[:train_count])
    test = tuple(ds[i] for i in order[train_count:])
    return (
        Dataset(train, provenance=f"{ds.provenance}|train"),
        Dataset(test, provenance=f"{ds.provenance}|test"),
    )


def augment(sample: Sample, seed: int) -> Sample:
    """Seeded flip/flip/rot90: each flip with probability 0.5, rotation by
    k*90 degrees with k uniform in {0,1,2,3}; image and mask get the same
    transform."""
    rng = SplitMix64(seed)
    image, mask = sample.image, sample.mask
    if rng.uniform() < 0.5:  # horizontal flip
        image = image[:, :, ::-1]
        mask = mask[:, ::-1]
    if rng.uniform() < 0.5:  # vertical flip
        image = image[:, ::-1, :]
        mask = mask[::-1, :]
    k = rng.below(4)
    if k:
        image = np.rot90(image, k, axes=(1, 2))
        mask = np.rot90(mask, k, axes=(0, 1))
    return replace(sample, image=np.ascontiguousarray(image),
                   mask=np.ascontiguousarray(mask))


def resize_for_train(sample: Sample, size: int) -> Sample:
    """Resize to size x size: bilinear for the image, nearest for the mask.

    The original resolution stays recorded on the sample.
    """
    if size < 8:
        raise ValueError(f"target size must be >= 8, got {size}")
    if sample.image.shape[1:] == (size, size):
        return sample
    image = bilinear_resize(sample.image, size, size).astype(np.float32)
    mask = nearest_resize(sample.mask, size, size)
    return replace(sample, image=image, mask=mask)


def resize_pred_back(prob_fg: np.ndarray, orig_size: tuple[int, int]) -> np.ndarray:
    """Foreground probabilities back at the original resolution, thresholded
    at 0.5 (ties go to foreground)."""
    prob_fg = np.asarray(prob_fg)
    if prob_fg.ndim != 2:
        raise ValueError(f"expected a 2-D probability map, got shape {prob_fg.shape}")
    h, w = orig_size
    if prob_fg.shape != (h, w):
        prob_fg = bilinear_resize(prob_fg.astype(np.float64), h, w)
    return (prob_fg >= 0.5).astype(np.uint8)


def mask_to_onehot(mask: np.ndarray) -> np.ndarray:
    """(H, W) binary mask -> (2, H, W) float32 one-hot (background first)."""
    m = mask.astype(np.float32)
    return np.stack([1.0 - m, m])
