"""Deterministic pseudo-random streams for every source of randomness.

The generator is SplitMix64. A stream seeded with ``s`` produces output
``i`` (1-based) as ``mix64(s + i * GOLDEN)``, which is the classic
sequential definition written in counter form so that bulk draws can be
vectorized with uint64 numpy arithmetic while remaining identical to
one-at-a-time generation, which uses Python integers (a one-element array
costs more than the draw). Everything is a pure function of the seed and
the draw index, independent of platform byte order.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN = 0x9E3779B97F4A7C15

_U = np.uint64


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def derive_seed(base: int, *tags: int) -> int:
    """Fold integer tags into ``base`` to obtain a decorrelated child seed.

    Used for domain separation: per-sample seeds, per-member seeds, and
    per-purpose sub-seeds all come from ``derive_seed(parent, tag, ...)``.
    """
    z = base & MASK64
    for t in tags:
        z = mix64(((z ^ mix64(t & MASK64)) + GOLDEN) & MASK64)
    return z


class SplitMix64:
    """Sequential SplitMix64 stream with vectorized bulk draws."""

    def __init__(self, seed: int):
        self._seed = seed & MASK64
        self._count = 0

    def u64_array(self, n: int) -> np.ndarray:
        """Next ``n`` raw outputs as a uint64 array."""
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        z = _U(self._seed) + idx * _U(GOLDEN)
        z = (z ^ (z >> _U(30))) * _U(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> _U(27))) * _U(0x94D049BB133111EB)
        return z ^ (z >> _U(31))

    def next_u64(self) -> int:
        self._count += 1
        return mix64(self._seed + self._count * GOLDEN)

    def uniform_array(self, n: int) -> np.ndarray:
        """``n`` float64 values in [0, 1) with 53-bit resolution."""
        return (self.u64_array(n) >> _U(11)).astype(np.float64) * 2.0**-53

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def normal_array(self, shape) -> np.ndarray:
        """Standard normal float64 draws via Box-Muller (cos block then sin block)."""
        n = int(np.prod(shape)) if shape else 1
        m = (n + 1) // 2
        u1 = 1.0 - self.uniform_array(m)  # (0, 1] so log is finite
        u2 = self.uniform_array(m)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * math.pi) * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return z.reshape(shape)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n); modulo bias is negligible for small n."""
        if n < 1:
            raise ValueError("below() requires n >= 1")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
