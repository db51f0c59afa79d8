"""Minimal 8-bit PNM codec: P6 (binary RGB), P5 (binary gray), P2 (ASCII gray).

Files are written atomically (``fileio.write_atomic``).
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .fileio import write_atomic


def _parse_header(data: bytes, path, n_tokens: int):
    """Read header tokens after the magic, skipping whitespace and comments.

    Returns (tokens, offset_of_first_payload_byte).
    """
    tokens: list[int] = []
    i = 2  # past the 2-byte magic
    while len(tokens) < n_tokens:
        if i >= len(data):
            raise ValueError(f"{path}: truncated PNM header")
        ch = data[i : i + 1]
        if ch.isspace():
            i += 1
        elif ch == b"#":
            while i < len(data) and data[i : i + 1] not in (b"\n", b"\r"):
                i += 1
        elif ch.isdigit():
            j = i
            while j < len(data) and data[j : j + 1].isdigit():
                j += 1
            tokens.append(int(data[i:j]))
            i = j
        else:
            raise ValueError(f"{path}: malformed PNM header near byte {i}")
    return tokens, i


def read_pnm(path) -> tuple[np.ndarray, int]:
    """Read a PNM file; returns (uint8 array (H, W) or (H, W, 3), maxval)."""
    path = Path(path)
    data = path.read_bytes()
    magic = data[:2]
    if magic not in (b"P6", b"P5", b"P2"):
        raise ValueError(f"{path}: unsupported PNM magic {magic!r}")
    (w, h, maxval), i = _parse_header(data, path, 3)
    if w < 1 or h < 1:
        raise ValueError(f"{path}: invalid dimensions {w}x{h}")
    if not 1 <= maxval <= 255:
        raise ValueError(f"{path}: unsupported maxval {maxval} (8-bit only)")
    if magic == b"P2":
        body = re.sub(rb"#[^\n\r]*", b" ", data[i:])  # comments allowed in plain rasters
        tokens = body.split()
        if len(tokens) != w * h:
            raise ValueError(f"{path}: expected {w * h} ASCII samples, got {len(tokens)}")
        try:
            arr = np.array([int(t) for t in tokens], dtype=np.int64)
        except ValueError:
            raise ValueError(f"{path}: non-numeric ASCII sample") from None
        shape = (h, w)
    else:
        # binary formats: exactly one whitespace byte separates header and payload
        if not data[i : i + 1].isspace():
            raise ValueError(f"{path}: missing separator before binary payload")
        shape = (h, w, 3) if magic == b"P6" else (h, w)
        need = int(np.prod(shape))
        arr = np.frombuffer(data[i + 1 : i + 1 + need], dtype=np.uint8)
        if arr.size != need:
            raise ValueError(f"{path}: expected {need} payload bytes, got {arr.size}")
    # a uint8 sample cannot exceed 255, so binary files at maxval 255 skip the scan
    if magic == b"P2" or maxval < 255:
        if arr.min(initial=0) < 0 or arr.max(initial=0) > maxval:
            raise ValueError(f"{path}: sample out of range for maxval {maxval}")
    return arr.astype(np.uint8).reshape(shape), maxval


def write_ppm(path, rgb: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 array as binary P6 with maxval 255."""
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise ValueError(f"write_ppm needs a (H, W, 3) uint8 array, got {rgb.shape} {rgb.dtype}")
    h, w = rgb.shape[:2]
    write_atomic(path, f"P6\n{w} {h}\n255\n".encode("ascii") + rgb.tobytes())


def write_pgm(path, gray: np.ndarray) -> None:
    """Write an (H, W) uint8 array as binary P5 with maxval 255."""
    gray = np.asarray(gray)
    if gray.ndim != 2 or gray.dtype != np.uint8:
        raise ValueError(f"write_pgm needs a (H, W) uint8 array, got {gray.shape} {gray.dtype}")
    h, w = gray.shape
    write_atomic(path, f"P5\n{w} {h}\n255\n".encode("ascii") + gray.tobytes())
