"""Portable graymap reading and writing.

Reads ASCII (``P2``) and binary (``P5``) graymaps with 1- or 2-byte samples
(big-endian when maxval > 255), scaled to [0, 1] as float64.  ``_HEADER`` is
the header grammar: the magic, then width, height and maxval in decimal, each
after whitespace bytes or ``#`` comment lines; then optional comment lines and
exactly one whitespace byte before the raster.  A field has at most 19 digits
past its leading zeros, which keeps ``int`` inside Python's digit limit.
Writes 8-bit binary ``P5``.
"""

from __future__ import annotations

import re
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import DataError, ParameterError

__all__ = ["read_pgm", "write_pgm", "block_resize"]

_HEADER = re.compile(rb"P[25]" + rb"(?:\s|#[^\n]*\n)+0*(\d{1,19})" * 3 + rb"(?:#[^\n]*\n)*\s")


def read_pgm(path) -> np.ndarray:
    """Decode a PGM file into an (h, w) float64 array scaled to [0, 1]."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DataError(f"{path}: cannot read file: {exc}") from exc
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise DataError(f"{path}: unsupported magic {magic!r}; expected P2 or P5")
    header = _HEADER.match(data)
    if header is None:
        raise DataError(f"{path}: malformed graymap header")
    width = int(header[1])
    height = int(header[2])
    maxval = int(header[3])
    if width <= 0 or height <= 0 or not 0 < maxval < 65536:
        raise DataError(f"{path}: invalid graymap dimensions {width}x{height} maxval {maxval}")
    pos = header.end()
    n = width * height
    if magic == b"P5":
        bytes_per = 2 if maxval > 255 else 1
        raster = data[pos : pos + n * bytes_per]
        if len(raster) < n * bytes_per:
            raise DataError(f"{path}: raster truncated ({len(raster)} of {n * bytes_per} bytes)")
        dtype = ">u2" if bytes_per == 2 else np.uint8
        values = np.frombuffer(raster, dtype=dtype, count=n).astype(np.float64)
    else:
        try:
            values = np.array(data[pos:].split()[:n], dtype=np.float64)
        except ValueError as exc:
            raise DataError(f"{path}: non-numeric sample in ASCII raster") from exc
        if values.size < n:
            raise DataError(f"{path}: raster truncated ({values.size} of {n} samples)")
    if values.max(initial=0.0) > maxval or values.min(initial=0.0) < 0:
        raise DataError(f"{path}: sample outside [0, {maxval}]")
    return (values / maxval).reshape(height, width)


def write_pgm(path, image):
    """Write an array of [0, 1] values as an 8-bit binary PGM file."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ParameterError(f"image must be 2-d, got shape {img.shape}")
    height, width = img.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + np.clip(np.rint(img * 255), 0, 255).astype(np.uint8).tobytes())


@lru_cache(maxsize=32)
def _interval_weights(src: int, dst: int) -> np.ndarray:
    """Row-stochastic (dst, src) matrix averaging src cells into dst cells
    with area weighting; exact block means when src is divisible by dst.

    Built once per ``(src, dst)`` pair and shared by every later call, so
    the array is read-only."""
    step = src / dst
    edges = np.arange(dst + 1) * step
    cells = np.arange(src)
    overlap = np.minimum(edges[1:, None], cells + 1) - np.maximum(edges[:-1, None], cells)
    weights = overlap.clip(min=0) / step
    weights.setflags(write=False)
    return weights


def block_resize(image, shape: tuple[int, int]) -> np.ndarray:
    """Downsize (or resample) an image by area-weighted averaging."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ParameterError(f"image must be 2-d, got shape {img.shape}")
    h, w = shape
    if h <= 0 or w <= 0:
        raise ParameterError(f"target shape must be positive, got {shape}")
    return _interval_weights(img.shape[0], h) @ img @ _interval_weights(img.shape[1], w).T
