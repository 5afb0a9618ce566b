"""Orthonormal 2-D Haar wavelet transform, single- and multi-level.

The orthonormal normalization keeps white-noise variance identical in every
sub-band, so one global noise estimate applies to all detail bands and the
universal/SURE threshold formulas hold unchanged across levels.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["SubBands", "Pyramid", "dwt2_haar", "idwt2_haar", "decompose", "reconstruct"]


@dataclass(frozen=True)
class SubBands:
    """One decomposition level: approximation LL plus details LH, HL, HH."""

    ll: np.ndarray
    lh: np.ndarray
    hl: np.ndarray
    hh: np.ndarray

    def __post_init__(self):
        shapes = {self.ll.shape, self.lh.shape, self.hl.shape, self.hh.shape}
        if len(shapes) != 1:
            raise ValueError(f"sub-band shapes differ: {shapes}")


@dataclass(frozen=True)
class Pyramid:
    """Multilevel decomposition: ``(lh, hl, hh)`` detail bands per level,
    finest first, plus the coarsest approximation ``top_ll``."""

    levels: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    top_ll: np.ndarray
    original_shape: tuple[int, int]

    def __post_init__(self):
        h, w = self.original_shape
        for k, details in enumerate(self.levels, start=1):
            expect = (h >> k, w >> k)
            for band in details:
                if band.shape != expect:
                    raise ValueError(f"level {k} band shape {band.shape}, expected {expect}")
        k = len(self.levels)
        if self.top_ll.shape != (h >> k, w >> k):
            raise ValueError(f"top_ll shape {self.top_ll.shape}, expected {(h >> k, w >> k)}")


def dwt2_haar(grid) -> SubBands:
    """Single-level separable orthonormal Haar analysis.

    Per 2x2 block [[a, b], [c, d]]: ll = (a+b+c+d)/2, hl = (a-b+c-d)/2,
    lh = (a+b-c-d)/2, hh = (a-b-c+d)/2.  Energy is preserved.
    """
    x = np.asarray(grid, dtype=np.float64)
    h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"dimensions must be even, got {h}x{w}")
    a = x[0::2, 0::2]
    b = x[0::2, 1::2]
    c = x[1::2, 0::2]
    d = x[1::2, 1::2]
    return SubBands(
        ll=(a + b + c + d) / 2.0,
        hl=(a - b + c - d) / 2.0,
        lh=(a + b - c - d) / 2.0,
        hh=(a - b - c + d) / 2.0,
    )


def idwt2_haar(bands: SubBands) -> np.ndarray:
    """Exact inverse of :func:`dwt2_haar`."""
    ll, hl, lh, hh = bands.ll, bands.hl, bands.lh, bands.hh
    h, w = ll.shape
    out = np.empty((2 * h, 2 * w))
    out[0::2, 0::2] = (ll + hl + lh + hh) / 2.0
    out[0::2, 1::2] = (ll - hl + lh - hh) / 2.0
    out[1::2, 0::2] = (ll + hl - lh - hh) / 2.0
    out[1::2, 1::2] = (ll - hl - lh + hh) / 2.0
    return out


def decompose(image, levels: int) -> Pyramid:
    """Multilevel Haar decomposition, iterating on the approximation band."""
    x = np.asarray(image, dtype=np.float64)
    if levels < 1:
        raise ValueError("levels must be positive")
    h, w = x.shape
    if h % (1 << levels) or w % (1 << levels):
        raise ValueError(f"dimensions {h}x{w} not divisible by 2^{levels}")
    stack = []
    current = x
    for _ in range(levels):
        bands = dwt2_haar(current)
        stack.append((bands.lh, bands.hl, bands.hh))
        current = bands.ll
    return Pyramid(levels=tuple(stack), top_ll=current, original_shape=(h, w))


def reconstruct(pyramid: Pyramid) -> np.ndarray:
    """Exact inverse of :func:`decompose`."""
    current = pyramid.top_ll
    for lh, hl, hh in reversed(pyramid.levels):
        current = idwt2_haar(SubBands(current, lh, hl, hh))
    return current
