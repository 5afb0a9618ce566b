"""Orthonormal 2-D Haar wavelet transform, single- and multi-level.

The orthonormal normalization keeps white-noise variance identical in every
sub-band, so one global noise estimate applies to all detail bands and the
universal/SURE threshold formulas hold unchanged across levels.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["SubBands", "Pyramid", "check_grid", "dwt2_haar", "idwt2_haar", "decompose", "reconstruct"]


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

    Each sum is taken left to right, so ``a+b`` and ``a-b`` are formed once
    and every band is finished in place from one of them.  c and d, which
    each band reads, are first gathered into contiguous planes.
    """
    x = np.asarray(grid, dtype=np.float64)
    h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"dimensions must be even, got {h}x{w}")
    a = x[0::2, 0::2]
    b = x[0::2, 1::2]
    c, d = x[1::2].reshape(h // 2, w // 2, 2).transpose(2, 0, 1).copy()
    lh = a + b
    hh = a - b
    ll = lh + c
    ll += d
    ll /= 2.0
    hl = hh + c
    hl -= d
    hl /= 2.0
    lh -= c
    lh -= d
    lh /= 2.0
    hh -= c
    hh += d
    hh /= 2.0
    return SubBands(ll=ll, lh=lh, hl=hl, hh=hh)


def idwt2_haar(bands: SubBands) -> np.ndarray:
    """Exact inverse of :func:`dwt2_haar`.

    Per block: a = (ll+hl+lh+hh)/2, b = (ll-hl+lh-hh)/2, c = (ll+hl-lh-hh)/2,
    d = (ll-hl-lh+hh)/2, each sum taken left to right from a shared
    ``ll+hl`` or ``ll-hl``.
    """
    ll, hl, lh, hh = (
        np.asarray(band, dtype=np.float64) for band in (bands.ll, bands.hl, bands.lh, bands.hh)
    )
    h, w = ll.shape
    out = np.empty((2 * h, 2 * w))
    plus = ll + hl
    minus = ll - hl
    # the top row of each block goes through one contiguous scratch band
    top = plus + lh
    top += hh
    top /= 2.0
    out[0::2, 0::2] = top
    np.add(minus, lh, out=top)
    top -= hh
    top /= 2.0
    out[0::2, 1::2] = top
    plus -= lh
    plus -= hh
    plus /= 2.0
    out[1::2, 0::2] = plus
    minus -= lh
    minus += hh
    minus /= 2.0
    out[1::2, 1::2] = minus
    return out


def check_grid(shape, levels: int) -> None:
    """Raise unless both sides of `shape` divide by 2^levels, as `levels` splits need."""
    h, w = shape
    if h % (1 << levels) or w % (1 << levels):
        raise ValueError(f"dimensions {h}x{w} not divisible by 2^{levels}")


def decompose(image, levels: int) -> Pyramid:
    """Multilevel Haar decomposition, iterating on the approximation band."""
    x = np.asarray(image, dtype=np.float64)
    if levels < 1:
        raise ValueError("levels must be positive")
    check_grid(x.shape, levels)
    stack = []
    current = x
    for _ in range(levels):
        bands = dwt2_haar(current)
        stack.append((bands.lh, bands.hl, bands.hh))
        current = bands.ll
    return Pyramid(levels=tuple(stack), top_ll=current, original_shape=x.shape)


def reconstruct(pyramid: Pyramid) -> np.ndarray:
    """Exact inverse of :func:`decompose`."""
    current = pyramid.top_ll
    for lh, hl, hh in reversed(pyramid.levels):
        current = idwt2_haar(SubBands(current, lh, hl, hh))
    return current
