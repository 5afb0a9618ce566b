"""Orthonormal 2-D Haar wavelet transform, single- and multi-level.

The orthonormal normalization keeps white-noise variance identical in every
sub-band, so one global noise estimate applies to all detail bands and the
universal/SURE threshold formulas hold unchanged across levels.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["SubBands", "Pyramid", "check_grid", "dwt2_haar", "idwt2_haar", "decompose", "reconstruct"]

# band elements per block of rows the transforms fill at a time.  Picked by
# measurement on a 2-vCPU host with 2 MiB of L2: 2^14 ran as fast as or
# faster than 2^13 and 2^15 at 256x256 to 1024x1024, and 2^16 and up slower
_BLOCK = 1 << 14


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


def dwt2_haar(grid, *, out=None) -> SubBands:
    """Single-level separable orthonormal Haar analysis.

    Per 2x2 block [[a, b], [c, d]]: ll = (a+b+c+d)/2, hl = (a-b+c-d)/2,
    lh = (a+b-c-d)/2, hh = (a-b-c+d)/2.  Energy is preserved.

    Each sum is taken left to right, so ``a+b`` and ``a-b`` are formed once
    and every band is finished in place from one of them.  The bands are
    filled one row block of about ``_BLOCK`` band elements at a time: c and
    d, which each band reads, are first gathered from the block's rows into
    one reused pair of contiguous planes.  So beyond its input a call holds the
    four bands (one image) plus two scratch planes of 128 KiB (one band
    row each, where a row is longer).

    With `out`, a float64 array of the grid's shape that is either the grid
    itself or shares no memory with it, the bands are written into its rows
    and returned as views: each band row lives in the two rows its block
    came from, LL = ``out[0::2, :w/2]``, LH = ``out[0::2, w/2:]``,
    HL = ``out[1::2, :w/2]``, HH = ``out[1::2, w/2:]``.  Where `out` is the
    grid, a and b are gathered into two more scratch planes too, before
    their block is overwritten.
    """
    x = np.asarray(grid, dtype=np.float64)
    h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"dimensions must be even, got {h}x{w}")
    if out is not None and out.shape != x.shape:
        raise ValueError(f"out has shape {out.shape}, the grid {x.shape}")
    h, w = h // 2, w // 2
    if out is None:
        ll, lh, hl, hh = (np.empty((h, w)) for _ in range(4))
    else:
        ll, lh, hl, hh = out[0::2, :w], out[0::2, w:], out[1::2, :w], out[1::2, w:]
    rows = max(1, _BLOCK // max(w, 1))
    overlap = out is not None and np.shares_memory(x, out)
    gathered = np.empty((4 if overlap else 2, min(rows, h), w))
    for i0 in range(0, h, rows):
        i1 = min(i0 + rows, h)
        block = x[2 * i0 : 2 * i1]
        planes = gathered[:, : i1 - i0]
        np.copyto(planes[:2], block[1::2].reshape(i1 - i0, w, 2).transpose(2, 0, 1))
        c, d = planes[:2]
        if overlap:
            np.copyto(planes[2:], block[0::2].reshape(i1 - i0, w, 2).transpose(2, 0, 1))
            a, b = planes[2:]
        else:
            a, b = block[0::2, 0::2], block[0::2, 1::2]
        bll, blh, bhl, bhh = ll[i0:i1], lh[i0:i1], hl[i0:i1], hh[i0:i1]
        np.add(a, b, out=blh)
        np.subtract(a, b, out=bhh)
        np.add(blh, c, out=bll)
        bll += d
        bll /= 2.0
        np.add(bhh, c, out=bhl)
        bhl -= d
        bhl /= 2.0
        blh -= c
        blh -= d
        blh /= 2.0
        bhh -= c
        bhh += d
        bhh /= 2.0
    return SubBands(ll=ll, lh=lh, hl=hl, hh=hh)


def idwt2_haar(bands: SubBands, *, out=None) -> np.ndarray:
    """Exact inverse of :func:`dwt2_haar`.

    Per block: a = (ll+hl+lh+hh)/2, b = (ll-hl+lh-hh)/2, c = (ll+hl-lh-hh)/2,
    d = (ll-hl-lh+hh)/2, each sum taken left to right from a shared
    ``ll+hl`` or ``ll-hl``.  One row block of about ``_BLOCK`` band elements
    at a time, the four output phases are formed in one reused set of three
    contiguous planes and stored strided into the block's output rows.  So
    beyond its bands a call holds the output (one image) plus three
    scratch planes of 128 KiB (one band row each, where a row is longer).

    The output goes to `out`, a float64 array of twice the bands' shape, and
    is returned; by default it is a new array.  The bands may live in the
    rows of `out` itself, as ``dwt2_haar(grid, out=grid)`` lays them out, or
    must share no memory with it.  Where they share it, each band's block is
    copied into one of four more scratch planes before the block's output
    rows are written.
    """
    ll, hl, lh, hh = (
        np.asarray(band, dtype=np.float64) for band in (bands.ll, bands.hl, bands.lh, bands.hh)
    )
    h, w = ll.shape
    if out is None:
        out = np.empty((2 * h, 2 * w))
    elif out.shape != (2 * h, 2 * w):
        raise ValueError(f"out has shape {out.shape}, the bands {(h, w)}")
    rows = max(1, _BLOCK // max(w, 1))
    overlap = any(np.shares_memory(out, band) for band in (ll, hl, lh, hh))
    scratch = np.empty((7 if overlap else 3, min(rows, h), w))
    for i0 in range(0, h, rows):
        i1 = min(i0 + rows, h)
        bll, bhl, blh, bhh = ll[i0:i1], hl[i0:i1], lh[i0:i1], hh[i0:i1]
        plus, minus, top, *copies = scratch[:, : i1 - i0]
        if overlap:
            for copy, band in zip(copies, (bll, bhl, blh, bhh)):
                np.copyto(copy, band)
            bll, bhl, blh, bhh = copies
        even, odd = out[2 * i0 : 2 * i1 : 2], out[2 * i0 + 1 : 2 * i1 : 2]
        np.add(bll, bhl, out=plus)
        np.subtract(bll, bhl, out=minus)
        # the top row of each block goes through one contiguous scratch plane
        np.add(plus, blh, out=top)
        top += bhh
        top /= 2.0
        even[:, 0::2] = top
        np.add(minus, blh, out=top)
        top -= bhh
        top /= 2.0
        even[:, 1::2] = top
        plus -= blh
        plus -= bhh
        plus /= 2.0
        odd[:, 0::2] = plus
        minus -= blh
        minus += bhh
        minus /= 2.0
        odd[:, 1::2] = minus
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
