"""Orthonormal 2-D Haar wavelet transform, single- and multi-level.

The orthonormal normalization keeps white-noise variance identical in every
sub-band, so one global noise estimate applies to all detail bands and the
universal/SURE threshold formulas hold unchanged across levels.

The 2x2 Haar matrix is its own inverse, so analysis and synthesis run one
butterfly.  Both work one row block at a time and read the block whole into
four planes before writing any of it, so either may write over its input.
"""

from dataclasses import dataclass

import numpy as np

from denoisebench.imagecore import _in_place

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


def _butterfly(p, q, r, s, out0, out1, out2, out3) -> None:
    """The 2x2 Haar matrix, its own inverse, on four planes of one row block.

    Writes (p+q+r+s)/2, (p-q+r-s)/2, (p+q-r-s)/2 and (p-q-r+s)/2 into
    `out0` to `out3`, each sum taken left to right from a shared ``p+q``
    (in `out2`) or ``p-q`` (in `out3`), then halved by multiplying by 0.5,
    which rounds as dividing by 2 does.  No output may share memory with an
    input.
    """
    np.add(p, q, out=out2)
    np.subtract(p, q, out=out3)
    np.add(out2, r, out=out0)
    out0 += s
    out0 *= 0.5
    np.add(out3, r, out=out1)
    out1 -= s
    out1 *= 0.5
    out2 -= r
    out2 -= s
    out2 *= 0.5
    out3 -= r
    out3 += s
    out3 *= 0.5


def _finest_hh(grid) -> np.ndarray:
    """The HH band alone of `grid` trimmed to even sides, formed in the
    butterfly's order: ((a-b) - c + d) * 0.5."""
    h, w = grid.shape
    g = grid[: h - h % 2, : w - w % 2]
    hh = np.subtract(g[0::2, 0::2], g[0::2, 1::2])
    hh -= g[1::2, 0::2]
    hh += g[1::2, 1::2]
    hh *= 0.5
    return hh


def _blocks(h: int, w: int):
    """Four reused planes of one row block, and the (i0, i1) band rows of each block."""
    rows = max(1, _BLOCK // max(w, 1))
    planes = np.empty((4, min(rows, h), w))
    return planes, [(i0, min(i0 + rows, h)) for i0 in range(0, h, rows)]


def dwt2_haar(grid, *, out=None) -> SubBands:
    """Single-level separable orthonormal Haar analysis.

    Per 2x2 block [[a, b], [c, d]]: ll = (a+b+c+d)/2, hl = (a-b+c-d)/2,
    lh = (a+b-c-d)/2, hh = (a-b-c+d)/2.  Energy is preserved.

    One row block of about ``_BLOCK`` band elements at a time, a, b, c and d
    are gathered from the block's rows into four reused contiguous planes,
    and only then are the block's bands written (see :func:`_butterfly`).
    So beyond its input a call holds the four bands (one image) plus four
    planes of 128 KiB (one band row each, where a row is longer).

    With `out`, a float64 array of the grid's shape that is either the grid
    itself or shares no memory with it (else ValueError), the bands are
    written into its rows and returned as views: each band row lives in the
    two rows its block came from, LL = ``out[0::2, :w/2]``, LH =
    ``out[0::2, w/2:]``, HL = ``out[1::2, :w/2]``, HH = ``out[1::2, w/2:]``.
    As each block is read before it is written, the grid itself takes the
    same path as memory apart from it.
    """
    x = np.asarray(grid, dtype=np.float64)
    h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"dimensions must be even, got {h}x{w}")
    h, w = h // 2, w // 2
    if out is None:
        ll, lh, hl, hh = (np.empty((h, w)) for _ in range(4))
    else:
        if out.shape != x.shape:
            raise ValueError(f"out has shape {out.shape}, the grid {x.shape}")
        _in_place(x, out, "grid")
        ll, lh, hl, hh = out[0::2, :w], out[0::2, w:], out[1::2, :w], out[1::2, w:]
    planes, blocks = _blocks(h, w)
    for i0, i1 in blocks:
        a, b, c, d = abcd = planes[:, : i1 - i0]
        # plane 2 * row phase + column phase: a, b from even rows, c, d from odd
        np.copyto(abcd.reshape(2, 2, i1 - i0, w),
                  x[2 * i0 : 2 * i1].reshape(i1 - i0, 2, w, 2).transpose(1, 3, 0, 2))
        _butterfly(a, b, c, d, ll[i0:i1], hl[i0:i1], lh[i0:i1], hh[i0:i1])
    return SubBands(ll=ll, lh=lh, hl=hl, hh=hh)


def idwt2_haar(bands: SubBands, *, out=None) -> np.ndarray:
    """Exact inverse of :func:`dwt2_haar`.

    Per block: a = (ll+hl+lh+hh)/2, b = (ll-hl+lh-hh)/2, c = (ll+hl-lh-hh)/2,
    d = (ll-hl-lh+hh)/2: the analysis butterfly on (ll, hl, lh, hh).  One
    row block of about ``_BLOCK`` band elements at a time, a, b, c and d are
    formed from the block's band rows in four reused contiguous planes, and
    only then stored into the block's output rows.  So beyond its bands a
    call holds the output (one image) plus four planes of 128 KiB (one band
    row each, where a row is longer).

    The output goes to `out`, a float64 array of twice the bands' shape, and
    is returned; by default it is a new array.  A band that shares memory
    with `out` must be its view in ``dwt2_haar(grid, out=grid)``'s row
    layout (else ValueError): its rows then lie in the output rows of their
    own block, which the block reads before it writes them.
    """
    ll, hl, lh, hh = (
        np.asarray(band, dtype=np.float64) for band in (bands.ll, bands.hl, bands.lh, bands.hh)
    )
    h, w = ll.shape
    if out is None:
        out = np.empty((2 * h, 2 * w))
    elif out.shape != (2 * h, 2 * w):
        raise ValueError(f"out has shape {out.shape}, the bands {(h, w)}")
    else:
        homes = (out[0::2, :w], out[1::2, :w], out[0::2, w:], out[1::2, w:])
        for name, band, home in zip(("ll", "hl", "lh", "hh"), (ll, hl, lh, hh), homes):
            _in_place(band, out, f"{name} band", home)
    planes, blocks = _blocks(h, w)
    for i0, i1 in blocks:
        a, b, c, d = planes[:, : i1 - i0]
        _butterfly(ll[i0:i1], hl[i0:i1], lh[i0:i1], hh[i0:i1], a, b, c, d)
        even, odd = out[2 * i0 : 2 * i1 : 2], out[2 * i0 + 1 : 2 * i1 : 2]
        even[:, 0::2], even[:, 1::2], odd[:, 0::2], odd[:, 1::2] = a, b, c, d
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


def reconstruct(pyramid: Pyramid, *, out=None) -> np.ndarray:
    """Exact inverse of :func:`decompose`.

    The finest synthesis writes into `out`, a float64 array of the original
    shape that shares no memory with the pyramid, and returns it; by
    default it makes a new array.
    """
    current = pyramid.top_ll
    for k, (lh, hl, hh) in reversed(list(enumerate(pyramid.levels))):
        current = idwt2_haar(SubBands(current, lh, hl, hh), out=None if k else out)
    return current
