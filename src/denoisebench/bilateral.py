"""Edge-preserving bilateral filter.

Each output pixel is the normalized weighted sum of its window neighborhood,
with Gaussian weights on squared Euclidean pixel distance (sigma_d) and on
intensity difference (sigma_r).  Borders use reflect-101 mirroring.

The sum over window offsets runs one strip of whole rows at a time, on the
flat lanes of a padded strip buffer that ``imagecore._padded_lanes`` fills
with the strip and its reflect-101 border (its docstring states the layout).
The lanes between two output rows, about 1% extra work at width 1024 and 4%
at 256, are dropped when the strip is divided into ``out``.

Each offset updates ``num`` and ``den`` through one scratch buffer with
``out=`` ufuncs.  Every output pixel sees the same operations in the same
order as a sum over whole shifted images, so the output is bit-identical to
that untiled sum.

The output may be written over the input (``out=image``).  A strip fills
its padded buffer before it sums and writes its own rows after, so the only
reads another strip's write can spoil are those of the rows within ``half``
of a boundary between two strips, which the strips on both sides read; the
reflected rows of a short first or last strip are among them.  Those rows
are copied aside before any lane starts, and each strip pads from its own
rows and that copy: at most ``2 * half`` rows per boundary (0.11 image
copies at 1024x1024 on two lanes, 0.04 at 512x512 on one), with no
synchronisation between lanes.  A call whose output is a new array copies
nothing.

Strips are independent, so a call made on the main thread spreads them over
the k CPUs the process may use: lane i filters strips ``i, i + k, ...``,
the calling thread runs lane 0, and lanes 1..k-1 run on helper threads
that the call starts and joins before it returns or raises, so no thread
outlives a call and a one-lane call starts none.  Starting and joining them
costs a fraction of a millisecond, against ten or more milliseconds of
filtering on any image that gets a second lane.  numpy releases the GIL inside each
ufunc, so the lanes run in parallel.  A call made on any other thread uses
one lane: ``bench run --workers N`` already fills the cores with one cell
per pool thread, and nesting helper threads under it made that sweep
slower.

A strip costs about eight ufunc calls per window offset whatever its size,
and each call releases and retakes the GIL; when two lanes contend for it,
every hand-off costs a few microseconds.  So strips are as few as the lanes
allow: the image is cut into the smallest number n of strips that is a
multiple of k and keeps each strip within ``_STRIP_LANES`` lanes, at rows
``i * h // n``, so strip heights differ by at most one row and every lane
gets the same work.  k is lowered until each strip holds at least a quarter
of ``_STRIP_LANES``: below that the hand-offs cost more than a second lane
gains, so images below about 220x220 stay on one lane.  Each strip sees the
same operations in the same order whichever lane runs it and however the
rows are cut, so the output depends on neither.  Extra memory beyond the
output is k sets of three buffers of one strip's lanes (``num``, ``den``,
``buf``), k padded strip buffers, each its own allocation, and two bool
buffers on a clamped pass (below), all allocated once per call on the
calling thread: at 1024x1024 on two lanes, 0.74 image copies beyond the
output, against 1.56 with a padded copy of the whole image and about six
full-image temporaries before that.  Written over its input, a call holds
those and the copied boundary rows, and no output array: 0.82 copies beyond
the image at 1024x1024 on two lanes (tracemalloc).

At a tiny ``sigma_r``, such as the 1e-6 floor of the collaborative pass,
most exponents fall below -708.4, where ``np.exp`` leaves its vector path
and takes about ten times as long per element.  On such a pass every
exponent is clamped at -700 (``np.maximum``) before ``np.exp``, which keeps
every operation a plain vector ufunc.  The clamp is used only where it
provably leaves the output bit-identical, as checked once per call on the
calling thread from the image's extremes ``lo`` and ``hi``, with no
image-sized temporary: ``lo > 0``, ``lo^2 / (2 sigma_r^2) > 700`` (every
difference that keeps a weight is smaller than the darkest pixel),
``hi < 2^60 lo``, ``(hi - lo)^2 / (2 sigma_r^2) + 2 half^2 / (2 sigma_d^2)
> 700`` (some exponent can reach the clamp), and fewer than 2^30 window
offsets before the centre tap.  NaN, infinite, zero or negative pixels, and
a wider range, keep the unclamped path.  On the offsets before the centre
tap, a clamped strip also checks that no exponent lies in [-700, -600); if
one does, the strip is summed again without the clamp.  Why the output
cannot change:

- every pixel lies in [lo, hi] with lo > 0, so every term of ``num`` and
  ``den`` is >= 0;
- an exponent at or above -700 keeps its weight bit for bit; a clamped one
  adds exp(-700), about 1e-304, where the unclamped sum added a value of at
  most about that;
- before the centre tap, the check makes every unclamped term of a lane at
  least e^-600 (times lo in ``num``).  That is more than 2^54 times what
  the clamped terms before it can sum to (at most 2^30 * e^-700 * hi, with
  hi < 2^60 lo; 60 terms at window 11), so both sums round to exactly that
  term; after it, each clamped term is under half an ulp of the sum and
  changes neither;
- the centre tap adds exactly 1 to ``den`` and its pixel (>= lo) to
  ``num``, and the same absorption holds from there on, so ``num``,
  ``den`` and the output match the unclamped sum bit for bit.
"""

import concurrent.futures
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from denoisebench.imagecore import _in_place, _padded_lanes

__all__ = ["BilateralParams", "bilateral_filter"]

# most lanes a row strip may hold, unless one row is longer.  Picked by
# measurement on a 2-vCPU host with 2 MiB of L2: 64-128 Ki ran within noise
# of each other on two lanes, and 96 Ki beat 72 Ki end to end.  A lone lane
# on a 512x512 or larger image runs about 15% slower than with 32 Ki strips,
# which fit in L2.
_STRIP_LANES = 96 << 10

# exponents are clamped at _CLAMP, above the -708.4 where np.exp leaves its
# vector path; a weight of at least exp(_ABSORB) absorbs every clamped term
# (see module docs)
_CLAMP = -700.0
_ABSORB = -600.0


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _strips(h: int, pw: int, lanes: int) -> tuple[int, list[tuple[int, int]]]:
    """Lane count k <= `lanes` and the row ranges of the strips (see module docs)."""
    fewest = -(-h // max(1, _STRIP_LANES // pw))
    for k in range(lanes, 0, -1):
        n = -(-fewest // k) * k
        if k == 1 or h // n * pw >= _STRIP_LANES // 4:
            break
    return k, [(i * h // n, (i + 1) * h // n) for i in range(n)]


def _inv_2s2(sigma: float) -> float:
    """The factor 1 / (2 sigma^2) of a squared distance in an exponent."""
    return 1.0 / (2.0 * sigma**2)


def _clamp_is_exact(img: np.ndarray, half: int, inv_2sd2: float, inv_2sr2: float) -> bool:
    """Whether clamping exponents at _CLAMP can pay and leaves the output as it is."""
    # fewer than 2^30 offsets before the centre tap
    if (2 * half + 1) ** 2 > 2**31:
        return False
    lo = float(img.min())
    # every difference that keeps a weight is smaller than the darkest pixel
    if not (lo > 0.0 and lo * lo * inv_2sr2 > -_CLAMP):
        return False
    hi = float(img.max())
    spread = hi - lo
    # pixels within 2^60 of each other, and some exponent that reaches the clamp
    return hi < lo * 2.0**60 and spread * spread * inv_2sr2 + 2 * half * half * inv_2sd2 > -_CLAMP


@dataclass(frozen=True)
class BilateralParams:
    """Spatial fall-off (pixels), range fall-off (luminance), window side."""

    sigma_d: float = 1.8
    sigma_r: float = 20.0
    window: int = 11

    def __post_init__(self):
        if not self.sigma_d > 0 or not self.sigma_r > 0:
            raise ValueError("sigma_d and sigma_r must be positive")
        for name, sigma in (("sigma_d", self.sigma_d), ("sigma_r", self.sigma_r)):
            # inf gives a constant weight; a finite sigma must keep 1 / (2 sigma^2) finite and nonzero
            try:
                usable = sigma == math.inf or 0.0 < _inv_2s2(sigma) < math.inf
            except (OverflowError, ZeroDivisionError):
                usable = False
            if not usable:
                raise ValueError(f"{name} = {sigma!r} is out of range: 1 / (2 {name}^2) overflows or is 0")
        if self.window < 1 or self.window % 2 == 0:
            raise ValueError(f"window must be odd and positive, got {self.window}")


def bilateral_filter(image, params: BilateralParams, *, out=None) -> np.ndarray:
    """Filter a grayscale image; output stays within the local window range.

    The output goes to `out`, a float64 array of the image's shape, and is
    returned.  `out` may be the image itself (see module docs), or must share
    no memory with it; by default it is a new array.
    """
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape
    if params.window > 2 * min(h, w) - 1:
        raise ValueError(f"window {params.window} too large for image shape {img.shape}")
    if out is None:
        out = np.empty_like(img)
    elif out.shape != img.shape:
        raise ValueError(f"out has shape {out.shape}, the image {img.shape}")
    in_place = _in_place(img, out, "image")
    half = params.window // 2
    inv_2sd2 = _inv_2s2(params.sigma_d)
    inv_2sr2 = _inv_2s2(params.sigma_r)
    clamp = _clamp_is_exact(img, half, inv_2sd2, inv_2sr2)
    pw = w + 2 * half
    # only a main-thread call fans out: a sweep's pool threads already fill the cores
    on_main = threading.current_thread() is threading.main_thread()
    k, strips = _strips(h, pw, _cpu_count() if on_main else 1)
    # in place, the rows within `half` of a strip boundary, which the strips on
    # either side read, are copied before any strip is written (see module docs)
    edges = None
    if in_place:
        edges = {r0: img[max(r0 - half, 0) : r0 + half].copy() for r0, _ in strips[1:]}
    strip_rows = -(-h // len(strips))
    strip_lanes = strip_rows * pw
    # one padded strip per lane, each its own allocation, made before the
    # lanes' sums: in alternating perfbench runs of bilateral_sweep and
    # mrbf_1024 that order ran no slower and peaked 0.1 MiB lower
    lane_pads = [np.empty((strip_rows + 2 * half) * pw) for _ in range(k)]
    lane_bufs = np.empty((k, 3, strip_lanes))
    lane_flags = np.empty((k, 2, strip_lanes if clamp else 0), dtype=bool)
    # the centre tap: window offset (half, half) of the lane layout
    start = half * pw + half

    def sum_window(lane: int, flat: np.ndarray, n: int, clamped: bool) -> bool:
        """Sum the window of the n lanes from `start` of `flat` into the lane's num and den.

        With `clamped`, exponents are clamped at _CLAMP, and the sum stops and
        returns False at an exponent in [_CLAMP, _ABSORB) before the centre
        tap (see module docs).
        """
        acc_num, acc_den, tmp = lane_bufs[lane, :, :n]
        below, above = lane_flags[lane, :, :n]
        center = flat[start : start + n]
        acc_num.fill(0.0)
        acc_den.fill(0.0)
        # accumulate one shifted run of lanes per window offset
        for dy in range(-half, half + 1):
            for dx in range(-half, half + 1):
                shift = start + dy * pw + dx
                shifted = flat[shift : shift + n]
                # weight = exp(-d^2 / (2 sigma_d^2) - (shifted - center)^2 / (2 sigma_r^2))
                np.subtract(shifted, center, out=tmp)
                np.square(tmp, out=tmp)
                np.multiply(tmp, inv_2sr2, out=tmp)
                np.subtract(-(dy * dy + dx * dx) * inv_2sd2, tmp, out=tmp)
                if clamped:
                    if (dy, dx) < (0, 0):
                        np.less(tmp, _ABSORB, out=below)
                        np.greater_equal(tmp, _CLAMP, out=above)
                        below &= above
                        if below.any():
                            return False
                    np.maximum(tmp, _CLAMP, out=tmp)
                np.exp(tmp, out=tmp)
                acc_den += tmp
                tmp *= shifted
                acc_num += tmp
        return True

    def run_lane(lane: int) -> None:
        num, den, _ = lane_bufs[lane]
        for r0, r1 in strips[lane::k]:
            m = r1 - r0
            n = (m - 1) * pw + w
            flat = _padded_lanes(img, r0, r1, half, lane_pads[lane], edges=edges)
            # a strip the clamp might change is summed again without it
            if not (clamp and sum_window(lane, flat, n, True)):
                sum_window(lane, flat, n, False)
            # drop the border lanes between rows
            np.divide(
                num[: m * pw].reshape(m, pw)[:, :w],
                den[: m * pw].reshape(m, pw)[:, :w],
                out=out[r0:r1],
            )

    with concurrent.futures.ThreadPoolExecutor(max(1, k - 1), thread_name_prefix="bilateral") as pool:
        helpers = [pool.submit(run_lane, lane) for lane in range(1, k)]
        run_lane(0)
        # result() re-raises a helper lane's error; leaving the block joins every lane
        for future in helpers:
            future.result()
    return out
