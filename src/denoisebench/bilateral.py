"""Edge-preserving bilateral filter.

Each output pixel is the normalized weighted sum of its window neighborhood,
with Gaussian weights on squared Euclidean pixel distance (sigma_d) and on
intensity difference (sigma_r).  Borders use reflect-101 mirroring.

The sum over window offsets runs on flat lanes of the padded image, one
strip of whole rows at a time, about 32 Ki lanes per strip, so that a
strip's working set stays in L2 cache on large images.  With padded width
``pw = w + 2 * half``, output rows ``r0:r1`` are the ``(r1 - r0 - 1) * pw + w``
lanes of ``padded.ravel()`` that start at ``(r0 + half) * pw + half``, and
window offset ``(dy, dx)`` is the same run of lanes ``dy * pw + dx`` later.
Every operand is thus a contiguous 1-D slice, which numpy's ufuncs stream
several times faster than a strided 2-D view.  The ``2 * half`` lanes
between two output rows are computed and then dropped when the strip is
divided into ``out``: about 1% extra work at width 1024 and 4% at 256.

Each offset updates ``num`` and ``den`` through one scratch buffer with
``out=`` ufuncs.  Every output pixel sees the same operations in the same
order as a sum over whole shifted images, so the output is bit-identical to
that untiled sum.

Strips are independent, so a call made on the main thread spreads them over
the k CPUs the process may use: lane i filters strips ``i, i + k, ...``,
the calling thread runs lane 0, and lanes 1..k-1 run on a helper thread
pool that is created on first use, never on import (a forked child creates
its own).  numpy releases the GIL inside each ufunc, so the lanes run in
parallel.  A call made on any other thread uses one lane:
``bench run --workers N`` already fills the cores with one cell per pool
thread, and nesting the helper pool under it made that sweep slower.  Each
strip sees the same operations in the same order whichever lane runs it, so
the output does not depend on k.  Extra memory is one padded copy of the
image plus k sets of three buffers of one strip's lanes (``num``, ``den``,
``buf``), allocated once per call on the calling thread, instead of about
six full-image temporaries.
"""

import concurrent.futures
import os
import threading
from dataclasses import dataclass

import numpy as np

__all__ = ["BilateralParams", "bilateral_filter"]

# target lanes per row strip; a strip is at least one row
_STRIP_PIXELS = 1 << 15

# runs lanes 1..k-1 of main-thread calls; created by the first call that needs it
_helpers = None


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _helper_pool(workers: int) -> "concurrent.futures.ThreadPoolExecutor":
    global _helpers
    if _helpers is None:
        _helpers = concurrent.futures.ThreadPoolExecutor(workers, thread_name_prefix="bilateral")
    return _helpers


def _drop_helpers() -> None:
    global _helpers
    _helpers = None


# a forked child inherits the pool object but none of its threads, so lanes
# submitted to it would never run
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_helpers)


@dataclass(frozen=True)
class BilateralParams:
    """Spatial fall-off (pixels), range fall-off (luminance), window side."""

    sigma_d: float = 1.8
    sigma_r: float = 20.0
    window: int = 11

    def __post_init__(self):
        if not self.sigma_d > 0 or not self.sigma_r > 0:
            raise ValueError("sigma_d and sigma_r must be positive")
        if self.window < 1 or self.window % 2 == 0:
            raise ValueError(f"window must be odd and positive, got {self.window}")


def bilateral_filter(image, params: BilateralParams) -> np.ndarray:
    """Filter a grayscale image; output stays within the local window range."""
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape
    if params.window > 2 * min(h, w) - 1:
        raise ValueError(f"window {params.window} too large for image shape {img.shape}")
    half = params.window // 2
    padded = np.pad(img, half, mode="reflect")
    inv_2sd2 = 1.0 / (2.0 * params.sigma_d**2)
    inv_2sr2 = 1.0 / (2.0 * params.sigma_r**2)
    out = np.empty_like(img)
    pw = w + 2 * half
    flat = padded.ravel()
    rows = max(1, _STRIP_PIXELS // pw)
    starts = range(0, h, rows)
    # only a main-thread call fans out: a sweep's pool threads already fill the cores
    on_main = threading.current_thread() is threading.main_thread()
    k = min(_cpu_count() if on_main else 1, len(starts))
    lane_bufs = np.empty((k, 3, min(rows, h) * pw))

    def run_lane(lane: int) -> None:
        num, den, buf = lane_bufs[lane]
        for r0 in starts[lane::k]:
            r1 = min(r0 + rows, h)
            m = r1 - r0
            n = (m - 1) * pw + w
            start = (r0 + half) * pw + half
            center = flat[start : start + n]
            acc_num, acc_den, tmp = num[:n], den[:n], buf[:n]
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
                    np.exp(tmp, out=tmp)
                    acc_den += tmp
                    tmp *= shifted
                    acc_num += tmp
            # drop the border lanes between rows
            np.divide(
                num[: m * pw].reshape(m, pw)[:, :w],
                den[: m * pw].reshape(m, pw)[:, :w],
                out=out[r0:r1],
            )

    helpers = [_helper_pool(k - 1).submit(run_lane, lane) for lane in range(1, k)]
    try:
        run_lane(0)
    finally:
        # wait for every lane before returning or raising; result() re-raises a lane's error
        for future in helpers:
            future.result()
    return out
