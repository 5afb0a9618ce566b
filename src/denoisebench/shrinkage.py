"""Wavelet-coefficient thresholding and the four shrinkage estimators.

Threshold selection rules: universal (VisuShrink), SURE-minimizing
(SureShrink, with the sparse-band fallback to the universal threshold),
Bayesian (BayesShrink) and the neighborhood shrink factor (NeighShrink).
"""

import math

import numpy as np

from denoisebench.imagecore import _padded_lanes

__all__ = [
    "apply_threshold",
    "visu_threshold",
    "sure_threshold",
    "bayes_threshold",
    "band_stats",
    "neigh_shrink",
]


def apply_threshold(band, t: float, soft: bool) -> np.ndarray:
    """Soft (kill-or-shrink) or hard (kill-or-keep) thresholding at `t`, elementwise.

    Coefficients with |x| strictly greater than `t` survive; a coefficient
    exactly at the threshold is zeroed by both rules.
    """
    if t < 0:
        raise ValueError("threshold must be non-negative")
    x = np.asarray(band, dtype=np.float64)
    if soft:
        # sign(x) * max(|x| - t, 0), formed in the array returned
        shrunk = np.abs(x)
        shrunk -= t
        np.maximum(shrunk, 0.0, out=shrunk)
        return np.multiply(np.sign(x), shrunk, out=shrunk)
    return np.where(np.abs(x) > t, x, 0.0)


def visu_threshold(sigma: float, n: int) -> float:
    """Universal threshold sigma * sqrt(2 ln n)."""
    if n < 1:
        raise ValueError("n must be positive")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    return sigma * math.sqrt(2.0 * math.log(n))


# candidates the SURE scan scores at a time: its work arrays stay at a few
# 128 KiB, whatever the band's size
_SURE_BLOCK = 1 << 14


def _sure_block(w, cum, s: int, e: int) -> tuple[int, float]:
    """The first least (or first NaN) SURE risk of candidates ``s + 1`` to
    `e`, those at the sorted magnitudes ``w[s:e]``, and its offset in them."""
    n = w.size
    t = w[s:e]
    # a run of equal magnitudes ends where the next one differs; only a run
    # that goes on past the block is searched for.  (A NaN magnitude, sorted
    # last, scores NaN whatever its count.)
    end = np.ones(e - s, dtype=bool)
    np.not_equal(t[:-1], w[s + 1 : e], out=end[:-1])
    below = np.arange(s + 1, e + 1)
    if e < n and w[e - 1] == w[e]:
        below[-1] = np.searchsorted(w, w[e - 1], side="right")
    # each candidate takes the count at the first run end at or after it
    below[~end] = n
    np.minimum.accumulate(below[::-1], out=below[::-1])
    # (n - 2 below) + (cum[below] + (n - below) t^2), operand for operand
    penalty = np.square(t)
    penalty *= n - below
    penalty += cum[below]
    risk = 2.0 * below
    np.subtract(n, risk, out=risk)
    risk += penalty
    k = int(np.argmin(risk))
    return k, float(risk[k])


def sure_threshold(band, sigma: float) -> float:
    """SureShrink threshold for soft thresholding.

    Minimizes Stein's unbiased risk estimate over the candidate set
    {0} + {|w_i|} of sigma-normalized coefficients, capped at the universal
    threshold.  On sparse bands (second-moment statistic below the
    (log2 n)^1.5 / sqrt(n) cutoff) the universal threshold is used directly.

    For unit-variance coefficients, SURE(t) = n - 2 #{|w| <= t}
    + sum_i min(|w_i|, t)^2.  The magnitudes are sorted in place and their
    squares summed cumulatively, left to right, in one more array; candidate
    j >= 1 is t_j, the j-th smallest magnitude, and with b_j = #{|w| <= t_j}
    (one past the end of t_j's run of equal magnitudes) its risk is
    (n - 2 b_j) + (cum_{b_j} + (n - b_j) t_j^2).  Candidate 0 counts no
    coefficient below it and scores n.  Candidates are scored ``_SURE_BLOCK``
    at a time; the first minimum wins, and a NaN risk, if any, wins first.
    So beyond its band a call holds two band-sized arrays and one block's
    work arrays.
    """
    x = np.asarray(band, dtype=np.float64).ravel()
    if x.size == 0:
        raise ValueError("band must be non-empty")
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    n = x.size
    w = x / sigma
    universal = math.sqrt(2.0 * math.log(n))
    sparsity = (np.sum(w**2) - n) / n
    if sparsity <= math.log2(n) ** 1.5 / math.sqrt(n):
        return sigma * universal
    np.abs(w, out=w)
    w.sort()
    # cum[k]: the sum of the k smallest squares, added left to right
    cum = np.empty(n + 1)
    cum[0] = 0.0
    np.cumsum(np.square(w, out=cum[1:]), out=cum[1:])
    best, best_risk = 0, float(n)
    for s in range(0, n, _SURE_BLOCK):
        k, risk = _sure_block(w, cum, s, min(s + _SURE_BLOCK, n))
        if math.isnan(risk):
            best = s + 1 + k
            break
        if risk < best_risk:
            best, best_risk = s + 1 + k, risk
    t_min = w[best - 1] if best else 0.0
    return sigma * min(t_min, universal)


def band_stats(band, sigma_n: float) -> float:
    """Signal std sigma_s of a zero-mean detail band with noise std `sigma_n`.

    The observed variance sigma_w^2 is the uncentered second moment, and
    sigma_s = sqrt(max(sigma_w^2 - sigma_n^2, 0)).
    """
    x = np.asarray(band, dtype=np.float64)
    if x.size == 0:
        raise ValueError("band must be non-empty")
    if sigma_n < 0:
        raise ValueError("sigma_n must be non-negative")
    var_w = float(np.mean(x**2))
    return math.sqrt(max(var_w - sigma_n**2, 0.0))


def bayes_threshold(sigma_n: float, sigma_s: float) -> float:
    """BayesShrink threshold sigma_n^2 / sigma_s.

    With no noise the threshold is 0.  When the signal std is zero the band
    carries no signal; a sentinel equal to +inf is returned so soft
    thresholding zeroes the whole band.
    """
    if sigma_n == 0:
        return 0.0
    if sigma_s == 0:
        return math.inf
    return sigma_n**2 / sigma_s


def neigh_shrink(band, t_universal: float, window: int = 3) -> np.ndarray:
    """NeighShrink: shrink each coefficient by its neighborhood energy.

    S2_ij = sum of squared coefficients in the window x window neighborhood
    (reflect-101 at borders); the output is max(1 - T_u^2 / S2_ij, 0) * Y_ij.
    """
    y = np.asarray(band, dtype=np.float64)
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be odd and positive, got {window}")
    if t_universal < 0:
        raise ValueError("t_universal must be non-negative")
    if t_universal == 0:
        return y.copy()
    half = window // 2
    h, w = y.shape
    pw = w + 2 * half
    # the squared band in imagecore._padded_lanes' layout, summed as shifted whole
    # images are, but from the first run instead of 0 + it: the same for a square
    flat = _padded_lanes(y, 0, h, half, np.empty((h + 2 * half) * pw))
    np.square(flat, out=flat)
    n = (h - 1) * pw + w
    s2 = flat[: h * pw].copy()
    for dy in range(window):
        for dx in range(window):
            if dy or dx:
                s2[:n] += flat[dy * pw + dx : dy * pw + dx + n]
    del flat
    s2 = s2.reshape(h, pw)[:, :w]
    # an empty (or NaN) neighborhood energy keeps its coefficient, as a factor of 0 would
    keep = ~(s2 > 0)
    # the factor, formed in the energy's buffer
    with np.errstate(divide="ignore"):
        factor = np.divide(t_universal**2, s2, out=s2)
    np.subtract(1.0, factor, out=factor)
    np.maximum(factor, 0.0, out=factor)
    out = np.multiply(factor, y)
    np.copyto(out, y, where=keep)
    return out
