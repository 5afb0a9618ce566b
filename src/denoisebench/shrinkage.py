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


def _sure_risk_curve(absw_sorted: np.ndarray) -> np.ndarray:
    """SURE(t) for soft thresholding at each candidate t in {0} + sorted |w|.

    For unit-variance coefficients w: SURE(t) = n - 2 #{|w| <= t}
    + sum_i min(|w_i|, t)^2.  Evaluated with cumulative sums over the sorted
    magnitudes; candidate j (1-based into the sorted array) has
    sum min(|w|, t_j)^2 = cumsum(w^2)[j] + (n - j) t_j^2.
    """
    n = absw_sorted.size
    sq = absw_sorted**2
    cum = np.concatenate(([0.0], np.cumsum(sq)))
    t = np.concatenate(([0.0], absw_sorted))
    below = np.concatenate(([0], np.searchsorted(absw_sorted, t[1:], side="right")))
    penalty = cum[below] + (n - below) * t**2
    return n - 2.0 * below + penalty


def sure_threshold(band, sigma: float) -> float:
    """SureShrink threshold for soft thresholding.

    Minimizes Stein's unbiased risk estimate over the candidate set
    {0} + {|w_i|} of sigma-normalized coefficients, capped at the universal
    threshold.  On sparse bands (second-moment statistic below the
    (log2 n)^1.5 / sqrt(n) cutoff) the universal threshold is used directly.
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
    absw = np.sort(np.abs(w))
    risk = _sure_risk_curve(absw)
    candidates = np.concatenate(([0.0], absw))
    t_min = candidates[int(np.argmin(risk))]
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
    s2 = s2.reshape(h, pw)[:, :w]
    with np.errstate(divide="ignore"):
        out = np.divide(t_universal**2, s2)
    np.subtract(1.0, out, out=out)
    np.maximum(out, 0.0, out=out)
    out *= y
    # an empty (or NaN) neighborhood energy keeps its coefficient, as a factor of 0 would
    np.copyto(out, y, where=~(s2 > 0))
    return out
