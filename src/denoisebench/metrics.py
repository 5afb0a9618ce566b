"""Image-quality metrics: MSE, RMSE, MAE, PSNR and the universal quality index."""

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["MetricsReport", "mse_rmse_mae", "psnr", "uqi", "evaluate", "PEAK"]

PEAK = 255.0


@dataclass(frozen=True)
class MetricsReport:
    mse: float
    rmse: float
    mae: float
    psnr_db: float  # math.inf when mse == 0
    uqi: float


def _check_pair(reference, test) -> tuple[np.ndarray, np.ndarray]:
    ref = np.asarray(reference, dtype=np.float64)
    tst = np.asarray(test, dtype=np.float64)
    if ref.shape != tst.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {tst.shape}")
    return ref, tst


def mse_rmse_mae(reference, test) -> tuple[float, float, float]:
    """Pixel-averaged squared error, its root, and absolute error."""
    ref, tst = _check_pair(reference, test)
    # one work array: |d| * |d| is exactly d * d, so squaring in place after
    # taking the absolute value gives the same sums as two temporaries
    diff = tst - ref
    np.abs(diff, out=diff)
    mae = float(np.mean(diff))
    np.square(diff, out=diff)
    mse = float(np.mean(diff))
    return mse, math.sqrt(mse), mae


def psnr(reference, test, clamp: bool = True) -> float:
    """Peak signal-to-noise ratio in dB against a peak of 255.

    Both images are clamped to [0, 255] first (the displayable image) unless
    `clamp` is False.  Returns +inf for identical images.
    """
    ref, tst = _check_pair(reference, test)
    if clamp:
        ref = np.clip(ref, 0.0, PEAK)
        tst = np.clip(tst, 0.0, PEAK)
    return _psnr_from_mse(mse_rmse_mae(ref, tst)[0])


def _psnr_from_mse(mse: float) -> float:
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(PEAK**2 / mse)


def uqi(reference, test) -> float:
    """Universal quality index over a single global window.

    Product of correlation, luminance-distortion and contrast-distortion
    factors; variances and covariance use the (MN - 1) denominator.
    Degenerate cases: two identical constant images score 1; a single zero
    variance or a zero mean-square denominator scores 0.  Images with both
    means below 2^-100, whose fourth-order terms would underflow, are first
    scaled by a power of two, which is exact and leaves the index unchanged.
    """
    ref, tst = _check_pair(reference, test)
    return _uqi(ref, np.array(tst))


def _uqi(ref: np.ndarray, g: np.ndarray) -> float:
    """`uqi` of `g` against `ref`, using `g`, an array of its own, as scratch."""
    if ref.size < 2:
        raise ValueError("uqi needs at least 2 pixels")
    f = ref.ravel()
    g = g.ravel()
    mf, mg = float(np.mean(f)), float(np.mean(g))
    if max(abs(mf), abs(mg)) < 2.0**-100:
        # fourth powers of such values underflow; bring the peak into [0.5, 1)
        shift = -math.frexp(max(float(np.max(np.abs(f))), float(np.max(np.abs(g)))))[1]
        f = np.ldexp(f, shift)
        np.ldexp(g, shift, out=g)
        mf, mg = float(np.mean(f)), float(np.mean(g))
    n1 = f.size - 1
    # one work array beside `g`: f - mf is formed twice, g - mg once, in place
    work = np.subtract(f, mf)
    var_f = float(np.sum(np.square(work, out=work))) / n1
    if var_f == 0.0:
        # the only case that reads `g` itself, so it runs before `g` is overwritten
        var_g = float(np.sum(np.square(np.subtract(g, mg, out=work), out=work))) / n1
        return 1.0 if var_g == 0.0 and np.array_equal(f, g) else 0.0
    dg = np.subtract(g, mg, out=g)
    var_g = float(np.sum(np.square(dg, out=work))) / n1
    cov = float(np.sum(np.multiply(np.subtract(f, mf, out=work), dg, out=work))) / n1
    if var_g == 0.0 or (mf == 0.0 and mg == 0.0):
        return 0.0
    # grouped as (4 cov mf mg) / ((var_f + var_g)(mf^2 + mg^2)): the usual
    # correlation/luminance/contrast factors with the sigma_f*sigma_g terms
    # cancelled, avoiding a spurious 0/0 when the images are uncorrelated
    return 4.0 * cov * mf * mg / ((var_f + var_g) * (mf**2 + mg**2))


def evaluate(reference, test, clamp: bool = True, *, overwrite_test: bool = False) -> MetricsReport:
    """All metrics of `test` against `reference`.

    With `clamp` (the default) the test image is clamped to [0, 255] before
    scoring, matching what a viewer of the saved image would see.

    The test image is clamped, and the index then uses it as scratch, in
    this call's own copy; beyond it a call holds one work array, so 2.0
    copies of the image in all.  A caller done with `test` can hand it over
    (`overwrite_test=True`), as a sweep cell does with its denoised image
    once any PGM of it is saved: the call then works in `test` itself, which
    must be writeable if it is float64 already and is left holding scratch
    values, and holds 1.0 copies.  The scores are the same to the bit.
    """
    ref, tst = _check_pair(reference, test)
    if overwrite_test:
        own = np.clip(tst, 0.0, PEAK, out=tst) if clamp else tst
    else:
        own = np.clip(tst, 0.0, PEAK) if clamp else np.array(tst)
    mse, rmse, mae = mse_rmse_mae(ref, own)
    return MetricsReport(
        mse=mse,
        rmse=rmse,
        mae=mae,
        psnr_db=_psnr_from_mse(mse),
        uqi=_uqi(ref, own),
    )
