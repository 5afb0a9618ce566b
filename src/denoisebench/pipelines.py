"""End-to-end denoising drivers.

Wavelet methods follow the decompose / estimate / shrink details / invert
scheme; approximation bands are never thresholded.  Also provides the
collaborative (BayesShrink then bilateral) method and the multiresolution
bilateral filter.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from denoisebench.bilateral import BilateralParams, bilateral_filter
from denoisebench.noise import estimate_noise_mad
from denoisebench.shrinkage import (
    apply_threshold,
    band_stats,
    bayes_threshold,
    neigh_shrink,
    sure_threshold,
    visu_threshold,
)
from denoisebench.wavelet import Pyramid, check_grid, decompose, dwt2_haar, idwt2_haar, reconstruct

__all__ = ["MethodConfig", "METHODS", "denoise", "collaborative", "mrbf"]

METHODS = ("visu", "sure", "bayes", "neigh", "bilateral", "collaborative", "mrbf")

# spatial settings of every bilateral pass; sigma_r is set per pass from the noise
_BILATERAL = BilateralParams(sigma_d=1.8, window=11)


@dataclass(frozen=True)
class MethodConfig:
    """Selection of one denoising method plus its parameters."""

    method: str = "bayes"
    levels: int = 3

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {', '.join(METHODS)}")
        if not 1 <= self.levels <= 6:
            raise ValueError("levels must be in [1, 6]")


def _sigma(oracle_sigma, grid=None, hh=None) -> float:
    """Noise std: `oracle_sigma` when given, else the MAD estimate of the finest HH band.

    Pass `hh` when the caller already holds that band; otherwise it is
    formed from the even-trimmed `grid` as :func:`dwt2_haar` forms it, with
    none of the other three bands.  A given sigma forms no band.
    """
    if oracle_sigma is not None:
        sigma = float(oracle_sigma)
        if not 0 <= sigma < math.inf:
            raise ValueError(f"oracle_sigma must be finite and non-negative, got {sigma:g}")
        return sigma
    if hh is None:
        h, w = grid.shape
        g = grid[: h - h % 2, : w - w % 2]
        hh = np.subtract(g[0::2, 0::2], g[0::2, 1::2])
        hh -= g[1::2, 0::2]
        hh += g[1::2, 1::2]
        hh /= 2.0
    return estimate_noise_mad(hh)


# One detail-band shrinker per wavelet method, (band, sigma) -> band:
# Visu hard, Sure and Bayes soft, Neigh its own factor.  The entries call the
# shrinkage functions through this module's globals, so a wrapper rebound over
# them at run time is still reached.
_SHRINKERS = {
    "visu": lambda band, sigma: apply_threshold(
        band, visu_threshold(sigma, band.size), soft=False),
    "sure": lambda band, sigma: band.copy() if sigma == 0 else apply_threshold(
        band, sure_threshold(band, sigma), soft=True),
    "bayes": lambda band, sigma: apply_threshold(
        band, bayes_threshold(sigma, band_stats(band, sigma)), soft=True),
    "neigh": lambda band, sigma: neigh_shrink(band, visu_threshold(sigma, band.size)),
}


def denoise(image, config: MethodConfig, oracle_sigma: float | None = None, *,
            overwrite_image: bool = False) -> np.ndarray:
    """Run the configured method.  Output is not clamped.

    The noise std is `oracle_sigma` when given (the true sigma), else the
    MAD estimate.  Every method but `bilateral` runs on a grid whose sides
    divide by 2^levels: a side that does not is mirror-padded (reflect-101)
    at the bottom or right up to the next multiple, and the result is cropped
    back to the input's shape.

    `image` is never written unless the caller hands it over with
    `overwrite_image=True`, as `bench denoise` does with the image it loaded
    and a sweep cell with its noisy image.  `bilateral` and `mrbf` then work
    in its memory, which must be writeable if it is float64 already, and
    return it (off the Haar grid, mrbf works in its padded copy).  Without
    the handover those two methods work on one copy of `image`, or on the
    new array that converting it to float64 made.  The other methods never
    write over their input, and `collaborative` filters its own Bayes output
    in place.
    """
    if config.method == "bilateral":
        img = _grid(image, overwrite_image)
        return bilateral_pass(img, _sigma(oracle_sigma, grid=img))
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape
    step = 1 << config.levels
    if h % step or w % step:
        padded = np.pad(img, ((0, -h % step), (0, -w % step)), mode="reflect")
        return denoise(padded, config, oracle_sigma, overwrite_image=True)[:h, :w]
    if config.method == "collaborative":
        return collaborative(img, config, oracle_sigma)
    if config.method == "mrbf":
        return mrbf(image, config, oracle_sigma, overwrite_image=overwrite_image)
    pyramid = decompose(img, config.levels)
    sigma = _sigma(oracle_sigma, hh=pyramid.levels[0][2])
    levels, top_ll = [list(details) for details in pyramid.levels], pyramid.top_ll
    del pyramid
    # each band's shrunk copy replaces it, so the original is freed at once
    shrink = _SHRINKERS[config.method]
    for details in levels:
        for i in range(3):
            details[i] = shrink(details[i], sigma)
    return reconstruct(Pyramid(tuple(map(tuple, levels)), top_ll, img.shape))


def _grid(image, overwrite_image: bool) -> np.ndarray:
    """`image` as a float64 array that a method may write over: `image`
    itself when handed over, else a copy unless converting it made one."""
    img = np.asarray(image, dtype=np.float64)
    if overwrite_image or (img is not image and img.base is None):
        return img
    return img.copy()


def bilateral_pass(grid, sigma: float) -> np.ndarray:
    """One bilateral pass for noise std `sigma`, written over `grid`, a
    float64 array, which is returned.

    sigma_r = 2 * sigma, floored at 1e-6; the window shrinks to the largest
    odd side that fits `grid` (2 * shorter side - 1) when 11 does not.
    """
    window = min(_BILATERAL.window, max(2 * min(grid.shape) - 1, 1))
    params = replace(_BILATERAL, sigma_r=max(2.0 * sigma, 1e-6), window=window)
    return bilateral_filter(grid, params, out=grid)


def collaborative(image, config: MethodConfig, oracle_sigma: float | None = None) -> np.ndarray:
    """BayesShrink wavelet denoising followed by a bilateral pass.

    The bilateral range fall-off targets the residual noise, re-estimated on
    the Bayes output, which the pass then writes over.
    """
    stage1 = denoise(image, replace(config, method="bayes"), oracle_sigma)
    return bilateral_pass(stage1, _sigma(None, grid=stage1))


def mrbf(image, config: MethodConfig, oracle_sigma: float | None = None, *,
         overwrite_image: bool = False) -> np.ndarray:
    """Multiresolution bilateral filter.

    Recursion over `levels`: bilateral-filter the current approximation (the
    full-resolution image at level 1), then split it, BayesShrink the detail
    bands and recurse on LL; the coarsest LL gets one more bilateral pass.
    The noise level is re-estimated per level from that level's diagonal
    band; sigma_r = 2 * estimate.  Both sides of `image` must divide by
    2^levels, checked before the first pass; :func:`denoise` pads any other
    shape.

    Every level works in its grid's own memory: the pass writes over the
    grid, the split lays the bands out in its rows (``dwt2_haar(grid,
    out=grid)``), each detail band's shrunk copy is written back into its
    rows, the next level works in the LL rows, and the synthesis writes the
    grid back.  So beyond the image a call holds one pass's buffers, or one
    band's shrunk copy, at a time.  `overwrite_image` hands `image` over as
    in :func:`denoise`; without it MRBF works on one copy.

    Filtering the approximation before the split (rather than after
    reconstruction) matters: post-reconstruction passes smooth detail that
    the shrinkage stage already committed to keeping, while pre-split passes
    only ever see genuinely noisy data.
    """

    def recurse(grid, level):
        bilateral_pass(grid, _sigma(oracle_sigma if level == 1 else None, grid=grid))
        bands = dwt2_haar(grid, out=grid)
        sigma = _sigma(None, hh=bands.hh)
        for band in (bands.lh, bands.hl, bands.hh):
            band[...] = _SHRINKERS["bayes"](band, sigma)
        if level == config.levels:
            bilateral_pass(bands.ll, sigma)
        else:
            recurse(bands.ll, level + 1)
        return idwt2_haar(bands, out=grid)

    check_grid(np.shape(image), config.levels)
    return recurse(_grid(image, overwrite_image), 1)
