"""End-to-end denoising drivers.

Wavelet methods follow the decompose / estimate / shrink details / invert
scheme; approximation bands are never thresholded.  Also provides the
collaborative (BayesShrink then bilateral) method and the multiresolution
bilateral filter.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from denoisebench.bilateral import BilateralParams, bilateral_filter
from denoisebench.noise import estimate_noise_mad
from denoisebench.shrinkage import (
    ThresholdRule,
    apply_threshold,
    band_stats,
    bayes_threshold,
    neigh_shrink,
    sure_threshold,
    visu_threshold,
)
from denoisebench.wavelet import Pyramid, SubBands, decompose, dwt2_haar, idwt2_haar, reconstruct

__all__ = ["MethodConfig", "METHODS", "denoise", "bilateral_pass", "collaborative", "mrbf"]

METHODS = ("visu", "sure", "bayes", "neigh", "bilateral", "collaborative", "mrbf")

# stated pairing: Visu hard, Bayes/Sure soft; Neigh uses its own factor
_DEFAULT_RULES = {"visu": "hard", "sure": "soft", "bayes": "soft"}


@dataclass(frozen=True)
class MethodConfig:
    """Selection of one denoising method plus its parameters."""

    method: str = "bayes"
    levels: int = 3
    bilateral_params: BilateralParams = field(default_factory=BilateralParams)
    neigh_window: int = 3
    sigma_mode: str = "estimated"  # "estimated" | "oracle"
    detail_rule: str | None = None  # override of the per-method hard/soft pairing
    bayes_squared_denominator: bool = False  # sigma_n^2/sigma_s^2 variant
    mrbf_every_level: bool = True  # bilateral every approximation vs full-res only
    collab_reuse_sigma: bool = False  # reuse pre-denoise sigma for sigma_r

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not 1 <= self.levels <= 6:
            raise ValueError("levels must be in [1, 6]")
        if self.neigh_window < 1 or self.neigh_window % 2 == 0:
            raise ValueError("neigh_window must be odd and positive")
        if self.sigma_mode not in ("estimated", "oracle"):
            raise ValueError(f"unknown sigma_mode {self.sigma_mode!r}")
        if self.detail_rule not in (None, "hard", "soft"):
            raise ValueError(f"detail_rule must be 'hard' or 'soft', got {self.detail_rule!r}")


def _resolve_sigma(pyramid: Pyramid, config: MethodConfig, oracle_sigma) -> float:
    if config.sigma_mode == "oracle":
        if oracle_sigma is None:
            raise ValueError("sigma_mode='oracle' requires oracle_sigma")
        return float(oracle_sigma)
    return estimate_noise_mad(pyramid.levels[0].hh)


def _shrink_details(pyramid: Pyramid, config: MethodConfig, sigma: float, band_log=None) -> Pyramid:
    """Threshold every detail band at every level; LL is never touched."""
    rule_kind = config.detail_rule or _DEFAULT_RULES.get(config.method)
    new_levels = []
    for k, bands in enumerate(pyramid.levels, start=1):
        shrunk = {}
        for name, band in (("lh", bands.lh), ("hl", bands.hl), ("hh", bands.hh)):
            if band_log is not None:
                band_log.append((k, name))
            if config.method == "visu":
                t = visu_threshold(sigma, band.size)
                shrunk[name] = apply_threshold(band, ThresholdRule(rule_kind, t))
            elif config.method == "sure":
                if sigma == 0:
                    shrunk[name] = band.copy()
                else:
                    t = sure_threshold(band, sigma)
                    shrunk[name] = apply_threshold(band, ThresholdRule(rule_kind, t))
            elif config.method == "bayes":
                t = bayes_threshold(band_stats(band, sigma), config.bayes_squared_denominator)
                shrunk[name] = apply_threshold(band, ThresholdRule(rule_kind, t))
            elif config.method == "neigh":
                t_u = visu_threshold(sigma, band.size)
                shrunk[name] = neigh_shrink(band, t_u, config.neigh_window)
            else:
                raise ValueError(f"{config.method!r} is not a wavelet shrinkage method")
        new_levels.append(bands.with_details(shrunk["lh"], shrunk["hl"], shrunk["hh"]))
    return Pyramid(tuple(new_levels), pyramid.top_ll, pyramid.original_shape)


def denoise(image, config: MethodConfig, oracle_sigma: float | None = None, band_log=None) -> np.ndarray:
    """Run the configured method.  Output is not clamped.

    `band_log`, when given a list, records every (level, band) that was
    thresholded, for instrumentation.
    """
    img = np.asarray(image, dtype=np.float64)
    if config.method == "bilateral":
        params = _range_params(img, config, oracle_sigma)
        return bilateral_filter(img, params)
    if config.method == "collaborative":
        return collaborative(img, config, oracle_sigma, band_log=band_log)
    if config.method == "mrbf":
        return mrbf(img, config, oracle_sigma, band_log=band_log)
    pyramid = decompose(img, config.levels)
    sigma = _resolve_sigma(pyramid, config, oracle_sigma)
    return reconstruct(_shrink_details(pyramid, config, sigma, band_log=band_log))


def _range_params(img, config: MethodConfig, oracle_sigma) -> BilateralParams:
    """Bilateral parameters with sigma_r = 2 * noise std (estimated or oracle)."""
    if config.sigma_mode == "oracle":
        if oracle_sigma is None:
            raise ValueError("sigma_mode='oracle' requires oracle_sigma")
        sigma = float(oracle_sigma)
    else:
        h, w = img.shape
        trimmed = img[: h - h % 2, : w - w % 2]
        sigma = estimate_noise_mad(dwt2_haar(trimmed).hh)
    return replace(config.bilateral_params, sigma_r=max(2.0 * sigma, 1e-6))


def bilateral_pass(grid, sigma: float, params: BilateralParams) -> np.ndarray:
    """One MRBF bilateral pass: sigma_r = 2 * sigma, window shrunk to fit `grid`."""
    params = replace(params, sigma_r=max(2.0 * sigma, 1e-6))
    if params.window > 2 * min(grid.shape) - 1:
        params = replace(params, window=max(2 * min(grid.shape) - 1, 1) | 1)
    return bilateral_filter(grid, params)


def collaborative(image, config: MethodConfig, oracle_sigma: float | None = None, band_log=None) -> np.ndarray:
    """BayesShrink wavelet denoising followed by a bilateral pass.

    The bilateral range fall-off targets the residual noise, re-estimated on
    the Bayes output (set `collab_reuse_sigma` to reuse the pre-denoise
    estimate instead).
    """
    bayes_config = replace(config, method="bayes")
    stage1 = denoise(image, bayes_config, oracle_sigma, band_log=band_log)
    if config.collab_reuse_sigma:
        params = _range_params(np.asarray(image, dtype=np.float64), config, oracle_sigma)
    else:
        params = _range_params(stage1, replace(config, sigma_mode="estimated"), None)
    return bilateral_filter(stage1, params)


def mrbf(image, config: MethodConfig, oracle_sigma: float | None = None, band_log=None) -> np.ndarray:
    """Multiresolution bilateral filter.

    Recursion over `levels`: bilateral-filter the current approximation (the
    full-resolution image at level 1), then split it, BayesShrink the detail
    bands and recurse on LL; the coarsest LL gets one more bilateral pass.
    With `mrbf_every_level` off only the full-resolution approximation is
    filtered.  The noise level is re-estimated per level from that level's
    diagonal band; sigma_r = 2 * estimate.

    Filtering the approximation before the split (rather than after
    reconstruction) matters: post-reconstruction passes smooth detail that
    the shrinkage stage already committed to keeping, while pre-split passes
    only ever see genuinely noisy data.
    """
    img = np.asarray(image, dtype=np.float64)
    h, w = img.shape
    if h % (1 << config.levels) or w % (1 << config.levels):
        raise ValueError(f"dimensions {h}x{w} not divisible by 2^{config.levels}")

    def recurse(grid, level):
        if config.mrbf_every_level or level == 1:
            if level == 1 and config.sigma_mode == "oracle":
                if oracle_sigma is None:
                    raise ValueError("sigma_mode='oracle' requires oracle_sigma")
                pre_sigma = float(oracle_sigma)
            else:
                pre_sigma = estimate_noise_mad(dwt2_haar(grid).hh)
            grid = bilateral_pass(grid, pre_sigma, config.bilateral_params)
        bands = dwt2_haar(grid)
        sigma = estimate_noise_mad(bands.hh)
        shrunk = {}
        for name, band in (("lh", bands.lh), ("hl", bands.hl), ("hh", bands.hh)):
            if band_log is not None:
                band_log.append((level, name))
            t = bayes_threshold(band_stats(band, sigma), config.bayes_squared_denominator)
            shrunk[name] = apply_threshold(band, ThresholdRule("soft", t))
        if level == config.levels:
            ll = bilateral_pass(bands.ll, sigma, config.bilateral_params)
        else:
            ll = recurse(bands.ll, level + 1)
        return idwt2_haar(SubBands(ll, shrunk["lh"], shrunk["hl"], shrunk["hh"]))

    return recurse(img, 1)
