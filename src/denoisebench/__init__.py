"""Grayscale image denoising methods and a reproducible benchmark harness.

Images are 2-D float64 numpy arrays of shape (height, width), nominally in
[0, 255] but unconstrained while processing; quantization happens only when
writing PGM files.
"""

from denoisebench.imagecore import load_pgm, save_pgm
from denoisebench.noise import NoiseModel, add_awgn, estimate_noise_mad
from denoisebench.wavelet import SubBands, Pyramid, dwt2_haar, idwt2_haar, decompose, reconstruct
from denoisebench.shrinkage import (
    apply_threshold,
    visu_threshold,
    sure_threshold,
    bayes_threshold,
    band_stats,
    neigh_shrink,
)
from denoisebench.bilateral import BilateralParams, bilateral_filter
from denoisebench.metrics import MetricsReport, mse_rmse_mae, psnr, uqi, evaluate
from denoisebench.pipelines import MethodConfig, denoise, collaborative, mrbf

__all__ = [
    "load_pgm", "save_pgm",
    "NoiseModel", "add_awgn", "estimate_noise_mad",
    "SubBands", "Pyramid", "dwt2_haar", "idwt2_haar", "decompose", "reconstruct",
    "apply_threshold", "visu_threshold", "sure_threshold", "bayes_threshold",
    "band_stats", "neigh_shrink",
    "BilateralParams", "bilateral_filter",
    "MetricsReport", "mse_rmse_mae", "psnr", "uqi", "evaluate",
    "MethodConfig", "denoise", "collaborative", "mrbf",
]
