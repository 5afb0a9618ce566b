"""Compare multiresolution bilateral filter schedules.

The MRBF combines per-level wavelet detail shrinkage with bilateral passes
over approximation bands; where those passes sit changes the result a lot.
This script contrasts the shipped schedule (bilateral on every approximation
*before* its split, plus the coarsest LL) with two alternatives:

* full-resolution prefilter only (``mrbf_every_level=False``),
* bilateral on reconstructed approximations on the *way up* (the obvious
  alternative reading of "filter every approximation"), implemented inline
  here because it loses to both shipped variants.

Run: python3 scripts/compare_mrbf_schedules.py [--size 256] [--seeds 3]
"""

import argparse

import numpy as np

from denoisebench.metrics import psnr
from denoisebench.noise import NoiseModel, add_awgn, estimate_noise_mad
from denoisebench.pipelines import MethodConfig, bilateral_pass, denoise
from denoisebench.shrinkage import ThresholdRule, apply_threshold, band_stats, bayes_threshold
from denoisebench.synth import texture_image
from denoisebench.wavelet import SubBands, dwt2_haar, idwt2_haar


def mrbf_way_up(image, config: MethodConfig) -> np.ndarray:
    """Way-up variant: filter each reconstructed approximation after merging."""
    params = config.bilateral_params

    def recurse(grid, level):
        bands = dwt2_haar(grid)
        sigma = estimate_noise_mad(bands.hh)
        shrunk = {
            name: apply_threshold(
                getattr(bands, name),
                ThresholdRule("soft", bayes_threshold(band_stats(getattr(bands, name), sigma))),
            )
            for name in ("lh", "hl", "hh")
        }
        if level == config.levels:
            ll = bilateral_pass(bands.ll, sigma, params)
        else:
            ll = bilateral_pass(recurse(bands.ll, level + 1), sigma, params)
        merged = idwt2_haar(SubBands(ll, shrunk["lh"], shrunk["hl"], shrunk["hh"]))
        return bilateral_pass(merged, sigma, params) if level == 1 else merged

    return recurse(np.asarray(image, dtype=np.float64), 1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=256)
    parser.add_argument("--seeds", type=int, default=3)
    args = parser.parse_args()

    image = texture_image(args.size)
    schedules = {
        "pre-split every level (shipped)": lambda n: denoise(
            n, MethodConfig(method="mrbf", mrbf_every_level=True)
        ),
        "full-res prefilter only": lambda n: denoise(
            n, MethodConfig(method="mrbf", mrbf_every_level=False)
        ),
        "way-up after merge": lambda n: mrbf_way_up(n, MethodConfig(method="mrbf")),
        "bayes baseline (no bilateral)": lambda n: denoise(
            n, MethodConfig(method="bayes")
        ),
    }
    print(f"mean PSNR (dB) on texture{args.size}, {args.seeds} seeds")
    print(f"{'sigma':>5}  " + "  ".join(f"{name:>31}" for name in schedules))
    for sigma in (10.0, 20.0, 30.0, 40.0, 50.0):
        cells = []
        for run in schedules.values():
            vals = [
                psnr(image, run(add_awgn(image, NoiseModel(sigma, seed))))
                for seed in range(args.seeds)
            ]
            cells.append(f"{float(np.mean(vals)):31.2f}")
        print(f"{sigma:5g}  " + "  ".join(cells))


if __name__ == "__main__":
    main()
