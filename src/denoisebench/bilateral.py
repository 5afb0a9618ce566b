"""Edge-preserving bilateral filter.

Each output pixel is the normalized weighted sum of its window neighborhood,
with Gaussian weights on squared Euclidean pixel distance (sigma_d) and on
intensity difference (sigma_r).  Borders use reflect-101 mirroring.

The sum over window offsets runs one strip of whole rows at a time, about
32 Ki pixels per strip, so that a strip's working set stays in L2 cache on
large images.  Each strip has its own ``num`` and ``den`` accumulators and
one scratch buffer that every offset's weight is computed into with ``out=``
ufuncs.  Every pixel sees the same operations in the same order as a sum
over whole shifted images, so the output is bit-identical to that untiled
sum.  Extra memory is one padded copy of the image plus three strip-sized
arrays, instead of about six full-image temporaries.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["BilateralParams", "bilateral_filter"]

# target pixels per row strip; a strip is at least one row
_STRIP_PIXELS = 1 << 15


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
    rows = max(1, _STRIP_PIXELS // w)
    for r0 in range(0, h, rows):
        r1 = min(r0 + rows, h)
        center = img[r0:r1]
        num = np.zeros_like(center)
        den = np.zeros_like(center)
        buf = np.empty_like(center)
        # accumulate one shifted copy of the strip per window offset
        for dy in range(-half, half + 1):
            for dx in range(-half, half + 1):
                shifted = padded[r0 + half + dy : r1 + half + dy, half + dx : half + dx + w]
                # weight = exp(-d^2 / (2 sigma_d^2) - (shifted - center)^2 / (2 sigma_r^2))
                np.subtract(shifted, center, out=buf)
                np.square(buf, out=buf)
                np.multiply(buf, inv_2sr2, out=buf)
                np.subtract(-(dy * dy + dx * dx) * inv_2sd2, buf, out=buf)
                np.exp(buf, out=buf)
                den += buf
                buf *= shifted
                num += buf
        np.divide(num, den, out=out[r0:r1])
    return out
