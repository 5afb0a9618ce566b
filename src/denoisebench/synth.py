"""Synthetic grayscale test images for self-contained benchmark runs.

The classic photographic test images are not redistributable, so the harness
ships a generator for deterministic stand-ins: a diagonal gradient, a
checkerboard and a textured-plateau image (the closest synthetic analogue
of natural image content: smooth regions, sharp edges, multi-scale detail).
"""

import numpy as np

from denoisebench.noise import gaussian_field

__all__ = ["gradient_image", "checkerboard_image", "texture_image", "default_set"]

# the make-up of the synthetic images; the docstrings say what each sets
_CHECKER_GREYS = (64.0, 192.0)
_OCTAVE_WEIGHTS = (0.5, 1.5, 4.0, 10.0, 20.0)
_EDGE_STRENGTH = 3.0
_REGIONS = 6


def gradient_image(size: int = 128) -> np.ndarray:
    """Diagonal luminance ramp covering [0, 255]."""
    ramp = np.add.outer(np.arange(size), np.arange(size)).astype(np.float64)
    return ramp * (255.0 / ramp.max())


def checkerboard_image(size: int = 128, cell: int = 8) -> np.ndarray:
    """Square checkerboard with `cell`-pixel tiles of grey levels `_CHECKER_GREYS`."""
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    return np.where(((yy // cell) + (xx // cell)) % 2 == 0, *_CHECKER_GREYS).astype(np.float64)


def _box_blur(field: np.ndarray, passes: int) -> np.ndarray:
    """Repeated periodic 3x3 box blur.

    Each pass wraps the field in a one-pixel periodic border and sums the
    nine shifted views, shift (dy, dx) being ``np.roll(field, (dy, dx), (0, 1))``.
    """
    h, w = field.shape
    for _ in range(passes):
        padded = np.pad(field, 1, mode="wrap")
        acc = np.zeros_like(field)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                acc += padded[1 - dy : 1 - dy + h, 1 - dx : 1 - dx + w]
        field = acc / 9.0
    return field


def _octave_stack(size: int, seed: int) -> np.ndarray:
    """`_OCTAVE_WEIGHTS`-weighted sum of blurred white-noise fields at halving resolutions."""
    field = np.zeros((size, size))
    for k, weight in enumerate(_OCTAVE_WEIGHTS):
        coarse = max(size >> k, 4)
        layer = _box_blur(gaussian_field(seed + k, (coarse, coarse)), passes=2)
        if coarse < size:
            layer = np.repeat(np.repeat(layer, size // coarse, axis=0), size // coarse, axis=1)
            layer = _box_blur(layer, passes=1)
        field += weight * layer
    return field


def _smooth_field(size: int, seed: int, k: int) -> np.ndarray:
    """A single heavily-blurred coarse octave, used to lay out regions."""
    coarse = max(size >> k, 4)
    layer = _box_blur(gaussian_field(seed, (coarse, coarse)), passes=2)
    layer = np.repeat(np.repeat(layer, size // coarse, axis=0), size // coarse, axis=1)
    return _box_blur(layer, passes=3)


def texture_image(size: int = 256, seed: int = 0x5EED) -> np.ndarray:
    """Natural-content stand-in: textured plateaus, rescaled to [16, 240].

    Two ingredients: a multi-octave smoothed-noise texture (`_OCTAVE_WEIGHTS`,
    finest octave first, coarse octaves dominating) and a piecewise-constant
    region map with sharp boundaries, built by rank-quantising a smooth random
    field into `_REGIONS` luminance plateaus.  The texture is normalised to
    unit standard deviation, so `_EDGE_STRENGTH` sets the step height between
    adjacent plateaus in texture-sigma units.  The mix gives smooth areas,
    strong edges and fine detail at several scales, the structures that
    differentiate edge-preserving denoisers.
    """
    texture = _octave_stack(size, seed)
    texture /= texture.std()
    layout = _smooth_field(size, seed + 50, 5) + 0.5 * _smooth_field(size, seed + 51, 4)
    ranks = np.empty(layout.size, dtype=np.intp)
    ranks[layout.argsort(axis=None)] = np.arange(layout.size)
    ranks = ranks.reshape(layout.shape) / layout.size
    plateaus = np.floor(ranks * _REGIONS) / (_REGIONS - 1) - 0.5  # in [-0.5, 0.5]
    field = texture + _EDGE_STRENGTH * plateaus * 6.0
    lo, hi = field.min(), field.max()
    return 16.0 + (field - lo) * (224.0 / (hi - lo))


def default_set() -> dict[str, np.ndarray]:
    """The CI-sized synthetic set used by the default benchmark grid."""
    return {
        "gradient128": gradient_image(128),
        "checker128": checkerboard_image(128),
        "texture256": texture_image(256),
    }
