"""Synthetic grayscale test images for self-contained benchmark runs.

The classic photographic test images are not redistributable, so the harness
ships a generator for deterministic stand-ins: a diagonal gradient, a
checkerboard and a textured-plateau image (the closest synthetic analogue
of natural image content: smooth regions, sharp edges, multi-scale detail).
"""

import numpy as np

from denoisebench.imagecore import _padded_lanes
from denoisebench.noise import _seed_int, gaussian_field

__all__ = ["gradient_image", "checkerboard_image", "texture_image", "default_set"]

# the make-up of the synthetic images; the docstrings say what each sets
_CHECKER_GREYS = (64.0, 192.0)
_OCTAVE_WEIGHTS = (0.5, 1.5, 4.0, 10.0, 20.0)
_EDGE_STRENGTH = 3.0
_REGIONS = 6
# lanes per row block of _box_blur: a block's operands fit in a 2 MiB L2
_BLUR_LANES = 1 << 15
# ranks quantised per step of _plateau_map
_RANK_CHUNK = 1 << 16


def gradient_image(size: int = 128) -> np.ndarray:
    """Diagonal luminance ramp covering [0, 255]."""
    if size < 2:
        raise ValueError(f"gradient size {size} must be at least 2 to span [0, 255]")
    ramp = np.add.outer(np.arange(size), np.arange(size)).astype(np.float64)
    return ramp * (255.0 / ramp.max())


def checkerboard_image(size: int = 128, cell: int = 8) -> np.ndarray:
    """Square checkerboard with `cell`-pixel tiles of grey levels `_CHECKER_GREYS`."""
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    return np.where(((yy // cell) + (xx // cell)) % 2 == 0, *_CHECKER_GREYS).astype(np.float64)


def _box_blur(field: np.ndarray, passes: int, out: np.ndarray | None = None,
              pad: np.ndarray | None = None) -> np.ndarray:
    """Repeated periodic 3x3 box blur, written to `out` (a new array if None).

    Each pass copies the field, with a one-pixel periodic border, into the
    flat float64 buffer `pad` (a new one if None; at least ``(h + 2) * (w + 2)``
    elements, so one buffer serves every pass and every smaller field) in the
    lane layout of ``imagecore._padded_lanes``.  It sums the nine shifts
    ``np.roll(field, (dy, dx), (0, 1))``, which read window offsets ``(1 - dy,
    1 - dx)`` and so run in descending order, into a zero-started sum in row
    blocks of about ``_BLUR_LANES`` lanes that stay in cache, and divides it
    by 9: a sum over whole shifted images, operation for operation.  Every
    pass reads only the padded copy, so `out` may be `field` itself.
    """
    h, w = field.shape
    pw = w + 2
    if out is None:
        out = np.empty_like(field)
    if pad is None:
        pad = np.empty((h + 2) * pw)
    rows = max(1, _BLUR_LANES // pw)
    acc = np.empty(min(rows, h) * pw)
    offsets = [dy * pw + dx for dy in (2, 1, 0) for dx in (2, 1, 0)]
    src = field
    for _ in range(passes):
        _padded_lanes(src, 0, h, 1, pad, wrap=True)
        for r0 in range(0, h, rows):
            r1 = min(r0 + rows, h)
            lanes = (r1 - r0 - 1) * pw + w
            run = acc[:lanes]
            run[:] = 0.0
            for offset in offsets:
                run += pad[r0 * pw + offset : r0 * pw + offset + lanes]
            np.divide(acc[: (r1 - r0) * pw].reshape(r1 - r0, pw)[:, :w], 9.0, out=out[r0:r1])
        src = out
    return out


def _noise_layer(seed: int, coarse: int, passes: int, out: np.ndarray, pad: np.ndarray) -> np.ndarray:
    """White noise drawn at `coarse` x `coarse`, blurred twice, upsampled by
    pixel repetition into the square `out` and blurred `passes` more times.

    `pad` is the `_box_blur` buffer for a field the size of `out`.
    """
    size = len(out)
    if coarse == size:
        return _box_blur(gaussian_field(seed, out.shape, out), 2 + passes, out, pad)
    noise = gaussian_field(seed, (coarse, coarse))
    f = size // coarse
    out.reshape(coarse, f, coarse, f)[...] = _box_blur(noise, 2, noise, pad)[:, None, :, None]
    return _box_blur(out, passes, out, pad)


def _plateau_map(size: int, seed: int) -> np.ndarray:
    """Plateau index 0.._REGIONS-1 of every pixel, as int8.

    A smooth random layout field is rank-quantised: the pixel of rank r
    lies on plateau ``floor(r / size**2 * _REGIONS)``.  The field's
    upsampled blocks tie, up to 100 pixels to a value, so the image follows
    the order numpy's default argsort gives ties; a stable sort would put
    some of them on another plateau.
    """
    pad = np.empty((size + 2) ** 2)
    layout = _noise_layer(seed + 50, max(size >> 5, 4), 3, np.empty((size, size)), pad)
    detail = _noise_layer(seed + 51, max(size >> 4, 4), 3, np.empty((size, size)), pad)
    detail *= 0.5
    layout += detail
    del detail, pad
    n = layout.size
    order = layout.argsort(axis=None)
    del layout
    plateau = np.empty(n, dtype=np.int8)
    for r0 in range(0, n, _RANK_CHUNK):
        ranks = np.arange(r0, min(r0 + _RANK_CHUNK, n)) / n
        ranks *= _REGIONS
        plateau[order[r0 : r0 + _RANK_CHUNK]] = np.floor(ranks)
    return plateau.reshape(size, size)


def _octave_stack(size: int, seed: int) -> np.ndarray:
    """`_OCTAVE_WEIGHTS`-weighted sum of blurred white-noise fields at halving resolutions."""
    field = np.zeros((size, size))
    layer = np.empty((size, size))
    pad = np.empty((size + 2) ** 2)
    for k, weight in enumerate(_OCTAVE_WEIGHTS):
        coarse = max(size >> k, 4)
        _noise_layer(seed + k, coarse, 1 if coarse < size else 0, layer, pad)
        layer *= weight
        field += layer
    return field


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

    `size` must be at least 4 and divisible by every octave's coarse side
    ``max(size >> k, 4)``, k = 0..5 (so any power of two from 4 up), and
    `seed` an integer in [0, 2**64 - 52]; anything else raises ValueError.
    The region map is built first and kept as one byte per pixel, and every
    step after it works in place, so from 512x512 up the call holds under
    3.75 image copies at its peak.
    """
    # coarse sides of the octaves (k = 0-4) and of the layout fields (k = 4, 5)
    if size < 4 or any(size % max(size >> k, 4) for k in range(6)):
        raise ValueError(f"texture size {size} must be at least 4 and divisible by "
                         f"max(size >> k, 4) for k = 0..5, each octave's coarse side")
    # a non-integer fails here, not at the first field, whose error would name seed + 50
    if not 0 <= _seed_int(seed) <= 2**64 - 52:
        raise ValueError(f"texture seed {seed} must be in [0, 2**64 - 52]: "
                         f"the image draws noise at seeds seed .. seed + 51")
    plateau = _plateau_map(size, seed)
    field = _octave_stack(size, seed)
    field /= field.std()
    steps = (np.arange(_REGIONS, dtype=np.float64) / (_REGIONS - 1) - 0.5) * _EDGE_STRENGTH * 6.0
    field += steps[plateau]  # plateau levels in [-0.5, 0.5], scaled
    lo, hi = field.min(), field.max()
    field -= lo
    field *= 224.0 / (hi - lo)
    field += 16.0
    return field


def default_set() -> dict[str, np.ndarray]:
    """The CI-sized synthetic set used by the default benchmark grid."""
    return {
        "gradient128": gradient_image(128),
        "checker128": checkerboard_image(128),
        "texture256": texture_image(256),
    }
