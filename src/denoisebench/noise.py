"""Seedable Gaussian noise injection and MAD noise-level estimation.

Reproducibility contract
------------------------
Noise fields are generated by a counter-based SplitMix64 stream (Steele,
Lea & Flood 2014) feeding a Box-Muller transform:

* 64-bit output i: ``z = seed + (i + 1) * 0x9E3779B97F4A7C15`` (mod 2^64),
  then the SplitMix64 finalizer
  ``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
  z *= 0x94D049BB133111EB; z ^= z >> 31``.
* uniform i in (0, 1): ``((output_i >> 11) + 0.5) * 2**-53``.
* Gaussian pair k (from uniforms 2k, 2k+1):
  ``r = sqrt(-2 ln u_{2k})``; ``z_{2k} = r cos(2 pi u_{2k+1})``,
  ``z_{2k+1} = r sin(2 pi u_{2k+1})``.
* Deviates fill the image in row-major pixel order.

Every step is a pure function of (seed, index), so the same (image shape,
sigma, seed) always reproduces the identical noise field with the same
numpy, C library and CPU features.  The integer stream and the uniforms are
exact on every machine.  The Gaussian deviates are not: ``np.log`` has SIMD
kernels chosen at run time by CPU, and ``np.sin``/``np.cos`` come from the C
library, so last bits may differ between hosts (on one AVX-512 host, 756 of
200 000 ``np.log`` values differ from Python's ``math.log``).

Because output i depends only on (seed, i), the uniforms are drawn as two
contiguous runs, ``u_{2k}`` from outputs 0, 2, 4, ... and ``u_{2k+1}`` from
outputs 1, 3, 5, ...; this changes no value.  A field is filled in chunks of
32 Ki pairs, each drawing its own two runs, so the work arrays stay small
whatever the image size.

Chunk contract: a noisy image (``add_awgn``) is filled by the same chunks,
each writing ``image + sigma * field`` over its own pixels of one output
array, so any threads may fill one image, each chunk once, in any order,
and get the same bits; a thread that only fills chunks holds no image-sized
memory of its own.  ``_NoisyImage`` is that image: ``fill`` pops chunks from
its deque, keeping a chunk's error, and ``take`` hands the image over or
raises the error.
"""

import collections
import operator
from dataclasses import dataclass

import numpy as np

from denoisebench.imagecore import as_image

__all__ = [
    "NoiseModel",
    "splitmix64_stream",
    "gaussian_field",
    "add_awgn",
    "estimate_noise_mad",
    "MAD_GAUSSIAN_CONSISTENCY",
]

# SplitMix64's counter increment and its finalizer's two multipliers
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1

# Gaussian pairs per chunk of a noise field
_CHUNK_PAIRS = 1 << 15

# Standard Gaussian consistency constant for the median absolute deviation
# (Phi^{-1}(3/4)).  Kept as a named constant so alternative conventions can
# be swapped in one place.
MAD_GAUSSIAN_CONSISTENCY = 0.6745


def _seed_int(seed) -> int:
    """`seed` as an int; ValueError unless it is an integer."""
    try:
        return operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be an integer, got {seed!r}") from None


def _check_seed(seed) -> None:
    """ValueError unless `seed` is an integer in [0, 2**64), which numpy takes unchanged."""
    if not 0 <= _seed_int(seed) < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


@dataclass(frozen=True)
class NoiseModel:
    """Additive white Gaussian noise: standard deviation plus stream seed."""

    sigma: float
    seed: int

    def __post_init__(self):
        if not 0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        _check_seed(self.seed)


def _splitmix64(seed: int, z: np.ndarray, tmp: np.ndarray) -> None:
    """Replace the uint64 counters in `z` by their SplitMix64 outputs, in place.

    `tmp` is a uint64 work array of the same shape; its contents are lost.
    """
    with np.errstate(over="ignore"):
        z *= np.uint64(_GOLDEN)
        z += np.uint64(seed)
        np.right_shift(z, np.uint64(30), out=tmp)
        z ^= tmp
        z *= np.uint64(_MIX1)
        np.right_shift(z, np.uint64(27), out=tmp)
        z ^= tmp
        z *= np.uint64(_MIX2)
        np.right_shift(z, np.uint64(31), out=tmp)
        z ^= tmp


def _splitmix64_first(seed: int) -> int:
    """The first output of the SplitMix64 stream for `seed` in [0, 2**64),
    ``int(splitmix64_stream(seed, 1)[0])``, in Python ints."""
    z = (seed + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def splitmix64_stream(seed: int, count: int) -> np.ndarray:
    """First `count` outputs of the SplitMix64 stream for `seed`, as uint64."""
    _check_seed(seed)
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    z = np.arange(1, count + 1, dtype=np.uint64)
    _splitmix64(seed, z, np.empty_like(z))
    return z


def _uniforms(seed: int, j: int, k0: int, work: np.ndarray) -> np.ndarray:
    """Uniforms u_{2k+j} for k0 <= k < k0 + work.size (j is 0 or 1), as one run.

    `work` is a float64 work array; its contents are lost.  The result
    reuses the memory of the run's counters.
    """
    bits = np.arange(2 * k0 + j + 1, 2 * (k0 + work.size) + 1, 2, dtype=np.uint64)
    _splitmix64(seed, bits, work.view(np.uint64))
    bits >>= np.uint64(11)
    np.add(bits, 0.5, out=work)
    u = bits.view(np.float64)
    np.multiply(work, 2.0**-53, out=u)
    return u


def _noise_chunks(size: int) -> range:
    """First Gaussian pair of each chunk of a noise field of `size` deviates."""
    return range(0, (size + 1) // 2, _CHUNK_PAIRS)


def _gaussian_chunk(seed: int, k0: int, dest: np.ndarray) -> None:
    """Write deviates 2*k0 onwards of the field for `seed` into the 1-D `dest`."""
    # row k of `rows` holds deviates 2k and 2k+1; an odd last deviate is
    # paired in a spare array and copied out
    odd = dest.size % 2
    rows = np.empty((dest.size // 2 + 1, 2)) if odd else dest.reshape(-1, 2)
    # until cos and sin fill these rows, their first half is the runs' work array
    work = rows.ravel()[: len(rows)]
    r = _uniforms(seed, 0, k0, work)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta = _uniforms(seed, 1, k0, work)
    theta *= 2.0 * np.pi
    np.cos(theta, out=rows[:, 0])
    np.sin(theta, out=rows[:, 1])
    rows[:, 0] *= r
    rows[:, 1] *= r
    if odd:
        dest[:] = rows.ravel()[: dest.size]


def gaussian_field(seed: int, shape: tuple[int, int], out: np.ndarray | None = None) -> np.ndarray:
    """Standard-normal field of the given shape, filled in row-major order.

    `out`, if given, is a C-contiguous float64 array of that shape; the field
    is written there and `out` is returned.
    """
    _check_seed(seed)
    if out is None:
        out = np.empty(shape)
    elif out.shape != tuple(shape) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {tuple(shape)}")
    flat = out.reshape(-1)
    for k0 in _noise_chunks(out.size):
        _gaussian_chunk(seed, k0, flat[2 * k0 : 2 * (k0 + _CHUNK_PAIRS)])
    return out


def _add_awgn_chunk(image: np.ndarray, model: NoiseModel, out: np.ndarray, k0: int) -> None:
    """Write the chunk of ``add_awgn(image, model)`` at pair `k0` into `out`, reading and
    writing only its own pixels of the two C-contiguous float64 arrays."""
    lo, hi = 2 * k0, 2 * (k0 + _CHUNK_PAIRS)
    dest = out.reshape(-1)[lo:hi]
    _gaussian_chunk(model.seed, k0, dest)
    dest *= model.sigma
    dest += image.reshape(-1)[lo:hi]


class _NoisyImage:
    """``add_awgn(image, model)``, for `image` as ``as_image`` returns it, as a deque of chunks."""

    def __init__(self, image: np.ndarray, model: NoiseModel):
        self.image = image
        self.model = model
        self.out = np.empty(image.shape)
        self.chunks = collections.deque(_noise_chunks(image.size))
        self.error: Exception | None = None

    def fill(self, until=None) -> None:
        """Fill chunks until none is left, an error is kept or `until()` is true."""
        while self.error is None and not (until and until()):
            try:
                k0 = self.chunks.popleft()
            except IndexError:
                return
            try:
                _add_awgn_chunk(self.image, self.model, self.out, k0)
            except Exception as exc:
                # a traceback would keep the failed chunk's view of `out` alive
                self.error = exc.with_traceback(None)

    def take(self) -> np.ndarray:
        """Hand the filled image over, keeping no hold on it, or raise a chunk's error."""
        if self.error is not None:
            self.out = None
            raise self.error
        out, self.out = self.out, None
        return out


def add_awgn(image, model: NoiseModel) -> np.ndarray:
    """Add i.i.d. N(0, sigma^2) noise per pixel.  Output is not clamped."""
    noisy = _NoisyImage(as_image(image), model)
    noisy.fill()
    return noisy.take()


def estimate_noise_mad(finest_hh) -> float:
    """Noise std estimate: median(|coefficients|) / 0.6745.

    Applied to the finest diagonal detail band of an orthonormal wavelet
    decomposition, where noise dominates the coefficients.

    The median is found by one in-place partition of the magnitudes, and
    for an even count is the mean of the middle pair, as ``np.median``
    computes it.  A NaN coefficient leaves the result to ``np.median``,
    which returns NaN.
    """
    coeffs = np.asarray(finest_hh, dtype=np.float64)
    if coeffs.size == 0:
        raise ValueError("cannot estimate noise from an empty coefficient grid")
    mags = np.abs(coeffs).reshape(-1)
    if np.isnan(mags.max()):
        return float(np.median(mags) / MAD_GAUSSIAN_CONSISTENCY)
    k = mags.size // 2
    # non-negative doubles other than NaN order as their IEEE 754 bit
    # patterns do, and numpy partitions int64 about twice as fast as float64
    mags.view(np.int64).partition(k)
    median = mags[k] if mags.size % 2 else (mags[:k].max() + mags[k]) / 2.0
    return float(median / MAD_GAUSSIAN_CONSISTENCY)
