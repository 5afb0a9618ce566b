"""Noise stream reproducibility, AWGN statistics and MAD estimation."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes

from denoisebench.metrics import psnr
from denoisebench.noise import (
    MAD_GAUSSIAN_CONSISTENCY,
    NoiseModel,
    add_awgn,
    estimate_noise_mad,
    gaussian_field,
    splitmix64_stream,
)
from denoisebench.wavelet import dwt2_haar


def _gaussian_field_oracle(seed, shape):
    """One stream, strided uniform operands, interleaved writes: the reference."""
    n = int(np.prod(shape))
    pairs = (n + 1) // 2
    bits = splitmix64_stream(seed, 2 * pairs)
    u = ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    u1, u2 = u[0::2], u[1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    z = np.empty(2 * pairs)
    z[0::2] = r * np.cos(theta)
    z[1::2] = r * np.sin(theta)
    return z[:n].reshape(shape)


def test_splitmix64_known_vectors():
    # published SplitMix64 sequence for seed 0 (Steele/Lea/Flood reference code)
    got = splitmix64_stream(0, 3)
    assert got.tolist() == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


@pytest.mark.parametrize("call", [
    lambda seed: NoiseModel(sigma=10.0, seed=seed),
    lambda seed: gaussian_field(seed, (4, 4)),
    lambda seed: splitmix64_stream(seed, 3),
], ids=["NoiseModel", "gaussian_field", "splitmix64_stream"])
@pytest.mark.parametrize("seed, message", [
    (1.5, "seed must be an integer, got 1.5"),
    (np.float64(2.0), "seed must be an integer, got np.float64(2.0)"),
    (-1, "seed must be in [0, 2**64), got -1"),
    (2**64, "seed must be in [0, 2**64), got 18446744073709551616"),
], ids=["fractional", "numpy-float", "negative", "2**64"])
def test_every_noise_entry_point_refuses_a_seed_numpy_would_cast(call, seed, message):
    # numpy would truncate a fractional seed or wrap or overflow one out of range
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(seed)


def test_splitmix64_refuses_a_negative_count():
    with pytest.raises(ValueError, match="count must be non-negative, got -1"):
        splitmix64_stream(3, -1)
    assert splitmix64_stream(3, 0).size == 0


def test_splitmix64_is_counter_based():
    # output i depends only on (seed, i): prefixes of longer streams agree
    long = splitmix64_stream(1234, 100)
    short = splitmix64_stream(1234, 10)
    np.testing.assert_array_equal(long[:10], short)


def test_gaussian_field_statistics():
    z = gaussian_field(99, (512, 512))
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    # row-major fill: flattening then reshaping differently reuses deviates
    flat = gaussian_field(99, (1, 512 * 512))
    np.testing.assert_array_equal(z.ravel(), flat.ravel())


def test_gaussian_field_odd_count():
    z = gaussian_field(5, (3, 3))
    assert z.shape == (3, 3)
    # the first 8 deviates match the even-sized stream (last pair truncated)
    np.testing.assert_array_equal(z.ravel()[:8], gaussian_field(5, (2, 4)).ravel())


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
# (300, 301) and (257, 513) span several chunks of pairs and end in a partial
# chunk; 257 * 513 is odd, so its last pair is cut in half
@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (7, 9), (1, 4097), (512, 512),
                                   (300, 301), (257, 513)])
def test_gaussian_field_matches_oracle(seed, shape):
    z = gaussian_field(seed, shape)
    assert z.shape == shape and z.dtype == np.float64
    assert np.array_equal(z, _gaussian_field_oracle(seed, shape))


@pytest.mark.parametrize("shape", [(3, 3), (300, 301), (257, 513)])
def test_noise_into_out_matches_fresh_arrays(shape):
    out = np.full(shape, np.nan)
    assert gaussian_field(7, shape, out) is out
    assert np.array_equal(out, gaussian_field(7, shape))


@pytest.mark.parametrize("out", [np.empty((3, 4)), np.empty((4, 3), np.float32),
                                 np.empty((4, 6))[:, ::2]])
def test_gaussian_field_rejects_unfit_out(out):
    with pytest.raises(ValueError, match="C-contiguous float64 array of shape"):
        gaussian_field(1, (4, 3), out)


@settings(max_examples=40)
@given(st.integers(0, 2**64 - 1), array_shapes(min_dims=2, max_dims=2, max_side=40))
def test_gaussian_field_matches_oracle_random(seed, shape):
    assert np.array_equal(gaussian_field(seed, shape), _gaussian_field_oracle(seed, shape))


def test_add_awgn_matches_oracle():
    img = np.arange(7 * 9, dtype=np.float64).reshape(7, 9) * 3.7
    for seed, sigma in ((0, 25.0), (2**64 - 1, 0.3), (12345, 17.125)):
        noisy = add_awgn(img, NoiseModel(sigma=sigma, seed=seed))
        assert np.array_equal(noisy, img + sigma * _gaussian_field_oracle(seed, img.shape))


def test_add_awgn_leaves_input_alone_and_accepts_any_layout():
    model = NoiseModel(sigma=12.5, seed=3)
    img = np.linspace(0.0, 255.0, 48).reshape(6, 8)
    before = img.copy()
    noisy = add_awgn(img, model)
    assert np.array_equal(img, before)
    assert noisy is not img and not np.shares_memory(noisy, img)

    pixels = np.arange(48, dtype=np.uint8).reshape(6, 8)
    expected = pixels.astype(np.float64) + 12.5 * _gaussian_field_oracle(3, (6, 8))
    assert np.array_equal(add_awgn(pixels, model), expected)

    wide = np.arange(6 * 16, dtype=np.float64).reshape(16, 6)
    view = wide.T[:, ::2]  # (6, 8), neither C- nor F-contiguous
    assert not view.flags.c_contiguous and not view.flags.f_contiguous
    expected = np.ascontiguousarray(view) + 12.5 * _gaussian_field_oracle(3, (6, 8))
    assert np.array_equal(add_awgn(view, model), expected)
    assert np.array_equal(wide, np.arange(6 * 16, dtype=np.float64).reshape(16, 6))


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(sigma=0.0, seed=1)
    with pytest.raises(ValueError):
        NoiseModel(sigma=10.0, seed=-1)
    with pytest.raises(ValueError):
        NoiseModel(sigma=10.0, seed=2**64)
    # an infinite sigma gives an image of +-inf; a fractional seed would be truncated
    with pytest.raises(ValueError, match="finite"):
        NoiseModel(sigma=np.inf, seed=1)
    with pytest.raises(ValueError, match="integer"):
        NoiseModel(sigma=10.0, seed=1.5)
    # numpy integers are integers
    NoiseModel(sigma=10.0, seed=np.uint64(2**64 - 1))


def test_add_awgn_moments_on_constant_image():
    clean = np.full((256, 256), 128.0)
    noisy = add_awgn(clean, NoiseModel(sigma=20.0, seed=7))
    assert abs(noisy.mean() - 128.0) < 0.5
    assert abs(noisy.std() - 20.0) < 0.5


def test_add_awgn_deterministic():
    clean = np.full((64, 64), 100.0)
    a = add_awgn(clean, NoiseModel(sigma=15.0, seed=42))
    b = add_awgn(clean, NoiseModel(sigma=15.0, seed=42))
    np.testing.assert_array_equal(a, b)
    c = add_awgn(clean, NoiseModel(sigma=15.0, seed=43))
    assert not np.array_equal(a, c)


def test_add_awgn_unclamped_mse_and_psnr():
    clean = np.zeros((512, 512))
    noisy = add_awgn(clean, NoiseModel(sigma=10.0, seed=11))
    mse = float(np.mean(noisy**2))
    assert abs(mse - 100.0) < 2.0  # within 2% of sigma^2
    # clamping the zero-mean noise at 0 halves the error energy: +3 dB
    expected = 20.0 * np.log10(255.0 / 10.0)
    assert psnr(clean, noisy) == pytest.approx(expected + 3.01, abs=0.1)


def test_mad_hand_example():
    est = estimate_noise_mad([-3.0, -1.0, 0.0, 1.0, 3.0])
    assert est == pytest.approx(1.0 / 0.6745)
    assert est == pytest.approx(1.4826, abs=5e-4)


def test_mad_zero_and_empty():
    assert estimate_noise_mad(np.zeros((4, 4))) == 0.0
    with pytest.raises(ValueError):
        estimate_noise_mad(np.zeros((0,)))


def test_mad_constant_value():
    assert MAD_GAUSSIAN_CONSISTENCY == 0.6745


def _mad_oracle(coeffs):
    """The np.median formula the partition-based estimate must reproduce exactly."""
    return float(np.median(np.abs(np.asarray(coeffs, dtype=np.float64))) / MAD_GAUSSIAN_CONSISTENCY)


def _mad_cases():
    rng = np.random.default_rng(9)
    for n in (1, 2, 3, 4, 7, 8, 255, 256, 1023, 4096):
        yield rng.normal(0.0, 10.0, n)
        yield rng.integers(-3, 4, n).astype(np.float64)  # heavy ties
        sparse = rng.normal(0.0, 10.0, n)
        sparse[rng.random(n) < 0.8] = 0.0  # a band soft thresholding mostly zeroed
        yield sparse
        signed = rng.normal(0.0, 1.0, n)
        signed[rng.random(n) < 0.5] = -0.0
        yield signed
        spiky = rng.normal(0.0, 1.0, n)
        spiky[rng.random(n) < 0.3] = np.inf
        spiky[rng.random(n) < 0.2] = -np.inf
        yield spiky
        yield rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-320, 300, n)  # subnormal to huge
    yield np.zeros(6)
    yield np.full(5, -0.0)
    yield np.array([np.inf, -np.inf])
    yield rng.normal(0.0, 10.0, (64, 48))


def test_mad_equals_median_formula_exactly():
    for coeffs in _mad_cases():
        assert estimate_noise_mad(coeffs) == _mad_oracle(coeffs), coeffs.shape


def test_mad_nan_gives_nan():
    for n in (1, 2, 7, 8, 256):
        coeffs = np.random.default_rng(n).normal(0.0, 10.0, n)
        coeffs[n // 3] = np.nan
        assert np.isnan(estimate_noise_mad(coeffs))


def test_mad_of_view_leaves_caller_array_alone():
    grid = np.random.default_rng(4).normal(0.0, 10.0, (64, 64))
    grid[::3, ::5] = 0.0
    before = grid.copy()
    for view in (grid[::2, 1::2], grid.T, grid[5:37, 3:60]):
        assert not view.flags.c_contiguous
        assert estimate_noise_mad(view) == _mad_oracle(view)
    np.testing.assert_array_equal(grid, before)


def test_mad_on_finest_diagonal_band_of_pure_noise():
    estimates = []
    for seed in range(10):
        noise = 10.0 * gaussian_field(seed, (256, 256))
        estimates.append(estimate_noise_mad(dwt2_haar(noise).hh))
    mean = float(np.mean(estimates))
    assert abs(mean - 10.0) / 10.0 < 0.05


@settings(max_examples=25)
@given(st.integers(0, 2**64 - 1), st.floats(0.5, 60.0))
def test_awgn_scale_linearity(seed, sigma):
    clean = np.zeros((8, 8))
    unit = add_awgn(clean, NoiseModel(sigma=1.0, seed=seed))
    scaled = add_awgn(clean, NoiseModel(sigma=sigma, seed=seed))
    np.testing.assert_allclose(scaled, sigma * unit, rtol=1e-12, atol=1e-12)
