"""Bilateral filter: identities, Gaussian-blur limit, edge preservation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from denoisebench import bilateral
from denoisebench.bilateral import BilateralParams, bilateral_filter


def _gaussian_blur_oracle(img, sigma_d, window):
    """Truncated Gaussian convolution over the same window, reflect-101."""
    half = window // 2
    padded = np.pad(img, half, mode="reflect")
    h, w = img.shape
    num = np.zeros_like(img)
    den = 0.0
    for dy in range(-half, half + 1):
        for dx in range(-half, half + 1):
            weight = np.exp(-(dy * dy + dx * dx) / (2.0 * sigma_d**2))
            num += weight * padded[half + dy : half + dy + h, half + dx : half + dx + w]
            den += weight
    return num / den


def _bilateral_oracle(img, params):
    """Direct per-pixel double loop over the window."""
    half = params.window // 2
    padded = np.pad(img, half, mode="reflect")
    h, w = img.shape
    out = np.zeros_like(img)
    for i in range(h):
        for j in range(w):
            num = den = 0.0
            for dy in range(-half, half + 1):
                for dx in range(-half, half + 1):
                    v = padded[half + i + dy, half + j + dx]
                    weight = np.exp(
                        -(dy * dy + dx * dx) / (2.0 * params.sigma_d**2)
                        - (v - img[i, j]) ** 2 / (2.0 * params.sigma_r**2)
                    )
                    num += weight * v
                    den += weight
            out[i, j] = num / den
    return out


def _shifted_sum_oracle(img, params):
    """The untiled filter: one whole-image shifted copy per window offset."""
    half = params.window // 2
    padded = np.pad(img, half, mode="reflect")
    h, w = img.shape
    inv_2sd2 = 1.0 / (2.0 * params.sigma_d**2)
    inv_2sr2 = 1.0 / (2.0 * params.sigma_r**2)
    num = np.zeros_like(img)
    den = np.zeros_like(img)
    for dy in range(-half, half + 1):
        for dx in range(-half, half + 1):
            shifted = padded[half + dy : half + dy + h, half + dx : half + dx + w]
            weight = np.exp(
                -(dy * dy + dx * dx) * inv_2sd2 - (shifted - img) ** 2 * inv_2sr2
            )
            num += weight * shifted
            den += weight
    return num / den


def test_params_validation():
    with pytest.raises(ValueError):
        BilateralParams(sigma_d=0.0)
    with pytest.raises(ValueError):
        BilateralParams(sigma_r=-1.0)
    with pytest.raises(ValueError):
        BilateralParams(window=4)


def test_window_too_large_rejected():
    with pytest.raises(ValueError):
        bilateral_filter(np.zeros((4, 4)), BilateralParams(window=11))


def test_constant_image_unchanged():
    img = np.full((16, 16), 42.0)
    out = bilateral_filter(img, BilateralParams())
    np.testing.assert_allclose(out, 42.0, atol=1e-12)


def test_huge_sigma_r_matches_gaussian_blur():
    rng = np.random.default_rng(12)
    img = rng.uniform(0.0, 255.0, (24, 24))
    params = BilateralParams(sigma_d=1.8, sigma_r=1e9, window=11)
    got = bilateral_filter(img, params)
    want = _gaussian_blur_oracle(img, 1.8, 11)
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_step_edge_preserved():
    img = np.zeros((16, 32))
    img[:, 16:] = 255.0
    out = bilateral_filter(img, BilateralParams(sigma_d=1.8, sigma_r=20.0, window=11))
    # cross-edge weights are bounded by exp(-255^2 / (2 * 20^2)) < 1e-35
    assert np.max(np.abs(out[:, :16])) < 1.0
    assert np.max(np.abs(out[:, 16:] - 255.0)) < 1.0


def test_matches_double_loop_oracle():
    rng = np.random.default_rng(3)
    img = rng.uniform(0.0, 255.0, (10, 12))
    params = BilateralParams(sigma_d=1.5, sigma_r=25.0, window=5)
    np.testing.assert_allclose(
        bilateral_filter(img, params), _bilateral_oracle(img, params), atol=1e-12
    )


@settings(max_examples=25, deadline=None)
@given(arrays(np.float64, (8, 8), elements=st.floats(0, 255)))
def test_output_within_input_range(img):
    out = bilateral_filter(img, BilateralParams(window=7))
    assert out.min() >= img.min() - 1e-9
    assert out.max() <= img.max() + 1e-9


@settings(max_examples=25, deadline=None)
@given(arrays(np.float64, (8, 8), elements=st.floats(0, 255)), st.floats(1, 200))
def test_shift_equivariance(img, offset):
    # adding a constant commutes with the filter (weights depend on differences)
    params = BilateralParams(window=7)
    base = bilateral_filter(img, params)
    shifted = bilateral_filter(img + offset, params)
    np.testing.assert_allclose(shifted, base + offset, atol=1e-9)


@pytest.mark.parametrize(
    "shape, params",
    [
        # several strips, height not a multiple of the strip height
        ((70, 1024), BilateralParams()),
        ((37, 1200), BilateralParams(sigma_d=2.5, sigma_r=30.0, window=7)),
        # the range floor the collaborative pass hits
        ((37, 1200), BilateralParams(sigma_r=1e-6)),
        # largest allowed window, 2 * min(h, w) - 1
        ((9, 13), BilateralParams(window=17)),
        ((5, 300), BilateralParams(window=9)),
        # window 1 is the identity
        ((6, 5), BilateralParams(window=1)),
        ((1, 3), BilateralParams(window=1)),
        # narrow images: the dropped lanes between rows are most of a row
        ((50, 2), BilateralParams(window=3)),
        ((40, 7), BilateralParams(window=13)),
        ((3000, 13), BilateralParams(window=5)),
    ],
)
def test_bit_identical_to_untiled_sum(shape, params):
    rng = np.random.default_rng(sum(shape))
    img = rng.uniform(0.0, 255.0, shape)
    assert np.array_equal(bilateral_filter(img, params), _shifted_sum_oracle(img, params))


@pytest.mark.parametrize("shape, window", [((40, 7), 13), ((37, 1200), 11), ((3000, 13), 3)])
def test_bit_identical_on_integer_image(shape, window):
    # few grey levels: neighbours are often exactly equal, so at the range
    # floor every weight is exactly its spatial term or exactly 0
    img = np.random.default_rng(sum(shape)).integers(0, 4, shape).astype(np.float64)
    params = BilateralParams(sigma_r=1e-6, window=window)
    assert np.array_equal(bilateral_filter(img, params), _shifted_sum_oracle(img, params))


def test_strip_height_covers_multi_strip_cases():
    # the cases above span several strips only while strips are this small
    for (h, w), window in [((70, 1024), 11), ((37, 1200), 7), ((37, 1200), 11), ((3000, 13), 5),
                          ((3000, 13), 3)]:
        padded_width = w + 2 * (window // 2)
        assert max(1, bilateral._STRIP_PIXELS // padded_width) < h


@settings(max_examples=15, deadline=None)
@given(
    st.integers(1, 100),
    st.integers(256, 1200),
    st.sampled_from([1, 3, 5, 11]),
    st.floats(1e-6, 100.0),
    st.integers(0, 2**32 - 1),
)
def test_bit_identical_to_untiled_sum_random_shapes(h, w, window, sigma_r, seed):
    params = BilateralParams(sigma_r=sigma_r, window=min(window, 2 * h - 1))
    img = np.random.default_rng(seed).uniform(0.0, 255.0, (h, w))
    assert np.array_equal(bilateral_filter(img, params), _shifted_sum_oracle(img, params))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 100),
    st.integers(1, 40),
    st.sampled_from([1, 3, 5, 11, 13]),
    st.floats(1e-6, 100.0),
    st.integers(0, 2**32 - 1),
)
def test_bit_identical_to_untiled_sum_narrow_widths(h, w, window, sigma_r, seed):
    params = BilateralParams(sigma_r=sigma_r, window=min(window, 2 * min(h, w) - 1))
    img = np.random.default_rng(seed).uniform(0.0, 255.0, (h, w))
    assert np.array_equal(bilateral_filter(img, params), _shifted_sum_oracle(img, params))
