"""Thresholding rules and the four shrinkage estimators against oracles."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from denoisebench import shrinkage
from denoisebench.noise import gaussian_field
from denoisebench.shrinkage import (
    apply_threshold,
    band_stats,
    bayes_threshold,
    neigh_shrink,
    sure_threshold,
    visu_threshold,
)


def test_hard_threshold_hand_example():
    out = apply_threshold([-3.0, -1.0, 0.0, 2.0, 5.0], 2.0, soft=False)
    assert out.tolist() == [-3.0, 0.0, 0.0, 0.0, 5.0]  # |2| is not > 2


def test_soft_threshold_hand_example():
    out = apply_threshold([-3.0, -1.0, 0.0, 2.0, 5.0], 2.0, soft=True)
    assert out.tolist() == [-1.0, 0.0, 0.0, 0.0, 3.0]


def test_threshold_zero_is_identity():
    x = np.array([-2.5, 0.0, 7.0])
    for soft in (False, True):
        np.testing.assert_array_equal(apply_threshold(x, 0.0, soft), x)


def test_threshold_rule_validation():
    for soft in (False, True):
        with pytest.raises(ValueError, match="threshold must be non-negative"):
            apply_threshold([1.0], -1.0, soft)


@given(arrays(np.float64, 20, elements=st.floats(-50, 50)), st.floats(0, 10))
def test_soft_threshold_is_contraction(x, t):
    out = apply_threshold(x, t, soft=True)
    assert np.all(np.abs(out) <= np.abs(x) + 1e-12)
    assert np.all(np.sign(out) * np.sign(x) >= 0)


def test_visu_threshold_values():
    assert visu_threshold(10.0, 262144) == pytest.approx(49.953, abs=5e-4)
    assert visu_threshold(0.0, 1000) == 0.0
    assert visu_threshold(5.0, 1) == 0.0  # ln 1 = 0
    with pytest.raises(ValueError):
        visu_threshold(10.0, 0)


def _sure_brute_force(band, sigma):
    """Exhaustive SURE search over {0} + {|w_i|}, evaluating the risk directly."""
    w = np.asarray(band, dtype=np.float64).ravel() / sigma
    n = w.size
    universal = math.sqrt(2.0 * math.log(n))
    candidates = np.concatenate(([0.0], np.sort(np.abs(w))))
    best_t, best_risk = 0.0, math.inf
    for t in candidates:
        risk = n - 2.0 * np.count_nonzero(np.abs(w) <= t) + np.sum(
            np.minimum(np.abs(w), t) ** 2
        )
        if risk < best_risk:
            best_risk, best_t = risk, t
    return sigma * min(best_t, universal)


def test_sure_matches_brute_force_on_random_bands():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(4, 257))
        scale = float(rng.uniform(0.5, 8.0))
        band = rng.normal(0.0, scale, n)
        sigma = float(rng.uniform(0.5, 3.0))
        got = sure_threshold(band, sigma)
        want = _sure_brute_force(band, sigma)
        # the hybrid fallback path returns the universal threshold instead
        w = band / sigma
        sparsity = (np.sum(w**2) - n) / n
        if sparsity <= math.log2(n) ** 1.5 / math.sqrt(n):
            want = sigma * math.sqrt(2.0 * math.log(n))
        assert got == pytest.approx(want, rel=1e-12)


def _sure_risks(absw_sorted):
    """SURE(t) at every candidate t in {0} + sorted |w|, all at once with
    cumulative sums, in the operation order ``sure_threshold`` keeps."""
    n = absw_sorted.size
    cum = np.concatenate(([0.0], np.cumsum(absw_sorted**2)))
    t = np.concatenate(([0.0], absw_sorted))
    below = np.concatenate(([0], np.searchsorted(absw_sorted, t[1:], side="right")))
    with np.errstate(invalid="ignore"):  # 0 * inf where an infinite coefficient is the candidate
        return n - 2.0 * below + (cum[below] + (n - below) * t**2)


def _sure_oracle(band, sigma):
    """SureShrink from the whole risk curve: the reference for ``sure_threshold``'s bits."""
    x = np.asarray(band, dtype=np.float64).ravel()
    n = x.size
    w = x / sigma
    universal = math.sqrt(2.0 * math.log(n))
    sparsity = (np.sum(w**2) - n) / n
    if sparsity <= math.log2(n) ** 1.5 / math.sqrt(n):
        return sigma * universal
    absw = np.sort(np.abs(w))
    t = np.concatenate(([0.0], absw))
    return sigma * min(t[int(np.argmin(_sure_risks(absw)))], universal)


def _same_float(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _sure_test_bands(rng, sizes):
    """Dense bands of each size: Gaussian, rounded (long runs of ties, some
    across block ends), with zeros, with +-inf, and with NaN."""
    for n in sizes:
        band = rng.normal(0.0, float(rng.uniform(1.5, 8.0)), n)
        yield band
        yield np.round(band / 2.0)
        zeros = band.copy()
        zeros[rng.random(n) < 0.3] = 0.0
        yield zeros
        infinite = band.copy()
        infinite[rng.random(n) < 0.01] = np.inf
        infinite[rng.random(n) < 0.01] = -np.inf
        yield infinite
        nan = band.copy()
        nan[rng.random(n) < 0.002] = np.nan
        yield nan


def test_sure_equals_cumulative_sum_oracle_bit_for_bit():
    rng = np.random.default_rng(33)
    block = shrinkage._SURE_BLOCK
    sizes = [1, 2, 3, 5, 64, 257, block - 1, block, block + 1, 2 * block + 3, 3 * block, 65536]
    sizes += [int(n) for n in rng.integers(1, 65537, 8)]
    with np.errstate(invalid="ignore"):
        for band in _sure_test_bands(rng, sizes):
            sigma = float(rng.uniform(0.5, 2.0))
            got, want = sure_threshold(band, sigma), _sure_oracle(band, sigma)
            assert _same_float(got, want), (band.size, got, want)
        # every block a handful of candidates, so most runs of ties cross a
        # block end; each block's least risk is the curve's, to the bit
        for small in (1, 2, 3, 7):
            shrinkage._SURE_BLOCK = small
            try:
                for band in _sure_test_bands(rng, [int(n) for n in rng.integers(1, 80, 20)]):
                    got, want = sure_threshold(band, 1.0), _sure_oracle(band, 1.0)
                    assert _same_float(got, want), (small, band.size, got, want)
                    w = np.sort(np.abs(band))
                    risks = _sure_risks(w)
                    cum = np.concatenate(([0.0], np.cumsum(w**2)))
                    for s in range(0, w.size, small):
                        k, risk = shrinkage._sure_block(w, cum, s, min(s + small, w.size))
                        want = risks[s + 1 : s + 1 + small]
                        assert k == np.argmin(want) and _same_float(risk, want[k])
            finally:
                shrinkage._SURE_BLOCK = block


def test_sure_on_one_value_repeated_across_blocks():
    # one run of ties over three blocks, before and after a run of larger values
    n = 3 * shrinkage._SURE_BLOCK + 5
    for value in (0.0, 3.0, np.inf):
        band = np.full(n, value)
        band[::3] = 5.0
        with np.errstate(invalid="ignore"):
            assert _same_float(sure_threshold(band, 1.0), _sure_oracle(band, 1.0))


def test_sure_pure_noise_falls_back_to_universal():
    band = gaussian_field(3, (64, 64)).ravel()[:4096]
    got = sure_threshold(band, 1.0)
    assert got == pytest.approx(math.sqrt(2.0 * math.log(4096)), rel=1e-12)
    assert got == pytest.approx(4.08, abs=5e-3)


def test_sure_strong_signal_keeps_everything():
    band = np.full(256, 100.0)
    band[1::2] = -100.0
    assert sure_threshold(band, 1.0) == 0.0


def test_sure_never_exceeds_universal_cap():
    rng = np.random.default_rng(5)
    for _ in range(50):
        band = rng.normal(0, rng.uniform(0.1, 20.0), 128)
        sigma = rng.uniform(0.2, 5.0)
        assert sure_threshold(band, sigma) <= visu_threshold(sigma, 128) + 1e-12


def test_band_stats_hand_example():
    assert band_stats([3.0, -3.0, 3.0, -3.0], sigma_n=0.0) == 3.0
    assert band_stats([5.0, -5.0, 5.0, -5.0], sigma_n=3.0) == 4.0  # sqrt(25 - 9)
    assert band_stats(np.zeros(16), sigma_n=0.0) == 0.0


def test_band_stats_pure_noise_has_no_signal():
    band = 4.0 * gaussian_field(8, (256, 256))
    assert band_stats(band, sigma_n=4.0) < 0.4  # sigma_w^2 ~ sigma_n^2, residual is sampling error


def test_bayes_threshold_hand_example():
    assert bayes_threshold(10.0, 20.0) == pytest.approx(5.0)


def test_bayes_threshold_sentinels():
    no_signal = band_stats(np.full(8, 0.5), sigma_n=10.0)  # sigma_w < sigma_n
    assert no_signal == 0.0
    t = bayes_threshold(10.0, no_signal)
    assert math.isinf(t)
    # +inf soft threshold zeroes the whole band
    zeroed = apply_threshold(np.array([1e6, -3.0]), t, soft=True)
    assert not zeroed.any()
    assert bayes_threshold(0.0, band_stats([3.0, -3.0], sigma_n=0.0)) == 0.0


def _neigh_brute_force(band, t_u, window):
    """Direct triple-loop neighborhood sum with reflect-101 borders."""
    y = np.asarray(band, dtype=np.float64)
    h, w = y.shape
    half = window // 2
    out = np.zeros_like(y)
    for i in range(h):
        for j in range(w):
            s2 = 0.0
            for di in range(-half, half + 1):
                for dj in range(-half, half + 1):
                    ii, jj = i + di, j + dj
                    if ii < 0:
                        ii = -ii
                    if ii >= h:
                        ii = 2 * (h - 1) - ii
                    if jj < 0:
                        jj = -jj
                    if jj >= w:
                        jj = 2 * (w - 1) - jj
                    s2 += y[ii, jj] ** 2
            factor = max(1.0 - t_u**2 / s2, 0.0) if s2 > 0 else 0.0
            out[i, j] = factor * y[i, j]
    return out


def _neigh_shrink_oracle(band, t_universal, window=3):
    """NeighShrink as a sum over shifted whole images: the reference for neigh_shrink."""
    y = np.asarray(band, dtype=np.float64)
    if t_universal == 0:
        return y.copy()
    half = window // 2
    padded = np.pad(y**2, half, mode="reflect")
    s2 = np.zeros_like(y)
    for dy in range(window):
        for dx in range(window):
            s2 += padded[dy : dy + y.shape[0], dx : dx + y.shape[1]]
    factor = np.zeros_like(y)
    np.divide(t_universal**2, s2, out=factor, where=s2 > 0)
    return np.maximum(1.0 - factor, 0.0) * y


@pytest.mark.parametrize("window", [1, 3, 5])
def test_neigh_equals_oracle_bit_for_bit(window):
    rng = np.random.default_rng(window)
    # 1-row and 1-column bands keep numpy's reflect rule for a side shorter than the window
    shapes = [(1, 1), (1, 9), (9, 1), (2, 5), (6, 4), (11, 7), (64, 64)]
    for shape in shapes:
        for t_u in (0.5, 3.0, 1e-3):
            band = rng.normal(0.0, 2.0, shape)
            draw = rng.random(shape)
            # zeros, negative zeros, and squares that underflow to 0
            band[draw < 0.2] = 0.0
            band[(draw >= 0.2) & (draw < 0.3)] = -0.0
            band[(draw >= 0.3) & (draw < 0.4)] = 1e-170
            if shape == (64, 64):
                band[10:20, 10:20] = 0.0  # all-zero windows
            got, want = neigh_shrink(band, t_u, window), _neigh_shrink_oracle(band, t_u, window)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
def test_neigh_on_an_empty_band(shape):
    band = np.zeros(shape)
    out = neigh_shrink(band, 1.0, 1)
    assert out.shape == shape and out.dtype == np.float64
    # a wider window has no samples to mirror into its border
    with pytest.raises(ValueError):
        neigh_shrink(band, 1.0, 3)


def test_neigh_matches_brute_force():
    rng = np.random.default_rng(77)
    for _ in range(20):
        band = rng.normal(0.0, 5.0, (8, 8))
        t_u = float(rng.uniform(0.0, 15.0))
        got = neigh_shrink(band, t_u, 3)
        np.testing.assert_allclose(got, _neigh_brute_force(band, t_u, 3), atol=1e-12)


def test_neigh_halves_at_double_energy():
    # isolated coefficient whose window energy is exactly 2 T_u^2
    band = np.zeros((9, 9))
    band[4, 4] = 2.0
    t_u = math.sqrt(2.0)  # S2 = 4 = 2 t_u^2 -> factor 0.5
    out = neigh_shrink(band, t_u, 3)
    assert out[4, 4] == pytest.approx(1.0)


def test_neigh_clamps_and_identity():
    band = np.zeros((5, 5))
    band[2, 2] = 1.0
    assert not neigh_shrink(band, 10.0, 3).any()  # S2 <= T_u^2 everywhere
    np.testing.assert_array_equal(neigh_shrink(band, 0.0, 3), band)
    with pytest.raises(ValueError):
        neigh_shrink(band, 1.0, 4)
