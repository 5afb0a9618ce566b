"""End-to-end pipeline behavior: dispatch, invariants, near-identity cases."""

import concurrent.futures

import numpy as np
import pytest

from denoisebench import bilateral
from denoisebench.metrics import psnr
from denoisebench.noise import NoiseModel, add_awgn, estimate_noise_mad
from denoisebench.pipelines import METHODS, MethodConfig, collaborative, denoise, mrbf
from denoisebench.synth import texture_image
from denoisebench.wavelet import dwt2_haar


@pytest.fixture(scope="module")
def texture():
    return texture_image(128)


@pytest.fixture(scope="module")
def noisy(texture):
    return add_awgn(texture, NoiseModel(sigma=20.0, seed=9))


def test_config_validation():
    with pytest.raises(ValueError):
        MethodConfig(method="fourier")
    with pytest.raises(ValueError):
        MethodConfig(levels=0)
    with pytest.raises(ValueError):
        MethodConfig(levels=7)
    with pytest.raises(ValueError):
        MethodConfig(neigh_window=2)
    with pytest.raises(ValueError):
        MethodConfig(sigma_mode="guessed")


def test_all_methods_run_and_are_deterministic(noisy):
    for method in METHODS:
        config = MethodConfig(method=method)
        a = denoise(noisy, config)
        b = denoise(noisy, config)
        assert a.shape == noisy.shape
        np.testing.assert_array_equal(a, b)


def test_every_method_beats_doing_nothing(texture):
    # averaged over seeds, each method must improve on the noisy input
    for sigma in (10.0, 50.0):
        for method in METHODS:
            gains = []
            for seed in (1, 2, 3, 4, 5):
                noisy = add_awgn(texture, NoiseModel(sigma, seed))
                out = denoise(noisy, MethodConfig(method=method))
                gains.append(psnr(texture, out) - psnr(texture, noisy))
            assert float(np.mean(gains)) > 0, (method, sigma)


def test_only_detail_bands_are_thresholded(noisy):
    # every detail band of every level exactly once, finest level first
    expected = [(k, b) for k in (1, 2, 3) for b in ("lh", "hl", "hh")]
    for method in ("visu", "sure", "bayes", "neigh", "mrbf", "collaborative"):
        log = []
        denoise(noisy, MethodConfig(method=method, levels=3), band_log=log)
        assert log == expected, method


def test_visu_oracle_zero_sigma_is_identity(texture):
    config = MethodConfig(method="visu", sigma_mode="oracle")
    out = denoise(texture, config, oracle_sigma=0.0)
    assert np.max(np.abs(out - texture)) < 1e-9


def test_oracle_mode_requires_sigma(noisy):
    for method in METHODS:
        with pytest.raises(ValueError, match="requires oracle_sigma"):
            denoise(noisy, MethodConfig(method=method, sigma_mode="oracle"))


def test_oracle_mode_given_mad_estimate_matches_estimated_mode(noisy):
    sigma_hat = estimate_noise_mad(dwt2_haar(noisy).hh)
    for method in METHODS:
        estimated = denoise(noisy, MethodConfig(method=method))
        config = MethodConfig(method=method, sigma_mode="oracle")
        oracle = denoise(noisy, config, oracle_sigma=sigma_hat)
        np.testing.assert_array_equal(oracle, estimated, err_msg=method)


def test_bayes_near_identity_on_band_limited_image():
    # upsampled coarse field: finest detail bands vanish, so sigma-hat ~ 0
    coarse = np.cos(np.linspace(0, 4 * np.pi, 32))
    img = 128.0 + 60.0 * np.outer(coarse, coarse)
    img = np.repeat(np.repeat(img, 4, axis=0), 4, axis=1)
    out = denoise(img, MethodConfig(method="bayes"))
    assert psnr(img, out, clamp=False) >= 60.0


def test_mrbf_levels_one_base_case(noisy):
    out = mrbf(noisy, MethodConfig(method="mrbf", levels=1))
    assert out.shape == noisy.shape
    assert np.all(np.isfinite(out))


def test_mrbf_divisibility_precondition():
    with pytest.raises(ValueError):
        mrbf(np.zeros((100, 100)), MethodConfig(method="mrbf", levels=3))


def test_mrbf_flattens_constant_plus_noise():
    clean = np.full((256, 256), 128.0)
    noisy = add_awgn(clean, NoiseModel(sigma=20.0, seed=4))
    out = mrbf(noisy, MethodConfig(method="mrbf"))
    rms = float(np.sqrt(np.mean((out - 128.0) ** 2)))
    assert rms < 3.0


def test_mrbf_every_level_flag(noisy):
    every = denoise(noisy, MethodConfig(method="mrbf", mrbf_every_level=True))
    top = denoise(noisy, MethodConfig(method="mrbf", mrbf_every_level=False))
    assert not np.array_equal(every, top)


def test_collaborative_composition(texture):
    noisy = add_awgn(texture, NoiseModel(sigma=30.0, seed=2))
    config = MethodConfig(method="collaborative")
    out = collaborative(noisy, config)
    np.testing.assert_array_equal(out, denoise(noisy, config))


def test_bilateral_sigma_r_tracks_noise(texture):
    # stronger noise must trigger stronger smoothing via sigma_r = 2 sigma-hat
    low = add_awgn(texture, NoiseModel(5.0, 8))
    high = add_awgn(texture, NoiseModel(50.0, 8))
    cfg = MethodConfig(method="bilateral")
    assert np.std(denoise(high, cfg) - high) > np.std(denoise(low, cfg) - low)


def test_mrbf_float_output_same_on_main_and_worker_thread(monkeypatch):
    # main-thread bilateral passes split their row strips over helper lanes;
    # a call on a worker thread runs them all itself.  The float output, not
    # just its 8-bit rounding, must not depend on that.
    monkeypatch.setattr(bilateral, "_cpu_count", lambda: 2)
    clean = np.tile(texture_image(256), (1, 4))
    image = add_awgn(clean, NoiseModel(sigma=25.0, seed=5))
    config = MethodConfig(method="mrbf")
    on_main = denoise(image, config)
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
        on_worker = pool.submit(denoise, image, config).result()
    assert np.array_equal(on_main, on_worker)
