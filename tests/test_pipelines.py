"""End-to-end pipeline behavior: dispatch, invariants, near-identity cases."""

import concurrent.futures
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes

from denoisebench import bilateral, pipelines
from denoisebench.bilateral import BilateralParams, bilateral_filter
from denoisebench.imagecore import save_pgm
from denoisebench.metrics import evaluate, psnr
from denoisebench.noise import NoiseModel, add_awgn, estimate_noise_mad
from denoisebench.pipelines import METHODS, MethodConfig, collaborative, denoise, mrbf
from denoisebench.shrinkage import apply_threshold, band_stats, bayes_threshold
from denoisebench.synth import texture_image
from denoisebench.wavelet import SubBands, decompose, dwt2_haar, idwt2_haar


@pytest.fixture(scope="module")
def texture():
    return texture_image(128)


@pytest.fixture(scope="module")
def noisy(texture):
    return add_awgn(texture, NoiseModel(sigma=20.0, seed=9))


def test_config_validation():
    with pytest.raises(ValueError, match="^unknown method 'fourier'; choose from visu, sure, "
                                         "bayes, neigh, bilateral, collaborative, mrbf$"):
        MethodConfig(method="fourier")
    with pytest.raises(ValueError):
        MethodConfig(levels=0)
    with pytest.raises(ValueError):
        MethodConfig(levels=7)


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


def test_only_detail_bands_are_thresholded(monkeypatch):
    # 64x128: each level's bands have their own shape, so a band from another
    # level cannot pass for the one expected
    noisy = add_awgn(texture_image(128)[:64], NoiseModel(sigma=20.0, seed=9))
    pyramid = decompose(noisy, 3)
    details = [band for level in pyramid.levels for band in level]
    assert [band.shape for band in details] == [(32, 64)] * 3 + [(16, 32)] * 3 + [(8, 16)] * 3
    shrunk, splits = [], []

    def shrinker(fn):
        def spy(band, *args, **kwargs):
            shrunk.append(band)
            return fn(band, *args, **kwargs)
        return spy

    def split(grid, real=pipelines.dwt2_haar, **kwargs):
        splits.append(real(grid, **kwargs))
        return splits[-1]

    monkeypatch.setattr(pipelines, "apply_threshold", shrinker(pipelines.apply_threshold))
    monkeypatch.setattr(pipelines, "neigh_shrink", shrinker(pipelines.neigh_shrink))
    monkeypatch.setattr(pipelines, "dwt2_haar", split)
    for method in ("visu", "sure", "bayes", "neigh", "collaborative", "mrbf"):
        shrunk.clear()
        splits.clear()
        denoise(noisy, MethodConfig(method=method, levels=3))
        # every detail band of every level exactly once, finest level first
        assert [band.shape for band in shrunk] == [band.shape for band in details], method
        if method == "mrbf":
            # the bands MRBF splits off its filtered approximations, never their LL
            split_details = {id(band) for sb in splits for band in (sb.lh, sb.hl, sb.hh)}
            assert all(id(band) in split_details for band in shrunk)
        else:
            assert all(np.array_equal(g, w) for g, w in zip(shrunk, details)), method


def test_visu_oracle_zero_sigma_is_identity(texture):
    out = denoise(texture, MethodConfig(method="visu"), oracle_sigma=0.0)
    assert np.max(np.abs(out - texture)) < 1e-9


@pytest.mark.parametrize("bad", [-1.0, np.inf, np.nan])
def test_oracle_sigma_must_be_finite_and_non_negative(noisy, bad):
    for method in METHODS:
        with pytest.raises(ValueError, match="oracle_sigma must be finite and non-negative"):
            denoise(noisy, MethodConfig(method=method), oracle_sigma=bad)


def test_oracle_mode_given_mad_estimate_matches_estimated_mode(noisy):
    sigma_hat = estimate_noise_mad(dwt2_haar(noisy).hh)
    for method in METHODS:
        estimated = denoise(noisy, MethodConfig(method=method))
        oracle = denoise(noisy, MethodConfig(method=method), oracle_sigma=sigma_hat)
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


def test_mrbf_divisibility_precondition(monkeypatch):
    # an off-grid shape fails before the first bilateral pass, with decompose's message
    passes = []
    monkeypatch.setattr(pipelines, "bilateral_filter", lambda *args: passes.append(args))
    with pytest.raises(ValueError, match="^dimensions 100x100 not divisible by 2\\^3$"):
        mrbf(np.zeros((100, 100)), MethodConfig(method="mrbf", levels=3))
    with pytest.raises(ValueError, match="^dimensions 100x100 not divisible by 2\\^3$"):
        decompose(np.zeros((100, 100)), 3)
    assert passes == []


def test_mrbf_flattens_constant_plus_noise():
    clean = np.full((256, 256), 128.0)
    noisy = add_awgn(clean, NoiseModel(sigma=20.0, seed=4))
    out = mrbf(noisy, MethodConfig(method="mrbf"))
    rms = float(np.sqrt(np.mean((out - 128.0) ** 2)))
    assert rms < 3.0


def test_every_method_filters_a_tiny_image(texture):
    # the bilateral window shrinks to fit, as in MRBF's coarse passes
    tiny = add_awgn(texture[:4, :4], NoiseModel(sigma=20.0, seed=3))
    for method in METHODS:
        out = denoise(tiny, MethodConfig(method=method, levels=1))
        assert out.shape == tiny.shape, method
        assert np.all(np.isfinite(out)), method


@settings(max_examples=25, deadline=None)
@given(array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=40), st.integers(1, 3),
       st.integers(0, 1000))
def test_every_method_keeps_any_shape(shape, levels, seed):
    # sides that do not divide by 2^levels are padded to the Haar grid and cropped back
    image = add_awgn(np.full(shape, 128.0), NoiseModel(sigma=20.0, seed=seed))
    for method in METHODS:
        out = denoise(image, MethodConfig(method=method, levels=levels))
        assert out.shape == shape, method
        assert np.all(np.isfinite(out)), method


@pytest.mark.parametrize("shape, levels", [((32, 32), 3), ((4, 6), 1)])
def test_every_bilateral_pass_uses_one_parameter_rule(monkeypatch, texture, shape, levels):
    # sigma_d 1.8, window 11 shrunk to fit, sigma_r = 2 * the MAD estimate of
    # the noise on that pass's input (floored at 1e-6); MRBF's last pass takes
    # its estimate from the split of the previous pass's output
    calls = []
    original = pipelines.bilateral_filter

    def recording(image, params, **kwargs):
        # a pass may write over its input, and a later split over its output
        before = image.copy()
        out = original(image, params, **kwargs)
        calls.append((before, params, out.copy()))
        return out

    monkeypatch.setattr(pipelines, "bilateral_filter", recording)
    noisy = add_awgn(texture[: shape[0], : shape[1]], NoiseModel(sigma=20.0, seed=6))
    for method, n_passes in (("bilateral", 1), ("collaborative", 1), ("mrbf", levels + 1)):
        calls.clear()
        denoise(noisy, MethodConfig(method=method, levels=levels))
        assert len(calls) == n_passes, method
        for i, (image, params, _) in enumerate(calls):
            last_mrbf_pass = method == "mrbf" and i == levels
            if method == "mrbf" and i > 0:
                # every pass but the first filters the LL of the previous pass's output
                np.testing.assert_array_equal(image, dwt2_haar(calls[i - 1][2]).ll)
            sigma_hat = estimate_noise_mad(dwt2_haar(calls[i - 1][2] if last_mrbf_pass else image).hh)
            assert params.sigma_d == 1.8, method
            assert params.window == min(11, 2 * min(image.shape) - 1), method
            assert params.sigma_r == max(2.0 * sigma_hat, 1e-6), method


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


def test_mrbf_float_output_same_for_every_lane_count_at_1024(monkeypatch):
    # the benchmark's size: 12 strips on 2 or 3 lanes; its 8-bit PGM hides last bits
    image = add_awgn(np.tile(texture_image(256), (4, 4)), NoiseModel(sigma=25.0, seed=11))
    config = MethodConfig(method="mrbf")
    outputs = []
    for cores in (1, 2, 3):
        monkeypatch.setattr(bilateral, "_cpu_count", lambda: cores)
        outputs.append(denoise(image, config))
    assert all(np.array_equal(outputs[0], out) for out in outputs[1:])


@pytest.mark.parametrize("on_worker", [False, True])
def test_denoise_never_writes_into_its_argument(on_worker):
    # the caller's own array (np.asarray returns it), a strided view of
    # another, and a shape off the Haar grid, which each method pads
    parent = add_awgn(texture_image(256), NoiseModel(sigma=20.0, seed=12))
    images = [parent.copy(), parent[::2, 1::2], parent[:75, :100].copy()]
    assert images[0].flags.c_contiguous and np.asarray(images[0], dtype=np.float64) is images[0]
    saved = parent.copy()

    def run(method):
        for image in images:
            before = image.tobytes()
            out = denoise(image, MethodConfig(method=method))
            assert not np.shares_memory(out, image), method
            assert image.tobytes() == before, method

    for method in METHODS:
        if on_worker:
            with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
                pool.submit(run, method).result()
        else:
            run(method)
    assert parent.tobytes() == saved.tobytes()


def _mrbf_oracle(image, levels):
    """MRBF out of place from the public kernels: every pass, split, shrink and
    synthesis makes new arrays, and the noise is the MAD of a whole split's HH."""

    def filtered(grid, sigma):
        window = min(11, 2 * min(grid.shape) - 1)
        params = BilateralParams(sigma_d=1.8, sigma_r=max(2.0 * sigma, 1e-6), window=window)
        return bilateral_filter(grid, params)

    def recurse(grid, level):
        grid = filtered(grid, estimate_noise_mad(dwt2_haar(grid).hh))
        bands = dwt2_haar(grid)
        sigma = estimate_noise_mad(bands.hh)
        lh, hl, hh = (apply_threshold(band, bayes_threshold(sigma, band_stats(band, sigma)), soft=True)
                      for band in (bands.lh, bands.hl, bands.hh))
        ll = filtered(bands.ll, sigma) if level == levels else recurse(bands.ll, level + 1)
        return idwt2_haar(SubBands(ll=ll, lh=lh, hl=hl, hh=hh))

    h, w = image.shape
    step = 1 << levels
    return recurse(np.pad(image, ((0, -h % step), (0, -w % step)), mode="reflect"), 1)[:h, :w]


@pytest.mark.parametrize("shape, cores", [((256, 256), 1), ((700, 1000), 2)])
def test_mrbf_in_place_equals_out_of_place_oracle(monkeypatch, shape, cores):
    # the float64 output, which rounding to an 8-bit PGM would hide a last bit of
    monkeypatch.setattr(bilateral, "_cpu_count", lambda: cores)
    clean = np.tile(texture_image(512), (2, 2))[: shape[0], : shape[1]]
    image = add_awgn(clean, NoiseModel(sigma=25.0, seed=13))
    want = _mrbf_oracle(image, 3)
    owned = image.copy()
    got = denoise(owned, MethodConfig(method="mrbf"), overwrite_image=True)
    assert np.array_equal(got, want)
    assert shape[0] % 8 or shape[1] % 8 or got is owned


@pytest.fixture(scope="module")
def texture512():
    return texture_image(512)


def _copies_held(fn, image, *args, on_main=False, **kwargs) -> float:
    """Peak memory traced during ``fn(image, *args, **kwargs)`` above what was
    traced before it, in copies of `image`.

    The call runs on a worker thread, where the bilateral filter takes one
    lane, or with `on_main` on the calling thread.
    """
    def measure():
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(image, *args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - before

    tracemalloc.start()
    try:
        if on_main:
            return measure() / image.nbytes
        with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
            return pool.submit(measure).result() / image.nbytes
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("method, bound", [
    # the shrunk bands, the finest synthesis's output and its row-block scratch
    ("visu", 2.7), ("sure", 2.7), ("bayes", 2.7), ("neigh", 2.7),
    # each level frees its filtered grid once split, and each band once shrunk
    ("mrbf", 2.5),
    # the output and one lane's strip buffers, with no padded copy of the image
    ("bilateral", 2.5), ("collaborative", 3.6),
])
def test_working_set_in_image_copies(texture512, method, bound):
    noisy = add_awgn(texture512, NoiseModel(sigma=30.0, seed=1))
    assert _copies_held(denoise, noisy, MethodConfig(method=method)) <= bound


@pytest.mark.parametrize("method, bound", [
    # one lane's strip buffers (1.45 copies of a 512x512 image) and the
    # rows copied at the strip boundaries; no output array
    ("bilateral", 1.6), ("mrbf", 1.6),
    # the Bayes stage, whose output the pass then writes over
    ("collaborative", 2.7),
])
def test_working_set_beyond_an_image_handed_over(texture512, method, bound):
    noisy = add_awgn(texture512, NoiseModel(sigma=30.0, seed=1))
    assert _copies_held(denoise, noisy, MethodConfig(method=method), overwrite_image=True) <= bound


@pytest.mark.parametrize("method, bound", [("mrbf", 0.9), ("bilateral", 0.9), ("collaborative", 2.4)])
def test_main_thread_working_set_at_1024_beyond_an_image_handed_over(monkeypatch, method, bound):
    # as `bench denoise` runs, over the loaded image: for mrbf and bilateral
    # two lanes' strip buffers (0.70 copies) and the rows copied at 11 strip
    # boundaries (0.11); for collaborative its Bayes stage
    monkeypatch.setattr(bilateral, "_cpu_count", lambda: 2)
    noisy = add_awgn(np.tile(texture_image(256), (4, 4)), NoiseModel(sigma=25.0, seed=11))
    held = _copies_held(denoise, noisy, MethodConfig(method=method), overwrite_image=True,
                        on_main=True)
    assert held <= bound


def test_save_pgm_working_set_in_image_copies(tmp_path):
    # one row block of float64 and its bytes at a time
    image = add_awgn(np.tile(texture_image(256), (4, 4)), NoiseModel(sigma=25.0, seed=11))
    assert _copies_held(save_pgm, image, tmp_path / "out.pgm") <= 0.2


def test_scoring_working_set_in_image_copies(texture512):
    # a sweep cell scores after its noisy image is freed; `evaluate` holds its
    # clipped copy of the test image and one work array
    denoised = denoise(add_awgn(texture512, NoiseModel(sigma=30.0, seed=1)), MethodConfig())
    assert _copies_held(evaluate, texture512, denoised) <= 2.1
