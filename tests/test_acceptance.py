"""Acceptance gate: transform exactness, metric/estimator oracles, noise
calibration, method-ordering checks on the 512x512 synthetic benchmark image,
and harness determinism.

The ordering criteria (5 and 7) run one shared 5-seed sweep on the textured
512x512 synthetic image and check, at every sigma in {10..50}:
PSNR: mrbf >= neigh >= visu, mrbf >= bilateral + 0.5 dB, bayes >= visu for
sigma >= 20; UQI: mrbf >= bilateral and neigh >= visu.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from denoisebench.bench import BenchConfig, run_benchmark, write_csv
from denoisebench.metrics import evaluate, psnr, uqi
from denoisebench.noise import NoiseModel, add_awgn, estimate_noise_mad, gaussian_field
from denoisebench.pipelines import METHODS, MethodConfig, denoise
from denoisebench.shrinkage import neigh_shrink, sure_threshold, visu_threshold
from denoisebench.synth import default_set, texture_image
from denoisebench.wavelet import decompose, dwt2_haar, reconstruct

SIGMAS = (10.0, 20.0, 30.0, 40.0, 50.0)
SEEDS = (101, 202, 303, 404, 505)


# --------------------------------------------------------------------------
# criterion 1: transform correctness


def test_criterion_1_transform_round_trip_and_energy():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    for size in (64, 128, 256, 512):
        img = rng.uniform(0.0, 255.0, (size, size))
        for levels in (1, 2, 3, 4):
            pyramid = decompose(img, levels)
            assert np.max(np.abs(reconstruct(pyramid) - img)) < 1e-9
            current = img
            for details in pyramid.levels:
                bands = dwt2_haar(current)
                for got, want in zip(details, (bands.lh, bands.hl, bands.hh), strict=True):
                    assert np.array_equal(got, want)
                in_energy = float(np.sum(current**2))
                out_energy = sum(
                    float(np.sum(b**2))
                    for b in (bands.ll, bands.lh, bands.hl, bands.hh)
                )
                assert abs(out_energy - in_energy) <= 1e-12 * in_energy
                current = bands.ll
            assert np.array_equal(current, pyramid.top_ll)
    elapsed = time.perf_counter() - start
    print(f"criterion 1: round-trip + energy conservation ok in {elapsed:.2f}s")
    assert elapsed < 5.0


# --------------------------------------------------------------------------
# criterion 2: metric oracle equivalence


def _naive_metrics(ref, test):
    n = ref.size
    diff = [test.ravel()[k] - ref.ravel()[k] for k in range(n)]
    mse = sum(d * d for d in diff) / n
    mae = sum(abs(d) for d in diff) / n
    mf = sum(ref.ravel()) / n
    mg = sum(test.ravel()) / n
    var_f = sum((v - mf) ** 2 for v in ref.ravel()) / (n - 1)
    var_g = sum((v - mg) ** 2 for v in test.ravel()) / (n - 1)
    cov = sum((ref.ravel()[k] - mf) * (test.ravel()[k] - mg) for k in range(n)) / (n - 1)
    q = 4.0 * cov * mf * mg / ((var_f + var_g) * (mf**2 + mg**2))
    p = 10.0 * math.log10(255.0**2 / mse)
    return mse, math.sqrt(mse), mae, p, q


def test_criterion_2_metric_oracles():
    rng = np.random.default_rng(2)
    for _ in range(100):
        ref = rng.uniform(1.0, 255.0, (16, 16))
        test = rng.uniform(1.0, 255.0, (16, 16))
        report = evaluate(ref, test, clamp=False)
        for got, want in zip(
            (report.mse, report.rmse, report.mae, report.psnr_db, report.uqi),
            _naive_metrics(ref, test),
        ):
            assert got == pytest.approx(want, rel=1e-12)
    for _ in range(1000):
        f = rng.uniform(0.0, 255.0, (8, 8))
        g = rng.uniform(0.0, 255.0, (8, 8))
        assert -1.0 - 1e-9 <= uqi(f, g) <= 1.0 + 1e-9
    f = rng.uniform(1.0, 255.0, (16, 16))
    assert uqi(f, f) == pytest.approx(1.0)
    print("criterion 2: metrics match the double-loop reference to 1e-12")


# --------------------------------------------------------------------------
# criterion 3: noise calibration


def test_criterion_3_noise_calibration():
    clean = np.full((256, 256), 128.0)
    for sigma in SIGMAS:
        vals = [
            psnr(clean, add_awgn(clean, NoiseModel(sigma, seed)))
            for seed in range(10)
        ]
        mean = float(np.mean(vals))
        expected = 20.0 * math.log10(255.0 / sigma)
        print(f"criterion 3: sigma={sigma:g} psnr={mean:.3f} expected={expected:.3f}")
        assert mean == pytest.approx(expected, abs=0.3)


# --------------------------------------------------------------------------
# criterion 4: estimator oracles


def test_criterion_4_estimator_oracles():
    rng = np.random.default_rng(4)
    # SURE: exact candidate match against exhaustive grid search
    for _ in range(200):
        n = int(rng.integers(4, 257))
        band = rng.normal(0.0, rng.uniform(0.5, 8.0), n)
        sigma = float(rng.uniform(0.5, 3.0))
        got = sure_threshold(band, sigma)
        w = np.abs(band / sigma)
        universal = math.sqrt(2.0 * math.log(n))
        sparsity = (np.sum(w**2) - n) / n
        if sparsity <= math.log2(n) ** 1.5 / math.sqrt(n):
            assert got == pytest.approx(sigma * universal, rel=1e-12)
            continue
        candidates = np.concatenate(([0.0], np.sort(w)))
        risks = [
            n - 2.0 * np.count_nonzero(w <= t) + float(np.sum(np.minimum(w, t) ** 2))
            for t in candidates
        ]
        best = candidates[int(np.argmin(risks))]
        assert got == pytest.approx(sigma * min(best, universal), rel=1e-12)

    # NeighShrink: direct triple-loop neighborhood-sum definition, 8x8 bands
    for _ in range(20):
        band = rng.normal(0.0, 5.0, (8, 8))
        t_u = float(rng.uniform(0.5, 15.0))
        got = neigh_shrink(band, t_u, 3)
        half = 1
        for i in range(8):
            for j in range(8):
                s2 = 0.0
                for di in range(-half, half + 1):
                    for dj in range(-half, half + 1):
                        ii = abs(i + di) if i + di < 8 else 14 - (i + di)
                        jj = abs(j + dj) if j + dj < 8 else 14 - (j + dj)
                        s2 += band[ii, jj] ** 2
                want = max(1.0 - t_u**2 / s2, 0.0) * band[i, j]
                assert got[i, j] == pytest.approx(want, abs=1e-12)

    # MAD on the finest diagonal band of pure AWGN
    estimates = [
        estimate_noise_mad(dwt2_haar(10.0 * gaussian_field(seed, (256, 256))).hh)
        for seed in range(10)
    ]
    mean = float(np.mean(estimates))
    print(f"criterion 4: MAD mean estimate {mean:.3f} for true sigma 10")
    assert abs(mean - 10.0) / 10.0 < 0.05


# --------------------------------------------------------------------------
# criteria 5-7: orderings on the 512x512 benchmark image


def _find_lenna():
    here = Path(__file__).resolve().parent.parent
    for name in ("lenna.pgm", "lena.pgm", "data/lenna.pgm", "data/lena.pgm"):
        candidate = here / name
        if candidate.exists():
            return candidate
    return None


@pytest.fixture(scope="module")
def ordering_sweep():
    """Mean PSNR/UQI per (method, sigma) over SEEDS on the 512x512 image."""
    lenna = _find_lenna()
    if lenna is not None:
        from denoisebench.imagecore import load_pgm

        image, image_id = load_pgm(lenna), lenna.name
    else:
        image, image_id = texture_image(512), "texture512 (synthetic)"
    start = time.perf_counter()
    methods = ("visu", "neigh", "bayes", "bilateral", "mrbf")
    psnr_mean, uqi_mean = {}, {}
    for sigma in SIGMAS:
        acc = {m: ([], []) for m in methods}
        for seed in SEEDS:
            noisy = add_awgn(image, NoiseModel(sigma, seed))
            for m in methods:
                report = evaluate(image, denoise(noisy, MethodConfig(method=m)))
                acc[m][0].append(report.psnr_db)
                acc[m][1].append(report.uqi)
        for m in methods:
            psnr_mean[m, sigma] = float(np.mean(acc[m][0]))
            uqi_mean[m, sigma] = float(np.mean(acc[m][1]))
    elapsed = time.perf_counter() - start
    return image_id, psnr_mean, uqi_mean, elapsed


def test_criterion_5_psnr_ordering(ordering_sweep):
    image_id, p, _, elapsed = ordering_sweep
    print(f"criterion 5: image {image_id}, sweep {elapsed:.0f}s (budget 600s)")
    header = "sigma   visu  neigh  bayes  bilat   mrbf"
    print(header)
    for s in SIGMAS:
        print(
            f"{s:5g}  {p['visu', s]:5.2f}  {p['neigh', s]:5.2f}  {p['bayes', s]:5.2f}"
            f"  {p['bilateral', s]:5.2f}  {p['mrbf', s]:5.2f}"
        )
    for s in SIGMAS:
        assert p["mrbf", s] >= p["neigh", s], f"mrbf < neigh at sigma {s}"
        assert p["neigh", s] >= p["visu", s], f"neigh < visu at sigma {s}"
        assert p["mrbf", s] >= p["bilateral", s] + 0.5, f"mrbf margin at sigma {s}"
        if s >= 20:
            assert p["bayes", s] >= p["visu", s], f"bayes < visu at sigma {s}"
    assert elapsed < 600.0


def test_criterion_6_published_magnitudes(ordering_sweep):
    if _find_lenna() is None:
        pytest.skip("informative check needs a user-supplied 512x512 lenna.pgm")
    _, p, _, _ = ordering_sweep
    bayes, mrbf = p["bayes", 10.0], p["mrbf", 10.0]
    in_range = abs(bayes - 33.81) <= 2.0 and abs(mrbf - 37.82) <= 2.0
    # informative: report, never build-breaking
    print(
        f"criterion 6 (informative): bayes {bayes:.2f} (target 33.81 +/- 2), "
        f"mrbf {mrbf:.2f} (target 37.82 +/- 2) -> {'within' if in_range else 'OUTSIDE'}"
    )


def test_criterion_7_uqi_ordering(ordering_sweep):
    image_id, _, u, _ = ordering_sweep
    for s in SIGMAS:
        print(
            f"criterion 7: sigma={s:g} uqi mrbf={u['mrbf', s]:.4f} "
            f"bilat={u['bilateral', s]:.4f} neigh={u['neigh', s]:.4f} "
            f"visu={u['visu', s]:.4f}"
        )
        assert u["mrbf", s] >= u["bilateral", s], f"uqi mrbf < bilateral at sigma {s}"
        assert u["neigh", s] >= u["visu", s], f"uqi neigh < visu at sigma {s}"


# --------------------------------------------------------------------------
# criterion 8: collaborative three-way record


def test_criterion_8_collaborative_record():
    image = texture_image(256)
    for sigma in (10.0, 50.0):
        noisy = add_awgn(image, NoiseModel(sigma, 77))
        values = {}
        for method in ("bayes", "bilateral", "collaborative"):
            a = denoise(noisy, MethodConfig(method=method))
            b = denoise(noisy, MethodConfig(method=method))
            np.testing.assert_array_equal(a, b)  # determinism
            values[method] = psnr(image, a)
        # record the three-way comparison; no ordering is asserted
        print(
            f"criterion 8: sigma={sigma:g} "
            + " ".join(f"{m}={v:.2f}" for m, v in values.items())
        )


# --------------------------------------------------------------------------
# criterion 9: harness determinism on the default synthetic grid


def test_criterion_9_byte_identical_csvs(tmp_path):
    start = time.perf_counter()
    images = default_set()
    paths = []
    from denoisebench.imagecore import save_pgm

    for name, img in images.items():
        path = tmp_path / f"{name}.pgm"
        save_pgm(img, path)
        paths.append(str(path))
    config = dict(
        image_paths=tuple(paths),
        sigmas=SIGMAS,
        methods=tuple(MethodConfig(method=m) for m in METHODS),
        trials=3,
        master_seed=0,
        record_runtime=False,
    )
    # different worker counts must still produce identical bytes
    rows_a = run_benchmark(BenchConfig(**config, workers=1))
    rows_b = run_benchmark(BenchConfig(**config, workers=4))
    write_csv(rows_a, tmp_path / "a.csv")
    write_csv(rows_b, tmp_path / "b.csv")
    identical = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    elapsed = time.perf_counter() - start
    print(f"criterion 9: {len(rows_a)} rows, identical={identical}, {elapsed:.0f}s")
    assert identical
    assert len(rows_a) == len(images) * len(SIGMAS) * len(METHODS) * 3
    assert elapsed < 900.0
