"""Error metrics and the universal quality index against naive references."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from denoisebench.metrics import PEAK, evaluate, mse_rmse_mae, psnr, uqi
from denoisebench.noise import NoiseModel, add_awgn


def _naive_metrics(ref, test):
    """Double-loop reference implementation of all five metrics."""
    h, w = ref.shape
    se = ae = 0.0
    for i in range(h):
        for j in range(w):
            d = test[i, j] - ref[i, j]
            se += d * d
            ae += abs(d)
    n = h * w
    mse = se / n
    mf = sum(ref[i, j] for i in range(h) for j in range(w)) / n
    mg = sum(test[i, j] for i in range(h) for j in range(w)) / n
    var_f = var_g = cov = 0.0
    for i in range(h):
        for j in range(w):
            var_f += (ref[i, j] - mf) ** 2
            var_g += (test[i, j] - mg) ** 2
            cov += (ref[i, j] - mf) * (test[i, j] - mg)
    var_f /= n - 1
    var_g /= n - 1
    cov /= n - 1
    q = 4.0 * cov * mf * mg / ((var_f + var_g) * (mf**2 + mg**2))
    p = math.inf if mse == 0 else 10.0 * math.log10(255.0**2 / mse)
    return mse, math.sqrt(mse), ae / n, p, q


def test_mse_hand_examples():
    assert mse_rmse_mae(np.zeros((1, 2)), np.ones((1, 2))) == (1.0, 1.0, 1.0)
    mse, rmse, mae = mse_rmse_mae(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
    assert mse == 12.5
    assert rmse == pytest.approx(3.5355, abs=5e-5)
    assert mae == 3.5
    assert mse_rmse_mae(np.ones((2, 2)), np.ones((2, 2))) == (0.0, 0.0, 0.0)


def test_mse_shape_mismatch():
    with pytest.raises(ValueError):
        mse_rmse_mae(np.zeros((2, 2)), np.zeros((2, 3)))


def test_psnr_landmarks():
    assert psnr(np.zeros((4, 4)), np.full((4, 4), 255.0)) == 0.0
    assert math.isinf(psnr(np.ones((4, 4)), np.ones((4, 4))))


def test_psnr_awgn_calibration():
    clean = np.full((256, 256), 128.0)
    vals = [
        psnr(clean, add_awgn(clean, NoiseModel(10.0, seed)), clamp=False)
        for seed in range(5)
    ]
    assert float(np.mean(vals)) == pytest.approx(20.0 * math.log10(255.0 / 10.0), abs=0.1)


def test_uqi_identity_and_reflection():
    f = np.array([[100.0, 150.0], [100.0, 150.0]])
    assert uqi(f, f) == 1.0
    # reflecting about the mean flips the covariance sign only
    assert uqi(f, -f + 2.0 * f.mean()) == pytest.approx(-1.0)


def test_uqi_luminance_distortion():
    f = np.array([[10.0, 20.0], [30.0, 40.0]])
    assert uqi(f, f + 50.0) < 1.0
    mf = f.mean()
    expected = 2.0 * mf * (mf + 50.0) / (mf**2 + (mf + 50.0) ** 2)
    assert uqi(f, f + 50.0) == pytest.approx(expected)


def test_uqi_degenerate_conventions():
    const = np.full((3, 3), 5.0)
    assert uqi(const, const) == 1.0
    assert uqi(const, np.full((3, 3), 9.0)) == 0.0
    varying = np.arange(9.0).reshape(3, 3)
    assert uqi(const, varying) == 0.0
    with pytest.raises(ValueError):
        uqi(np.array([[1.0]]), np.array([[1.0]]))


def test_metrics_match_naive_reference():
    rng = np.random.default_rng(321)
    for _ in range(100):
        ref = rng.uniform(1.0, 255.0, (16, 16))
        test = rng.uniform(1.0, 255.0, (16, 16))
        report = evaluate(ref, test, clamp=False)
        mse, rmse, mae, p, q = _naive_metrics(ref, test)
        assert report.mse == pytest.approx(mse, rel=1e-12)
        assert report.rmse == pytest.approx(rmse, rel=1e-12)
        assert report.mae == pytest.approx(mae, rel=1e-12)
        assert report.psnr_db == pytest.approx(p, rel=1e-12)
        assert report.uqi == pytest.approx(q, rel=1e-12)


def test_evaluate_psnr_equals_psnr_of_clamped_image():
    rng = np.random.default_rng(654)
    for shape in ((1, 2), (7, 9), (64, 64)):
        ref = rng.uniform(0.0, PEAK, shape)
        for test in (rng.uniform(-60.0, 320.0, shape), rng.normal(ref, 3.0), ref.copy()):
            assert evaluate(ref, test).psnr_db == psnr(ref, np.clip(test, 0.0, PEAK))
    assert math.isinf(evaluate(ref, ref).psnr_db)


def test_evaluate_clamps_test_image():
    ref = np.full((2, 2), 255.0)
    wild = np.full((2, 2), 400.0)
    assert evaluate(ref, wild).mse == 0.0
    assert evaluate(ref, wild, clamp=False).mse == pytest.approx(145.0**2)
    assert PEAK == 255.0


def _near_zero_image(value):
    img = np.zeros((4, 4))
    img[0, 0] = value
    return img


@settings(max_examples=200)
@given(
    arrays(np.float64, (4, 4), elements=st.floats(0, 255)),
    arrays(np.float64, (4, 4), elements=st.floats(0, 255)),
)
# near-zero images whose UQI denominator underflows
@example(f=_near_zero_image(7e-88), g=_near_zero_image(7e-88))
@example(f=_near_zero_image(5e-324), g=_near_zero_image(1e-300))
def test_uqi_bounds(f, g):
    q = uqi(f, g)
    assert -1.0 - 1e-9 <= q <= 1.0 + 1e-9


def test_uqi_scale_invariant_near_zero():
    rng = np.random.default_rng(8)
    f, g = rng.uniform(1.0, 255.0, (2, 8, 8))
    # a power-of-two scale is exact, so the index must not move at all
    assert uqi(f * 2.0**-1000, g * 2.0**-1000) == uqi(f, g)


@given(arrays(np.float64, (4, 4), elements=st.floats(1, 255)))
def test_uqi_self_is_one(f):
    if f.std() > 0:
        assert uqi(f, f) == pytest.approx(1.0)


def _uqi_three_pass(f, g):
    """The index with `f - mf` and `g - mg` formed once per sum, as before."""
    f, g = f.ravel(), g.ravel()
    mf, mg = float(np.mean(f)), float(np.mean(g))
    if max(abs(mf), abs(mg)) < 2.0**-100:
        shift = -math.frexp(max(float(np.max(np.abs(f))), float(np.max(np.abs(g)))))[1]
        f, g = np.ldexp(f, shift), np.ldexp(g, shift)
        mf, mg = float(np.mean(f)), float(np.mean(g))
    n1 = f.size - 1
    var_f = float(np.sum((f - mf) ** 2)) / n1
    var_g = float(np.sum((g - mg) ** 2)) / n1
    cov = float(np.sum((f - mf) * (g - mg))) / n1
    return 4.0 * cov * mf * mg / ((var_f + var_g) * (mf**2 + mg**2))


@pytest.mark.parametrize("scale", [1.0, 2.0**-1000])
@pytest.mark.parametrize("shape", [(7, 9), (64, 64), (257, 130)])
def test_uqi_bit_identical_to_three_pass_formula(shape, scale):
    # scale 2^-1000 takes the tiny-mean rescale path
    rng = np.random.default_rng(shape[0])
    for _ in range(3):
        f, g = rng.uniform(0.0, 255.0, (2, *shape)) * scale
        assert uqi(f, g) == _uqi_three_pass(f, g)


@pytest.mark.parametrize("shape", [(7, 9), (64, 64), (257, 130)])
def test_mse_mae_bit_identical_to_two_temporaries(shape):
    # squaring |d| in place must give exactly the sums of d**2 and |d|
    rng = np.random.default_rng(shape[1])
    ref, test = rng.uniform(-40.0, 300.0, (2, *shape))
    diff = test - ref
    assert mse_rmse_mae(ref, test) == (
        float(np.mean(diff**2)), math.sqrt(float(np.mean(diff**2))), float(np.mean(np.abs(diff)))
    )


def _evaluate_oracle(reference, test, clamp=True):
    """`evaluate` with a third work array, as it was before it reused its clipped copy."""
    ref = np.asarray(reference, dtype=np.float64)
    tst = np.asarray(test, dtype=np.float64)
    if clamp:
        tst = np.clip(tst, 0.0, PEAK)
    diff = tst - ref
    np.abs(diff, out=diff)
    mae = float(np.mean(diff))
    np.square(diff, out=diff)
    mse = float(np.mean(diff))
    if ref.size < 2:
        raise ValueError("uqi needs at least 2 pixels")
    f = ref.ravel()
    g = tst.ravel()
    mf, mg = float(np.mean(f)), float(np.mean(g))
    if max(abs(mf), abs(mg)) < 2.0**-100:
        shift = -math.frexp(max(float(np.max(np.abs(f))), float(np.max(np.abs(g)))))[1]
        f, g = np.ldexp(f, shift), np.ldexp(g, shift)
        mf, mg = float(np.mean(f)), float(np.mean(g))
    n1 = f.size - 1
    df = f - mf
    work = np.square(df)
    var_f = float(np.sum(work)) / n1
    dg = np.subtract(g, mg, out=work)
    cov = float(np.sum(np.multiply(df, dg, out=df))) / n1
    var_g = float(np.sum(np.square(dg, out=dg))) / n1
    if var_f == 0.0 and var_g == 0.0:
        q = 1.0 if np.array_equal(f, g) else 0.0
    elif var_f == 0.0 or var_g == 0.0 or (mf == 0.0 and mg == 0.0):
        q = 0.0
    else:
        q = 4.0 * cov * mf * mg / ((var_f + var_g) * (mf**2 + mg**2))
    p = math.inf if mse == 0.0 else 10.0 * math.log10(PEAK**2 / mse)
    return mse, math.sqrt(mse), mae, p, q


def _bits(values):
    return [float(v).hex() for v in values]


def _evaluate_cases():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        shape = tuple(rng.integers(1, 41, 2))
        if shape == (1, 1):
            shape = (1, 2)
        ref = rng.uniform(-20.0, 280.0, shape)
        yield ref, rng.normal(ref, rng.uniform(0.5, 60.0))
    for shape in ((1, 2), (2, 1)):
        yield np.array([[3.0, 7.0]]).reshape(shape), np.array([[8.0, -1.0]]).reshape(shape)
        yield np.full(shape, 5.0), np.full(shape, 5.0)
    square = rng.uniform(0.0, 255.0, (9, 9))
    yield np.full((9, 9), 40.0), np.full((9, 9), 40.0)  # identical constants
    yield np.full((9, 9), 40.0), np.full((9, 9), 41.0)  # different constants
    yield np.full((9, 9), 40.0), square  # one variance zero
    yield square, np.full((9, 9), 300.0)  # constant once clamped
    yield np.zeros((9, 9)), np.zeros((9, 9))
    yield square * 2.0**-1000, rng.uniform(0.0, 255.0, (9, 9)) * 2.0**-1000  # means below 2^-100
    yield _near_zero_image(5e-324), _near_zero_image(1e-300)
    yield square, np.where(square > 128.0, np.nan, square)


def test_evaluate_bit_identical_to_three_work_arrays():
    for ref, test in _evaluate_cases():
        kept = ref.copy(), test.copy()
        for clamp in (True, False):
            got = evaluate(ref, test, clamp=clamp)
            want = _evaluate_oracle(ref, test, clamp=clamp)
            assert _bits((got.mse, got.rmse, got.mae, got.psnr_db, got.uqi)) == _bits(want), (
                ref.shape, clamp)
        assert _bits((*mse_rmse_mae(ref, test), uqi(ref, test))) == _bits(want[:3] + want[4:])
        # neither the scores nor their parts write into the caller's arrays
        assert np.array_equal(ref, kept[0], equal_nan=True)
        assert np.array_equal(test, kept[1], equal_nan=True)


def test_evaluate_in_a_test_image_handed_over_gives_the_same_bits():
    # the scores of the default call; `test` is then the call's scratch, `reference` unwritten
    for ref, test in _evaluate_cases():
        for clamp in (True, False):
            want = evaluate(ref, test, clamp=clamp)
            owned, kept = test.copy(), ref.copy()
            got = evaluate(ref, owned, clamp=clamp, overwrite_test=True)
            assert _bits((got.mse, got.rmse, got.mae, got.psnr_db, got.uqi)) == _bits(
                (want.mse, want.rmse, want.mae, want.psnr_db, want.uqi)), (ref.shape, clamp)
            assert np.array_equal(ref, kept, equal_nan=True)
