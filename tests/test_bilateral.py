"""Bilateral filter: identities, Gaussian-blur limit, edge preservation, lanes."""

import concurrent.futures
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
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


@pytest.mark.parametrize("sigmas", [{"sigma_r": 1e-200}, {"sigma_d": 1e-170}, {"sigma_r": 1e200},
                                    {"sigma_d": 1e-155}, {"sigma_r": 1e154}])
def test_params_reject_sigma_whose_inverse_square_overflows_or_vanishes(sigmas):
    # 1 / (2 sigma^2) would be inf (or raise) or 0; an infinite sigma stays allowed
    with pytest.raises(ValueError, match="out of range"):
        BilateralParams(**sigmas)
    BilateralParams(sigma_d=math.inf, sigma_r=math.inf)


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
        # several strips of unequal heights
        ((200, 1024), BilateralParams()),
        ((170, 1200), BilateralParams(sigma_d=2.5, sigma_r=30.0, window=7)),
        # the range floor the collaborative pass hits; this image's darkest
        # pixel is too dark for the exponent clamp (see module docs)
        ((170, 1200), BilateralParams(sigma_r=1e-6)),
        # clamped floor passes: with sigma_d 0.15 the spatial term alone
        # passes -700 at the window's corners
        ((200, 1024), BilateralParams(sigma_r=1e-6)),
        ((200, 1024), BilateralParams(sigma_d=0.15, sigma_r=1e-6)),
        # a clamped pass whose strip meets an exponent in [-700, -600) before
        # the centre tap and is summed again without the clamp
        ((60, 300), BilateralParams(sigma_r=1e-4)),
        # largest allowed window, 2 * min(h, w) - 1
        ((9, 13), BilateralParams(window=17)),
        ((5, 300), BilateralParams(window=9)),
        # window 1 is the identity
        ((6, 5), BilateralParams(window=1)),
        ((1, 3), BilateralParams(window=1)),
        # narrow images: the dropped lanes between rows are most of a row
        ((50, 2), BilateralParams(window=3)),
        ((40, 7), BilateralParams(window=13)),
        ((12000, 13), BilateralParams(window=5)),
    ],
)
def test_bit_identical_to_untiled_sum(shape, params):
    rng = np.random.default_rng(sum(shape))
    img = rng.uniform(0.0, 255.0, shape)
    assert np.array_equal(bilateral_filter(img, params), _shifted_sum_oracle(img, params))


@pytest.mark.parametrize("shape, window", [((40, 7), 13), ((170, 1200), 11), ((12000, 13), 3)])
def test_bit_identical_on_integer_image(shape, window):
    # few grey levels: neighbours are often exactly equal, so at the range
    # floor every weight is exactly its spatial term or exactly 0
    img = np.random.default_rng(sum(shape)).integers(0, 4, shape).astype(np.float64)
    params = BilateralParams(sigma_r=1e-6, window=window)
    assert np.array_equal(bilateral_filter(img, params), _shifted_sum_oracle(img, params))


def test_floor_pass_keeps_exp_on_its_vector_path(monkeypatch):
    # below -708.4 np.exp leaves its vector path; the clamp stops every exponent at -700
    img = np.random.default_rng(41).uniform(1.0, 255.0, (200, 1024))
    params = BilateralParams(sigma_r=1e-6)
    want = _shifted_sum_oracle(img, params)
    lowest = []
    exp = np.exp

    def spy(x, *args, **kwargs):
        lowest.append(float(np.min(x)))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", spy)
    got = bilateral_filter(img, params)
    monkeypatch.undo()
    assert lowest and min(lowest) >= -700.0
    assert np.array_equal(got, want)


@pytest.mark.parametrize("pixel", [0.0, -1.0, np.nan, np.inf, 1e300])
def test_floor_pass_with_unclampable_pixel_bit_identical_to_untiled_sum(pixel):
    # one pixel that turns the exponent clamp off (see module docs)
    img = np.random.default_rng(43).uniform(1.0, 255.0, (60, 300))
    img[17, 123] = pixel
    params = BilateralParams(sigma_r=1e-6)
    with np.errstate(over="ignore", invalid="ignore"):
        got = bilateral_filter(img, params)
        want = _shifted_sum_oracle(img, params)
    assert np.array_equal(got, want, equal_nan=True)


def test_strip_height_covers_multi_strip_cases():
    # the cases above span several strips even on one lane
    for (h, w), window in [((200, 1024), 11), ((170, 1200), 7), ((170, 1200), 11),
                          ((12000, 13), 5), ((12000, 13), 3)]:
        _, strips = bilateral._strips(h, w + 2 * (window // 2), 1)
        assert len(strips) > 1


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5000), st.integers(1, 4000), st.integers(1, 4))
def test_strips_partition_rows_evenly(h, pw, lanes):
    k, strips = bilateral._strips(h, pw, lanes)
    budget_rows = max(1, bilateral._STRIP_LANES // pw)
    heights = [r1 - r0 for r0, r1 in strips]
    # every row once, in order, heights within one row of each other and the budget
    assert [r for r0, r1 in strips for r in range(r0, r1)] == list(range(h))
    assert max(heights) - min(heights) <= 1 and min(heights) >= 1
    assert max(heights) <= budget_rows
    # a multiple of k strips, the fewest that keep to the budget; each lane gets as many
    assert 1 <= k <= lanes and len(strips) % k == 0
    assert len({len(strips[lane::k]) for lane in range(k)}) == 1
    assert len(strips) == k or -(-h // (len(strips) - k)) > budget_rows
    # a second lane only when each strip holds a quarter of the budget
    quarter = bilateral._STRIP_LANES // 4
    assert k == 1 or min(heights) * pw >= quarter
    if k < lanes:
        # k + 1 lanes would have cut strips below the quarter
        fewest = -(-h // budget_rows)
        assert h // (-(-fewest // (k + 1)) * (k + 1)) * pw < quarter


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


# the real executor, for pools the tests start themselves while the filter's is patched
_Executor = concurrent.futures.ThreadPoolExecutor


@pytest.fixture
def spy_pool(monkeypatch):
    """The lanes each call hands to its helper threads, in order; the lanes still run."""
    lanes = []

    class SpyPool(_Executor):
        def submit(self, fn, lane):
            lanes.append(lane)
            return super().submit(fn, lane)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SpyPool)
    return lanes


def _bilateral_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("bilateral")]


def _strip_image(strips, seed=0):
    # padded width 1024 at window 11 gives 96 rows per strip on one lane
    rows = bilateral._STRIP_LANES // 1024
    return np.random.default_rng(seed).uniform(0.0, 255.0, (rows * (strips - 1) + 7, 1014))


@pytest.mark.parametrize("cores", [2, 3])
@pytest.mark.parametrize("strips", [1, 2, 3, 5, 7])
def test_lanes_bit_identical_to_untiled_sum(monkeypatch, spy_pool, cores, strips):
    monkeypatch.setattr(bilateral, "_cpu_count", lambda: cores)
    img = _strip_image(strips)
    params = BilateralParams()
    assert np.array_equal(bilateral_filter(img, params), _shifted_sum_oracle(img, params))
    # the caller runs lane 0; every other lane goes to the helpers.  One 7-row
    # strip is too small to share; every larger image fills each core.
    assert spy_pool == list(range(1, cores if strips > 1 else 1))


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("rows", [1, 2, 5])
@pytest.mark.parametrize("sigma_r", [20.0, 1e-6])
def test_padded_strips_bit_identical_to_untiled_sum(monkeypatch, spy_pool, cores, rows, sigma_r):
    # window 11 on 12 rows: the first and last strips mirror all five rows
    # beyond the image's edges, the strips next to them fewer; one-row strips too
    h, w, params = 12, 20, BilateralParams(sigma_r=sigma_r, window=11)
    monkeypatch.setattr(bilateral, "_STRIP_LANES", rows * (w + 10))
    monkeypatch.setattr(bilateral, "_cpu_count", lambda: cores)
    img = np.random.default_rng(rows).uniform(1.0, 255.0, (h, w))
    assert np.array_equal(bilateral_filter(img, params), _shifted_sum_oracle(img, params))
    # the image fills every core
    assert spy_pool == list(range(1, cores))
    assert np.array_equal(bilateral_filter(img.T, params), _shifted_sum_oracle(img.T, params))


def _filtered_over_itself(img, params):
    out = bilateral_filter(img, params, out=img)
    assert out is img
    return out


@pytest.mark.parametrize("cores", [1, 2, 3])
@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("h", range(2, 13))
def test_in_place_bit_identical_to_untiled_sum(monkeypatch, cores, rows, h):
    # strips of 1-3 rows on up to 3 lanes: each strip's window reaches rows
    # that other strips write, reflected rows of a short first or last strip
    # included, whichever lane runs them and in whatever order
    w, window = 20, min(11, 2 * h - 1)
    params = BilateralParams(sigma_r=20.0, window=window)
    monkeypatch.setattr(bilateral, "_STRIP_LANES", rows * (w + window - 1))
    monkeypatch.setattr(bilateral, "_cpu_count", lambda: cores)
    img = np.random.default_rng(h).uniform(1.0, 255.0, (h, w))
    want = _shifted_sum_oracle(img, params)
    assert np.array_equal(_filtered_over_itself(img, params), want)


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_in_place_on_a_strided_view(monkeypatch, cores):
    # as MRBF filters a level's LL band: its grid's even rows, left half
    monkeypatch.setattr(bilateral, "_STRIP_LANES", 3 * 60)
    monkeypatch.setattr(bilateral, "_cpu_count", lambda: cores)
    grid = np.random.default_rng(cores).uniform(1.0, 255.0, (48, 100))
    before = grid.copy()
    ll = grid[0::2, :50]
    params = BilateralParams(sigma_r=20.0)
    want = _shifted_sum_oracle(ll.copy(), params)
    assert np.array_equal(_filtered_over_itself(ll, params), want)
    others = np.ones(grid.shape, dtype=bool)
    others[0::2, :50] = False
    assert np.array_equal(grid[others], before[others])


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_in_place_floor_pass_sums_a_strip_again(monkeypatch, cores):
    # one pixel 3.6e-5 above its left neighbour: at the floor sigma_r that
    # tap's exponent lies in [-700, -600), so the clamped sum of its strip
    # stops and the strip is summed again from its padded buffer, after the
    # strips around it may have written over their rows
    h, w = 12, 30
    params = BilateralParams(sigma_r=1e-6)
    monkeypatch.setattr(bilateral, "_STRIP_LANES", 2 * (w + 10))
    monkeypatch.setattr(bilateral, "_cpu_count", lambda: cores)
    img = np.random.default_rng(47).integers(1, 5, (h, w)).astype(np.float64)
    img[7, 12] = img[7, 11] + 3.6e-5
    want = _shifted_sum_oracle(img, params)
    exps = []
    exp = np.exp

    def spy(x, *args, **kwargs):
        exps.append(None)
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", spy)
    got = _filtered_over_itself(img, params)
    monkeypatch.undo()
    # six strips of two rows, 121 offsets each, and part of one more sum
    assert len(exps) > 6 * 121
    assert np.array_equal(got, want)


def test_out_must_be_the_image_or_apart_from_it():
    img = np.random.default_rng(5).uniform(0.0, 255.0, (20, 30))
    params = BilateralParams(window=5)
    with pytest.raises(ValueError, match="out must be the image itself or share no memory"):
        bilateral_filter(img[:, :20], params, out=img[:, 10:])
    with pytest.raises(ValueError, match="out has shape"):
        bilateral_filter(img, params, out=np.empty((20, 29)))
    apart = np.empty_like(img)
    assert bilateral_filter(img, params, out=apart) is apart
    assert np.array_equal(apart, _shifted_sum_oracle(img, params))


@pytest.mark.parametrize("cores", [2, 4])
def test_small_main_thread_call_stays_on_one_lane(monkeypatch, spy_pool, cores):
    monkeypatch.setattr(bilateral, "_cpu_count", lambda: cores)
    img = np.random.default_rng(128).uniform(0.0, 255.0, (128, 128))
    params = BilateralParams()
    assert np.array_equal(bilateral_filter(img, params), _shifted_sum_oracle(img, params))
    assert spy_pool == []


@pytest.mark.parametrize("cores", [2, 3])
def test_lanes_bit_identical_on_tall_narrow_image(monkeypatch, cores):
    monkeypatch.setattr(bilateral, "_cpu_count", lambda: cores)
    img = np.random.default_rng(3013).uniform(0.0, 255.0, (12000, 13))
    params = BilateralParams(window=5)
    assert np.array_equal(bilateral_filter(img, params), _shifted_sum_oracle(img, params))


@settings(max_examples=15, deadline=None)
@given(
    st.integers(1, 600),
    st.integers(1, 400),
    st.sampled_from([1, 3, 5, 7]),
    st.floats(1e-6, 100.0),
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
)
# clamped floor passes on one, two and three lanes
@example(600, 400, 7, 1e-6, 0, 1)
@example(600, 400, 7, 1e-6, 1, 2)
@example(600, 400, 7, 1e-6, 2, 3)
def test_lanes_bit_identical_to_untiled_sum_random_shapes(h, w, window, sigma_r, seed, cores):
    params = BilateralParams(sigma_r=sigma_r, window=min(window, 2 * min(h, w) - 1))
    img = np.random.default_rng(seed).uniform(0.0, 255.0, (h, w))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bilateral, "_cpu_count", lambda: cores)
        got = bilateral_filter(img, params)
    assert np.array_equal(got, _shifted_sum_oracle(img, params))


def test_call_on_worker_thread_uses_one_lane(monkeypatch, spy_pool):
    # a sweep's pool threads already fill the cores
    monkeypatch.setattr(bilateral, "_cpu_count", lambda: 2)
    img = _strip_image(3)
    with _Executor(max_workers=1) as pool:
        got = pool.submit(bilateral_filter, img, BilateralParams()).result()
    assert spy_pool == []
    assert np.array_equal(got, bilateral_filter(img, BilateralParams()))
    assert spy_pool == [1]


def test_main_thread_call_leaves_no_thread_behind(monkeypatch, spy_pool):
    monkeypatch.setattr(bilateral, "_cpu_count", lambda: 2)
    before = threading.active_count()
    img = _strip_image(2)
    assert np.array_equal(bilateral_filter(img, BilateralParams()),
                          _shifted_sum_oracle(img, BilateralParams()))
    assert spy_pool == [1]
    assert threading.active_count() == before and _bilateral_threads() == []


def test_three_lane_call_runs_its_helper_lanes_at_once(monkeypatch):
    monkeypatch.setattr(bilateral, "_cpu_count", lambda: 3)
    threads = {}
    meet = []

    class RecordingPool(_Executor):
        def submit(self, fn, lane):
            def run(lane):
                threads[lane] = threading.get_ident()
                if meet:
                    # both helper lanes must be running at once
                    meet[0].wait()
                fn(lane)
            return super().submit(run, lane)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    params = BilateralParams(window=3)
    # at padded width 256 and window 3 the first image fills two lanes, the second three
    two, three = (np.random.default_rng(s).uniform(0.0, 255.0, (h, 254))
                  for s, h in ((0, 256), (1, 384)))
    assert np.array_equal(bilateral_filter(two, params), _shifted_sum_oracle(two, params))
    assert list(threads) == [1]
    meet.append(threading.Barrier(2, timeout=10))
    assert np.array_equal(bilateral_filter(three, params), _shifted_sum_oracle(three, params))
    assert sorted(threads) == [1, 2] and threads[1] != threads[2]


def test_one_cpu_starts_no_thread(monkeypatch, spy_pool):
    monkeypatch.setattr(bilateral, "_cpu_count", lambda: 1)
    before = threading.active_count()
    bilateral_filter(_strip_image(3), BilateralParams())
    assert spy_pool == []
    assert threading.active_count() == before and _bilateral_threads() == []


def test_helper_lane_error_reaches_the_caller(monkeypatch):
    class FailingPool(_Executor):
        def submit(self, fn, lane):
            future = concurrent.futures.Future()
            future.set_exception(MemoryError(f"lane {lane}"))
            return future

    monkeypatch.setattr(bilateral, "_cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", FailingPool)
    with pytest.raises(MemoryError, match="lane 1"):
        bilateral_filter(_strip_image(2), BilateralParams())


# After one main-thread call on two lanes, fork and filter in the child; the
# alarm ends a child whose lanes never run.
_FORK_SCRIPT = """
import os, signal
import numpy as np
from denoisebench import bilateral
bilateral._cpu_count = lambda: 2
img = np.random.default_rng(0).uniform(0.0, 255.0, (200, 1014))
want = bilateral.bilateral_filter(img, bilateral.BilateralParams())
pid = os.fork()
if pid == 0:
    signal.alarm(20)
    got = bilateral.bilateral_filter(img, bilateral.BilateralParams())
    os._exit(0 if np.array_equal(got, want) else 1)
_, status = os.waitpid(pid, 0)
raise SystemExit(os.waitstatus_to_exitcode(status))
"""


def _run_python(code):
    src = str(Path(bilateral.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_filters_with_its_own_helpers():
    result = _run_python(_FORK_SCRIPT)
    assert result.returncode == 0, result.stderr


def test_import_starts_no_thread():
    code = (
        "import threading, denoisebench, denoisebench.cli, denoisebench.bilateral as b; "
        "assert threading.active_count() == 1"
    )
    result = _run_python(code)
    assert result.returncode == 0, result.stderr
