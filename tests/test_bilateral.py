"""Bilateral filter: identities, Gaussian-blur limit, edge preservation, lanes."""

import concurrent.futures
import os
import subprocess
import sys
from pathlib import Path

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


class _SpyPool:
    """Stands in for the helper pool: records each lane and runs it on a thread."""

    def __init__(self):
        self.lanes = []
        self._pool = concurrent.futures.ThreadPoolExecutor(max_workers=2)

    def submit(self, fn, lane):
        self.lanes.append(lane)
        return self._pool.submit(fn, lane)


@pytest.fixture
def spy_pool(monkeypatch):
    spy = _SpyPool()
    monkeypatch.setattr(bilateral, "_helper_pool", lambda workers: spy)
    yield spy
    spy._pool.shutdown()


def _strip_image(strips, seed=0):
    # padded width 1024 at window 11 gives 32 rows per strip
    rows = bilateral._STRIP_PIXELS // 1024
    return np.random.default_rng(seed).uniform(0.0, 255.0, (rows * (strips - 1) + 7, 1014))


@pytest.mark.parametrize("cores", [2, 3])
@pytest.mark.parametrize("strips", [1, 2, 3, 5, 7])
def test_lanes_bit_identical_to_untiled_sum(monkeypatch, spy_pool, cores, strips):
    monkeypatch.setattr(bilateral, "_cpu_count", lambda: cores)
    img = _strip_image(strips)
    params = BilateralParams()
    assert np.array_equal(bilateral_filter(img, params), _shifted_sum_oracle(img, params))
    # the caller runs lane 0; every other lane goes to the helpers
    assert spy_pool.lanes == list(range(1, min(cores, strips)))


@pytest.mark.parametrize("cores", [2, 3])
def test_lanes_bit_identical_on_tall_narrow_image(monkeypatch, cores):
    monkeypatch.setattr(bilateral, "_cpu_count", lambda: cores)
    img = np.random.default_rng(3013).uniform(0.0, 255.0, (3000, 13))
    params = BilateralParams(window=5)
    assert np.array_equal(bilateral_filter(img, params), _shifted_sum_oracle(img, params))


@settings(max_examples=15, deadline=None)
@given(
    st.integers(1, 100),
    st.integers(256, 1200),
    st.sampled_from([1, 3, 5, 11]),
    st.floats(1e-6, 100.0),
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 3]),
)
def test_lanes_bit_identical_to_untiled_sum_random_shapes(h, w, window, sigma_r, seed, cores):
    params = BilateralParams(sigma_r=sigma_r, window=min(window, 2 * h - 1))
    img = np.random.default_rng(seed).uniform(0.0, 255.0, (h, w))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bilateral, "_cpu_count", lambda: cores)
        got = bilateral_filter(img, params)
    assert np.array_equal(got, _shifted_sum_oracle(img, params))


def test_call_on_worker_thread_uses_one_lane(monkeypatch, spy_pool):
    # a sweep's pool threads already fill the cores
    monkeypatch.setattr(bilateral, "_cpu_count", lambda: 2)
    img = _strip_image(3)
    with concurrent.futures.ThreadPoolExecutor(max_workers=1) as pool:
        got = pool.submit(bilateral_filter, img, BilateralParams()).result()
    assert spy_pool.lanes == []
    assert np.array_equal(got, bilateral_filter(img, BilateralParams()))
    assert spy_pool.lanes == [1]


def test_one_cpu_never_creates_the_pool(monkeypatch):
    monkeypatch.setattr(bilateral, "_cpu_count", lambda: 1)
    monkeypatch.setattr(bilateral, "_helpers", None)
    bilateral_filter(_strip_image(3), BilateralParams())
    assert bilateral._helpers is None


def test_helper_lane_error_reaches_the_caller(monkeypatch):
    class FailingPool:
        def submit(self, fn, lane):
            future = concurrent.futures.Future()
            future.set_exception(MemoryError(f"lane {lane}"))
            return future

    monkeypatch.setattr(bilateral, "_cpu_count", lambda: 2)
    monkeypatch.setattr(bilateral, "_helper_pool", lambda workers: FailingPool())
    with pytest.raises(MemoryError, match="lane 1"):
        bilateral_filter(_strip_image(2), BilateralParams())


# After one main-thread call has started the helper pool, fork and filter in
# the child; the alarm ends a child whose lanes never run.
_FORK_SCRIPT = """
import os, signal
import numpy as np
from denoisebench import bilateral
bilateral._cpu_count = lambda: 2
img = np.random.default_rng(0).uniform(0.0, 255.0, (200, 1014))
want = bilateral.bilateral_filter(img, bilateral.BilateralParams())
assert bilateral._helpers is not None
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
        "assert threading.active_count() == 1 and b._helpers is None"
    )
    result = _run_python(code)
    assert result.returncode == 0, result.stderr
