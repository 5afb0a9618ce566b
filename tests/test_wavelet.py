"""Orthonormal Haar transform: hand values, round trips, energy conservation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from denoisebench import wavelet
from denoisebench.wavelet import (
    Pyramid,
    SubBands,
    decompose,
    dwt2_haar,
    idwt2_haar,
    reconstruct,
)


def _dwt2_haar_oracle(grid):
    """Four independent expressions per band: the reference for dwt2_haar."""
    x = np.asarray(grid, dtype=np.float64)
    a, b = x[0::2, 0::2], x[0::2, 1::2]
    c, d = x[1::2, 0::2], x[1::2, 1::2]
    return SubBands(
        ll=(a + b + c + d) / 2.0,
        hl=(a - b + c - d) / 2.0,
        lh=(a + b - c - d) / 2.0,
        hh=(a - b - c + d) / 2.0,
    )


def _idwt2_haar_oracle(bands):
    """Four independent expressions per output phase: the reference for idwt2_haar."""
    ll, hl, lh, hh = bands.ll, bands.hl, bands.lh, bands.hh
    h, w = ll.shape
    out = np.empty((2 * h, 2 * w))
    out[0::2, 0::2] = (ll + hl + lh + hh) / 2.0
    out[0::2, 1::2] = (ll - hl + lh - hh) / 2.0
    out[1::2, 0::2] = (ll + hl - lh - hh) / 2.0
    out[1::2, 1::2] = (ll - hl - lh + hh) / 2.0
    return out


def _haar_grids():
    rng = np.random.default_rng(12)
    for shape in ((2, 2), (4, 6), (64, 64), (128, 96), (512, 512)):
        yield rng.uniform(0.0, 255.0, shape)
        yield rng.normal(0.0, 1e3, shape)
        yield rng.integers(0, 256, shape)
        yield rng.integers(-5, 6, shape).astype(np.float64)
    big = rng.normal(0.0, 50.0, (130, 140))
    yield big[1:129, 2:138]
    yield big[::2, ::2][:64, :64]
    yield big.T[3:131, :128]


def test_haar_transforms_equal_oracles_exactly():
    for grid in _haar_grids():
        before = np.array(grid, copy=True)
        got = dwt2_haar(grid)
        want = _dwt2_haar_oracle(grid)
        for band in ("ll", "lh", "hl", "hh"):
            np.testing.assert_array_equal(getattr(got, band), getattr(want, band), strict=True)
        np.testing.assert_array_equal(grid, before, strict=True)
        np.testing.assert_array_equal(idwt2_haar(got), _idwt2_haar_oracle(want), strict=True)


def test_idwt_equals_oracle_on_band_views_and_leaves_them_alone():
    rng = np.random.default_rng(13)
    bands = SubBands(*(rng.normal(0.0, 20.0, (40, 50))[3:35, 5:45].T for _ in range(4)))
    before = [b.copy() for b in (bands.ll, bands.lh, bands.hl, bands.hh)]
    np.testing.assert_array_equal(idwt2_haar(bands), _idwt2_haar_oracle(bands), strict=True)
    for b, old in zip((bands.ll, bands.lh, bands.hl, bands.hh), before, strict=True):
        np.testing.assert_array_equal(b, old)


def test_idwt_accepts_integer_bands():
    rng = np.random.default_rng(14)
    bands = SubBands(*(rng.integers(-300, 300, (8, 6)) for _ in range(4)))
    np.testing.assert_array_equal(idwt2_haar(bands), _idwt2_haar_oracle(bands), strict=True)


@pytest.mark.parametrize("block", [1, 6, 64])
def test_haar_row_blocks_equal_oracles_exactly(monkeypatch, block):
    # one band row per block, or blocks of several rows with a shorter last one
    monkeypatch.setattr(wavelet, "_BLOCK", block)
    rng = np.random.default_rng(15)
    big = rng.normal(0.0, 50.0, (60, 340))
    grids = [
        rng.normal(0.0, 1e3, (26, 12)),
        rng.integers(0, 256, (46, 20)),
        rng.uniform(0.0, 255.0, (10, 300)),
        big[1:27, 2:14],
        big.T[3:47, :20],
    ]
    for grid in grids:
        got = dwt2_haar(grid)
        want = _dwt2_haar_oracle(grid)
        for band in ("ll", "lh", "hl", "hh"):
            np.testing.assert_array_equal(getattr(got, band), getattr(want, band), strict=True)
        np.testing.assert_array_equal(idwt2_haar(got), _idwt2_haar_oracle(want), strict=True)
    views = SubBands(*(big[3 * i : 3 * i + 50, 3:29].T for i in range(4)))
    integers = SubBands(*(rng.integers(-300, 300, (23, 10)) for _ in range(4)))
    for bands in (views, integers):
        np.testing.assert_array_equal(idwt2_haar(bands), _idwt2_haar_oracle(bands), strict=True)


@pytest.mark.parametrize("block", [1, 6, 64, 1 << 14])
def test_haar_in_place_equals_oracles_exactly(monkeypatch, block):
    # the bands in the grid's own rows, and the synthesis back over them; one
    # band row per block, several with a shorter last one, or one block
    monkeypatch.setattr(wavelet, "_BLOCK", block)
    rng = np.random.default_rng(16)
    big = rng.normal(0.0, 50.0, (120, 340))
    grids = [
        rng.normal(0.0, 1e3, (26, 12)),
        rng.uniform(0.0, 255.0, (10, 300)),
        rng.uniform(0.0, 255.0, (128, 96)),
        big[0::2, :170][:58],  # an MRBF level's LL band: even rows, left half
        big.T[3:47, :20],
        rng.normal(0.0, 50.0, (2, 300)),  # one band row
        rng.normal(0.0, 50.0, (300, 2)),  # one band column
        rng.normal(0.0, 50.0, (140, 600)),  # 300-wide band rows: a short last block at 2^14
    ]
    for grid in grids:
        want = _dwt2_haar_oracle(grid)
        round_trip = _idwt2_haar_oracle(want)
        w = grid.shape[1] // 2
        got = dwt2_haar(grid, out=grid)
        for band, rows in zip(("ll", "lh", "hl", "hh"),
                              (grid[0::2, :w], grid[0::2, w:], grid[1::2, :w], grid[1::2, w:])):
            np.testing.assert_array_equal(getattr(got, band), getattr(want, band), strict=True)
            assert np.shares_memory(getattr(got, band), rows)
        assert idwt2_haar(got, out=grid) is grid
        np.testing.assert_array_equal(grid, round_trip, strict=True)


def test_haar_out_of_place_into_given_arrays():
    rng = np.random.default_rng(17)
    grid = rng.normal(0.0, 50.0, (24, 40))
    before = grid.copy()
    rows = np.empty_like(grid)
    got = dwt2_haar(grid, out=rows)
    want = _dwt2_haar_oracle(grid)
    for band in ("ll", "lh", "hl", "hh"):
        np.testing.assert_array_equal(getattr(got, band), getattr(want, band), strict=True)
    out = np.empty_like(grid)
    assert idwt2_haar(got, out=out) is out
    np.testing.assert_array_equal(out, _idwt2_haar_oracle(want), strict=True)
    np.testing.assert_array_equal(grid, before, strict=True)
    with pytest.raises(ValueError, match="out has shape"):
        dwt2_haar(grid, out=np.empty((24, 42)))
    with pytest.raises(ValueError, match="out has shape"):
        idwt2_haar(got, out=np.empty((12, 20)))


def test_haar_rejects_an_out_that_overlaps_its_input_any_other_way():
    # reading such an input while writing the out would read overwritten
    # values; the check comes before anything is written
    rng = np.random.default_rng(18)
    storage = rng.normal(0.0, 50.0, (26, 40))
    grid = storage[:24]
    before = storage.copy()
    for out in (grid[::-1], storage[1:25]):  # flipped, and one row off
        with pytest.raises(ValueError, match="out must be the grid itself or share no memory"):
            dwt2_haar(grid, out=out)
    np.testing.assert_array_equal(storage, before, strict=True)
    bands = dwt2_haar(grid)
    h, w = bands.ll.shape
    # the bands in the Mallat quadrant layout of the out
    quadrants = np.block([[bands.ll, bands.hl], [bands.lh, bands.hh]])
    cases = [(SubBands(ll=quadrants[:h, :w], hl=quadrants[:h, w:],
                       lh=quadrants[h:, :w], hh=quadrants[h:, w:]), quadrants)]
    # the bands of another grid in that grid's rows, one or two rows off the out
    for shift in (1, 2):
        rows = storage.copy()
        other = rows[shift : shift + 2 * h]
        cases.append((dwt2_haar(other, out=other), rows[: 2 * h]))
    for bands, out in cases:
        kept = out.copy()
        with pytest.raises(ValueError, match="band in its own rows or share no memory"):
            idwt2_haar(bands, out=out)
        np.testing.assert_array_equal(out, kept, strict=True)


def test_dwt_hand_example():
    bands = dwt2_haar(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert bands.ll[0, 0] == 5.0
    assert bands.hl[0, 0] == -1.0
    assert bands.lh[0, 0] == -2.0
    assert bands.hh[0, 0] == 0.0  # (1 - 2 - 3 + 4) / 2


def test_idwt_hand_example():
    bands = SubBands(
        ll=np.array([[5.0]]), lh=np.array([[-2.0]]),
        hl=np.array([[-1.0]]), hh=np.array([[0.0]]),
    )
    np.testing.assert_allclose(idwt2_haar(bands), [[1.0, 2.0], [3.0, 4.0]])


def test_dwt_constant_image():
    bands = dwt2_haar(np.full((8, 8), 7.0))
    np.testing.assert_allclose(bands.ll, 14.0)
    assert not bands.lh.any() and not bands.hl.any() and not bands.hh.any()


def test_dwt_rejects_odd_dimensions():
    with pytest.raises(ValueError):
        dwt2_haar(np.zeros((3, 2)))


def test_subbands_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        SubBands(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((1, 1)))


def test_zeroed_details_reconstruct_block_mean():
    pyramid = decompose(np.array([[1.0, 2.0], [3.0, 4.0]]), levels=1)
    zero = np.zeros((1, 1))
    stripped = Pyramid(((zero, zero, zero),), pyramid.top_ll, (2, 2))
    np.testing.assert_allclose(reconstruct(stripped), 2.5)


def test_decompose_shapes_and_constant_scaling():
    img = np.full((512, 512), 3.0)
    one = decompose(img, 1)
    assert len(one.levels) == 1
    assert one.top_ll.shape == (256, 256)
    assert [b.shape for b in one.levels[0]] == [(256, 256)] * 3
    three = decompose(img, 3)
    np.testing.assert_allclose(three.top_ll, 3.0 * 2**3)
    for details in three.levels:
        assert not any(b.any() for b in details)


def test_decompose_divisibility_precondition():
    with pytest.raises(ValueError):
        decompose(np.zeros((100, 100)), levels=3)


def test_pyramid_tampered_top_ll_rejected():
    pyramid = decompose(np.random.default_rng(0).normal(size=(16, 16)), 2)
    with pytest.raises(ValueError):
        Pyramid(pyramid.levels, np.zeros((8, 8)), (16, 16))


def test_pyramid_misshapen_detail_band_rejected():
    pyramid = decompose(np.random.default_rng(0).normal(size=(16, 16)), 2)
    lh, hl, hh = pyramid.levels[1]
    with pytest.raises(ValueError):
        Pyramid((pyramid.levels[0], (lh, hl[:, :2], hh)), pyramid.top_ll, (16, 16))


@pytest.mark.parametrize("size,levels", [(64, 1), (64, 2), (128, 3), (512, 4)])
def test_round_trip_and_energy(size, levels):
    rng = np.random.default_rng(size + levels)
    img = rng.uniform(0.0, 255.0, (size, size))
    pyramid = decompose(img, levels)
    assert np.max(np.abs(reconstruct(pyramid) - img)) < 1e-9
    # orthonormality: total coefficient energy equals image energy per level;
    # the pyramid holds exactly the detail bands of the chained transforms
    energy = float(np.sum(img**2))
    current = img
    for details in pyramid.levels:
        bands = dwt2_haar(current)
        for got, want in zip(details, (bands.lh, bands.hl, bands.hh), strict=True):
            np.testing.assert_array_equal(got, want)
        level_energy = sum(
            float(np.sum(b**2)) for b in (bands.ll, bands.lh, bands.hl, bands.hh)
        )
        assert abs(level_energy - float(np.sum(current**2))) <= 1e-12 * energy
        current = bands.ll
    np.testing.assert_array_equal(current, pyramid.top_ll)


@settings(max_examples=30, deadline=None)
@given(
    arrays(np.float64, (8, 8), elements=st.floats(-1e3, 1e3)),
    st.integers(1, 3),
)
def test_round_trip_property(img, levels):
    np.testing.assert_allclose(
        reconstruct(decompose(img, levels)), img, atol=1e-9, rtol=0
    )


@given(arrays(np.float64, (6, 4), elements=st.floats(-100, 100)))
def test_single_level_linearity(img):
    a = dwt2_haar(img)
    b = dwt2_haar(2.0 * img)
    np.testing.assert_allclose(b.ll, 2.0 * a.ll, atol=1e-12)
    np.testing.assert_allclose(b.hh, 2.0 * a.hh, atol=1e-12)
