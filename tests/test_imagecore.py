"""Image coercion and PGM I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from denoisebench import imagecore
from denoisebench.imagecore import (
    PgmError,
    _padded_lanes,
    as_image,
    load_pgm,
    save_pgm,
)


def test_as_image_rejects_bad_shapes():
    with pytest.raises(ValueError):
        as_image(np.zeros(5))
    with pytest.raises(ValueError):
        as_image(np.zeros((2, 2, 3)))
    with pytest.raises(ValueError):
        as_image(np.array([[np.nan, 0.0]]))


def test_as_image_returns_c_order():
    # noise chunks read an image as one flat run
    img = as_image(np.arange(12.0).reshape(3, 4).T)
    assert img.flags.c_contiguous
    assert np.array_equal(img, np.arange(12.0).reshape(3, 4).T)


@pytest.mark.parametrize("half", range(6))
@pytest.mark.parametrize("mode", ["reflect", "wrap"])
def test_padded_lanes_match_np_pad_on_every_strip(mode, half):
    # sides shorter than half + 1 make np.pad reflect or wrap more than once
    rng = np.random.default_rng(half)
    for shape in [(1, 1), (1, 9), (9, 1), (2, 5), (3, 3), (6, 4), (11, 7)]:
        img = rng.normal(size=shape)
        h, w = shape
        want = np.pad(img, half, mode=mode)
        # a longer buffer than any strip needs: only its front is written
        buf = np.full((h + 2 * half) * (w + 2 * half) + 5, np.nan)
        for r0 in range(h):
            for r1 in range(r0 + 1, h + 1):
                got = _padded_lanes(img, r0, r1, half, buf, wrap=mode == "wrap")
                assert np.shares_memory(got, buf)
                assert got.tobytes() == want[r0 : r1 + 2 * half].tobytes()


@pytest.mark.parametrize("half", range(1, 6))
def test_padded_lanes_take_other_strips_rows_from_edges(half):
    # as a filter written over its input pads each strip: rows outside the
    # strip may already hold output, so they come from copies made at the
    # strip's boundaries before anything was written
    rng = np.random.default_rng(half)
    for h, w in [(1, 4), (2, 5), (3, 3), (6, 4), (11, 7)]:
        img = rng.normal(size=(h, w))
        want = np.pad(img, half, mode="reflect")
        edges = {b: img[max(b - half, 0) : b + half].copy() for b in range(1, h)}
        buf = np.empty((h + 2 * half) * (w + 2 * half))
        for r0 in range(h):
            for r1 in range(r0 + 1, h + 1):
                written = img.copy()
                written[:r0] = np.nan
                written[r1:] = np.nan
                got = _padded_lanes(written, r0, r1, half, buf, edges=edges)
                assert got.tobytes() == want[r0 : r1 + 2 * half].tobytes()


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_padded_lanes_refuse_an_empty_side_as_np_pad_does(shape):
    img = np.zeros(shape)
    for half in (1, 2):
        with pytest.raises(ValueError):
            np.pad(img, half, mode="reflect")
        with pytest.raises(ValueError):
            _padded_lanes(img, 0, shape[0], half, np.empty(64))
    assert _padded_lanes(img, 0, shape[0], 0, np.empty(64)).size == 0


def test_load_p5_bytes(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64]))
    img = load_pgm(path)
    assert img.shape == (2, 2)
    assert img.tolist() == [[0.0, 128.0], [255.0, 64.0]]


def test_load_p2_ascii(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P2\n2 1\n255\n10 20")
    assert load_pgm(path).tolist() == [[10.0, 20.0]]


def test_load_rescales_maxval_below_255(tmp_path):
    p5, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    p5.write_bytes(b"P5\n3 1\n15\n" + bytes([0, 5, 15]))
    p2.write_bytes(b"P2\n3 1\n15\n0 5 15")
    for path in (p5, p2):
        img = load_pgm(path)
        assert img.max() == 255.0
        assert img.tolist() == [[0.0, 85.0, 255.0]]


def test_load_header_comments(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n# made by hand\n2 1 # dims\n255\n" + bytes([7, 9]))
    assert load_pgm(path).tolist() == [[7.0, 9.0]]


def test_load_rejects_p6(tmp_path):
    path = tmp_path / "t.ppm"
    path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
    with pytest.raises(PgmError):
        load_pgm(path)


def test_load_rejects_truncation(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(PgmError):
        load_pgm(path)
    # a 16-bit sample takes two bytes, so three bytes hold one and a half
    path.write_bytes(b"P5\n2 1\n65535\n\x00\x00\x00")
    with pytest.raises(PgmError, match="truncated P5 pixel payload"):
        load_pgm(path)


@pytest.mark.parametrize("data, message", [
    (b"P5\n2\n255\n\x00\x00", "malformed PGM header"),
    (b"P5\n2 x\n255\n\x00\x00", "malformed PGM header"),
    (b"P5\n-2 1\n255\n\x00\x00", "malformed PGM header"),
    (b"P5\n2 1 # no line end", "malformed PGM header"),
    (b"P5\n2 1\n255", "malformed PGM header"),
    (b"P5\n0 1\n255\n", "invalid PGM dimensions 0x1"),
    (b"P5\n2 1\n0\n\x00\x00", "invalid maxval 0"),
    (b"P5\n2 1\n65536\n\x00\x00\x00\x00", "invalid maxval 65536"),
    (b"P2\n2 1\n255\n1.5 3", "non-integer P2 sample"),
    # Python's int() would read these three as 10, 5 and 0; netpbm allows digits only
    (b"P2\n3 1\n255\n1_0 5 7\n", "non-integer P2 sample"),
    (b"P2\n3 1\n255\n+5 5 7\n", "non-integer P2 sample"),
    (b"P2\n3 1\n255\n-0 5 7\n", "non-integer P2 sample"),
    (b"P2\n2 1\n15\n1 16", "PGM sample outside"),
    pytest.param(b"P2\n2 1\n255\n" + b"9" * 400 + b" 3", "PGM sample outside",
                 id="sample-beyond-float-range"),
])
def test_load_rejects_bad_pgm_naming_the_file(tmp_path, data, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(data)
    with pytest.raises(PgmError) as exc:
        load_pgm(path)
    assert str(exc.value).startswith(f"{path}: {message}")


def test_load_16bit_p5_equals_p2(tmp_path):
    p5, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    values = [0, 1, 256, 32768, 65535]
    p5.write_bytes(b"P5\n5 1\n65535\n" + np.array(values, dtype=">u2").tobytes())
    p2.write_bytes(b"P2\n5 1\n65535\n" + " ".join(map(str, values)).encode())
    np.testing.assert_array_equal(load_pgm(p5), load_pgm(p2))
    assert load_pgm(p5).tolist() == [[v * 255.0 / 65535 for v in values]]


@pytest.mark.parametrize(
    "value,expected",
    [(300.0, 255), (-5.0, 0), (127.5, 128), (0.49, 0), (0.5, 1)],
)
def test_save_clamps_and_rounds_half_up(tmp_path, value, expected):
    path = tmp_path / "t.pgm"
    save_pgm(np.array([[value]]), path)
    assert load_pgm(path)[0, 0] == expected


@pytest.mark.parametrize("block", [1, 7, 40, 1 << 16])
def test_save_in_row_blocks_writes_the_whole_image_rule(tmp_path, monkeypatch, block):
    # one row per block, several rows with a shorter last block, or one
    # block; a strided view is saved without a C-ordered copy of it
    monkeypatch.setattr(imagecore, "_SAVE_BLOCK", block)
    rng = np.random.default_rng(block)
    big = rng.uniform(-40.0, 300.0, (50, 30))
    big[3, 4], big[6, 8] = 0.5, 254.5
    for image in (big, big[1::2, ::3], big.T):
        path = tmp_path / "t.pgm"
        save_pgm(image, path)
        want = np.floor(np.clip(image, 0.0, 255.0) + 0.5).astype(np.uint8)
        header = f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode()
        assert path.read_bytes() == header + want.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_rejects_non_finite_samples_before_writing(tmp_path, bad):
    image = np.zeros((4, 6))
    image[2, 3] = bad
    path = tmp_path / "t.pgm"
    for view in (image, image[::2, 1:]):
        with pytest.raises(ValueError, match="non-finite"):
            save_pgm(view, path)
        assert not path.exists()


_SHAPES = array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40)


@settings(max_examples=50)
@given(arrays(np.uint8, _SHAPES, elements=st.integers(0, 255)))
def test_pgm_round_trip_is_exact(tmp_path_factory, pixels):
    path = tmp_path_factory.mktemp("pgm") / "rt.pgm"
    save_pgm(pixels.astype(np.float64), path)
    np.testing.assert_array_equal(load_pgm(path), pixels.astype(np.float64))


@settings(max_examples=50)
@given(st.data())
def test_load_p5_rescales_any_maxval(tmp_path_factory, data):
    # one byte per sample up to maxval 255, two big-endian bytes above it
    maxval = data.draw(st.one_of(st.integers(1, 255), st.integers(256, 65535)))
    pixels = data.draw(arrays(np.uint16, _SHAPES, elements=st.integers(0, maxval)))
    height, width = pixels.shape
    path = tmp_path_factory.mktemp("pgm") / "any.pgm"
    samples = pixels.astype(">u2" if maxval > 255 else "u1").tobytes()
    path.write_bytes(f"P5\n{width} {height}\n{maxval}\n".encode() + samples)
    img = load_pgm(path)
    assert img.shape == pixels.shape
    assert img.tolist() == [[v * 255.0 / maxval for v in row] for row in pixels.tolist()]

