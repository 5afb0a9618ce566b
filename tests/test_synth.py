"""Synthetic test-image generators."""

import re
import tracemalloc

import numpy as np
import pytest

from denoisebench import synth
from denoisebench.noise import gaussian_field
from denoisebench.synth import (
    checkerboard_image,
    default_set,
    gradient_image,
    texture_image,
)


_MAX_SEED = 2**64 - 52


def test_gradient_range_and_shape():
    img = gradient_image(128)
    assert img.shape == (128, 128)
    assert img[0, 0] == 0.0
    assert img[-1, -1] == 255.0
    # constant along anti-diagonals
    assert img[0, 10] == img[10, 0]


@pytest.mark.parametrize("size", [0, 1])
def test_gradient_rejects_a_size_it_cannot_span(size):
    with pytest.raises(ValueError, match=f"^gradient size {size} must be at least 2"):
        gradient_image(size)


def test_checkerboard_values():
    img = checkerboard_image(32, cell=8)
    assert set(np.unique(img)) == {64.0, 192.0}
    assert img[0, 0] == 64.0
    assert img[0, 8] == 192.0
    assert img[8, 8] == 64.0


def _box_blur_oracle(field, passes):
    """Nine np.roll copies per pass: the reference for synth._box_blur."""
    for _ in range(passes):
        acc = np.zeros_like(field)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                acc += np.roll(np.roll(field, dy, axis=0), dx, axis=1)
        field = acc / 9.0
    return field


@pytest.mark.parametrize("shape", [(4, 4), (5, 7), (64, 64), (128, 96)])
@pytest.mark.parametrize("passes", [1, 2, 3])
def test_box_blur_equals_roll_oracle_exactly(shape, passes):
    field = np.random.default_rng(shape[0] * passes).normal(0.0, 1.0, shape)
    before = field.copy()
    np.testing.assert_array_equal(synth._box_blur(field, passes), _box_blur_oracle(field, passes))
    np.testing.assert_array_equal(field, before)


def _box_blur_copies(field, passes):
    """The earlier synth._box_blur, verbatim: np.pad and a sum of whole shifted images per pass."""
    h, w = field.shape
    for _ in range(passes):
        padded = np.pad(field, 1, mode="wrap")
        acc = np.zeros_like(field)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                acc += padded[1 - dy : 1 - dy + h, 1 - dx : 1 - dx + w]
        field = acc / 9.0
    return field


def _octave_stack_oracle(size, seed):
    """The earlier synth._octave_stack, verbatim."""
    field = np.zeros((size, size))
    for k, weight in enumerate(synth._OCTAVE_WEIGHTS):
        coarse = max(size >> k, 4)
        layer = _box_blur_copies(gaussian_field(seed + k, (coarse, coarse)), passes=2)
        if coarse < size:
            layer = np.repeat(np.repeat(layer, size // coarse, axis=0), size // coarse, axis=1)
            layer = _box_blur_copies(layer, passes=1)
        field += weight * layer
    return field


def _smooth_field_oracle(size, seed, k):
    """The earlier synth._smooth_field, verbatim."""
    coarse = max(size >> k, 4)
    layer = _box_blur_copies(gaussian_field(seed, (coarse, coarse)), passes=2)
    layer = np.repeat(np.repeat(layer, size // coarse, axis=0), size // coarse, axis=1)
    return _box_blur_copies(layer, passes=3)


def _texture_image_oracle(size, seed):
    """The earlier synth.texture_image, verbatim: the reference for its bits, at about 7 image copies."""
    texture = _octave_stack_oracle(size, seed)
    texture /= texture.std()
    layout = _smooth_field_oracle(size, seed + 50, 5) + 0.5 * _smooth_field_oracle(size, seed + 51, 4)
    ranks = np.empty(layout.size, dtype=np.intp)
    ranks[layout.argsort(axis=None)] = np.arange(layout.size)
    ranks = ranks.reshape(layout.shape) / layout.size
    plateaus = np.floor(ranks * synth._REGIONS) / (synth._REGIONS - 1) - 0.5  # in [-0.5, 0.5]
    field = texture + synth._EDGE_STRENGTH * plateaus * 6.0
    lo, hi = field.min(), field.max()
    return 16.0 + (field - lo) * (224.0 / (hi - lo))


@pytest.mark.parametrize("seed", [0, 1, 0x5EED, _MAX_SEED])
@pytest.mark.parametrize("size", [4, 8, 16, 32, 64, 96, 128, 256, 512])
def test_texture_equals_oracle_exactly(size, seed):
    assert np.array_equal(texture_image(size, seed), _texture_image_oracle(size, seed))


def test_texture_image_working_set():
    # the oracle peaks at 7.0 copies of its output at 512x512; this code at
    # 3.67: the octave sum, one layer, the blur's padded buffer, the plateau
    # map and the second octave's coarse noise with its draw's work arrays
    tracemalloc.start()
    try:
        image = texture_image(512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / image.nbytes <= 3.75


@pytest.mark.parametrize("size", [1, 3, 75, 100, 200, 0, -4])
def test_texture_rejects_a_size_off_its_octave_grid(size):
    with pytest.raises(ValueError, match=rf"^texture size {size} must be at least 4 and divisible "
                                         r"by max\(size >> k, 4\) for k = 0\.\.5"):
        texture_image(size)


@pytest.mark.parametrize("seed", [-1, _MAX_SEED + 1, 2**64, 2**70])
def test_texture_rejects_a_seed_out_of_range(seed):
    with pytest.raises(ValueError, match=rf"^texture seed {seed} must be in \[0, 2\*\*64 - 52\]"):
        texture_image(64, seed)


def test_texture_refuses_a_fractional_seed_before_drawing_noise():
    # gaussian_field would name the seed of its layer, seed + 50
    with pytest.raises(ValueError, match=r"^seed must be an integer, got 1\.5$"):
        texture_image(64, seed=1.5)


@pytest.mark.parametrize("seed", ["3", None, -2.5, np.float64(7.0)])
def test_texture_refuses_a_non_integer_seed_as_every_other_bad_seed(seed):
    # a non-integer must not reach the texture's own range comparison
    message = rf"^seed must be an integer, got {re.escape(repr(seed))}$"
    with pytest.raises(ValueError, match=message):
        texture_image(64, seed=seed)


def test_texture_is_deterministic_and_bounded():
    a = texture_image(128)
    b = texture_image(128)
    np.testing.assert_array_equal(a, b)
    assert a.min() == pytest.approx(16.0)
    assert a.max() == pytest.approx(240.0)
    assert not np.array_equal(a, texture_image(128, seed=1))


def test_texture_has_plateau_edges_and_multiscale_detail():
    img = texture_image(256)
    gy = np.abs(np.diff(img, axis=0))
    # region boundaries produce strong local steps well above the texture floor
    assert gy.max() > 10.0 * np.median(gy)
    # fine-scale content exists: neighboring pixels are not all identical
    assert np.median(gy) > 0.01


def test_default_set_contents():
    images = default_set()
    assert set(images) == {"gradient128", "checker128", "texture256"}
    assert images["texture256"].shape == (256, 256)
    assert images["gradient128"].shape == (128, 128)
