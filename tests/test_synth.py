"""Synthetic test-image generators."""

import numpy as np
import pytest

from denoisebench import synth
from denoisebench.synth import (
    checkerboard_image,
    default_set,
    gradient_image,
    texture_image,
)


def test_gradient_range_and_shape():
    img = gradient_image(128)
    assert img.shape == (128, 128)
    assert img[0, 0] == 0.0
    assert img[-1, -1] == 255.0
    # constant along anti-diagonals
    assert img[0, 10] == img[10, 0]


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
