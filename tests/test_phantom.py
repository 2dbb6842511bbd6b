"""Letter masks and the synthetic media built from them."""

import numpy as np
import pytest
from scipy import ndimage

from rtetomo import GridSet, UsageError, letter_mask, make_phantom, true_contrast
from rtetomo.phantom import LETTER_BOX, LETTER_STROKES


def _node(grid, x1, z):
    i = int(round((x1 - grid.x1[0]) / grid.h))
    j = int(round((z - grid.z[0]) / grid.h))
    return i, j


@pytest.mark.parametrize(
    "letter, point, member",
    [
        ("A", (-0.3, 1.5), True),
        ("A", (0.0, 1.75), True),
        ("A", (0.0, 1.5), True),
        ("A", (0.0, 1.6), False),
        ("SZ", (-0.2, 1.75), True),
        ("SZ", (0.2, 1.75), True),
        ("SZ", (0.0, 1.5), False),
        ("OMEGA", (0.0, 1.7), True),
        ("OMEGA", (-0.2, 1.25), True),
        ("OMEGA", (0.0, 1.3), False),
        ("OMEGA", (0.0, 1.5), False),
    ],
)
def test_letter_membership_at_landmark_nodes(grid20, letter, point, member):
    mask = letter_mask(letter, grid20)
    assert mask[_node(grid20, *point)] == member


def test_masks_stay_inside_the_letter_box(grid20):
    x1, z = grid20.spatial_mesh("medium")
    x_lo, x_hi, z_lo, z_hi = LETTER_BOX
    for letter in LETTER_STROKES:
        mask = letter_mask(letter, grid20)
        assert np.all(x1[mask] >= x_lo - 1e-9) and np.all(x1[mask] <= x_hi + 1e-9)
        assert np.all(z[mask] >= z_lo - 1e-9) and np.all(z[mask] <= z_hi + 1e-9)


@pytest.mark.parametrize(
    "letter, components, nodes20, nodes40",
    [("A", 1, 132, 440), ("SZ", 2, 142, 458), ("OMEGA", 1, 75, 263)],
)
def test_mask_census(geometry, grid20, letter, components, nodes20, nodes40):
    mask = letter_mask(letter, grid20)
    _, found = ndimage.label(mask)
    assert found == components
    assert mask.sum() == nodes20
    grid40 = GridSet.uniform(geometry, 0.025)
    mask40 = letter_mask(letter, grid40)
    _, found = ndimage.label(mask40)
    assert found == components
    assert mask40.sum() == nodes40
    # stroke edges sit on multiples of 1/20, so coarsening is exact
    np.testing.assert_array_equal(mask40[::2, ::2], mask)


def test_empty_and_unknown_letters(grid20):
    assert not letter_mask(None, grid20).any()
    with pytest.raises(UsageError):
        letter_mask("Q", grid20)


def test_phantom_coefficient_layout(grid10):
    phantom = make_phantom("A", 5.0, grid10)
    assert phantom.attenuation.shape == (grid10.x1.size, grid10.z.size)
    np.testing.assert_array_equal(
        phantom.attenuation, phantom.mu_a + phantom.mu_s
    )
    assert phantom.medium_block("mu_s") is phantom.mu_s
    assert np.all(phantom.mu_s == 5.0)
    assert phantom.mu_a[phantom.mask].min() == 5.0
    assert phantom.mu_a[~phantom.mask].max() == 0.0


def test_phantom_scattering_override(grid10):
    phantom = make_phantom(None, 0.0, grid10, mu_s_value=2.5)
    assert phantom.attenuation.max() == 2.5
    assert not phantom.mask.any()


def test_phantom_validation(grid10):
    with pytest.raises(UsageError):
        make_phantom("A", 0.0, grid10)
    with pytest.raises(UsageError):
        make_phantom(None, -1.0, grid10)
    with pytest.raises(UsageError):
        make_phantom(None, 0.0, grid10, mu_s_value=-5.0)


def test_true_contrast_values():
    assert true_contrast(5.0) == 2.0
    assert true_contrast(0.0) == 1.0
    assert true_contrast(10.0) == 3.0
    assert true_contrast(15.0, mu_s_value=5.0) == 4.0
    with pytest.raises(UsageError):
        true_contrast(-1.0)
    with pytest.raises(UsageError):
        true_contrast(5.0, mu_s_value=0.0)
