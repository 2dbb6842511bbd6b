"""Grids, directions, weights, and the elementary quadratures."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rtetomo import Geometry, GridSet, UsageError, carleman_weight
from rtetomo.geometry import (
    DegenerateDirectionError,
    direction_alpha_derivative,
    direction_tables,
    direction_vector,
    trapezoid_weights,
)


def test_default_geometry_extents(geometry):
    assert geometry.half_width == 0.5
    assert geometry.slab_bottom == 1.0
    assert geometry.slab_top == 2.0
    assert geometry.reach == 0.5


def test_geometry_rejects_bad_extents():
    with pytest.raises(UsageError):
        Geometry(half_width=0.0)
    with pytest.raises(UsageError):
        Geometry(slab_bottom=2.0, slab_top=1.0)


def test_uniform_grid_shapes_and_offsets(grid10):
    assert grid10.shape_medium == (11, 11, 11)
    assert grid10.shape_hull == (11, 21, 11)


def test_every_axis_shares_the_grid_step(grid10):
    alpha = np.linspace(-0.5, 0.5, 6)
    with pytest.raises(UsageError, match="alpha"):
        GridSet(grid10.geometry, grid10.x1, grid10.z, alpha, grid10.h)


def test_uniform_grid_rejects_misfit_step(geometry):
    with pytest.raises(UsageError):
        GridSet.uniform(geometry, 0.3)
    with pytest.raises(UsageError):
        GridSet.uniform(geometry, -0.1)


def test_uniform_grid_rejects_medium_off_the_ray_lattice():
    # Every span is a multiple of h, but the medium nodes sit half a step
    # off the lattice the rays are marched on.
    with pytest.raises(UsageError, match="x1 nodes"):
        GridSet.uniform(Geometry(source_half_width=0.55), 0.1)
    with pytest.raises(UsageError):
        GridSet.uniform(Geometry(slab_bottom=1.05, slab_top=2.05), 0.1)


def test_wide_source_segment_grows_the_hull():
    geom = Geometry(source_half_width=0.75)
    grid = GridSet.uniform(geom, 0.25)
    assert geom.reach == 0.75
    assert grid.shape_hull == (7, 9, 7)
    assert grid.shape_medium == (5, 5, 7)


def test_direction_vectors_are_unit(grid10):
    nu1, nu2, _, _ = direction_tables(grid10)
    np.testing.assert_allclose(nu1 * nu1 + nu2 * nu2, 1.0, atol=1e-13)
    assert np.all(nu2 > 0)


def test_direction_alpha_derivative_matches_differences(grid10):
    x = (0.3, 1.7)
    alpha = -0.2
    da = 1e-6
    fd = (direction_vector(x, alpha + da) - direction_vector(x, alpha - da)) / (2 * da)
    np.testing.assert_allclose(direction_alpha_derivative(x, alpha), fd, atol=1e-8)


def test_direction_tables_match_pointwise(grid10):
    nu1, nu2, dnu1, dnu2 = direction_tables(grid10)
    i, j, k = 3, 5, 7
    x = (grid10.x1[i], grid10.z[j])
    a = grid10.alpha[k]
    np.testing.assert_allclose(
        [nu1[i, j, k], nu2[i, j, k]], direction_vector(x, a), atol=1e-14
    )
    np.testing.assert_allclose(
        [dnu1[i, j, k], dnu2[i, j, k]], direction_alpha_derivative(x, a), atol=1e-14
    )


def test_degenerate_direction_raises():
    with pytest.raises(DegenerateDirectionError):
        direction_vector((0.1, 0.0), 0.1)


def test_trapezoid_weights_sum_to_span():
    w = trapezoid_weights(11, 0.1)
    assert w[0] == w[-1] == 0.05
    np.testing.assert_allclose(w.sum(), 1.0, atol=1e-15)
    with pytest.raises(UsageError):
        trapezoid_weights(1, 0.1)


@given(c0=st.floats(-5, 5), c1=st.floats(-5, 5))
def test_trapezoid_rule_exact_on_affine_integrands(c0, c1):
    t = np.linspace(-0.5, 0.5, 21)
    values = c0 + c1 * t
    integral = values @ trapezoid_weights(t.size, t[1] - t[0])
    np.testing.assert_allclose(integral, c0, atol=1e-12)


def test_carleman_weight_normalization():
    assert carleman_weight(0.0, 7.0) == 1.0
    w = carleman_weight(np.array([1.0, 2.0]), 5.0)
    np.testing.assert_allclose(w, [np.exp(10.0), np.exp(40.0)], rtol=1e-15)
