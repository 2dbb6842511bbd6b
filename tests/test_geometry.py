"""Grids, directions, weights, and the elementary quadratures."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rtetomo import Geometry, GridSet, UsageError, carleman_weight
from rtetomo.geometry import direction_tables, trapezoid_weights


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


def test_every_axis_shares_the_grid_step():
    wide_low = Geometry(half_width=0.75, slab_bottom=0.5, slab_top=1.5, source_half_width=0.25)
    cases = [
        *((Geometry(), h) for h in (0.5, 0.25, 0.1, 0.05, 0.025)),
        *((wide_low, h) for h in (0.25, 0.125, 0.05)),
        (Geometry(source_half_width=0.75), 0.25),
    ]
    for geometry, h in cases:
        grid = GridSet(geometry, h)
        for nodes, lo, hi in (
            (grid.x1, -geometry.half_width, geometry.half_width),
            (grid.z, geometry.slab_bottom, geometry.slab_top),
            (grid.alpha, -geometry.source_half_width, geometry.source_half_width),
        ):
            np.testing.assert_allclose(np.diff(nodes), h, rtol=0, atol=1e-9)
            assert (nodes[0], nodes[-1]) == (lo, hi)


@pytest.mark.parametrize(
    "geometry, h, axis",
    [(Geometry(), 1e12, "x1"), (Geometry(source_half_width=0.05), 0.2, "alpha")],
)
def test_step_longer_than_a_span_names_the_axis(geometry, h, axis):
    with pytest.raises(UsageError, match=f"^{axis} span .* is shorter than step"):
        GridSet.uniform(geometry, h)


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


@np.vectorize
def _direction(x1, z, alpha):
    """Unit vector from the source (alpha, 0) to the point (x1, z)."""
    r = math.hypot(x1 - alpha, z)
    return (x1 - alpha) / r, z / r


def test_direction_tables_match_pointwise(grid10):
    nu1, nu2, _, _ = direction_tables(grid10)
    x1, z, alpha = np.meshgrid(grid10.x1, grid10.z, grid10.alpha, indexing="ij")
    np.testing.assert_allclose([nu1, nu2], _direction(x1, z, alpha), rtol=0, atol=1e-14)


def test_direction_alpha_derivative_matches_differences(grid10):
    _, _, dnu1, dnu2 = direction_tables(grid10)
    x1, z, alpha = np.meshgrid(grid10.x1, grid10.z, grid10.alpha, indexing="ij")
    da = 1e-6
    ahead, behind = np.array(_direction(x1, z, alpha + da)), np.array(_direction(x1, z, alpha - da))
    np.testing.assert_allclose([dnu1, dnu2], (ahead - behind) / (2 * da), rtol=0, atol=1e-8)


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
