"""Sampling probes of the weighted estimate and the convexity margin."""

import numpy as np
import pytest

from rtetomo import (
    DegenerateSampleError,
    Geometry,
    GridSet,
    UsageError,
    convexity_sweep,
    empirical_carleman_constant,
    gradient_check,
    sample_in_ball,
    sample_test_function,
    stream,
)
from rtetomo import carleman
from rtetomo.carleman import carleman_sides
from rtetomo.stencils import smooth_pass

# Analytic quadratures of the three sides for
# u = sin(pi (x + 1/2)) (z - 1)^2 at lam = 5, frozen from mpmath.
ORACLE_LHS = 1.6287085902610902e17
ORACLE_INTERIOR = 5.268850002295576e17
ORACLE_BOUNDARY = 2.1875536248195908e20


def small_grid(h=0.05):
    return GridSet.uniform(Geometry(), h)


def separable_sample(grid):
    x = grid.x1[:, None]
    z = grid.z[None, :]
    return np.sin(np.pi * (x + 0.5)) * (z - 1.0) ** 2


def test_sides_match_the_analytic_oracle():
    # the weight concentrates all three integrands in a thin layer under
    # the top face, so the match needs a fine step
    grid = small_grid(1.0 / 240.0)
    lhs, interior, boundary = carleman_sides(separable_sample(grid), 5.0, grid)
    np.testing.assert_allclose(lhs, ORACLE_LHS, rtol=1e-2)
    np.testing.assert_allclose(interior, ORACLE_INTERIOR, rtol=1e-2)
    np.testing.assert_allclose(boundary, ORACLE_BOUNDARY, rtol=1e-2)


def test_live_top_trace_flips_the_denominator():
    # boundary carries lam^3 exp(2 lam b^2); any O(1) trace swamps the
    # interior term, which is exactly why such samples are excluded
    grid = small_grid(1.0 / 40.0)
    _, interior, boundary = carleman_sides(separable_sample(grid), 5.0, grid)
    assert interior - boundary < 0.0


def test_sides_scale_quadratically():
    grid = small_grid()
    u = separable_sample(grid)
    base = np.array(carleman_sides(u, 5.0, grid))
    scaled = np.array(carleman_sides(3.0 * u, 5.0, grid))
    np.testing.assert_allclose(scaled, 9.0 * base, rtol=1e-12)
    np.testing.assert_array_equal(carleman_sides(0.0 * u, 5.0, grid), (0.0, 0.0, 0.0))


def test_sides_validation():
    grid = small_grid()
    u = separable_sample(grid)
    with pytest.raises(UsageError):
        carleman_sides(u, 0.5, grid)
    with pytest.raises(UsageError):
        carleman_sides(u[:-1], 5.0, grid)


def test_sampler_honors_the_vanishing_faces():
    grid = small_grid()
    rng = stream(0, "carleman-samples")
    v = sample_test_function(grid, rng)
    assert v.shape == (grid.x1.size, grid.z.size)
    assert not v[0].any() and not v[-1].any() and not v[:, 0].any()
    assert not v[:, grid.z >= grid.geometry.slab_top - 0.2 - 1e-9].any()
    assert np.abs(v).max() > 0.0


def test_vector_exponents_match_each_scalar_exponent():
    grid = small_grid()
    u = sample_test_function(grid, stream(0, "carleman-samples"))
    lams = np.array(carleman.LAMBDAS)
    sides = np.array(carleman_sides(u, lams, grid))
    assert sides.shape == (3, lams.size)
    for j, lam in enumerate(carleman.LAMBDAS):
        np.testing.assert_array_equal(sides[:, j], carleman_sides(u, lam, grid))
    with pytest.raises(UsageError):
        carleman_sides(u, np.array([2.0, 0.5]), grid)


def test_constant_sweep_is_deterministic():
    grid = small_grid()
    a = empirical_carleman_constant(5, 0, grid)
    b = empirical_carleman_constant(5, 0, grid)
    np.testing.assert_array_equal(a.table, b.table)
    assert a.rows() == b.rows()
    assert [row[0] for row in a.rows()] == [2.0, 5.0, 10.0]
    for lam, ratio, used, excluded in a.rows():
        assert ratio == np.min(a.table[a.table[:, 0] == lam, 5]) > 0.0
        assert used == 5 and excluded == 0


def test_free_top_samples_are_all_excluded(monkeypatch):
    monkeypatch.setattr(carleman, "TOP_MARGIN", 0.0)
    grid = small_grid()
    v = sample_test_function(grid, stream(0, "carleman-samples"))
    assert v[1:-1, -1].any()
    with pytest.raises(DegenerateSampleError):
        empirical_carleman_constant(3, 0, grid)


def test_sweep_argument_validation():
    grid = small_grid()
    with pytest.raises(UsageError):
        empirical_carleman_constant(0, 0, grid)


def test_forward_and_reverse_gaps_sum_to_the_gradient_jump(objective10):
    report = convexity_sweep(objective10, count=2, seed=2, radius=5.0)
    # the sweep's first couple, redrawn from its stream
    rng = stream(2, "convexity-pairs")
    f1 = sample_in_ball(objective10, rng, radius=5.0)
    f2 = sample_in_ball(objective10, rng, radius=5.0)
    j1, g1 = objective10.value_and_grad(f1)
    j2, g2 = objective10.value_and_grad(f2)
    d = f2 - f1
    forward, reverse = report.gaps[0]
    assert forward == j2 - j1 - float(g1 @ d)
    assert reverse == j1 - j2 + float(g2 @ d)
    np.testing.assert_allclose(forward + reverse, float((g2 - g1) @ d), rtol=1e-9)


@pytest.mark.parametrize("shape", [(7, 9), (1, 6), (6, 1), (1, 1), (5, 4, 3), (3, 1, 2), (2, 6, 5, 3)])
def test_smooth_pass_equals_the_edge_padded_average(shape):
    f = np.random.default_rng(len(shape) * 10 + shape[0]).standard_normal(shape)
    padded = np.pad(f, ((1, 1), (1, 1)) + ((0, 0),) * (f.ndim - 2), mode="edge")
    expected = (
        padded[1:-1, 1:-1] + padded[2:, 1:-1] + padded[:-2, 1:-1] + padded[1:-1, 2:] + padded[1:-1, :-2]
    ) / 5.0
    np.testing.assert_array_equal(smooth_pass(f), expected)


def test_smooth_pass_smooths_each_trailing_slice():
    f = np.random.default_rng(0).standard_normal((7, 5, 3))
    expected = np.stack([smooth_pass(f[:, :, k]) for k in range(3)], axis=2)
    np.testing.assert_array_equal(smooth_pass(f), expected)


def test_sample_in_ball_stays_in_the_ball(objective10):
    rng = stream(3, "convexity-pairs")
    base = objective10.initial_guess()
    p0 = objective10.apply_constraints(base)
    for _ in range(5):
        f = sample_in_ball(objective10, rng, radius=4.0)
        p = objective10.apply_constraints(f)
        dist = np.sqrt(objective10.s_norm_sq_arrays(p.p - p0.p, p.q - p0.q))
        assert 0.0 < dist <= 4.0 + 1e-9
    with pytest.raises(UsageError):
        sample_in_ball(objective10, rng, radius=0.0)


def test_small_convexity_sweep(objective10):
    report = convexity_sweep(objective10, count=5, seed=0)
    again = convexity_sweep(objective10, count=5, seed=0)
    np.testing.assert_array_equal(report.gaps, again.gaps)
    assert report.gaps.shape == (5, 2)
    assert report.min_margin >= 0.0
    assert report.max_lipschitz > 0.0
    with pytest.raises(UsageError):
        convexity_sweep(objective10, count=0)


def test_gradient_check_catches_a_perturbed_gradient(objective10):
    class Perturbed:
        initial_guess = objective10.initial_guess
        value = objective10.value

        def value_and_grad(self, free):
            jval, grad = objective10.value_and_grad(free)
            return jval, grad * (1.0 + 1e-4)

    errors = gradient_check(objective10, seed=5)
    assert errors.shape == (carleman.GRADIENT_DIRECTIONS,)
    assert errors.max() < 1e-5
    assert gradient_check(Perturbed(), seed=5).min() >= 1e-5
