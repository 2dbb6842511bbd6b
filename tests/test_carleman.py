"""Sampling probes of the weighted estimate and the convexity margin."""

import numpy as np
import pytest

from rtetomo import (
    DegenerateSampleError,
    Geometry,
    GridSet,
    PairField,
    UsageError,
    convexity_gap,
    convexity_sweep,
    empirical_carleman_constant,
    gradient_check,
    sample_in_ball,
    sample_test_function,
    stream,
)
from rtetomo.carleman import carleman_sides

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
    draw = sample_test_function(grid, rng)
    v = draw.values
    assert not v[0].any() and not v[-1].any() and not v[:, 0].any()
    assert not v[:, grid.z >= grid.geometry.slab_top - 0.2 - 1e-9].any()
    assert np.abs(v).max() > 0.0


def test_sample_invariant_is_enforced():
    # imported here so pytest does not try to collect the class
    from rtetomo import TestFunctionSample

    values = np.ones((6, 6))
    with pytest.raises(UsageError):
        TestFunctionSample(values=values)
    with pytest.raises(UsageError):
        TestFunctionSample(values=np.zeros((3, 8)))


def test_constant_sweep_is_deterministic():
    grid = small_grid()
    a = empirical_carleman_constant(5, (2.0, 5.0), 0, grid=grid)
    b = empirical_carleman_constant(5, (2.0, 5.0), 0, grid=grid)
    np.testing.assert_array_equal(a.table, b.table)
    assert a.min_ratio == b.min_ratio
    for lam in a.lambdas:
        assert a.min_ratio[lam] > 0.0
        assert a.used[lam] == 5 and a.excluded[lam] == 0
    assert a.rows()[0][0] == 2.0


def test_free_top_samples_are_all_excluded():
    grid = small_grid()
    with pytest.raises(DegenerateSampleError):
        empirical_carleman_constant(3, (5.0,), 0, grid=grid, top_margin=0.0)


def test_sweep_argument_validation():
    grid = small_grid()
    with pytest.raises(UsageError):
        empirical_carleman_constant(5, (), 0, grid=grid)
    with pytest.raises(UsageError):
        empirical_carleman_constant(5, (0.5,), 0, grid=grid)
    with pytest.raises(UsageError):
        empirical_carleman_constant(5, (5.0, 2.0), 0, grid=grid)
    with pytest.raises(UsageError):
        empirical_carleman_constant(0, (5.0,), 0, grid=grid)


def test_gap_at_the_same_point_is_zero(objective10):
    free = objective10.initial_guess()
    gap, bound = convexity_gap(objective10, free, free)
    assert gap == 0.0
    assert bound == 0.0


def test_gap_accepts_admissible_pairs(objective10):
    rng = stream(1, "convexity-pairs")
    f1 = objective10.initial_guess()
    f2 = sample_in_ball(objective10, rng, radius=5.0)
    as_pair = objective10.apply_constraints(f2)
    np.testing.assert_array_equal(
        convexity_gap(objective10, f1, f2), convexity_gap(objective10, f1, as_pair)
    )


def test_gap_rejects_inadmissible_pairs(objective10, grid10):
    shape = grid10.shape_medium
    alien = PairField(np.ones(shape), np.zeros(shape), grid10)
    with pytest.raises(UsageError):
        convexity_gap(objective10, objective10.initial_guess(), alien)


def test_forward_and_reverse_gaps_sum_to_the_gradient_jump(objective10):
    rng = stream(2, "convexity-pairs")
    f1 = sample_in_ball(objective10, rng, radius=5.0)
    f2 = sample_in_ball(objective10, rng, radius=5.0)
    gap12, _ = convexity_gap(objective10, f1, f2)
    gap21, _ = convexity_gap(objective10, f2, f1)
    _, g1 = objective10.value_and_grad(f1)
    _, g2 = objective10.value_and_grad(f2)
    expected = float((g2 - g1) @ (f2 - f1))
    np.testing.assert_allclose(gap12 + gap21, expected, rtol=1e-9)


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

    errors = gradient_check(objective10, directions=2, seed=5)
    assert errors.shape == (2,)
    assert errors.max() < 1e-5
    assert gradient_check(Perturbed(), seed=5).min() >= 1e-5
    with pytest.raises(UsageError):
        gradient_check(objective10, directions=0)
