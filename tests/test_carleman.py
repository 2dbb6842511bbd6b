"""Sampling probes of the weighted estimate and the convexity margin."""

import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from rtetomo import (
    Geometry,
    GridSet,
    NumericalError,
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
from rtetomo.geometry import carleman_weight, trapezoid_weights
from rtetomo.stencils import diff_axis, second_diff_axis, smooth_pass

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
    np.testing.assert_array_equal(a, b)
    assert carleman.LAMBDAS == (2.0, 5.0, 10.0)
    assert a.shape == (3, 5, 4)
    lhs, interior, boundary, ratio = np.moveaxis(a, -1, 0)
    # every sample is used: no NaN ratio, each the quotient of its sides
    np.testing.assert_array_equal(ratio, lhs / (interior - boundary))
    assert (np.fmin.reduce(ratio, axis=1) > 0.0).all()


def test_free_top_samples_are_all_excluded(monkeypatch):
    monkeypatch.setattr(carleman, "TOP_MARGIN", 0.0)
    grid = small_grid()
    v = sample_test_function(grid, stream(0, "carleman-samples"))
    assert v[1:-1, -1].any()
    with pytest.raises(NumericalError, match="no sample kept a positive denominator"):
        empirical_carleman_constant(3, 0, grid)


def test_sweep_argument_validation(objective10):
    # a count must be a positive integer, as minimize's max_iters must be
    for count in (0, 2.5):
        with pytest.raises(UsageError, match="samples must be a positive integer"):
            empirical_carleman_constant(count, 0, small_grid())
        with pytest.raises(UsageError, match="count must be a positive integer"):
            convexity_sweep(objective10, count=count)


def test_forward_and_reverse_gaps_sum_to_the_gradient_jump(objective10):
    sweep = convexity_sweep(objective10, count=2, seed=2, radius=5.0)
    # the sweep's first couple, redrawn from its stream
    rng = stream(2, "convexity-pairs")
    f1 = sample_in_ball(objective10, rng, radius=5.0)
    f2 = sample_in_ball(objective10, rng, radius=5.0)
    j1, g1 = objective10.value_and_grad(f1)
    j2, g2 = objective10.value_and_grad(f2)
    d = f2 - f1
    forward, reverse = sweep[0, :2]
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
    sweep = convexity_sweep(objective10, count=5, seed=0)
    again = convexity_sweep(objective10, count=5, seed=0)
    np.testing.assert_array_equal(sweep, again)
    assert sweep.shape == (5, 4)
    assert np.min(sweep[:, :2] - sweep[:, 2:3]) >= 0.0
    assert np.max(sweep[:, 3]) > 0.0
    with pytest.raises(UsageError):
        convexity_sweep(objective10, count=0)


@pytest.mark.parametrize("radius", [np.nan, np.inf, 0.0])
def test_ball_radius_must_be_finite_and_positive(objective10, radius):
    with pytest.raises(UsageError, match="sampling radius must be finite and positive"):
        sample_in_ball(objective10, stream(0, "convexity-pairs"), radius=radius)
    with pytest.raises(UsageError, match="sampling radius must be finite and positive"):
        convexity_sweep(objective10, count=1, radius=radius)


def test_both_ball_samplers_default_to_one_radius():
    for probe in (sample_in_ball, convexity_sweep):
        assert inspect.signature(probe).parameters["radius"].default is carleman.BALL_RADIUS


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


# The probes draw and evaluate their samples a block at a time; what follows
# are the per-sample algorithms they replace, kept as bit-for-bit oracles.


def single_test_function(grid, rng):
    u = rng.standard_normal((grid.x1.size, grid.z.size))
    for _ in range(carleman.SAMPLE_PASSES):
        u = smooth_pass(u)
    u[0, :] = 0.0
    u[-1, :] = 0.0
    u[:, 0] = 0.0
    u[:, grid.z >= grid.geometry.slab_top - carleman.TOP_MARGIN - 1e-9] = 0.0
    return u


def single_sides(v, lam, grid):
    h = grid.h
    k = lam[..., None, None]
    w = carleman_weight(grid.z, k)
    quad = trapezoid_weights(grid.x1.size, h)[:, None] * trapezoid_weights(grid.z.size, h)[None, :]
    lap = second_diff_axis(v, h, 0) + second_diff_axis(v, h, 1)
    lhs = np.sum(quad * w * lap * lap, axis=(-2, -1))
    gx = diff_axis(v, h, 0)
    gz = diff_axis(v, h, 1)
    interior = np.sum(quad * w * (k * (gx * gx + gz * gz) + k**3 * v * v), axis=(-2, -1))
    top = v[:, -1]
    dtop = diff_axis(top, h, 0)
    dn = gz[:, -1]
    wx = trapezoid_weights(grid.x1.size, h)
    w_top = carleman_weight(grid.geometry.slab_top, lam)
    boundary = lam**3 * w_top * float(np.sum(wx * (top * top + dtop * dtop + dn * dn)))
    return lhs, interior, boundary


def single_draw_in_ball(objective, rng, radius, base):
    d = np.moveaxis(rng.standard_normal((2, *objective.free_shape)), 0, -1)
    for _ in range(carleman.BALL_PASSES):
        d = smooth_pass(d)
    direction = np.moveaxis(d, -1, 0).ravel()
    s = np.sqrt(objective.free_norm_sq(direction))
    r = radius * (1.0 - rng.random())
    return base + (r / s) * direction


def single_convexity_sweep(objective, count, seed, radius):
    rng = stream(seed, "convexity-pairs")
    base = objective.initial_guess()
    out = np.empty((count, 4))
    for i in range(count):
        f1 = single_draw_in_ball(objective, rng, radius, base)
        f2 = single_draw_in_ball(objective, rng, radius, base)
        j1, g1 = objective.value_and_grad(f1)
        j2, g2 = objective.value_and_grad(f2)
        d = f2 - f1
        out[i, 0] = j2 - j1 - float(g1 @ d)
        out[i, 1] = j1 - j2 + float(g2 @ d)
        out[i, 2] = objective.gamma * objective.free_norm_sq(d)
        dn = float(np.linalg.norm(d))
        out[i, 3] = float(np.linalg.norm(g2 - g1)) / dn if dn > 0 else 0.0
    return out


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def test_estimate_probe_equals_single_draws(grid40):
    # 50 samples over blocks of 3, so the last block is partial
    rng = stream(7, "carleman-samples")
    lams = np.array(carleman.LAMBDAS)
    sides = [single_sides(single_test_function(grid40, rng), lams, grid40) for _ in range(50)]
    lhs, interior, boundary = np.array(sides).transpose(1, 2, 0)
    ratio = lhs / (interior - boundary)
    expected = np.stack([lhs, interior, boundary, ratio], axis=-1)
    assert_same_bits(empirical_carleman_constant(50, 7, grid40), expected)


def test_stacked_test_functions_are_single_draws_in_order():
    grid = small_grid()
    stack = sample_test_function(grid, stream(1, "carleman-samples"), (2, 3))
    assert stack.shape == (2, 3, grid.x1.size, grid.z.size)
    rng = stream(1, "carleman-samples")
    assert_same_bits(stack, np.array([single_test_function(grid, rng) for _ in range(6)]).reshape(stack.shape))
    assert_same_bits(sample_test_function(grid, stream(1, "carleman-samples")), stack[0, 0])


def test_sides_of_a_stack_are_the_sides_of_each_sample():
    grid = small_grid()
    stack = sample_test_function(grid, stream(2, "carleman-samples"), (2, 3))
    lams = np.array(carleman.LAMBDAS)
    sides = carleman_sides(stack, lams, grid)
    for side in sides:
        assert side.shape == (lams.size, 2, 3)
    for i, j in np.ndindex(2, 3):
        single = single_sides(stack[i, j], lams, grid)
        for side, one in zip(sides, single):
            assert_same_bits(side[:, i, j], one)
    # a scalar exponent gives the stack's shape
    assert carleman_sides(stack, 5.0, grid)[0].shape == (2, 3)


def test_sides_refuse_a_stack_with_the_wrong_trailing_shape():
    grid = small_grid()
    stack = sample_test_function(grid, stream(0, "carleman-samples"), (2,))
    with pytest.raises(UsageError, match="does not match the spatial grid"):
        carleman_sides(stack[..., :-1], 5.0, grid)
    with pytest.raises(UsageError, match="does not match the spatial grid"):
        carleman_sides(np.moveaxis(stack, 0, -1), 5.0, grid)
    with pytest.raises(UsageError, match="weight exponent"):
        carleman_sides(stack, np.array([2.0, 0.5]), grid)


@pytest.mark.parametrize("count", [9, 10])
def test_convexity_sweep_equals_single_draws(objective10, count):
    # a block of two or more couples divides at most one of the counts, so
    # the other ends on a partial block
    expected = single_convexity_sweep(objective10, count, 4, carleman.BALL_RADIUS)
    assert_same_bits(convexity_sweep(objective10, count=count, seed=4), expected)


def test_first_draw_of_a_block_is_sample_in_ball(objective10):
    base = objective10.initial_guess()
    block = carleman._draws_in_ball(objective10, stream(6, "convexity-pairs"), 3.0, base, 5)
    assert block.shape == (5, objective10.n_free)
    rng = stream(6, "convexity-pairs")
    assert_same_bits(sample_in_ball(objective10, rng, radius=3.0), block[0])
    # and the rest of the block is the draws that follow it
    rest = [single_draw_in_ball(objective10, rng, 3.0, base) for _ in range(4)]
    assert_same_bits(block[1:], np.array(rest))


def test_probes_grow_resident_memory_little():
    # Blocks bound every array a probe allocates, whatever the count.  In a
    # fresh interpreter, after one-sample warm-ups, 400 couples at h = 0.1
    # and 200 samples at h = 1/40 grew ru_maxrss by 128-256 KB when each
    # sample was drawn alone and by 424-640 KB drawn in blocks; the bound is
    # the former plus 1 MB.
    code = textwrap.dedent(
        """
        import resource
        from rtetomo import (
            CarlemanObjective, Geometry, GridSet, KernelModel, SourceModel, convexity_sweep,
            derive_boundary_data, empirical_carleman_constant, extract_boundary, make_phantom, solve_forward,
        )

        grid = GridSet.uniform(Geometry(), 0.1)
        kernel = KernelModel()
        field = solve_forward(make_phantom("A", 5.0, grid), SourceModel.build(0.05), kernel, grid)
        objective = CarlemanObjective(derive_boundary_data(extract_boundary(field), grid, kernel), kernel)
        fine = GridSet.uniform(Geometry(), 1.0 / 40.0)
        convexity_sweep(objective, count=1)
        empirical_carleman_constant(1, 0, fine)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        convexity_sweep(objective, count=400)
        empirical_carleman_constant(200, 0, fine)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
        """
    )
    paths = [str(Path(carleman.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    growth_kb = int(done.stdout)
    assert growth_kb <= 256 + 1024
