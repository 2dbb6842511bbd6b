"""Objective assembly, constraints, and the descent loop."""

import warnings

import numpy as np
import pytest

from rtetomo import (
    BoundaryDataSet,
    CarlemanObjective,
    Geometry,
    GridSet,
    NumericalError,
    PairField,
    UsageError,
    derive_boundary_data,
    extract_boundary,
    gradient_check,
    make_phantom,
    minimize,
    sample_in_ball,
    solve_forward,
    stream,
)
from rtetomo.carleman import GRADIENT_DIRECTIONS
from rtetomo.geometry import trapezoid_weights


def constant_log_dataset(grid, level=1.0):
    """Dataset whose log data are identically ``level`` with zero slopes."""
    n1, nz, nk = grid.shape_medium

    def faces(value):
        return {
            "bottom": np.full((n1, nk), value),
            "top": np.full((n1, nk), value),
            "left": np.full((nz - 2, nk), value),
            "right": np.full((nz - 2, nk), value),
        }

    return BoundaryDataSet(
        grid=grid,
        g=faces(np.exp(level)),
        g1=faces(level),
        g2=faces(0.0),
        g3=np.zeros((n1, nk)),
        g4=np.zeros((n1, nk)),
        delta=0.0,
        seed=0,
    )


@pytest.fixture(scope="module")
def objective_uneven(source, kernel):
    """Objective on a grid whose three axis sizes differ, (7, 6, 11) nodes,
    so an axis mixed up in the S-norm cannot pass unseen."""
    grid = GridSet.uniform(Geometry(half_width=0.3, slab_top=1.5), 0.1)
    assert grid.shape_medium == (7, 6, 11)
    field = solve_forward(make_phantom("A", 5.0, grid), source, kernel, grid)
    return CarlemanObjective(derive_boundary_data(extract_boundary(field), grid, kernel), kernel)


def test_pair_field_shape_guard(grid10):
    shape = grid10.shape_medium
    with pytest.raises(UsageError):
        PairField(np.zeros(shape), np.zeros((2, 2, 2)), grid10)


def test_objective_parameter_validation(boundary10, kernel):
    with pytest.raises(UsageError):
        CarlemanObjective(boundary10, kernel, lam=0.0)
    with pytest.raises(UsageError):
        CarlemanObjective(boundary10, kernel, gamma=1.0)
    with pytest.raises(UsageError):
        CarlemanObjective(boundary10, kernel, gamma=-0.1)
    with pytest.raises(UsageError):
        CarlemanObjective(boundary10, kernel, epsilon=0.0)


def test_config_and_objective_refuse_a_weight_with_the_same_message(boundary10, kernel):
    from rtetomo.config import RunConfig

    with pytest.raises(UsageError) as from_config:
        RunConfig(lam=0.0)
    with pytest.raises(UsageError) as from_objective:
        CarlemanObjective(boundary10, kernel, lam=0.0)
    assert str(from_config.value) == str(from_objective.value)
    assert "lambda" in str(from_config.value)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("attr", ["lam", "gamma", "epsilon"])
def test_non_finite_weights_are_refused_as_the_config_refuses_them(boundary10, kernel, attr, value):
    from rtetomo.config import RunConfig

    with pytest.raises(UsageError) as from_config:
        RunConfig(**{attr: value})
    with pytest.raises(UsageError) as from_objective:
        CarlemanObjective(boundary10, kernel, **{attr: value})
    assert str(from_objective.value) == str(from_config.value)
    assert "must be finite" in str(from_objective.value)


def test_objective_refuses_tiny_grids(geometry, kernel):
    grid = GridSet.uniform(geometry, 0.5)
    data = constant_log_dataset(grid)
    with pytest.raises(UsageError):
        CarlemanObjective(data, kernel)


def test_free_vector_shape_guard(objective10):
    with pytest.raises(UsageError):
        objective10.value(np.zeros(3))
    free = objective10.initial_guess()
    for method in (objective10.apply_constraints, objective10.free_norm_sq):
        with pytest.raises(UsageError, match="free vector has shape"):
            method(free[:-1])
    with pytest.raises(UsageError, match="free vector has shape"):
        objective10.free_norm_sq(np.stack([free, free]).T)


def test_s_norm_of_unit_constant_is_one(objective10, grid10):
    shape = grid10.shape_medium
    value = objective10.s_norm_sq_arrays(np.ones(shape), np.zeros(shape))
    np.testing.assert_allclose(value, 1.0, atol=1e-12)


def test_residual_weights_normalized_to_the_top(objective10, grid10):
    from rtetomo.geometry import trapezoid_weights

    w = objective10.residual_weights
    wa = trapezoid_weights(grid10.alpha.size, grid10.h)
    cell = grid10.h * grid10.h
    exp_factor = w / (wa[None, :] * cell)
    zint = grid10.z[1:-1]
    top = grid10.geometry.slab_top
    expected = np.exp(2.0 * objective10.lam * (zint**2 - top**2))
    np.testing.assert_allclose(
        exp_factor, np.broadcast_to(expected[:, None], exp_factor.shape), rtol=1e-13
    )
    assert np.all(exp_factor > 0.0)
    assert exp_factor.max() <= 1.0


def test_constraint_round_trip_is_exact(objective10):
    free = objective10.initial_guess()
    pair = objective10.apply_constraints(free)
    np.testing.assert_array_equal(objective10.extract_free(pair), free)


def test_expanded_pair_interpolates_the_data(objective10, boundary10):
    pair = objective10.apply_constraints(objective10.initial_guess())
    # the bottom and top rows carry the corners the side columns share
    np.testing.assert_array_equal(pair.p[:, 0, :], boundary10.g1["bottom"])
    np.testing.assert_array_equal(pair.p[:, -1, :], boundary10.g1["top"])
    np.testing.assert_array_equal(pair.p[0, 1:-1], boundary10.g1["left"])
    np.testing.assert_array_equal(pair.q[:, 0, :], boundary10.g2["bottom"])
    np.testing.assert_array_equal(pair.q[:, -1, :], boundary10.g2["top"])
    np.testing.assert_array_equal(pair.q[-1, 1:-1], boundary10.g2["right"])


def test_eliminated_layer_obeys_the_normal_identity(objective10, boundary10, grid10):
    pair = objective10.apply_constraints(objective10.initial_guess())
    nz = grid10.z.size
    expected = (
        3.0 * boundary10.g1["top"][1:-1]
        + pair.p[1:-1, nz - 3, :]
        - 2.0 * grid10.h * boundary10.g3[1:-1]
    ) / 4.0
    np.testing.assert_allclose(pair.p[1:-1, nz - 2, :], expected, atol=1e-14)


def test_constant_log_data_expand_to_the_constant_pair(grid10, kernel):
    data = constant_log_dataset(grid10)
    objective = CarlemanObjective(data, kernel)
    pair = objective.apply_constraints(objective.initial_guess())
    np.testing.assert_allclose(pair.p, 1.0, atol=1e-12)
    np.testing.assert_allclose(pair.q, 0.0, atol=1e-12)
    np.testing.assert_allclose(
        objective.s_norm_sq_arrays(pair.p, pair.q), 1.0, atol=1e-10
    )


@pytest.mark.parametrize("h", [0.1, 0.05])
def test_viscosity_term_is_minus_epsilon_times_the_laplacian(geometry, kernel, h):
    # The five-point stencil and the one-sided normal identity are exact on
    # a quadratic in x1 and z: a dataset taken from one expands to it at
    # every node, and only the viscosity term of R1 and R2 depends on eps.
    grid = GridSet.uniform(geometry, h)
    x1, z = (c[:, :, None] for c in grid.spatial_mesh())
    alpha = grid.alpha
    p = 0.3 * x1**2 - 0.2 * z**2 + 0.1 * x1 * z + 0.05 * alpha
    q = -0.1 * x1**2 + 0.4 * z**2 + 0.2 * z * alpha
    laplacians = (2 * 0.3 - 2 * 0.2, -2 * 0.1 + 2 * 0.4)
    g3, g4 = (np.broadcast_to(dz, p.shape)[:, -1] for dz in (-0.4 * z + 0.1 * x1, 0.8 * z + 0.2 * alpha))
    g1, g2 = extract_boundary(p), extract_boundary(q)
    g = {face: np.exp(v) for face, v in g1.items()}
    data = BoundaryDataSet(grid=grid, g=g, g1=g1, g2=g2, g3=g3, g4=g4, delta=0.0, seed=0)
    eps = (1e-2, 3e-2)
    objectives = [CarlemanObjective(data, kernel, epsilon=e) for e in eps]
    free = objectives[0].extract_free(PairField(p, q, grid))
    pair = objectives[0].apply_constraints(free)
    np.testing.assert_allclose(pair.p, p, rtol=0, atol=1e-13)
    np.testing.assert_allclose(pair.q, q, rtol=0, atol=1e-13)
    first, second = (objective.residuals(free) for objective in objectives)
    for r1, r2, laplacian in zip(first, second, laplacians):
        np.testing.assert_allclose(r1 - r2, -(eps[0] - eps[1]) * laplacian, rtol=1e-6)


def test_value_decomposes_into_residual_and_penalty(objective10):
    free = objective10.initial_guess()
    r1, r2 = objective10.residuals(free)
    jres = np.einsum("ijk,jk->", r1 * r1 + r2 * r2, objective10.residual_weights)
    pair = objective10.apply_constraints(free)
    penalty = objective10.gamma * objective10.s_norm_sq_arrays(pair.p, pair.q)
    value = objective10.value(free)
    np.testing.assert_allclose(value, jres + penalty, rtol=1e-13)
    assert value >= penalty > 0.0


def test_value_and_grad_value_matches_value(objective10):
    free = objective10.initial_guess()
    jval, grad = objective10.value_and_grad(free)
    assert jval == objective10.value(free)
    assert grad.shape == (objective10.n_free,)
    assert np.all(np.isfinite(grad))


@pytest.mark.parametrize("shift", [-800.0, 720.0])
def test_j_far_from_the_data_is_non_finite_without_warnings(objective10, shift):
    # exp(p) underflows to 0 at p - 800 and overflows at p + 720.
    free = objective10.initial_guess()
    free[: objective10.n_free // 2] += shift
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not np.isfinite(objective10.value(free))
        assert not np.isfinite(objective10.value_and_grad(free)[0])


def test_value_and_gradient_at_the_first_guess_are_pinned(objective10):
    jval, grad = objective10.value_and_grad(objective10.initial_guess())
    np.testing.assert_allclose(jval, 0.12111570581504834, rtol=1e-13)
    np.testing.assert_allclose(np.linalg.norm(grad), 0.004809838609645634, rtol=1e-13)


def einsum_s_norm(objective, p, q):
    """Reference S-norm: one einsum contraction per term and field."""
    h = objective.grid.h
    wx, wz, wa = (trapezoid_weights(n, h) for n in objective.grid.shape_medium)
    total = 0.0
    for f in (p, q):
        total += np.einsum("i,j,k,ijk->", wx, wz, wa, f * f)
        d = np.diff(f, axis=0) / h
        total += h * np.einsum("j,k,ijk->", wz, wa, d * d)
        d = np.diff(f, axis=1) / h
        total += h * np.einsum("i,k,ijk->", wx, wa, d * d)
        d = f[2:] - 2.0 * f[1:-1] + f[:-2]
        total += h * np.einsum("j,k,ijk->", wz, wa, d * d)
        d = f[:, 2:] - 2.0 * f[:, 1:-1] + f[:, :-2]
        total += h * np.einsum("i,k,ijk->", wx, wa, d * d)
    return total


@pytest.mark.parametrize("step", [0.1, 0.05, "uneven"])
def test_s_norm_matches_the_einsum_reference(request, boundary20, kernel, step):
    if step == 0.05:
        objective = CarlemanObjective(boundary20, kernel)
    else:
        objective = request.getfixturevalue("objective10" if step == 0.1 else "objective_uneven")
    shape = objective.grid.shape_medium
    rng = np.random.default_rng(5)
    for _ in range(3):
        p, q = rng.standard_normal(shape), 1.0 + rng.random(shape)
        np.testing.assert_allclose(
            objective.s_norm_sq_arrays(p, q), einsum_s_norm(objective, p, q), rtol=1e-13
        )


@pytest.mark.parametrize("step", [0.1, 0.05, "uneven"])
def test_free_norm_is_the_s_norm_of_the_pair_difference(request, boundary20, kernel, step):
    if step == 0.05:
        objective = CarlemanObjective(boundary20, kernel)
    else:
        objective = request.getfixturevalue("objective10" if step == 0.1 else "objective_uneven")
    rng = np.random.default_rng(6)
    x = objective.initial_guess()
    a, b = x + rng.standard_normal((2, 3, objective.n_free))
    norms = objective.free_norm_sq(b - a)
    assert norms.shape == (3,)
    for ai, bi, norm in zip(a, b, norms):
        pa, pb = objective.apply_constraints(ai), objective.apply_constraints(bi)
        np.testing.assert_allclose(norm, objective.s_norm_sq_arrays(pb.p - pa.p, pb.q - pa.q), rtol=1e-13)
        # a stacked vector gets the bits it gets alone
        assert norm == objective.free_norm_sq(bi - ai)


def test_descent_evaluates_each_point_once(boundary10, kernel, monkeypatch):
    """One residual pass per distinct point: the gradient at an accepted
    trial reuses the pass its line search made, and a free vector changed
    in place after an evaluation is evaluated afresh."""
    objective = CarlemanObjective(boundary10, kernel)
    fields = []
    calls = {"value": 0, "value_and_grad": 0}
    residuals = CarlemanObjective._residuals

    def counted_residuals(self, f):
        fields.append(f.tobytes())
        return residuals(self, f)

    def counted(name):
        method = getattr(objective, name)

        def call(free):
            calls[name] += 1
            return method(free)

        return call

    monkeypatch.setattr(CarlemanObjective, "_residuals", counted_residuals)
    for name in calls:
        monkeypatch.setattr(objective, name, counted(name))
    state = minimize(objective, grad_tol=1e-3)
    assert state.iterations > 0
    assert calls["value_and_grad"] == state.iterations + 1
    assert len(fields) == len(set(fields)) == calls["value"] + 1

    free = objective.initial_guess()
    objective.value(free)
    free[::7] += 1e-3
    fresh = CarlemanObjective(boundary10, kernel)
    jval, grad = objective.value_and_grad(free)
    jfresh, gfresh = fresh.value_and_grad(free.copy())
    assert jval == jfresh
    np.testing.assert_array_equal(grad, gfresh)
    # The public S-norms share the evaluation's scratch, not its memo: the
    # next evaluation at the same point makes no residual pass.
    passes = len(fields)
    pair = objective.apply_constraints(free)
    objective.s_norm_sq_arrays(2.0 * pair.p, 3.0 * pair.q)
    objective.free_norm_sq(np.stack([free, 2.0 * free]))
    jagain, gagain = objective.value_and_grad(free)
    assert len(fields) == passes
    assert jagain == jval
    np.testing.assert_array_equal(gagain, grad)


def test_gradient_matches_central_differences(objective10, objective_uneven):
    for objective in (objective10, objective_uneven):
        errors = gradient_check(objective, seed=11)
        assert errors.shape == (GRADIENT_DIRECTIONS,)
        assert errors.max() < 1e-5


def test_minimize_starts_from_free0(objective10):
    default = minimize(objective10)
    start = objective10.initial_guess()
    kept = start.copy()
    again = minimize(objective10, free0=start)
    np.testing.assert_array_equal(again.history, default.history)
    np.testing.assert_array_equal(again.free, default.free)
    np.testing.assert_array_equal(start, kept)
    # J is convex here, so starts elsewhere in the ball descend to the
    # minimum that the first guess reaches
    target = minimize(objective10, grad_tol=1e-8)
    rng = stream(0, "convexity-pairs")
    for radius in (1.0, 10.0):
        state = minimize(objective10, free0=sample_in_ball(objective10, rng, radius=radius), grad_tol=1e-8)
        assert state.converged
        assert abs(state.value - target.value) <= 1e-9 * target.value


def test_minimize_converges_and_decreases(objective10):
    state = minimize(objective10)
    assert state.converged
    assert state.grad_norm < 1e-2
    assert np.all(np.diff(state.history[:, 1]) <= 1e-15)
    assert state.history.shape == (state.iterations + 1, 4)
    np.testing.assert_array_equal(
        state.pair.p, objective10.apply_constraints(state.free).p
    )


@pytest.mark.parametrize(
    "kwargs",
    [{"grad_tol": np.inf}, {"grad_tol": np.nan}, {"grad_tol": -1.0}, {"max_iters": -5}, {"max_iters": 2.5}],
    ids=["grad_tol-inf", "grad_tol-nan", "grad_tol-negative", "max_iters-negative", "max_iters-float"],
)
def test_minimize_refuses_a_stop_rule_it_cannot_keep(objective10, kwargs):
    # Unrefused, each would stop after 0 steps or run every iteration,
    # whatever the objective.
    with pytest.raises(UsageError, match=next(iter(kwargs))):
        minimize(objective10, **kwargs)


def test_precondition_solves_the_s_gram_system(objective10, objective_uneven):
    """d = M^-1 r for the S-norm's Gram matrix M on the free block: the
    second difference of S along d is d.Md = d.r, to round-off."""
    for objective in (objective10, objective_uneven):
        x = objective.initial_guess()
        rng = np.random.default_rng(3)
        for _ in range(3):
            r = rng.standard_normal(objective.n_free)
            d = objective.precondition(r)
            assert r @ d > 0.0
            pairs = (objective.apply_constraints(x + t * d) for t in (1.0, -1.0, 0.0))
            plus, minus, mid = (objective.s_norm_sq_arrays(f.p, f.q) for f in pairs)
            np.testing.assert_allclose(plus + minus - 2.0 * mid, 2.0 * (d @ r), rtol=1e-12)
            np.testing.assert_allclose(objective.free_norm_sq(d), d @ r, rtol=1e-12)


@pytest.mark.parametrize("step, grad_tol, max_steps", [(0.05, 1e-5, 60), (0.1, 1e-8, 40)])
def test_minimize_step_count_barely_grows_with_the_grid(
    objective10, boundary20, kernel, step, grad_tol, max_steps
):
    """Guard against a slide back to Euclidean steps, which took 6 125
    steps to max-norm 1e-5 at h = 1/20."""
    objective = objective10 if step == 0.1 else CarlemanObjective(boundary20, kernel)
    state = minimize(objective, grad_tol=grad_tol)
    assert state.converged
    assert state.iterations <= max_steps
    assert np.all(np.diff(state.history[:, 1]) <= 0.0)


def test_minimize_raises_when_no_descent_exists():
    class Flat:
        n_free = 4

        def initial_guess(self):
            return np.zeros(4)

        def value_and_grad(self, free):
            return 0.0, np.ones(4)

        def value(self, free):
            return 1.0

        def precondition(self, grad):
            return grad

        def apply_constraints(self, free):
            return None

    with pytest.raises(NumericalError, match="line search stalled"):
        minimize(Flat())


@pytest.mark.parametrize("shift", [-800.0, 720.0])
def test_minimize_refuses_a_start_where_j_is_not_finite(objective10, shift):
    free = objective10.initial_guess()
    free[: objective10.n_free // 2] += shift
    with pytest.raises(NumericalError, match=r"not finite at the start \(J = "):
        minimize(objective10, free0=free, grad_tol=1e-8)
