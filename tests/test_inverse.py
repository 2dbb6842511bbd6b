"""Objective assembly, constraints, and the descent loop."""

import numpy as np
import pytest

from rtetomo import (
    BoundaryDataSet,
    CarlemanObjective,
    PairField,
    StagnationError,
    UsageError,
    gradient_check,
    minimize,
)


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


def test_objective_refuses_tiny_grids(geometry, kernel):
    from rtetomo import GridSet

    grid = GridSet.uniform(geometry, 0.5)
    data = constant_log_dataset(grid)
    with pytest.raises(UsageError):
        CarlemanObjective(data, kernel)


def test_free_vector_shape_guard(objective10):
    with pytest.raises(UsageError):
        objective10.value(np.zeros(3))


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
    np.testing.assert_array_equal(pair.p[:, 0, :], boundary10.g1["bottom"])
    np.testing.assert_array_equal(pair.p[:, -1, :], boundary10.g1["top"])
    np.testing.assert_array_equal(pair.p[0], boundary10.full_side("g1", "left"))
    np.testing.assert_array_equal(pair.q[-1], boundary10.full_side("g2", "right"))


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
    np.testing.assert_allclose(jval, objective10.value(free), rtol=1e-14)
    assert grad.shape == (objective10.n_free,)
    assert np.all(np.isfinite(grad))


def test_gradient_matches_central_differences(objective10):
    errors = gradient_check(objective10, directions=3, seed=11)
    assert errors.shape == (3,)
    assert errors.max() < 1e-5


def test_minimize_converges_and_decreases(objective10):
    state = minimize(objective10)
    assert state.converged
    assert state.grad_norm < 1e-2
    assert np.all(np.diff(state.history[:, 1]) <= 1e-15)
    assert state.history.shape == (state.iterations + 1, 4)
    np.testing.assert_array_equal(
        state.pair.p, objective10.apply_constraints(state.free).p
    )


def test_minimize_raises_when_no_descent_exists():
    class Flat:
        n_free = 4

        def initial_guess(self):
            return np.zeros(4)

        def value_and_grad(self, free):
            return 0.0, np.ones(4)

        def value(self, free):
            return 1.0

        def apply_constraints(self, free):
            return None

    with pytest.raises(StagnationError):
        minimize(Flat())
