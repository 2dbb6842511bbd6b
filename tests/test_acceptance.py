"""Acceptance gate: ten criteria, one printed pass/fail line each.

Windows marked "calibrated" were fixed from desk-scale pilot runs before
these tests were frozen; the natural-accuracy checks (positivity, solver
agreement, gradient, convexity, descent, determinism) carry analytic or
cross-validation tolerances instead.
"""

import filecmp
import time

import numpy as np
import pytest

from rtetomo import (
    CarlemanObjective,
    GridSet,
    convexity_sweep,
    derive_boundary_data,
    downsample_boundary,
    empirical_carleman_constant,
    extract_boundary,
    gradient_check,
    make_phantom,
    minimize,
    recover_attenuation,
    score,
    solve_forward,
    solve_forward_direct,
    u0_field,
)
from rtetomo import forward
from rtetomo.carleman import LAMBDAS
from rtetomo.cli import main


def _nonincreasing(history):
    return bool(np.all(np.diff(history[:, 1]) <= 1e-15))


def _invert_and_score(faces, fine_grid, kernel, letter, c_a, delta=0.0, seed=0):
    """The default desk pipeline: derive at the acquisition step,
    downsample by 2, minimize at the inversion step, recover, score."""
    bds = derive_boundary_data(faces, fine_grid, kernel, delta=delta, seed=seed)
    coarse = downsample_boundary(bds, 2)
    objective = CarlemanObjective(coarse, kernel)
    state = minimize(objective)
    rec = recover_attenuation(state.pair, kernel)
    mask = make_phantom(letter, c_a, coarse.grid).mask
    return score(rec, mask, c_a), state


def test_criterion_1_forward_positivity(field40, grid40, geometry, source, acceptance_report):
    field, solve_seconds = field40
    t0 = time.monotonic()
    grid = grid40
    phantom = make_phantom("A", 5.0, grid)
    u_min = float(np.min(field))
    u0_min = float(np.min(u0_field(phantom, source, grid)))
    elapsed = solve_seconds + time.monotonic() - t0
    ok = u_min > 0.0 and u_min >= u0_min - 1e-12 and elapsed < 300.0
    acceptance_report(
        1, ok, f"min u = {u_min:.6e} > 0, min u0 = {u0_min:.6e}, h=1/40, {elapsed:.1f}s"
    )


def test_criterion_2_solver_cross_validation(geometry, source, kernel, acceptance_report, monkeypatch):
    # The sweeps run far past the production tolerance, so the gap is the
    # two quadratures'.
    monkeypatch.setattr(forward, "FORWARD_TOL", 1e-14)
    t0 = time.monotonic()
    grid = GridSet.uniform(geometry, 0.125)
    assert grid.shape_medium == (9, 9, 9)
    phantom = make_phantom("A", 5.0, grid)
    fixed = solve_forward(phantom, source, kernel, grid)
    direct = solve_forward_direct(phantom, source, kernel, grid)
    gap = float(np.max(np.abs(fixed - direct)))
    elapsed = time.monotonic() - t0
    ok = gap < 1e-8 and elapsed < 10.0
    acceptance_report(2, ok, f"fixed-point vs dense sup gap {gap:.3e} < 1e-8, {elapsed:.1f}s")


def test_criterion_3_gradient_correctness(objective10, acceptance_report):
    t0 = time.monotonic()
    assert objective10.grid.shape_medium == (11, 11, 11)
    errors = gradient_check(objective10, seed=0)
    worst = float(np.max(errors))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-5 and elapsed < 60.0
    acceptance_report(3, ok, f"20 directions, max rel error {worst:.3e} < 1e-5, {elapsed:.1f}s")


def test_criterion_4_strict_convexity(objective10, acceptance_report):
    t0 = time.monotonic()
    sweep = convexity_sweep(objective10, count=100, seed=0, radius=10.0)
    elapsed = time.monotonic() - t0
    gaps, bounds = sweep[:, :2], sweep[:, 2:3]
    violations = int(np.sum(gaps < bounds))
    margin = float(np.min(gaps - bounds))
    ok = violations == 0 and margin >= 0.0 and elapsed < 300.0
    acceptance_report(
        4,
        ok,
        f"100 couples, {violations} violations, min gap-bound margin "
        f"{margin:.3e}, {elapsed:.1f}s",
    )


def test_criterion_5_descent_contract(field40, grid40, kernel, acceptance_report):
    field40, _ = field40
    t0 = time.monotonic()
    bds = derive_boundary_data(extract_boundary(field40), grid40, kernel)
    coarse = downsample_boundary(bds, 2)
    assert coarse.grid.shape_medium == (21, 21, 21)
    state = minimize(CarlemanObjective(coarse, kernel), grad_tol=1e-2)
    elapsed = time.monotonic() - t0
    ok = (
        state.converged
        and state.grad_norm < 1e-2
        and _nonincreasing(state.history)
        and elapsed < 300.0
    )
    acceptance_report(
        5,
        ok,
        f"h=1/20: {state.iterations} iterations, grad {state.grad_norm:.3e} < 1e-2, "
        f"J nonincreasing, {elapsed:.1f}s",
    )


def test_criterion_6_contrast_recovery(field20, grid20, kernel, acceptance_report):
    metrics, _ = _invert_and_score(extract_boundary(field20), grid20, kernel, "A", 5.0)
    contrast = metrics["contrast"]
    offset = metrics["centroid_offset_cells"]
    ok = 1.5 <= contrast <= 2.5 and offset <= 3.0
    acceptance_report(
        6,
        ok,
        f"letter A, c_a=5: contrast {contrast:.3f} in [1.5, 2.5], "
        f"centroid offset {offset:.2f} <= 3 cells",
    )


def test_criterion_7_contrast_sweep(grid20, source, kernel, acceptance_report):
    windows = {10.0: (2.1, 3.9), 15.0: (2.8, 5.2), 20.0: (3.5, 6.5), 30.0: (4.9, 9.1)}
    results = []
    ok = True
    for c_a, (lo, hi) in windows.items():
        phantom = make_phantom("A", c_a, grid20)
        field = solve_forward(phantom, source, kernel, grid20)
        metrics, _ = _invert_and_score(extract_boundary(field), grid20, kernel, "A", c_a)
        contrast = metrics["contrast"]
        ok = ok and lo <= contrast <= hi
        results.append(f"c_a={c_a:g}: {contrast:.3f} in [{lo}, {hi}]")
    acceptance_report(7, ok, "; ".join(results))


def test_criterion_8_noise_robustness(field20, grid20, kernel, acceptance_report):
    faces = extract_boundary(field20)
    results = []
    ok = True
    for seed in (1, 7):
        metrics, state = _invert_and_score(
            faces, grid20, kernel, "A", 5.0, delta=0.05, seed=seed
        )
        contrast = metrics["contrast"]
        ok = ok and state.converged and 1.3 <= contrast <= 2.7
        results.append(f"seed {seed}: contrast {contrast:.3f}")
    acceptance_report(8, ok, "delta=0.05, window [1.3, 2.7]; " + "; ".join(results))


def test_criterion_9_estimate_sweep(geometry, acceptance_report):
    grid = GridSet.uniform(geometry, 1.0 / 40.0)
    sides = empirical_carleman_constant(50, 0, grid)
    repeat = empirical_carleman_constant(50, 0, grid)
    deterministic = np.array_equal(sides, repeat)
    minima = np.fmin.reduce(sides[..., 3], axis=1).tolist()
    ok = deterministic and all(ratio > 0.0 for ratio in minima)
    acceptance_report(
        9,
        ok,
        "min ratios "
        + ", ".join(f"{lam:g}: {ratio:.1f}" for lam, ratio in zip(LAMBDAS, minima))
        + f", deterministic={deterministic}",
    )


def test_criterion_10_reproducibility(tmp_path, acceptance_report):
    cfg = tmp_path / "desk.cfg"
    cfg.write_text("h_forward=0.05\nh_inverse=0.1\ndelta=0.05\nseed=3\n")
    for name in ("a", "b", "c"):
        out = str(tmp_path / name)
        assert main(["forward", "--config", str(cfg), "--out", out]) == 0
        assert main(["invert", "--config", str(cfg), "--out", out]) == 0
    files = [
        "boundary.csv", "forward.csv", "iterations.csv", "pair.csv", "reconstruction.csv", "metrics.txt",
    ]
    mismatches = [
        (other, name)
        for other in ("b", "c")
        for name in files
        if not filecmp.cmp(tmp_path / "a" / name, tmp_path / other / name, shallow=False)
    ]
    ok = not mismatches
    acceptance_report(
        10,
        ok,
        "three runs into separate directories: "
        + ("all artifacts bit-identical" if ok else f"mismatches {mismatches}"),
    )
