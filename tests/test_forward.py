"""Source model, scattering kernel, and the transport solvers."""

import dataclasses

import numpy as np
import pytest

from rtetomo import (
    ForwardConvergenceError,
    Geometry,
    KernelModel,
    SourceModel,
    UsageError,
    make_phantom,
    solve_forward,
    solve_forward_direct,
    u0_field,
)
from rtetomo import forward
from rtetomo.forward import (
    MAX_SWEEPS,
    ScatterOperator,
    _ballistic_targets,
    _path_attenuation,
    _ray_row,
    kernel_alpha_derivative,
    kernel_value,
    scatter_alpha_derivative_matrix,
    scatter_matrix,
    source_value,
)
from rtetomo.geometry import GridSet, trapezoid_weights

# Independent quadrature of the bump normalization, frozen from
# mpmath.quad at 50 digits.
NORM_CONSTANT = 315.4295118850709
PROFILE_INTEGRAL = 9.51729949001285


def test_source_normalization_constants(source):
    np.testing.assert_allclose(source.norm_constant, NORM_CONSTANT, rtol=1e-12)
    np.testing.assert_allclose(source.profile_integral, PROFILE_INTEGRAL, rtol=1e-12)


def test_source_requires_positive_radius():
    with pytest.raises(UsageError):
        SourceModel.build(0.0)


def test_source_density_integrates_to_one(source):
    n = 481
    t = np.linspace(-0.06, 0.06, n)
    pts = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1)
    vals = source_value(pts, 0.0, source)
    w = trapezoid_weights(n, t[1] - t[0])
    mass = w @ vals @ w
    np.testing.assert_allclose(mass, 1.0, rtol=1e-10)


def test_source_density_support(source):
    assert source_value(np.array([0.05, 0.001]), 0.0, source) == 0.0
    assert source_value(np.array([0.0, 0.0]), 0.0, source) == source.norm_constant
    assert source_value(np.array([0.02, 0.03]), 0.0, source) > 0.0


def test_kernel_validation():
    with pytest.raises(UsageError):
        KernelModel(anisotropy=1.0)
    with pytest.raises(UsageError):
        KernelModel(anisotropy=-0.1)
    with pytest.raises(UsageError):
        KernelModel(aperture_half_width=0.0)


def test_kernel_diagonal_value(kernel):
    # (1 + g) / (2 d (1 - g)) with g = 1/2, d = 1/2
    np.testing.assert_allclose(kernel_value(0.3, 0.3, kernel), 3.0, rtol=1e-15)
    np.testing.assert_allclose(kernel_value(-0.5, -0.5, kernel), 3.0, rtol=1e-15)


def test_kernel_symmetric_and_positive(kernel):
    a = np.linspace(-0.5, 0.5, 11)
    mat = kernel_value(a[:, None], a[None, :], kernel)
    np.testing.assert_allclose(mat, mat.T, atol=1e-15)
    assert np.all(mat > 0.0)


def test_kernel_alpha_derivative_matches_differences(kernel):
    a, b = 0.17, -0.31
    da = 1e-6
    fd = (kernel_value(a + da, b, kernel) - kernel_value(a - da, b, kernel)) / (2 * da)
    np.testing.assert_allclose(kernel_alpha_derivative(a, b, kernel), fd, atol=1e-7)


def test_scatter_matrices_fold_in_weights(kernel):
    a = np.linspace(-0.5, 0.5, 6)
    h = a[1] - a[0]
    w = trapezoid_weights(6, h)
    np.testing.assert_allclose(
        scatter_matrix(kernel, a, h),
        kernel_value(a[:, None], a[None, :], kernel) * w[None, :],
        atol=1e-15,
    )
    np.testing.assert_allclose(
        scatter_alpha_derivative_matrix(kernel, a, h),
        kernel_alpha_derivative(a[:, None], a[None, :], kernel) * w[None, :],
        atol=1e-15,
    )


def _below_floor(atten, grid):
    """Scatter and c of two targets below the floor (z = 0.5 and 0)."""
    tx, tz = np.array([0.0, 0.2]), np.array([0.5, 0.0])
    op = ScatterOperator(tx, tz, atten, grid)
    assert op.nnz == 0
    return op.apply(np.ones(grid.shape_medium)), _path_attenuation(tx, tz, atten, grid)


def test_attenuation_integral_below_floor(grid10):
    scat, c = _below_floor(make_phantom("A", 5.0, grid10).attenuation, grid10)
    np.testing.assert_array_equal(scat, 0.0)
    np.testing.assert_array_equal(c, 1.0)


def test_targets_below_the_floor_are_transparent(grid10):
    scat, c = _below_floor(np.full(grid10.shape_medium[:2], 5.0), grid10)
    np.testing.assert_array_equal(scat, 0.0)
    np.testing.assert_array_equal(c, 1.0)


def test_attenuation_integral_constant_medium(grid10):
    atten = make_phantom(None, 0.0, grid10).attenuation
    tx = np.array([0.0, 0.3])
    tz = np.array([2.0, 2.0])
    c = _path_attenuation(tx, tz, atten, grid10)
    # Every ray crosses the unit-thick slab inside the medium, so half of
    # its length lies in the constant attenuation 5.
    ell = np.hypot(tx[:, None] - grid10.alpha[None, :], 2.0)
    np.testing.assert_allclose(c, np.exp(5.0 * ell / 2.0), rtol=1e-12)


def test_march_shape_guard(grid10):
    tx, tz = grid10.x1, np.full_like(grid10.x1, 1.5)
    with pytest.raises(UsageError):
        ScatterOperator(tx, tz, np.zeros((3, 3)), grid10)
    with pytest.raises(UsageError):
        _path_attenuation(tx, tz, np.zeros((3, 3)), grid10)
    op = ScatterOperator(tx, tz, np.zeros(grid10.shape_medium[:2]), grid10)
    with pytest.raises(UsageError):
        op.apply(np.zeros((4, 4, grid10.alpha.size)))


@pytest.mark.parametrize(
    "h, source_half_width", [(0.1, 0.5), (0.125, 0.75)], ids=["grid10", "wide-source"]
)
def test_operator_matches_the_row_by_row_quadrature(h, source_half_width):
    # With the wider source segment some samples lie beside the medium,
    # where the media read as zero.
    grid = GridSet.uniform(Geometry(source_half_width=source_half_width), h)
    atten = make_phantom("A", 5.0, grid).attenuation
    xm, zm = grid.spatial_mesh()
    op = ScatterOperator(xm.ravel(), zm.ravel(), atten, grid)
    assert all(np.all(d > 0.0) for d in op.data)
    vsrc = np.random.default_rng(5).uniform(0.0, 1.0, grid.shape_medium)
    swept = op.apply(vsrc).reshape(grid.shape_medium)

    oracle = np.zeros(grid.shape_medium)
    for (i, j, k), _ in np.ndenumerate(oracle):
        _, row = _ray_row(grid.x1[i], grid.z[j], grid.alpha[k], atten, grid)
        oracle[i, j, k] = row @ vsrc[:, :, k].ravel()
    assert np.count_nonzero(oracle) == oracle.size - grid.x1.size * grid.alpha.size
    np.testing.assert_allclose(swept, oracle, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "h, source_half_width", [(0.1, 0.5), (0.125, 0.75)], ids=["grid10", "wide-source"]
)
def test_path_attenuation_matches_the_row_by_row_march(h, source_half_width):
    grid = GridSet.uniform(Geometry(source_half_width=source_half_width), h)
    atten = make_phantom("A", 5.0, grid).attenuation
    xm, zm = grid.spatial_mesh()
    tx, tz = xm.ravel(), zm.ravel()
    c = _path_attenuation(tx, tz, atten, grid)
    oracle = np.array(
        [[_ray_row(x, z, alpha, atten, grid)[0] for alpha in grid.alpha] for x, z in zip(tx, tz)]
    )
    assert np.count_nonzero(oracle != 1.0) == oracle.size - grid.x1.size * grid.alpha.size
    np.testing.assert_allclose(c, oracle, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "h, source_half_width", [(0.05, 0.5), (0.125, 0.75)], ids=["grid20", "wide-source"]
)
def test_march_order_cannot_move_a_rows_bits(h, source_half_width):
    # Permuting the targets regroups the rays into other blocks; every
    # row's weights, nodes and c must come out bit for bit the same.
    grid = GridSet.uniform(Geometry(source_half_width=source_half_width), h)
    atten = make_phantom("A", 5.0, grid).attenuation
    tx, tz = (a.ravel() for a in grid.spatial_mesh())
    perm = np.random.default_rng(11).permutation(tx.size)
    c, c_perm = np.ones((2, tx.size, grid.alpha.size))
    op = ScatterOperator(tx, tz, atten, grid, c_out=c)
    op_perm = ScatterOperator(tx[perm], tz[perm], atten, grid, c_out=c_perm)
    np.testing.assert_array_equal(c_perm, c[perm])
    # A row's parts below and on the target's z-row move together.
    parts = np.concatenate([perm, tx.size + perm])
    for k, ptr in enumerate(op.indptr):
        entries = np.concatenate([np.arange(ptr[p], ptr[p + 1]) for p in parts])
        np.testing.assert_array_equal(op_perm.data[k], op.data[k][entries])
        np.testing.assert_array_equal(op_perm.nodes[k], op.nodes[k][entries])

    active = np.flatnonzero(tz > grid.geometry.slab_bottom + 1e-12)
    for k in range(grid.alpha.size):
        rows = np.concatenate([block[0] for block in forward._ray_blocks(tx, tz, atten, grid, k)])
        np.testing.assert_array_equal(np.sort(rows), active)


def test_ray_blocks_march_little_padding(grid20):
    # Blocks of rays with similar sample counts: the padded sample slots
    # stay within 30% of the live samples (1.26 at h = 1/20; blocks of
    # consecutive targets padded to 1.83).
    atten = make_phantom("A", 5.0, grid20).attenuation
    tx, tz = (a.ravel() for a in grid20.spatial_mesh())
    slots = live = 0
    for k in range(grid20.alpha.size):
        for _, trap, _, _ in forward._ray_blocks(tx, tz, atten, grid20, k):
            slots += trap.size
            live += np.count_nonzero(trap)
    assert slots <= 1.3 * live


def test_apply_results_do_not_alias(grid10):
    atten = make_phantom("A", 5.0, grid10).attenuation
    xm, zm = grid10.spatial_mesh()
    op = ScatterOperator(xm.ravel(), zm.ravel(), atten, grid10)
    rng = np.random.default_rng(9)
    v1, v2 = rng.uniform(0.0, 1.0, (2, *grid10.shape_medium))
    first, second = op.apply(v1), op.apply(v2)
    fresh = ScatterOperator(xm.ravel(), zm.ravel(), atten, grid10)
    np.testing.assert_array_equal(first, fresh.apply(v1))
    np.testing.assert_array_equal(second, fresh.apply(v2))


def _array_bytes(value):
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (list, tuple)):
        return sum(_array_bytes(v) for v in value)
    return 0


def test_operator_costs_about_ten_bytes_per_nonzero(grid20):
    atten = make_phantom("A", 5.0, grid20).attenuation
    xm, zm = grid20.spatial_mesh()
    op = ScatterOperator(xm.ravel(), zm.ravel(), atten, grid20)
    rows = grid20.alpha.size * (xm.size + 1)
    held = sum(_array_bytes(v) for v in vars(op).values())
    assert held == op.nbytes
    assert op.nbytes <= 10.5 * op.nnz + 8 * rows


def test_scattering_only_adds_radiance(grid10, source, kernel, field10):
    phantom = make_phantom("A", 5.0, grid10)
    u0 = u0_field(phantom, source, grid10)
    gap = field10.values - u0.values
    assert gap.min() >= -1e-12
    assert gap.max() > 0.0


def test_solve_forward_marches_each_ray_once(grid20, source, kernel, monkeypatch):
    # The operator build marches every mesh target; u0 reuses its c and
    # marches again only the targets off the mesh's coordinates.
    marched = []
    ray_blocks = forward._ray_blocks

    def counting(*args):
        for block in ray_blocks(*args):
            marched.append(block[0].size)
            yield block

    monkeypatch.setattr(forward, "_ray_blocks", counting)
    solve_forward(make_phantom("A", 5.0, grid20), source, kernel, grid20)
    floor = grid20.geometry.slab_bottom + 1e-12
    xm, zm = (a.ravel() for a in grid20.spatial_mesh())
    bx, bz = _ballistic_targets(grid20)
    off = (bx != xm) | (bz != zm)
    assert 0 < np.count_nonzero(off) < off.size
    active = np.count_nonzero(zm > floor) + np.count_nonzero(bz[off] > floor)
    assert sum(marched) == active * grid20.alpha.size


def _two_march_solve(phantom, source, kernel, grid, tol):
    """Plain whole-operator sweeps: u0 from its own march, then
    u <- u0 + K u through a fresh operator until the update falls below
    ``tol`` relative to the field's max."""
    u0 = u0_field(phantom, source, grid).values
    w = scatter_matrix(kernel, grid.alpha, grid.h)
    xm, zm = grid.spatial_mesh()
    op = ScatterOperator(xm.ravel(), zm.ravel(), phantom.attenuation, grid)
    u = u0
    for _ in range(MAX_SWEEPS):
        new = u0 + op.apply(phantom.mu_s[:, :, None] * (u @ w.T)).reshape(u0.shape)
        diff = float(np.max(np.abs(new - u)))
        u = new
        if diff <= tol * max(1.0, float(np.max(new))):
            return u
    raise AssertionError("reference sweeps did not converge")


@pytest.mark.parametrize(
    "h, source_half_width", [(0.1, 0.5), (0.05, 0.5), (0.125, 0.75)], ids=["grid10", "grid20", "wide-source"]
)
def test_rays_put_no_weight_above_their_targets_row(h, source_half_width):
    # The row-by-row solve rests on this: a ray climbs from its source, so
    # only rounding in its last sample's z can weigh a node above its
    # target's z-row, and the operator keeps none of those entries.
    grid = GridSet.uniform(Geometry(source_half_width=source_half_width), h)
    atten = make_phantom("A", 5.0, grid).attenuation
    n1, nz, _ = grid.shape_medium
    node_row = np.arange(n1 * nz) % nz
    above = max(
        _ray_row(grid.x1[i], grid.z[j], grid.alpha[k], atten, grid)[1][node_row > j].max(initial=0.0)
        for (i, j, k), _ in np.ndenumerate(np.empty(grid.shape_medium))
    )
    assert above <= 1e-15

    tx, tz = (a.ravel() for a in grid.spatial_mesh())
    op = ScatterOperator(tx, tz, atten, grid)
    target_row = np.tile(np.arange(nz), 2 * n1)
    for k, ptr in enumerate(op.indptr):
        part = np.repeat(np.arange(2 * tx.size), np.diff(ptr))
        below = part < tx.size
        rows = op.nodes[k] % nz
        assert np.all(rows[below] < target_row[part[below]])
        assert np.all(rows[~below] == target_row[part[~below]])


@pytest.mark.parametrize(
    "h, source_half_width", [(0.1, 0.5), (0.05, 0.5), (0.125, 0.75)], ids=["grid10", "grid20", "wide-source"]
)
def test_row_by_row_solve_matches_plain_sweeps(source, h, source_half_width):
    grid = GridSet.uniform(Geometry(source_half_width=source_half_width), h)
    kernel = KernelModel(aperture_half_width=source_half_width)
    phantom = make_phantom("A", 5.0, grid)
    field = solve_forward(phantom, source, kernel, grid)
    expected = _two_march_solve(phantom, source, kernel, grid, tol=1e-15)
    np.testing.assert_allclose(field.values, expected, rtol=0.0, atol=1e-11 * expected.max())


def test_source_reaching_the_medium_is_refused_before_marching(grid10, kernel, monkeypatch):
    def no_march(*args):
        raise AssertionError("marched before checking the source radius")

    monkeypatch.setattr(forward, "_ray_blocks", no_march)
    with pytest.raises(UsageError):
        solve_forward(make_phantom("A", 5.0, grid10), SourceModel.build(1.0), kernel, grid10)


def test_forward_info_reports_contracting_sweeps(grid10, source, kernel):
    phantom = make_phantom(None, 0.0, grid10)
    field, info = solve_forward(phantom, source, kernel, grid10, return_info=True)
    assert info["sweeps"] >= 2
    assert info["diffs"][-1] < info["diffs"][0]
    assert np.all(field.values >= 0.0)
    assert info["nnz"] > 0 and 0.0 < info["operator_mb"] <= 10.5e-6 * info["nnz"] + 0.01


def test_forward_diverges_for_supercritical_scattering(grid10, source, kernel):
    phantom = make_phantom(None, 0.0, grid10, mu_s_value=25.0)
    with pytest.raises(ForwardConvergenceError):
        solve_forward(phantom, source, kernel, grid10)


def test_divergence_names_the_row_whose_passes_grow(grid10, source, kernel):
    # Subcritical scattering below z-row 6 and supercritical from it up:
    # the rows below converge, and row 6 is the first whose passes grow.
    phantom = make_phantom(None, 0.0, grid10)
    mu_s = phantom.mu_s.copy()
    mu_s[:, 6:] = 25.0
    phantom = dataclasses.replace(phantom, mu_s=mu_s, attenuation=phantom.mu_a + mu_s)
    with pytest.raises(ForwardConvergenceError, match=r"z-row 6 "):
        solve_forward(phantom, source, kernel, grid10)


@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf")])
def test_tolerance_must_be_finite_and_positive(grid10, source, kernel, tol, monkeypatch):
    def no_march(*args):
        raise AssertionError("marched before checking the tolerance")

    monkeypatch.setattr(forward, "_ray_blocks", no_march)
    with pytest.raises(UsageError, match="tolerance"):
        solve_forward(make_phantom("A", 5.0, grid10), source, kernel, grid10, tol=tol)


@pytest.mark.parametrize(
    "source_half_width, letter, c_a",
    [(0.5, "SZ", 3.0), (0.75, "A", 5.0)],
    ids=["default", "wide-source"],
)
def test_direct_solver_matches_sweeps_on_a_coarse_grid(source, source_half_width, letter, c_a):
    # h = 1/4 leaves the aperture quadrature too coarse and the discrete
    # scattering operator supercritical; 1/8 is the coarsest sane step.
    # The absorber keeps the sweep contraction fast enough for a tight match
    # (a pure scatterer converges too slowly here).  With the wider source
    # segment some rays enter the slab beside the medium, where both solvers
    # must read the media as zero.
    grid = GridSet.uniform(Geometry(source_half_width=source_half_width), 0.125)
    kernel = KernelModel(aperture_half_width=source_half_width)
    phantom = make_phantom(letter, c_a, grid)
    swept = solve_forward(phantom, source, kernel, grid, tol=1e-14)
    dense, info = solve_forward_direct(phantom, source, kernel, grid, return_info=True)
    assert info["residual"] < 1e-10
    gap = np.max(np.abs(swept.values - dense.values))
    assert gap < 1e-8


def test_direct_solver_refuses_large_grids(geometry, source, kernel):
    # 41 * 41 * 41 unknowns, far above the cap; refused before any assembly
    grid = GridSet.uniform(geometry, 1.0 / 40.0)
    phantom = make_phantom(None, 0.0, grid)
    with pytest.raises(UsageError):
        solve_forward_direct(phantom, source, kernel, grid)
