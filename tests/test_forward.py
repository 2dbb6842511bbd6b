"""Source model, scattering kernel, and the transport solvers."""

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
from rtetomo.forward import (
    ScatterOperator,
    _bilinear_medium,
    _path_attenuation,
    _ray_samples,
    kernel_alpha_derivative,
    kernel_matrix,
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
    mat = kernel_matrix(kernel, a)
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
        scatter_matrix(kernel, a, h), kernel_matrix(kernel, a) * w[None, :], atol=1e-15
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
        s, px, pz, step = _ray_samples(grid.x1[i], grid.z[j], grid.alpha[k], grid)
        if s.size == 0:
            continue
        a_s = _bilinear_medium(px, pz, atten, grid)
        c_s = np.exp(np.concatenate([[0.0], np.cumsum(0.5 * step * (a_s[1:] + a_s[:-1]))]))
        cv = c_s * _bilinear_medium(px, pz, vsrc[:, :, k], grid)
        oracle[i, j, k] = np.sum(0.5 * step * (cv[1:] + cv[:-1])) / c_s[-1]
    assert np.count_nonzero(oracle) == oracle.size - grid.x1.size * grid.alpha.size
    np.testing.assert_allclose(swept, oracle, rtol=1e-12, atol=0.0)


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
