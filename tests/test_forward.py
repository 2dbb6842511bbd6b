"""Source model, scattering kernel, and the transport solvers."""

import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from rtetomo import (
    Geometry,
    KernelModel,
    NumericalError,
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
    _march_row,
    _Rays,
    _ray_row,
    kernel_alpha_derivative,
    kernel_value,
    scatter_alpha_derivative_matrix,
    scatter_matrix,
)
from rtetomo.geometry import GridSet, _ray_lattice, trapezoid_weights

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
    # The bump norm_constant * exp(r^2 / (r^2 - sigma^2)), zero outside its radius.
    r2 = t[:, None] ** 2 + t[None, :] ** 2
    inside = r2 < source.sigma**2
    vals = np.zeros_like(r2)
    vals[inside] = source.norm_constant * np.exp(r2[inside] / (r2[inside] - source.sigma**2))
    w = trapezoid_weights(n, t[1] - t[0])
    mass = w @ vals @ w
    np.testing.assert_allclose(mass, 1.0, rtol=1e-10)


def test_kernel_validation():
    with pytest.raises(UsageError):
        KernelModel(anisotropy=1.0)
    with pytest.raises(UsageError):
        KernelModel(anisotropy=-0.1)
    with pytest.raises(UsageError):
        KernelModel(aperture_half_width=0.0)


@pytest.mark.parametrize("field", ["anisotropy", "aperture_half_width"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_kernel_refuses_non_finite_values(field, value):
    with pytest.raises(UsageError):
        KernelModel(**{field: value})


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


def _widened(vt, rays):
    """The (n_alpha, n1, nz) density ``vt`` with the zero columns of ``rays``
    on each side, as :func:`_march_row` takes it."""
    return np.pad(vt, ((0, 0), (rays.pad, rays.pad), (0, 0)))


def _below_floor(atten, grid):
    """Scatter and c of two rows of targets below the floor (z = 0.5 and 0)."""
    rays = _Rays.build(np.array([0.0, 0.2]), atten, grid)
    vt = _widened(np.ones((grid.alpha.size, *grid.shape_medium[:2])), rays)
    rows = [_march_row(rays, z, vt) for z in (0.5, 0.0)]
    assert all(np.all(row.counts == 0) for row in rows)
    scat = np.concatenate([np.ravel(part) for row in rows for part in (row.below, row.block)])
    return scat, np.stack([row.c for row in rows])


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
    c = _march_row(_Rays.build(tx, atten, grid10), 2.0).c
    # Every ray crosses the unit-thick slab inside the medium, so half of
    # its length lies in the constant attenuation 5.
    ell = np.hypot(tx[:, None] - grid10.alpha[None, :], 2.0)
    np.testing.assert_allclose(c, np.exp(5.0 * ell / 2.0), rtol=1e-12)


def test_march_shape_guard(grid10):
    tx = grid10.x1
    with pytest.raises(UsageError, match="attenuation shape disagrees with the grid"):
        _Rays.build(tx, np.zeros((3, 3)), grid10)
    rays = _Rays.build(tx, np.zeros(grid10.shape_medium[:2]), grid10)
    with pytest.raises(UsageError, match="scattering-density shape disagrees with the grid"):
        _march_row(rays, 1.5, np.zeros((4, 4, grid10.alpha.size)))
    # the density must be widened by the set-up's columns
    with pytest.raises(UsageError, match="scattering-density shape disagrees with the grid"):
        _march_row(rays, 1.5, np.zeros((grid10.alpha.size, *grid10.shape_medium[:2])))


def _reference_rows(grid, atten, j):
    """The :func:`_ray_row` weights of every ray to z-row ``j``, as
    (n_alpha, n1 targets, n1, nz)."""
    n1, nz, n_alpha = grid.shape_medium
    rows = np.empty((n_alpha, n1, n1, nz))
    for k, i in np.ndindex(n_alpha, n1):
        rows[k, i] = _ray_row(grid.x1[i], grid.z[j], grid.alpha[k], atten, grid)[1].reshape(n1, nz)
    return rows


@pytest.mark.parametrize(
    "h, source_half_width", [(0.1, 0.5), (0.125, 0.75)], ids=["grid10", "wide-source"]
)
def test_operator_matches_the_row_by_row_quadrature(h, source_half_width):
    # The row march's products with the density of the rows below, and its
    # own-row block, against the reference march's rows.  With the wider
    # source segment some samples lie beside the medium, where the media
    # read as zero.
    grid = GridSet.uniform(Geometry(source_half_width=source_half_width), h)
    atten = make_phantom("A", 5.0, grid).attenuation
    n1, nz, n_alpha = grid.shape_medium
    vt = np.random.default_rng(5).uniform(0.0, 1.0, (n_alpha, n1, nz))
    setup = _Rays.build(grid.x1, atten, grid)
    for j in range(1, nz):
        rays = _march_row(setup, grid.z[j], _widened(vt * (np.arange(nz) < j), setup))
        rows = _reference_rows(grid, atten, j)
        below = np.einsum("kiab,kab->ik", rows[..., :j], vt[..., :j])
        own = np.einsum("kia,ka->ik", rows[..., j], vt[..., j])
        assert np.all(below + own > 0.0)
        np.testing.assert_allclose(rays.below, below, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(np.einsum("kia,ka->ik", rays.block, vt[..., j]), own, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "h, source_half_width", [(0.1, 0.5), (0.125, 0.75)], ids=["grid10", "wide-source"]
)
def test_path_attenuation_matches_the_row_by_row_march(h, source_half_width):
    grid = GridSet.uniform(Geometry(source_half_width=source_half_width), h)
    atten = make_phantom("A", 5.0, grid).attenuation
    rays = _Rays.build(grid.x1, atten, grid)
    c = np.stack([_march_row(rays, z).c for z in grid.z], axis=1)
    oracle = np.array(
        [[[_ray_row(x, z, alpha, atten, grid)[0] for alpha in grid.alpha] for z in grid.z] for x in grid.x1]
    )
    assert np.count_nonzero(oracle != 1.0) == oracle.size - grid.x1.size * grid.alpha.size
    np.testing.assert_allclose(c, oracle, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize(
    "h, source_half_width",
    [(0.1, 0.5), (0.05, 0.5), (0.025, 0.5), (0.125, 0.75), (0.025, 0.75)],
    ids=["grid10", "grid20", "grid40", "wide-source", "wide-source-40"],
)
def test_shared_geometry_keeps_every_rays_sample_count(h, source_half_width):
    # A one-sample change moves u0 by up to 1%, so sharing a group's samples
    # must leave every ray the count of its own segment.
    grid = GridSet.uniform(Geometry(source_half_width=source_half_width), h)
    atten = make_phantom("A", 5.0, grid).attenuation
    floor = grid.geometry.slab_bottom
    rays = _Rays.build(grid.x1, atten, grid)
    for z in grid.z[1:]:
        ell = np.hypot(grid.x1[:, None] - grid.alpha, z)
        seg = ell - ell * (floor / z)
        expected = np.maximum(np.ceil(seg / (grid.h / 2)).astype(int) + 1, 2)
        np.testing.assert_array_equal(_march_row(rays, z).counts, expected.ravel())
    assert np.all(_march_row(rays, grid.z[0]).counts == 0)


@pytest.mark.parametrize(
    "h, source_half_width", [(0.05, 0.5), (0.125, 0.75)], ids=["grid20", "wide-source"]
)
def test_march_order_cannot_move_a_rows_bits(h, source_half_width, monkeypatch):
    # Permuting a row's targets reorders its rays within their groups, and
    # small chunks change which rays are marched together; every ray's c,
    # products and own-row weights must come out bit for bit the same.
    grid = GridSet.uniform(Geometry(source_half_width=source_half_width), h)
    atten = make_phantom("A", 5.0, grid).attenuation
    n1, nz, n_alpha = grid.shape_medium
    vt = np.random.default_rng(3).uniform(0.0, 1.0, (n_alpha, n1, nz))
    perm = np.random.default_rng(11).permutation(n1)
    setup, setup_perm = _Rays.build(grid.x1, atten, grid), _Rays.build(grid.x1[perm], atten, grid)
    marched = [_march_row(setup, z, _widened(vt * (np.arange(nz) < j), setup)) for j, z in enumerate(grid.z)]
    monkeypatch.setattr(forward, "_CHUNK", 97)
    for j, (z, rays) in enumerate(zip(grid.z, marched)):
        permuted = _march_row(setup_perm, z, _widened(vt * (np.arange(nz) < j), setup_perm))
        np.testing.assert_array_equal(permuted.c, rays.c[perm])
        np.testing.assert_array_equal(permuted.below, rays.below[perm])
        np.testing.assert_array_equal(permuted.block, rays.block[:, perm])


@pytest.mark.parametrize("chunk", [None, 97], ids=["chunk", "chunk97"])
@pytest.mark.parametrize(
    "h, source_half_width", [(0.05, 0.5), (0.125, 0.75)], ids=["grid20", "wide-source"]
)
def test_a_used_workspace_cannot_move_a_rows_bits(h, source_half_width, chunk, monkeypatch):
    # A row's march runs in its rays' work vectors, which hold whatever the
    # last march left there (with 97-slot chunks the last chunk is partial).
    # Marching other rows first, with and without a density, must leave a
    # row's c, products and own-row weights the bits of fresh rays.
    if chunk is not None:
        monkeypatch.setattr(forward, "_CHUNK", chunk)
    grid = GridSet.uniform(Geometry(source_half_width=source_half_width), h)
    atten = make_phantom("A", 5.0, grid).attenuation
    n1, nz, n_alpha = grid.shape_medium
    vt = np.random.default_rng(7).uniform(0.0, 1.0, (n_alpha, n1, nz))
    j1, j2 = nz // 2, nz - 1
    used = _Rays.build(grid.x1, atten, grid)
    dense = {j: _widened(vt * (np.arange(nz) < j), used) for j in (j1, j2)}
    fresh = _march_row(_Rays.build(grid.x1, atten, grid), grid.z[j1], dense[j1])
    _march_row(used, grid.z[j1], dense[j1])
    _march_row(used, grid.z[j2], dense[j2])
    _march_row(used, grid.z[j2])
    again = _march_row(used, grid.z[j1], dense[j1])
    for part in ("c", "below", "block"):
        np.testing.assert_array_equal(getattr(again, part), getattr(fresh, part))
    np.testing.assert_array_equal(_march_row(used, grid.z[j1]).c, fresh.c)


@pytest.mark.parametrize("case", ["c", "density", "density-alone"])
@pytest.mark.parametrize(
    "h, source_half_width", [(0.05, 0.5), (0.125, 0.75)], ids=["grid20", "wide-source"]
)
def test_a_sample_beyond_the_widened_medium_is_refused(h, source_half_width, case):
    # The march gathers without np.take's bounds check and checks each
    # row's reach once instead.  Rays without their zero columns reach past
    # the medium on every row above the floor (with the widened attenuation
    # kept, past the last source's density only), and must still raise.
    grid = GridSet.uniform(Geometry(source_half_width=source_half_width), h)
    atten = make_phantom("A", 5.0, grid).attenuation
    rays = _Rays.build(grid.x1, atten, grid)
    if case == "density-alone":
        rays = dataclasses.replace(rays, pad=0)
    else:
        rays = dataclasses.replace(rays, pad=0, atten=atten.ravel())
    vt = None if case == "c" else np.zeros((grid.alpha.size, *grid.shape_medium[:2]))
    for z in grid.z[1:]:
        with pytest.raises(IndexError, match="out of bounds"):
            _march_row(rays, z, vt)


def test_ray_blocks_march_little_padding(grid20):
    # A row's rays are aligned at their ends and padded to its longest: the
    # sample slots stay within 20% of the live samples (1.12 at h = 1/20).
    atten = make_phantom("A", 5.0, grid20).attenuation
    slots = live = 0
    rays = _Rays.build(grid20.x1, atten, grid20)
    for z in grid20.z:
        counts = _march_row(rays, z).counts
        slots += counts.size * counts.max()
        live += counts.sum()
    assert slots <= 1.2 * live


def test_forward_solve_grows_resident_memory_little():
    # The row march stores no operator (the stored one grew the resident
    # set by about 40 MB at h = 1/40), and runs its chunks in one workspace
    # per solve instead of fresh arrays that the allocator hands back to
    # the kernel and faults in again (18 k minor faults per solve).
    # Measured in a fresh interpreter, after a small solve has loaded
    # everything the solve touches.
    code = textwrap.dedent(
        """
        import resource
        from rtetomo import Geometry, GridSet, KernelModel, SourceModel, make_phantom, solve_forward

        def solve(h):
            grid = GridSet.uniform(Geometry(), h)
            solve_forward(make_phantom("A", 5.0, grid), SourceModel.build(0.05), KernelModel(), grid)

        solve(0.1)
        grid = GridSet.uniform(Geometry(), 1.0 / 40.0)
        phantom = make_phantom("A", 5.0, grid)
        before = resource.getrusage(resource.RUSAGE_SELF)
        solve_forward(phantom, SourceModel.build(0.05), KernelModel(), grid)
        after = resource.getrusage(resource.RUSAGE_SELF)
        print(after.ru_maxrss - before.ru_maxrss, after.ru_minflt - before.ru_minflt)
        """
    )
    paths = [str(Path(forward.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    growth_kb, faults = map(int, done.stdout.split())
    assert growth_kb <= 15 * 1024
    assert faults <= 6000


def test_scattering_only_adds_radiance(grid10, source, kernel, field10):
    phantom = make_phantom("A", 5.0, grid10)
    u0 = u0_field(phantom, source, grid10)
    gap = field10 - u0
    assert gap.min() >= -1e-12
    assert gap.max() > 0.0


@pytest.mark.parametrize(
    "h, source_half_width, off_z",
    [(0.1, 0.5, 3), (0.05, 0.75, 6), (0.025, 0.75, 11)],
    ids=["grid10", "wide-source-20", "wide-source-40"],
)
def test_unscattered_solve_is_the_ballistic_field_to_the_bit(source, h, source_half_width, off_z):
    # Without scattering the row solve's u0 is all there is, so both of its
    # ways to c (the row's own march, or a second march to the rays'
    # lattice z) must give u0_field's bits.  The medium's x1 nodes are the
    # lattice's, also where the source segment is wider than the medium.
    grid = GridSet.uniform(Geometry(source_half_width=source_half_width), h)
    x1, z = _ray_lattice(grid)
    assert np.count_nonzero(z != grid.z) == off_z
    assert _same_bits(x1, grid.x1)
    phantom = make_phantom("A", 5.0, grid, mu_s_value=0.0)
    field = solve_forward(phantom, source, KernelModel(aperture_half_width=source_half_width), grid)
    np.testing.assert_array_equal(field, u0_field(phantom, source, grid))


@pytest.mark.parametrize("source_half_width", [0.5, 0.75], ids=["grid20", "wide-source-20"])
def test_solve_forward_marches_each_ray_once(source, source_half_width, monkeypatch):
    # The solve marches every (row target, source) ray once, all with one
    # set of rays aimed at grid.x1; u0 reuses their c and marches again
    # only the rows whose z lies off the rays' lattice.
    grid = GridSet.uniform(Geometry(source_half_width=source_half_width), 0.05)
    kernel = KernelModel(aperture_half_width=source_half_width)
    marched, built = [], []
    build = forward._Rays.build
    march_row = forward._march_row

    def counting(rays, tz, *args):
        row = march_row(rays, tz, *args)
        marched.append((tz, rays, np.count_nonzero(row.counts)))
        return row

    def building(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(forward, "_march_row", counting)
    monkeypatch.setattr(forward._Rays, "build", building)
    solve_forward(make_phantom("A", 5.0, grid), source, kernel, grid)
    assert len(built) == 1 and _same_bits(built[0].tx, grid.x1)
    floor = grid.geometry.slab_bottom + 1e-12
    n1, nz, n_alpha = grid.shape_medium
    z = _ray_lattice(grid)[1]
    off = [j for j in range(nz) if z[j] != grid.z[j]]
    assert len(off) == 6
    expected = [grid.z[j] for j in range(nz)] + [z[j] for j in off]
    assert sorted(zj for zj, _, _ in marched) == sorted(expected)
    assert all(rays is built[0] for _, rays, _ in marched)
    active = np.count_nonzero(grid.z > floor) + sum(z[j] > floor for j in off)
    assert sum(rays for _, _, rays in marched) == active * n1 * n_alpha


def _row_by_row_setup_solve(phantom, source, kernel, grid):
    """The row solve with nothing carried from row to row but the solved
    field: each row sets up its own rays, widens its own copy of the
    density, and runs its passes as plain whole-array expressions.
    Returns the field and the per-pass largest updates."""
    n1, nz, n_alpha = grid.shape_medium
    atten = phantom.attenuation
    z = _ray_lattice(grid)[1]
    w_t = scatter_matrix(kernel, grid.alpha, grid.h).T
    u = np.empty(grid.shape_medium)
    vt = np.zeros((n_alpha, n1, nz))
    row_tol = max(forward.FORWARD_TOL / 100.0, 4.0 * np.finfo(float).eps)
    diffs, top = [], 1.0
    for j in range(nz):
        rays = _Rays.build(grid.x1, atten, grid)
        row = _march_row(rays, grid.z[j], _widened(vt, rays))
        c = row.c
        if z[j] != grid.z[j]:
            c = _march_row(_Rays.build(grid.x1, atten, grid), z[j]).c
        b = source.profile_integral / c + row.below
        uj = b
        for m in range(MAX_SWEEPS):
            vj = (uj @ w_t) * phantom.mu_s[:, j, None]
            new = b + np.matmul(row.block, vj.T[:, :, None])[:, :, 0].T
            diff = float(np.max(np.abs(new - uj)))
            assert np.isfinite(diff)
            if m < len(diffs):
                diffs[m] = max(diffs[m], diff)
            else:
                diffs.append(diff)
            uj = new
            top = max(top, float(np.max(new)))
            if diff <= row_tol * top:
                break
        else:
            raise AssertionError(f"no convergence on z-row {j}")
        u[:, j] = uj
        vt[:, :, j] = ((uj @ w_t) * phantom.mu_s[:, j, None]).T
    return u, diffs


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "h, source_half_width", [(0.1, 0.5), (0.05, 0.5), (0.125, 0.75)], ids=["grid10", "grid20", "wide-source"]
)
def test_solve_carries_only_its_field_from_row_to_row(source, h, source_half_width):
    # solve_forward sets its rays up once and writes each solved row into
    # one widened density; a solve that redoes both on every row must give
    # its field and its pass updates to the bit.
    grid = GridSet.uniform(Geometry(source_half_width=source_half_width), h)
    kernel = KernelModel(aperture_half_width=source_half_width)
    phantom = make_phantom("A", 5.0, grid)
    field, info = solve_forward(phantom, source, kernel, grid, return_info=True)
    expected, diffs = _row_by_row_setup_solve(phantom, source, kernel, grid)
    assert _same_bits(field, expected)
    assert _same_bits(info["diffs"], diffs)
    assert info["sweeps"] == len(diffs)


def test_solves_leave_no_state_behind(geometry, source, kernel):
    # Solves on other grids and media in between must not move a solve's
    # bits: nothing the solve sets up outlives it.
    grids = {h: GridSet.uniform(geometry, h) for h in (0.1, 0.05)}
    cases = [(0.1, "A", 5.0), (0.05, "A", 5.0), (0.1, None, 2.0), (0.05, None, 2.0)]
    first = {}
    for h, letter, c_a in cases + cases[::-1]:
        grid = grids[h]
        phantom = make_phantom(letter, c_a, grid)
        field, info = solve_forward(phantom, source, kernel, grid, return_info=True)
        bits = (field, info["diffs"], u0_field(phantom, source, grid))
        expected = first.setdefault((h, letter), bits)
        assert all(_same_bits(got, want) for got, want in zip(bits, expected))


def _two_march_solve(phantom, source, kernel, grid, tol):
    """Plain whole-field sweeps: u0 from its own march, then u <- u0 + K u
    with K assembled from the reference march's rows, until the update falls
    below ``tol`` relative to the field's max."""
    u0 = u0_field(phantom, source, grid)
    w = scatter_matrix(kernel, grid.alpha, grid.h)
    n1, nz, n_alpha = grid.shape_medium
    rows = np.stack([_reference_rows(grid, phantom.attenuation, j) for j in range(nz)], axis=2)
    u = u0
    for _ in range(MAX_SWEEPS):
        vt = (phantom.mu_s[:, :, None] * (u @ w.T)).transpose(2, 0, 1)
        new = u0 + np.einsum("kijab,kab->ijk", rows, vt)
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
    # target's z-row, and the row march reads next to nothing from there.
    grid = GridSet.uniform(Geometry(source_half_width=source_half_width), h)
    atten = make_phantom("A", 5.0, grid).attenuation
    n1, nz, _ = grid.shape_medium
    node_row = np.arange(n1 * nz) % nz
    above = max(
        _ray_row(grid.x1[i], grid.z[j], grid.alpha[k], atten, grid)[1][node_row > j].max(initial=0.0)
        for (i, j, k), _ in np.ndenumerate(np.empty(grid.shape_medium))
    )
    assert above <= 1e-15

    rays = _Rays.build(grid.x1, atten, grid)
    for j, z in enumerate(grid.z):
        upper = np.ones((grid.alpha.size, n1, nz)) * (np.arange(nz) > j)
        assert _march_row(rays, z, _widened(upper, rays)).below.max() <= 1e-15


@pytest.mark.parametrize(
    "h, source_half_width", [(0.1, 0.5), (0.05, 0.5), (0.125, 0.75)], ids=["grid10", "grid20", "wide-source"]
)
def test_row_by_row_solve_matches_plain_sweeps(source, h, source_half_width):
    grid = GridSet.uniform(Geometry(source_half_width=source_half_width), h)
    kernel = KernelModel(aperture_half_width=source_half_width)
    phantom = make_phantom("A", 5.0, grid)
    field = solve_forward(phantom, source, kernel, grid)
    expected = _two_march_solve(phantom, source, kernel, grid, tol=1e-15)
    np.testing.assert_allclose(field, expected, rtol=0.0, atol=1e-11 * expected.max())


def test_source_reaching_the_medium_is_refused_before_marching(grid10, kernel, monkeypatch):
    def no_march(*args):
        raise AssertionError("marched before checking the source radius")

    monkeypatch.setattr(forward, "_march_row", no_march)
    with pytest.raises(UsageError):
        solve_forward(make_phantom("A", 5.0, grid10), SourceModel.build(1.0), kernel, grid10)


def test_forward_info_reports_contracting_sweeps(grid10, source, kernel):
    phantom = make_phantom(None, 0.0, grid10)
    field, info = solve_forward(phantom, source, kernel, grid10, return_info=True)
    assert info["sweeps"] >= 2
    assert info["diffs"][-1] < info["diffs"][0]
    assert np.all(field >= 0.0)
    assert set(info) == {"sweeps", "diffs"}


def test_forward_diverges_for_supercritical_scattering(grid10, source, kernel):
    phantom = make_phantom(None, 0.0, grid10, mu_s_value=25.0)
    with pytest.raises(NumericalError, match=r"z-row"):
        solve_forward(phantom, source, kernel, grid10)


def test_divergence_names_the_row_whose_passes_grow(grid10, source, kernel):
    # Subcritical scattering below z-row 6 and supercritical from it up:
    # the rows below converge, and row 6 is the first whose passes grow.
    phantom = make_phantom(None, 0.0, grid10)
    mu_s = phantom.mu_s.copy()
    mu_s[:, 6:] = 25.0
    phantom = dataclasses.replace(phantom, mu_s=mu_s, attenuation=phantom.mu_a + mu_s)
    with pytest.raises(NumericalError, match=r"z-row 6 "):
        solve_forward(phantom, source, kernel, grid10)


@pytest.mark.parametrize(
    "source_half_width, letter, c_a, h, off_lattice",
    [(0.5, "SZ", 3.0, 0.125, 0), (0.75, "A", 5.0, 0.125, 0), (0.5, "SZ", 3.0, 0.1, 3), (0.6, "A", 5.0, 0.1, 3)],
    ids=["default", "wide-source", "off-lattice", "wide-source-off-lattice"],
)
def test_direct_solver_matches_sweeps_on_a_coarse_grid(
    source, source_half_width, letter, c_a, h, off_lattice, monkeypatch
):
    # h = 1/4 leaves the aperture quadrature too coarse and the discrete
    # scattering operator supercritical; 1/8 is the coarsest sane step.
    # The absorber keeps the sweep contraction fast enough for a tight match
    # (a pure scatterer converges too slowly here).  With the wider source
    # segment some rays enter the slab beside the medium, where both solvers
    # must read the media as zero.  At h = 1/10 some z rows leave the rays'
    # lattice in the last bit, so both solvers re-march u0 there; the x1
    # nodes are the lattice's, also where the source segment is 0.6 wide
    # (there the medium's own span places 7 of 11 one bit off it).  The
    # sweeps run far past the production tolerance, so the gap is the two
    # quadratures'.
    monkeypatch.setattr(forward, "FORWARD_TOL", 1e-14)
    grid = GridSet.uniform(Geometry(source_half_width=source_half_width), h)
    x1, z = _ray_lattice(grid)
    assert _same_bits(x1, grid.x1)
    assert np.count_nonzero(z != grid.z) == off_lattice
    kernel = KernelModel(aperture_half_width=source_half_width)
    phantom = make_phantom(letter, c_a, grid)
    swept = solve_forward(phantom, source, kernel, grid)
    dense, info = solve_forward_direct(phantom, source, kernel, grid, return_info=True)
    assert info["residual"] < 1e-10
    gap = np.max(np.abs(swept - dense))
    assert gap < 1e-8


def test_direct_solver_refuses_large_grids(geometry, source, kernel):
    # 41 * 41 * 41 unknowns, far above the cap; refused before any assembly
    grid = GridSet.uniform(geometry, 1.0 / 40.0)
    phantom = make_phantom(None, 0.0, grid)
    with pytest.raises(UsageError):
        solve_forward_direct(phantom, source, kernel, grid)
