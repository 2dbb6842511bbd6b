"""Forward transport: ballistic field, scattering operator, and solvers.

The steady radiance u(x, alpha) for the source at (alpha, 0) satisfies the
integral fixed point u = u0 + K u, where u0 is the attenuated ballistic
term of the mollified point source and K attenuates and accumulates the
in-scattered radiance along the ray from the source to x.  The kernel of K
couples source abscissae through a wrapped Henyey-Greenstein factor over
the finite source aperture.

Both K and the ballistic attenuation use one ray quadrature.  For each
target node x and source abscissa alpha it marches the segment of the ray
[x_alpha, x] that lies above the medium's lower edge (media vanish below
it, so the skipped part contributes nothing, and starting at the crossing
keeps the interface sharp instead of smearing it across one interpolation
cell).  Marching accumulates

  - the attenuation integral A(s), giving c = exp(A(ell)), and
  - the attenuated scattering source T = int c(s) V(s) ds,

with trapezoid rule in arclength and bilinear interpolation of the nodal
attenuation and scattering-density fields; the pair kept per (node,
source) is (T / c, c).

Two solvers are provided: damped-free fixed-point sweeps (production) and
a dense collocation solve of the same discretization (oracle for small
grids), which rebuilds the quadrature ray by ray.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid, quad

from .errors import ForwardConvergenceError, UsageError
from .geometry import RadianceField, _ray_lattice, trapezoid_weights

_PROFILE_TABLE_N = 8193


def _bump(t):
    return np.exp(t * t / (t * t - 1.0))


@dataclass(frozen=True, eq=False)
class SourceModel:
    """Radially symmetric bump source of radius ``sigma``, unit total mass.

    ``profile_integral`` is the line integral of the bump through its
    center (the un-attenuated on-axis ballistic amplitude); ``s_nodes`` /
    ``cumulative`` tabulate the partial line integral used for evaluation
    points inside the support.
    """

    sigma: float
    norm_constant: float
    profile_integral: float
    s_nodes: np.ndarray
    cumulative: np.ndarray

    @classmethod
    def build(cls, sigma):
        if sigma <= 0:
            raise UsageError("source radius must be positive")
        radial_mass = quad(lambda t: t * _bump(t), 0.0, 1.0)[0]
        norm = 1.0 / (2.0 * np.pi * sigma * sigma * radial_mass)
        t = np.linspace(0.0, 1.0, _PROFILE_TABLE_N)
        profile = np.zeros_like(t)
        profile[:-1] = norm * _bump(t[:-1])
        s = sigma * t
        cum = np.concatenate([[0.0], cumulative_trapezoid(profile, s)])
        return cls(
            sigma=float(sigma),
            norm_constant=float(norm),
            profile_integral=float(cum[-1]),
            s_nodes=s,
            cumulative=cum,
        )


def source_value(x, alpha, source):
    """Pointwise source density at ``x = (..., 2)`` for abscissa ``alpha``."""
    x = np.asarray(x, dtype=float)
    dx = x[..., 0] - alpha
    dz = x[..., 1]
    r2 = dx * dx + dz * dz
    s2 = source.sigma * source.sigma
    out = np.zeros_like(r2)
    m = r2 < s2
    out[m] = source.norm_constant * np.exp(r2[m] / (r2[m] - s2))
    return out


def partial_profile_integral(ell, source):
    """Line integral of the bump profile over [0, ell]; saturates at
    ``profile_integral`` once ell covers the support."""
    return np.interp(ell, source.s_nodes, source.cumulative)


@dataclass(frozen=True)
class KernelModel:
    """Henyey-Greenstein coupling between source abscissae.

    ``anisotropy`` is the HG shape parameter; ``aperture_half_width`` sets
    the 1/(2d) normalization over the source segment [-d, d].
    """

    anisotropy: float = 0.5
    aperture_half_width: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.anisotropy < 1.0:
            raise UsageError("anisotropy must lie in [0, 1)")
        if self.aperture_half_width <= 0:
            raise UsageError("aperture half width must be positive")


def kernel_value(alpha, beta, kernel):
    """Coupling weight between abscissae alpha (receiver) and beta (donor)."""
    g = kernel.anisotropy
    den = 1.0 + g * g - 2.0 * g * np.cos(np.asarray(alpha) - np.asarray(beta))
    return (1.0 - g * g) / (2.0 * kernel.aperture_half_width * den)


def kernel_alpha_derivative(alpha, beta, kernel):
    """Derivative of :func:`kernel_value` in the receiver abscissa."""
    g = kernel.anisotropy
    diff = np.asarray(alpha) - np.asarray(beta)
    den = 1.0 + g * g - 2.0 * g * np.cos(diff)
    return -(1.0 - g * g) * g * np.sin(diff) / (kernel.aperture_half_width * den * den)


def kernel_matrix(kernel, alpha_nodes):
    """Dense (receiver, donor) coupling table on the abscissa nodes."""
    return kernel_value(np.asarray(alpha_nodes)[:, None], np.asarray(alpha_nodes)[None, :], kernel)


def scatter_matrix(kernel, alpha_nodes, h_alpha):
    """Coupling table with trapezoid quadrature weights folded in, so the
    aperture integral of G(alpha, .) f(.) is ``scatter_matrix @ f``."""
    w = trapezoid_weights(len(alpha_nodes), h_alpha)
    return kernel_matrix(kernel, alpha_nodes) * w[None, :]


def scatter_alpha_derivative_matrix(kernel, alpha_nodes, h_alpha):
    """Receiver-derivative counterpart of :func:`scatter_matrix`."""
    a = np.asarray(alpha_nodes)
    w = trapezoid_weights(len(a), h_alpha)
    return kernel_alpha_derivative(a[:, None], a[None, :], kernel) * w[None, :]


def default_ds(grid):
    """Default ray-march step: half the smaller spatial grid step."""
    return 0.5 * min(grid.h_x1, grid.h_z)


def _ray_samples(x1t, zt, alpha, grid, ds_target):
    """Sample arclengths and positions for one ray, mirroring :func:`_march`.

    Returns (s, px, pz, ds); empty arrays when the target is at or below
    the medium floor.
    """
    floor = grid.geometry.slab_bottom
    if zt <= floor + 1e-12:
        return np.empty(0), np.empty(0), np.empty(0), 0.0
    dxr = x1t - alpha
    ell = float(np.hypot(dxr, zt))
    s_a = ell * (floor / zt)
    seg = ell - s_a
    m_cnt = max(int(np.ceil(seg / ds_target)) + 1, 2)
    ds = seg / (m_cnt - 1)
    s = s_a + ds * np.arange(m_cnt)
    tpar = s / ell
    return s, alpha + tpar * dxr, tpar * zt, ds


def _bilinear_corners(px, pz, grid):
    """The four (ix, iz, weight) corner triples of bilinear interpolation on
    the medium grid; weights vanish outside the medium x-range (where all
    media vanish)."""
    n1, nz = grid.x1.size, grid.z.size
    fx = (px - grid.x1[0]) / grid.h_x1
    inside = (fx >= -1e-9) & (fx <= (n1 - 1) + 1e-9)
    ix = np.clip(np.floor(fx).astype(np.int64), 0, n1 - 2)
    wx = np.clip(fx - ix, 0.0, 1.0)
    fz = (pz - grid.z[0]) / grid.h_z
    iz = np.clip(np.floor(fz).astype(np.int64), 0, nz - 2)
    wz = np.clip(fz - iz, 0.0, 1.0)
    return (
        (ix, iz, np.where(inside, (1.0 - wx) * (1.0 - wz), 0.0)),
        (ix + 1, iz, np.where(inside, wx * (1.0 - wz), 0.0)),
        (ix, iz + 1, np.where(inside, (1.0 - wx) * wz, 0.0)),
        (ix + 1, iz + 1, np.where(inside, wx * wz, 0.0)),
    )


def _bilinear_medium(px, pz, values, grid):
    """Bilinear samples of a medium-grid nodal array; zero outside the
    medium x-range."""
    return sum(cw * values[ci, cj] for ci, cj, cw in _bilinear_corners(px, pz, grid))


def _march(tx, tz, atten, vsrc, grid, ds_target):
    """March every (target, source) ray; see the module docstring.

    ``tx``, ``tz`` are flat target coordinates; targets at or below the
    medium floor read (0, 1).  ``atten`` (n1, nz) and ``vsrc`` (n1, nz,
    n_alpha) are nodal attenuation and scattering density on the medium
    grid; points outside its x-range read as zero.  Each ray uses the
    closest step to ``ds_target`` that divides its marched segment evenly.
    Returns (scatter, c), two (n_targets, n_alpha) arrays.
    """
    if atten.shape != grid.shape_medium[:2] or vsrc.shape != grid.shape_medium:
        raise UsageError("attenuation / scattering-density shapes disagree with the grid")
    alpha = grid.alpha
    x0, h1, z0, hz = grid.x1[0], grid.h_x1, grid.z[0], grid.h_z
    floor_z = grid.geometry.slab_bottom
    n1, nz = atten.shape
    out_scat = np.empty((tx.size, alpha.size))
    out_c = np.empty_like(out_scat)
    active = tz > floor_z + 1e-12
    out_scat[~active] = 0.0
    out_c[~active] = 1.0
    if not np.any(active):
        return out_scat, out_c
    ax = tx[active]
    az = tz[active]
    for k in range(alpha.size):
        dxr = ax - alpha[k]
        ell = np.hypot(dxr, az)
        s_a = ell * (floor_z / az)
        seg = ell - s_a
        m_cnt = np.maximum(np.ceil(seg / ds_target).astype(np.int64) + 1, 2)
        ds = seg / (m_cnt - 1)
        m_max = int(m_cnt.max())
        m = np.arange(m_max)
        live = m[None, :] < m_cnt[:, None]
        mm = np.minimum(m[None, :], m_cnt[:, None] - 1)
        s = s_a[:, None] + ds[:, None] * mm
        tpar = s / ell[:, None]
        px = alpha[k] + tpar * dxr[:, None]
        pz = tpar * az[:, None]

        fx = (px - x0) / h1
        inside = (fx >= -1e-9) & (fx <= (n1 - 1) + 1e-9)
        ix = np.clip(np.floor(fx).astype(np.int64), 0, n1 - 2)
        wx = np.clip(fx - ix, 0.0, 1.0)
        fz = (pz - z0) / hz
        iz = np.clip(np.floor(fz).astype(np.int64), 0, nz - 2)
        wz = np.clip(fz - iz, 0.0, 1.0)
        w00 = (1.0 - wx) * (1.0 - wz)
        w10 = wx * (1.0 - wz)
        w01 = (1.0 - wx) * wz
        w11 = wx * wz
        a_s = (
            w00 * atten[ix, iz]
            + w10 * atten[ix + 1, iz]
            + w01 * atten[ix, iz + 1]
            + w11 * atten[ix + 1, iz + 1]
        )
        vk = vsrc[:, :, k]
        v_s = (
            w00 * vk[ix, iz]
            + w10 * vk[ix + 1, iz]
            + w01 * vk[ix, iz + 1]
            + w11 * vk[ix + 1, iz + 1]
        )
        a_s = np.where(inside, a_s, 0.0)
        v_s = np.where(inside, v_s, 0.0)

        gate = live[:, 1:]
        inc = 0.5 * ds[:, None] * (a_s[:, 1:] + a_s[:, :-1]) * gate
        acc = np.concatenate([np.zeros((inc.shape[0], 1)), np.cumsum(inc, axis=1)], axis=1)
        c_s = np.exp(acc)
        cv = c_s * v_s
        t_total = (0.5 * ds[:, None] * (cv[:, 1:] + cv[:, :-1]) * gate).sum(axis=1)
        c_end = c_s[:, -1]
        out_scat[active, k] = t_total / c_end
        out_c[active, k] = c_end
    return out_scat, out_c


def _ballistic_targets(grid):
    """Flat medium-node coordinates that the ballistic march aims at.

    They are the medium nodes as a uniform grid over the rays' rectangle
    P = (-reach, reach) x (0, b) with the same steps places them, and at
    some z rows they differ from ``grid.z`` in the last bit.  A one-bit
    change can change ceil(segment / ds), and with it the sample count of a
    ray: marching to ``grid.z`` instead moves u0 by up to 1% at h = 0.1, so
    the synthetic data depend on these exact coordinates.
    """
    x, z = np.meshgrid(*_ray_lattice(grid), indexing="ij")
    return x.ravel(), z.ravel()


def _ballistic(phantom, source, grid, ds_target):
    """u0 on the medium nodes as a flat (n_nodes, n_alpha) array."""
    tx, tz = _ballistic_targets(grid)
    _, c = _march(tx, tz, phantom.attenuation, np.zeros(grid.shape_medium), grid, ds_target)
    ell = np.hypot(tx[:, None] - grid.alpha[None, :], tz[:, None])
    amplitude = partial_profile_integral(np.minimum(ell, source.sigma), source)
    return amplitude / c


def u0_field(phantom, source, grid, ds_target=None):
    """Ballistic (unscattered) radiance on the medium grid."""
    ds_target = ds_target or default_ds(grid)
    return RadianceField(_ballistic(phantom, source, grid, ds_target).reshape(grid.shape_medium), grid)


def solve_forward(
    phantom,
    source,
    kernel,
    grid,
    tol=1e-10,
    max_iters=200,
    ds_target=None,
    return_info=False,
):
    """Iterate u <- u0 + K u on the medium nodes until the sweep update
    falls below ``tol`` (relative to the field's max).

    The operator K is monotone, so the iterates increase pointwise from u0
    and converge whenever the scattering albedo stays subcritical; a
    non-contracting tail raises :class:`ForwardConvergenceError`.  Returns
    the medium-grid radiance (and an info dict with the sweep history when
    ``return_info`` is set).
    """
    ds_target = ds_target or default_ds(grid)
    u0 = _ballistic(phantom, source, grid, ds_target).reshape(grid.shape_medium)
    u = u0
    w = scatter_matrix(kernel, grid.alpha, grid.h_alpha)
    xm, zm = grid.spatial_mesh("medium")
    txm, tzm = xm.ravel(), zm.ravel()

    diffs = []
    for _ in range(max_iters):
        vsrc = phantom.mu_s[:, :, None] * (u @ w.T)
        scat, _ = _march(txm, tzm, phantom.attenuation, vsrc, grid, ds_target)
        new = u0 + scat.reshape(u0.shape)
        diff = float(np.max(np.abs(new - u)))
        if not np.isfinite(diff):
            raise ForwardConvergenceError("fixed-point sweep diverged", last_diff=diff)
        u = new
        diffs.append(diff)
        if diff <= tol * max(1.0, float(np.max(new))):
            break
    else:
        raise ForwardConvergenceError(
            f"no convergence in {max_iters} sweeps (last update {diffs[-1]:.3e})",
            last_diff=diffs[-1],
        )

    field = RadianceField(u, grid)
    if return_info:
        return field, {"sweeps": len(diffs), "diffs": diffs, "ds": ds_target}
    return field


def solve_forward_direct(phantom, source, kernel, grid, cap=10000, ds_target=None, return_info=False):
    """Dense collocation solve of the same discretization, for small grids.

    Assembles (I - S) u = u0 over all medium nodes and abscissae with S the
    exact matrix of one marching sweep, then solves with LAPACK.  Refuses
    more than ``cap`` unknowns.
    """
    ds_target = ds_target or default_ds(grid)
    n1, nz, nk = grid.shape_medium
    n_unknown = n1 * nz * nk
    if n_unknown > cap:
        raise UsageError(f"{n_unknown} unknowns exceed the dense-solver cap {cap}")
    atten, mu_s = phantom.attenuation, phantom.mu_s
    w = scatter_matrix(kernel, grid.alpha, grid.h_alpha)
    rhs = _ballistic(phantom, source, grid, ds_target).reshape(n_unknown)

    smat = np.zeros((n_unknown, n_unknown))
    for i in range(n1):
        for j in range(nz):
            for k in range(nk):
                row = (i * nz + j) * nk + k
                s, px, pz, ds = _ray_samples(grid.x1[i], grid.z[j], grid.alpha[k], grid, ds_target)
                if s.size == 0:
                    continue
                a_s = _bilinear_medium(px, pz, atten, grid)
                inc = 0.5 * ds * (a_s[1:] + a_s[:-1])
                acc = np.concatenate([[0.0], np.cumsum(inc)])
                c_s = np.exp(acc)
                trap = np.full(s.size, ds)
                trap[0] = trap[-1] = 0.5 * ds
                sample_w = trap * c_s / c_s[-1]
                for ci, cj, cw in _bilinear_corners(px, pz, grid):
                    coeff = sample_w * cw * mu_s[ci, cj]
                    for m in range(s.size):
                        if coeff[m] == 0.0:
                            continue
                        base = (ci[m] * nz + cj[m]) * nk
                        smat[row, base : base + nk] += coeff[m] * w[k, :]

    mat = np.eye(n_unknown) - smat
    sol = np.linalg.solve(mat, rhs)
    residual = float(np.max(np.abs(mat @ sol - rhs)))

    field = RadianceField(sol.reshape(grid.shape_medium), grid)
    if return_info:
        return field, {"residual": residual, "unknowns": n_unknown}
    return field
