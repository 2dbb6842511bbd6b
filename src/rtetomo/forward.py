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
source) is (T / c, c).  The step is about ``default_ds(grid)`` = h / 2.

The attenuation is fixed during a solve, so the quadrature is marched
once: the ballistic term takes c from it, and K is built into a
:class:`ScatterOperator` whose rows hold the per-node weights of
T / c.  Each fixed-point sweep is then one small dense product over the
abscissae and one sparse product per source.  The operator costs about 10
bytes per nonzero, and the nonzeros grow as h^-4 (3.3 million, 33 MB, at
h = 1/40; about 0.5 GB at h = 1/80).

Two solvers are provided: damped-free fixed-point sweeps (production),
which give up after ``MAX_SWEEPS`` sweeps, and a dense collocation solve of
the same discretization (oracle for small grids, at most
``DIRECT_MAX_UNKNOWNS`` unknowns), which rebuilds the quadrature ray by
ray.
"""

import mmap
from dataclasses import dataclass

import numpy as np

from .errors import ForwardConvergenceError, UsageError
from .geometry import RadianceField, _ray_lattice, trapezoid_weights

_PROFILE_TABLE_N = 8193
# int_0^1 t exp(t^2 / (t^2 - 1)) dt = (1 - e E_1(1)) / 2 = 0.20182631883840296...
# The stored double is the adaptive Gauss-Kronrod value (5e-15 below) that
# every synthetic dataset and reference trace was made with.
_BUMP_RADIAL_MASS = 0.20182631883840194

MAX_SWEEPS = 200
# The dense oracle's (n x n) float64 matrix is 0.8 GB at this cap.
DIRECT_MAX_UNKNOWNS = 10000


def _bump(t):
    return np.exp(t * t / (t * t - 1.0))


@dataclass(frozen=True, eq=False)
class SourceModel:
    """Radially symmetric bump source of radius ``sigma``, unit total mass.

    ``profile_integral`` is the line integral of the bump through its
    center: the un-attenuated ballistic amplitude at every medium node,
    since the bump lies below the medium (see :func:`_ballistic`).
    """

    sigma: float
    norm_constant: float
    profile_integral: float

    @classmethod
    def build(cls, sigma):
        if sigma <= 0:
            raise UsageError("source radius must be positive")
        norm = 1.0 / (2.0 * np.pi * sigma * sigma * _BUMP_RADIAL_MASS)
        t = np.linspace(0.0, 1.0, _PROFILE_TABLE_N)
        profile = np.zeros_like(t)
        profile[:-1] = norm * _bump(t[:-1])
        s = sigma * t
        cum = np.cumsum(np.diff(s) * (profile[1:] + profile[:-1]) / 2.0)
        return cls(
            sigma=float(sigma),
            norm_constant=float(norm),
            profile_integral=float(cum[-1]),
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
    """The ray-march step every solver uses: half the grid step."""
    return 0.5 * grid.h


def _ray_samples(x1t, zt, alpha, grid):
    """Sample arclengths and positions for one ray, as :func:`_ray_blocks`
    marches them.

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
    m_cnt = max(int(np.ceil(seg / default_ds(grid))) + 1, 2)
    ds = seg / (m_cnt - 1)
    s = s_a + ds * np.arange(m_cnt)
    tpar = s / ell
    return s, alpha + tpar * dxr, tpar * zt, ds


def _bilinear_corners(px, pz, grid):
    """The four (ix, iz, weight) corner triples of bilinear interpolation on
    the medium grid; weights vanish outside the medium x-range (where all
    media vanish)."""
    n1, nz = grid.x1.size, grid.z.size
    fx = (px - grid.x1[0]) / grid.h
    inside = (fx >= -1e-9) & (fx <= (n1 - 1) + 1e-9)
    ix = np.clip(np.floor(fx).astype(np.int64), 0, n1 - 2)
    wx = np.clip(fx - ix, 0.0, 1.0)
    fz = (pz - grid.z[0]) / grid.h
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


# Targets marched together per source: bounds the per-block sample arrays.
_BLOCK = 64


def _ray_blocks(tx, tz, atten, grid, k):
    """March the rays from source abscissa ``k`` to every target; see the
    module docstring.

    ``tx``, ``tz`` are flat target coordinates and ``atten`` (n1, nz) the
    nodal attenuation on the medium grid.  Targets above the medium floor
    are marched in blocks of ``_BLOCK``, each ray with the closest step to
    :func:`default_ds` that divides its marched segment evenly.  Yields (rows,
    trap, c_s, corners) per block: the block's target indices, the
    trapezoid weights (B, M) of the samples (zero past the end of a shorter
    ray), c at every sample and the samples' bilinear corners.
    """
    if atten.shape != grid.shape_medium[:2]:
        raise UsageError("attenuation shape disagrees with the grid")
    alpha = grid.alpha[k]
    floor_z = grid.geometry.slab_bottom
    active = np.flatnonzero(tz > floor_z + 1e-12)
    for start in range(0, active.size, _BLOCK):
        rows = active[start : start + _BLOCK]
        dxr = tx[rows] - alpha
        az = tz[rows]
        ell = np.hypot(dxr, az)
        s_a = ell * (floor_z / az)
        seg = ell - s_a
        m_cnt = np.maximum(np.ceil(seg / default_ds(grid)).astype(np.int64) + 1, 2)
        ds = seg / (m_cnt - 1)
        m = np.arange(int(m_cnt.max()))
        live = m[None, :] < m_cnt[:, None]
        s = s_a[:, None] + ds[:, None] * np.minimum(m[None, :], m_cnt[:, None] - 1)
        tpar = s / ell[:, None]
        corners = _bilinear_corners(alpha + tpar * dxr[:, None], tpar * az[:, None], grid)
        a_s = sum(cw * atten[ci, cj] for ci, cj, cw in corners)
        inc = 0.5 * ds[:, None] * (a_s[:, 1:] + a_s[:, :-1]) * live[:, 1:]
        c_s = np.exp(np.concatenate([np.zeros((rows.size, 1)), np.cumsum(inc, axis=1)], axis=1))
        trap = ds[:, None] * live
        trap[:, 0] *= 0.5
        trap[np.arange(rows.size), m_cnt - 1] *= 0.5
        yield rows, trap, c_s, corners


def _path_attenuation(tx, tz, atten, grid):
    """c = exp(attenuation integral) of every (target, source) ray as an
    (n_targets, n_alpha) array; targets at or below the floor read 1."""
    c = np.ones((tx.size, grid.alpha.size))
    for k in range(grid.alpha.size):
        for rows, _, c_s, _ in _ray_blocks(tx, tz, atten, grid, k):
            c[rows, k] = c_s[:, -1]
    return c


def _mapped_concatenate(pieces, dtype):
    """Join ``pieces`` into an array backed by its own anonymous memory map,
    which goes back to the system as soon as the array is dropped instead
    of staying in the allocator's heap."""
    n = sum(p.size for p in pieces)
    if n == 0:
        return np.empty(0, dtype)
    out = np.frombuffer(mmap.mmap(-1, n * np.dtype(dtype).itemsize), dtype)
    np.concatenate(pieces, out=out)
    return out


class ScatterOperator:
    """The scattering quadrature of one attenuation as a sparse operator.

    Row (k, t) maps the nodal scattering density of source abscissa k to
    the scattered radiance T / c at target t: per ray sample the weight
    trap * c(s) / c(end) spread over the sample's bilinear corners, summed
    per medium node.  Each source keeps one float64 weight array and one
    node-index array of the narrowest unsigned type (uint16 up to 65 536
    medium nodes), so the operator costs about 10 bytes per nonzero, plus
    the (n_alpha, n_targets + 1) row offsets.  Targets at or below the
    medium floor have empty rows.  ``atten`` (n1, nz) is the nodal
    attenuation and ``tx``, ``tz`` the flat target coordinates.
    """

    def __init__(self, tx, tz, atten, grid):
        n_nodes = grid.x1.size * grid.z.size
        node_type = np.min_scalar_type(n_nodes - 1)
        self.grid = grid
        self.indptr = np.zeros((grid.alpha.size, tx.size + 1), dtype=np.int64)
        self.data, self.nodes = [], []
        for k in range(grid.alpha.size):
            weights, nodes = [], []
            for rows, trap, c_s, corners in _ray_blocks(tx, tz, atten, grid, k):
                # Sum the sample weights per (target, node) in a dense
                # accumulator over the block's node window; its nonzero
                # entries come out row by row, sorted by node.
                sample_w = trap * c_s / c_s[:, -1:]
                key = np.concatenate([(ci * grid.z.size + cj).ravel() for ci, cj, _ in corners])
                lo = key.min()
                width = int(key.max() - lo) + 1
                key -= lo
                key += np.tile(np.repeat(np.arange(rows.size) * width, trap.shape[1]), 4)
                w = np.concatenate([(sample_w * cw).ravel() for _, _, cw in corners])
                acc = np.bincount(key, weights=w, minlength=rows.size * width)
                hit = np.flatnonzero(acc)
                row, col = np.divmod(hit, width)
                self.indptr[k, rows + 1] = np.bincount(row, minlength=rows.size)
                weights.append(acc[hit])
                nodes.append((col + lo).astype(node_type))
            np.cumsum(self.indptr[k], out=self.indptr[k])
            self.data.append(_mapped_concatenate(weights, np.float64))
            self.nodes.append(_mapped_concatenate(nodes, node_type))

    @property
    def nnz(self):
        return sum(d.size for d in self.data)

    @property
    def nbytes(self):
        return sum(a.nbytes for a in (*self.data, *self.nodes, self.indptr))

    def apply(self, vsrc):
        """Scattered radiance (n_targets, n_alpha) of the nodal scattering
        density ``vsrc`` (n1, nz, n_alpha)."""
        if vsrc.shape != self.grid.shape_medium:
            raise UsageError("scattering-density shape disagrees with the grid")
        vt = np.ascontiguousarray(vsrc.reshape(-1, vsrc.shape[2]).T)
        out = np.zeros((vt.shape[0], self.indptr.shape[1] - 1))
        for k, ptr in enumerate(self.indptr):
            filled = ptr[1:] > ptr[:-1]
            g = vt[k].take(self.nodes[k])
            g *= self.data[k]
            out[k, filled] = np.add.reduceat(g, ptr[:-1][filled])
        return out.T


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


def _ballistic(phantom, source, grid):
    """u0 on the medium nodes as a flat (n_nodes, n_alpha) array.

    The bump must lie in the source-free gap below the medium, so every
    ray from a source to a medium node crosses the whole bump and carries
    ``profile_integral``; a radius reaching the medium is a usage error.
    """
    floor = grid.geometry.slab_bottom
    if source.sigma >= floor:
        raise UsageError(f"source radius {source.sigma!r} must stay below the medium floor z = {floor!r}")
    tx, tz = _ballistic_targets(grid)
    return source.profile_integral / _path_attenuation(tx, tz, phantom.attenuation, grid)


def u0_field(phantom, source, grid):
    """Ballistic (unscattered) radiance on the medium grid."""
    return RadianceField(_ballistic(phantom, source, grid).reshape(grid.shape_medium), grid)


def solve_forward(phantom, source, kernel, grid, tol=1e-10, return_info=False):
    """Iterate u <- u0 + K u on the medium nodes until the sweep update
    falls below ``tol`` (relative to the field's max).

    The operator K is monotone, so the iterates increase pointwise from u0
    and converge whenever the scattering albedo stays subcritical; a
    non-contracting tail, or no convergence within ``MAX_SWEEPS`` sweeps,
    raises :class:`ForwardConvergenceError`.  Returns the medium-grid
    radiance, and with ``return_info`` an info dict: the sweep count, the
    per-sweep max updates ``diffs`` and the operator's nonzeros ``nnz`` and
    size ``operator_mb``.
    """
    u0 = _ballistic(phantom, source, grid).reshape(grid.shape_medium)
    u = u0
    w = scatter_matrix(kernel, grid.alpha, grid.h)
    xm, zm = grid.spatial_mesh()
    op = ScatterOperator(xm.ravel(), zm.ravel(), phantom.attenuation, grid)

    diffs = []
    for _ in range(MAX_SWEEPS):
        vsrc = phantom.mu_s[:, :, None] * (u @ w.T)
        scat = op.apply(vsrc)
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
            f"no convergence in {MAX_SWEEPS} sweeps (last update {diffs[-1]:.3e})",
            last_diff=diffs[-1],
        )

    field = RadianceField(u, grid)
    if return_info:
        return field, {
            "sweeps": len(diffs), "diffs": diffs, "nnz": op.nnz, "operator_mb": op.nbytes / 1e6,
        }
    return field


def solve_forward_direct(phantom, source, kernel, grid, return_info=False):
    """Dense collocation solve of the same discretization, for small grids.

    Assembles (I - S) u = u0 over all medium nodes and abscissae with S the
    exact matrix of one marching sweep, then solves with LAPACK.  Refuses
    more than ``DIRECT_MAX_UNKNOWNS`` unknowns.
    """
    n1, nz, nk = grid.shape_medium
    n_unknown = n1 * nz * nk
    if n_unknown > DIRECT_MAX_UNKNOWNS:
        raise UsageError(f"{n_unknown} unknowns exceed the dense-solver cap {DIRECT_MAX_UNKNOWNS}")
    atten, mu_s = phantom.attenuation, phantom.mu_s
    w = scatter_matrix(kernel, grid.alpha, grid.h)
    rhs = _ballistic(phantom, source, grid).reshape(n_unknown)

    smat = np.zeros((n_unknown, n_unknown))
    for i in range(n1):
        for j in range(nz):
            for k in range(nk):
                row = (i * nz + j) * nk + k
                s, px, pz, ds = _ray_samples(grid.x1[i], grid.z[j], grid.alpha[k], grid)
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
