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

The production march, :func:`_ray_blocks`, takes one source's rays in
blocks in order of sample count, so a block is padded only to the longest
of rays of about the same length (sample slots 1.075 times the live
samples at h = 1/40, against 1.90 for blocks of consecutive targets, which
run from the medium floor to the top).  Padded samples repeat a ray's last
sample with trapezoid weight 0, and every step of the march is elementwise
or runs along one ray, so no ray's result depends on which rays share its
block.

The attenuation is fixed during a solve, so the quadrature is marched
once: K is built into a :class:`ScatterOperator` whose rows hold the
per-node weights of T / c, and the ballistic term takes c from the same
march.  Only its off-lattice rows are marched again: u0 aims at
:func:`_ballistic_targets`, which differ from the medium nodes in the
last bit on a few z rows (11 of 41 at h = 1/40), and a one-bit change
can change a ray's sample count.  Each fixed-point sweep is then one
small dense product over the abscissae and one sparse product per
source, into work arrays allocated once per solve.  The operator costs
about 10 bytes per nonzero, and the nonzeros grow as h^-4 (3.3 million,
33 MB, at h = 1/40; about 0.5 GB at h = 1/80).

Two solvers are provided: damped-free fixed-point sweeps (production),
which give up after ``MAX_SWEEPS`` sweeps, and a dense collocation solve of
the same discretization (oracle for small grids, at most
``DIRECT_MAX_UNKNOWNS`` unknowns).  The oracle takes every ray from
:func:`_ray_row`, a one-ray reference march that shares only the
bilinear corners and the step with the production march, so the two
solvers check each other's quadrature.
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
        mass = 2.0 * np.pi * sigma * sigma * _BUMP_RADIAL_MASS
        if not mass > 0.0 or not np.isfinite(1.0 / mass):
            raise UsageError(f"source radius {sigma!r} is too small to normalize the source")
        norm = 1.0 / mass
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


def scatter_matrix(kernel, alpha_nodes, h_alpha):
    """(receiver, donor) coupling table with trapezoid quadrature weights
    folded in, so the aperture integral of G(alpha, .) f(.) is
    ``scatter_matrix @ f``."""
    a = np.asarray(alpha_nodes)
    w = trapezoid_weights(len(a), h_alpha)
    return kernel_value(a[:, None], a[None, :], kernel) * w[None, :]


def scatter_alpha_derivative_matrix(kernel, alpha_nodes, h_alpha):
    """Receiver-derivative counterpart of :func:`scatter_matrix`."""
    a = np.asarray(alpha_nodes)
    w = trapezoid_weights(len(a), h_alpha)
    return kernel_alpha_derivative(a[:, None], a[None, :], kernel) * w[None, :]


def default_ds(grid):
    """The ray-march step every solver uses: half the grid step."""
    return 0.5 * grid.h


def _bilinear_corners(px, pz, grid):
    """Bilinear interpolation of the samples (px, pz) on the medium grid.

    Returns (flat, corners): the flat index ``ix * nz + iz`` of each
    sample's lower-left node, and the four (offset, weight) corner pairs,
    offsets 0, nz, 1, nz + 1 into the flattened (n1, nz) node array.  The
    weights vanish outside the medium x-range (where all media vanish).
    """
    n1, nz = grid.x1.size, grid.z.size
    fx = (px - grid.x1[0]) / grid.h
    inside = (fx >= -1e-9) & (fx <= (n1 - 1) + 1e-9)
    ix = np.clip(np.floor(fx).astype(np.int64), 0, n1 - 2)
    wx = np.clip(fx - ix, 0.0, 1.0)
    fz = (pz - grid.z[0]) / grid.h
    iz = np.clip(np.floor(fz).astype(np.int64), 0, nz - 2)
    wz = np.clip(fz - iz, 0.0, 1.0)
    wx0, wx1 = (1.0 - wx) * inside, wx * inside
    return ix * nz + iz, (
        (0, wx0 * (1.0 - wz)),
        (nz, wx1 * (1.0 - wz)),
        (1, wx0 * wz),
        (nz + 1, wx1 * wz),
    )


# Rays marched together per source: bounds the per-block sample arrays.
_BLOCK = 128


def _ray_blocks(tx, tz, atten, grid, k):
    """March the rays from source abscissa ``k`` to every target; see the
    module docstring.

    ``tx``, ``tz`` are flat target coordinates and ``atten`` (n1, nz) the
    nodal attenuation on the medium grid.  Each ray to a target above the
    medium floor takes the closest step to :func:`default_ds` that divides
    its marched segment evenly.  The rays are marched in blocks of
    ``_BLOCK`` in order of sample count (stable, so ties keep target
    order), and each block is padded only to its longest ray.  Yields
    (rows, trap, c_s, (flat, corners)) per block: the block's target
    indices, the trapezoid weights (B, M) of the samples (zero past the
    end of a shorter ray, where the samples repeat the ray's last one), c
    at every sample and the samples' :func:`_bilinear_corners`.

    Every operation on a ray's samples is elementwise or runs along its own
    row, so a ray's values do not depend on the rays that share its block.
    """
    if atten.shape != grid.shape_medium[:2]:
        raise UsageError("attenuation shape disagrees with the grid")
    alpha = grid.alpha[k]
    floor_z = grid.geometry.slab_bottom
    atten = atten.ravel()
    active = np.flatnonzero(tz > floor_z + 1e-12)
    dxr = tx[active] - alpha
    az = tz[active]
    ell = np.hypot(dxr, az)
    s_a = ell * (floor_z / az)
    seg = ell - s_a
    m_cnt = np.maximum(np.ceil(seg / default_ds(grid)).astype(np.int64) + 1, 2)
    order = np.argsort(m_cnt, kind="stable")
    for start in range(0, order.size, _BLOCK):
        b = order[start : start + _BLOCK]
        rows, n = active[b], m_cnt[b]
        ds = seg[b] / (n - 1)
        m = np.arange(int(n.max()))
        live = m[None, :] < n[:, None]
        s = s_a[b, None] + ds[:, None] * np.minimum(m[None, :], n[:, None] - 1)
        tpar = s / ell[b, None]
        flat, corners = _bilinear_corners(alpha + tpar * dxr[b, None], tpar * az[b, None], grid)
        a_s = sum(cw * atten[flat + off] for off, cw in corners)
        inc = 0.5 * ds[:, None] * (a_s[:, 1:] + a_s[:, :-1]) * live[:, 1:]
        c_s = np.exp(np.concatenate([np.zeros((rows.size, 1)), np.cumsum(inc, axis=1)], axis=1))
        trap = ds[:, None] * live
        trap[:, 0] *= 0.5
        trap[np.arange(rows.size), n - 1] *= 0.5
        yield rows, trap, c_s, (flat, corners)


def _path_attenuation(tx, tz, atten, grid):
    """c = exp(attenuation integral) of every (target, source) ray as an
    (n_targets, n_alpha) array; targets at or below the floor read 1."""
    c = np.ones((tx.size, grid.alpha.size))
    for k in range(grid.alpha.size):
        for rows, _, c_s, _ in _ray_blocks(tx, tz, atten, grid, k):
            c[rows, k] = c_s[:, -1]
    return c


def _mapped_empty(n, dtype):
    """An uninitialized array of ``n`` items backed by its own anonymous
    memory map, which goes back to the system as soon as the array is
    dropped instead of staying in the allocator's heap."""
    if n == 0:
        return np.empty(0, dtype)
    return np.frombuffer(mmap.mmap(-1, n * np.dtype(dtype).itemsize), dtype)


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
    attenuation and ``tx``, ``tz`` the flat target coordinates.  If given,
    ``c_out`` (n_targets, n_alpha) receives c of every marched ray, so the
    march also serves the ballistic term; rows of targets at or below the
    floor are left as they are.

    The rays come in :func:`_ray_blocks`' order of sample count.  Each
    block sums its weights per (row, node) with one ``np.bincount`` in
    which every row has its own window, from the row's lowest corner node
    to its highest; the row counts fill ``indptr``, and once a source is
    marched each block's entries are written at their rows' places in
    target order.  ``bincount`` adds a row's contributions in the same
    order whatever rays share its block (corner by corner, then sample by
    sample) and padded samples add exactly 0.0, so a row's weights do not
    depend on the march order.
    """

    def __init__(self, tx, tz, atten, grid, c_out=None):
        nz = grid.z.size
        node_type = np.min_scalar_type(grid.x1.size * nz - 1)
        self.grid = grid
        self.indptr = np.zeros((grid.alpha.size, tx.size + 1), dtype=np.int64)
        self.data, self.nodes = [], []
        for k, ptr in enumerate(self.indptr):
            blocks = []
            for rows, trap, c_s, (flat, corners) in _ray_blocks(tx, tz, atten, grid, k):
                if c_out is not None:
                    c_out[rows, k] = c_s[:, -1]
                # Sum the sample weights per (target, node) in a dense
                # accumulator in which each row has its own node window,
                # from its lowest corner node to its highest; the nonzero
                # entries come out row by row, sorted by node.
                lo = flat.min(axis=1)
                width = flat.max(axis=1) - lo + nz + 2
                start = np.cumsum(width) - width
                shift = start - lo
                base = flat + shift[:, None]
                key = np.concatenate([(base + off).ravel() for off, _ in corners])
                sample_w = trap * c_s / c_s[:, -1:]
                w = np.concatenate([(sample_w * cw).ravel() for _, cw in corners])
                acc = np.bincount(key, weights=w, minlength=start[-1] + width[-1])
                hit = np.flatnonzero(acc)
                row = np.searchsorted(start, hit, side="right") - 1
                count = np.bincount(row, minlength=rows.size)
                ptr[rows + 1] = count
                blocks.append((rows, count, acc[hit], hit - shift[row]))
            np.cumsum(ptr, out=ptr)
            data = _mapped_empty(ptr[-1], np.float64)
            nodes = _mapped_empty(ptr[-1], node_type)
            # The blocks come in march order; put each row's entries at
            # its place in target order.
            for rows, count, weights, cols in blocks:
                dest = np.repeat(ptr[rows] - (np.cumsum(count) - count), count) + np.arange(weights.size)
                data[dest] = weights
                nodes[dest] = cols
            self.data.append(data)
            self.nodes.append(nodes)

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
        # One gather buffer for every source.  The indices are valid, so
        # "clip" changes nothing, but it lets ``take`` write straight into
        # the buffer; "raise" gathers into a temporary and copies.
        gathered = np.empty(max(d.size for d in self.data))
        for k, ptr in enumerate(self.indptr):
            filled = ptr[1:] > ptr[:-1]
            g = gathered[: self.data[k].size]
            np.take(vt[k], self.nodes[k], out=g, mode="clip")
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


def _check_source_radius(source, grid):
    """The bump must lie in the source-free gap below the medium, so every
    ray from a source to a medium node crosses the whole bump and carries
    ``profile_integral``; a radius reaching the medium is a usage error."""
    floor = grid.geometry.slab_bottom
    if source.sigma >= floor:
        raise UsageError(f"source radius {source.sigma!r} must stay below the medium floor z = {floor!r}")


def _ballistic(phantom, source, grid, mesh_c=None):
    """u0 on the medium nodes as a flat (n_nodes, n_alpha) array.

    ``mesh_c``, if given, is c of the rays to ``grid.spatial_mesh()``
    (n_nodes, n_alpha) from a march already made, and is overwritten
    with u0.  A ray's c does not depend on the other rays of its block,
    so it is reused wherever the ballistic targets equal those nodes,
    and only the off-lattice rows are marched again.
    """
    _check_source_radius(source, grid)
    tx, tz = _ballistic_targets(grid)
    if mesh_c is None:
        c = _path_attenuation(tx, tz, phantom.attenuation, grid)
    else:
        xm, zm = grid.spatial_mesh()
        off = np.flatnonzero((tx != xm.ravel()) | (tz != zm.ravel()))
        c = mesh_c
        c[off] = _path_attenuation(tx[off], tz[off], phantom.attenuation, grid)
    return np.divide(source.profile_integral, c, out=c)


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

    The rays are marched once, by the operator build; u0 takes c from that
    march and marches only its off-lattice rows again (see
    :func:`_ballistic`).  Sweeps write into work arrays allocated here.
    """
    _check_source_radius(source, grid)
    shape = grid.shape_medium
    xm, zm = grid.spatial_mesh()
    mesh_c = np.ones((xm.size, shape[2]))
    op = ScatterOperator(xm.ravel(), zm.ravel(), phantom.attenuation, grid, c_out=mesh_c)
    u0 = _ballistic(phantom, source, grid, mesh_c)
    u = u0.reshape(shape)
    w_t = scatter_matrix(kernel, grid.alpha, grid.h).T
    mu_s = phantom.mu_s[:, :, None]
    # vsrc holds the scattering density, then the update; u alternates
    # between the two field buffers, never overwriting u0.
    vsrc = np.empty(shape)
    fields = (np.empty(shape), np.empty(shape))

    diffs = []
    for sweep in range(MAX_SWEEPS):
        new = fields[sweep % 2]
        np.matmul(u, w_t, out=vsrc)
        vsrc *= mu_s
        np.add(u0, op.apply(vsrc), out=new.reshape(u0.shape))
        np.subtract(new, u, out=vsrc)
        diff = float(np.max(np.abs(vsrc, out=vsrc)))
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


def _ray_row(x1t, zt, alpha, atten, grid):
    """Reference march of one ray, from abscissa ``alpha`` to the target
    (x1t, zt), kept apart from :func:`_ray_blocks` as a check on it.

    Same step rule, trapezoid and c = exp(attenuation integral) as the
    production march.  Returns (c, row): c of the ray and the flat
    (n1 * nz) per-medium-node weights of T / c, so that T / c of a nodal
    scattering density v is ``row @ v.ravel()``.  A target at or below the
    medium floor reads c = 1 and a zero row.
    """
    n_nodes = grid.x1.size * grid.z.size
    floor = grid.geometry.slab_bottom
    if zt <= floor + 1e-12:
        return 1.0, np.zeros(n_nodes)
    dxr = x1t - alpha
    ell = float(np.hypot(dxr, zt))
    s_a = ell * (floor / zt)
    seg = ell - s_a
    m_cnt = max(int(np.ceil(seg / default_ds(grid))) + 1, 2)
    ds = seg / (m_cnt - 1)
    tpar = (s_a + ds * np.arange(m_cnt)) / ell
    flat, corners = _bilinear_corners(alpha + tpar * dxr, tpar * zt, grid)
    a_s = sum(cw * atten.ravel()[flat + off] for off, cw in corners)
    c_s = np.exp(np.concatenate([[0.0], np.cumsum(0.5 * ds * (a_s[1:] + a_s[:-1]))]))
    trap = np.full(m_cnt, ds)
    trap[0] = trap[-1] = 0.5 * ds
    sample_w = trap * c_s / c_s[-1]
    key = np.concatenate([flat + off for off, _ in corners])
    w = np.concatenate([sample_w * cw for _, cw in corners])
    return c_s[-1], np.bincount(key, weights=w, minlength=n_nodes)


def solve_forward_direct(phantom, source, kernel, grid, return_info=False):
    """Dense collocation solve of the same discretization, for small grids.

    Assembles (I - S) u = u0 over all medium nodes and abscissae with S the
    exact matrix of one marching sweep, then solves with LAPACK.  Refuses
    more than ``DIRECT_MAX_UNKNOWNS`` unknowns.  Every ray comes from the
    reference march :func:`_ray_row`: row (t, k) of S is the ray's T / c
    weights times mu_s, spread over the donor abscissae by the aperture
    quadrature, and u0 takes c of the ray to the ballistic target.
    """
    n1, nz, nk = grid.shape_medium
    n_unknown = n1 * nz * nk
    if n_unknown > DIRECT_MAX_UNKNOWNS:
        raise UsageError(f"{n_unknown} unknowns exceed the dense-solver cap {DIRECT_MAX_UNKNOWNS}")
    _check_source_radius(source, grid)
    atten, mu_s = phantom.attenuation, phantom.mu_s.ravel()
    w = scatter_matrix(kernel, grid.alpha, grid.h)
    xm, zm = grid.spatial_mesh()
    bx, bz = _ballistic_targets(grid)

    rhs = np.empty((n1 * nz, nk))
    smat = np.zeros((n_unknown, n1 * nz, nk))
    for t, (x, z) in enumerate(zip(xm.ravel(), zm.ravel())):
        for k, alpha in enumerate(grid.alpha):
            c, row = _ray_row(x, z, alpha, atten, grid)
            if (bx[t], bz[t]) != (x, z):
                c = _ray_row(bx[t], bz[t], alpha, atten, grid)[0]
            rhs[t, k] = source.profile_integral / c
            smat[t * nk + k] = np.outer(row * mu_s, w[k])
    rhs = rhs.ravel()

    mat = np.eye(n_unknown) - smat.reshape(n_unknown, n_unknown)
    sol = np.linalg.solve(mat, rhs)
    residual = float(np.max(np.abs(mat @ sol - rhs)))

    field = RadianceField(sol.reshape(grid.shape_medium), grid)
    if return_info:
        return field, {"residual": residual, "unknowns": n_unknown}
    return field
