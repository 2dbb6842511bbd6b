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
can change a ray's sample count.  The operator costs about 10 bytes per
nonzero, and the nonzeros grow as h^-4 (3.3 million, 33 MB, at h = 1/40;
about 0.5 GB at h = 1/80).

The radiance at x gathers scattering only along the ray from the source
below the medium to x, so it depends only on the medium below x, and K
couples each z-row only to itself and to the rows below it: of K's
weights at h = 1/40, 95% lie on rows below the target's, 4% on its own
row, and the 0.8% above it (at most about 1e-16 each, from rounding in
the z of a ray's last sample) are dropped.  The production solver,
:func:`solve_forward`, therefore solves the rows from the floor up, as a
transport sweep does: each row applies its entries below once, from
rows already solved, and iterates only its own row's block, which mixes
the sources through :func:`scatter_matrix`, until its passes converge
(giving up after ``MAX_SWEEPS`` passes on one row).  A dense collocation
solve of the same discretization is the oracle for small grids (at most
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

# The most fixed-point passes any one z-row may take.
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
    per medium node.  A ray climbs from its source below the medium, so it
    reaches only nodes on its target's z-row (the lowest medium row at or
    above the target) and below it.  Each row is kept in two parts, the
    entries on rows below the target's and the entries on its own row; a
    ray whose last sample's z rounds a hair above its target also puts a
    weight of at most about 1e-16 on the row above, and those entries are
    dropped.  Part p < n_targets holds the entries of target p below its
    row, part n_targets + t those of target t on its row; ``indptr``
    (n_alpha, 2 n_targets + 1) holds the parts' offsets.

    Each source keeps one float64 weight array and one node-index array of
    the narrowest unsigned type (uint16 up to 65 536 medium nodes), so the
    operator costs about 10 bytes per nonzero, plus the offsets.  Targets
    at or below the medium floor have empty rows.  ``atten`` (n1, nz) is
    the nodal attenuation and ``tx``, ``tz`` the flat target coordinates.
    If given, ``c_out`` (n_targets, n_alpha) receives c of every marched
    ray, so the march also serves the ballistic term; rows of targets at or
    below the floor are left as they are.

    The rays come in :func:`_ray_blocks`' order of sample count.  Each
    block sums its weights per (row, node) with one ``np.bincount`` in
    which every row has its own window, from the row's lowest corner node
    to its highest; the part counts fill ``indptr``, and once a source is
    marched each block's entries are written at their parts' places in
    target order.  ``bincount`` adds a row's contributions in the same
    order whatever rays share its block (corner by corner, then sample by
    sample) and padded samples add exactly 0.0, so a row's weights do not
    depend on the march order.
    """

    def __init__(self, tx, tz, atten, grid, c_out=None):
        nz = grid.z.size
        n = tx.size
        node_type = np.min_scalar_type(grid.x1.size * nz - 1)
        # Each target's z-row (the lowest medium row at or above it), and
        # each node's.
        z_row = np.minimum(np.searchsorted(grid.z, tz - 1e-9 * grid.h), nz - 1)
        node_row = np.arange(grid.x1.size * nz) % nz
        self.grid = grid
        self.indptr = np.zeros((grid.alpha.size, 2 * n + 1), dtype=np.int64)
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
                cols = hit - shift[row]
                weights = acc[hit]
                # Split at the target's z-row; entries above it are dropped.
                above = node_row[cols] - z_row[rows][row]
                for part, keep in ((rows, above < 0), (n + rows, above == 0)):
                    count = np.bincount(row[keep], minlength=rows.size)
                    ptr[part + 1] = count
                    blocks.append((part, count, weights[keep], cols[keep]))
            np.cumsum(ptr, out=ptr)
            data = _mapped_empty(ptr[-1], np.float64)
            nodes = _mapped_empty(ptr[-1], node_type)
            # The blocks come in march order; put each part's entries at
            # its place in target order.
            for parts, count, weights, cols in blocks:
                dest = np.repeat(ptr[parts] - (np.cumsum(count) - count), count) + np.arange(weights.size)
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

    def entries(self, first, stop):
        """Parts ``first`` to ``stop - 1`` of every source, source after
        source: their entry counts (n_alpha, stop - first), nodes and
        weights."""
        ptr = self.indptr[:, first : stop + 1]
        nodes = np.concatenate([a[p[0] : p[-1]] for a, p in zip(self.nodes, ptr)])
        weights = np.concatenate([a[p[0] : p[-1]] for a, p in zip(self.data, ptr)])
        return np.diff(ptr, axis=1), nodes, weights

    def products(self, vt, first, stop):
        """Products of parts ``first`` to ``stop - 1`` with the nodal
        densities ``vt`` (n_alpha, n1 * nz), as (stop - first, n_alpha)."""
        ptr = self.indptr[:, first : stop + 1]
        counts = np.diff(ptr, axis=1).ravel()
        g = np.empty(counts.sum())
        at = 0
        for k, (lo, hi) in enumerate(ptr[:, [0, -1]]):
            seg = g[at : at + hi - lo]
            # The indices are valid, so "clip" changes nothing, but it lets
            # ``take`` write straight into ``seg``.
            np.take(vt[k], self.nodes[k][lo:hi], out=seg, mode="clip")
            seg *= self.data[k][lo:hi]
            at += hi - lo
        out = np.zeros(counts.size)
        filled = counts > 0
        if g.size:
            out[filled] = np.add.reduceat(g, (np.cumsum(counts) - counts)[filled])
        return out.reshape(len(ptr), -1).T

    def apply(self, vsrc):
        """Scattered radiance (n_targets, n_alpha) of the nodal scattering
        density ``vsrc`` (n1, nz, n_alpha)."""
        if vsrc.shape != self.grid.shape_medium:
            raise UsageError("scattering-density shape disagrees with the grid")
        n = self.indptr.shape[1] // 2
        both = self.products(vsrc.reshape(-1, vsrc.shape[2]).T, 0, 2 * n)
        return both[:n] + both[n:]


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
    """Solve u = u0 + K u on the medium nodes, z-row by z-row from the
    floor up.

    The radiance at a node gathers scattering only along the ray from the
    source below, so K couples a z-row only to itself and to the rows
    below it (:class:`ScatterOperator` drops the rounding-level entries
    above).  Each row applies its entries below once, to the scattering
    density of the rows already solved, then repeats u_row <- b_row +
    K_row u_row over its own row until a pass's max update falls below
    ``tol`` / 100 of the field's max so far (at least 1, and never less
    than four units in the last place, where the passes stop moving).  The
    row tolerance is 100 times tighter than ``tol`` because each row's
    error feeds the rows above it; the field then lies within about
    ``tol`` / 10 of the exact discrete solution, relative to its max.  K
    is monotone and block lower-triangular, so its spectral radius is the
    largest of its row blocks', and the passes of every row converge
    exactly when whole-operator sweeps would: whenever the scattering
    albedo stays subcritical.  A row whose passes diverge, or do not converge within
    ``MAX_SWEEPS`` passes, raises :class:`ForwardConvergenceError` naming
    the row; a ``tol`` that is not finite and positive is a
    :class:`UsageError`.

    Returns the medium-grid radiance, and with ``return_info`` an info
    dict: ``sweeps``, the most passes any row took, ``diffs``, for each m
    the largest m-th pass update over the rows, and the operator's
    nonzeros ``nnz`` and size ``operator_mb``.

    The rays are marched once, by the operator build; u0 takes c from that
    march and marches only its off-lattice rows again (see
    :func:`_ballistic`).
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise UsageError(f"forward tolerance must be finite and positive, got {tol!r}")
    _check_source_radius(source, grid)
    shape = n1, nz, n_alpha = grid.shape_medium
    xm, zm = grid.spatial_mesh()
    # Targets z-row by z-row, so a row's parts are one slice of each source's.
    c = np.ones((nz, n1, n_alpha))
    op = ScatterOperator(xm.T.ravel(), zm.T.ravel(), phantom.attenuation, grid, c_out=c.reshape(-1, n_alpha))
    u0 = _ballistic(phantom, source, grid, c.transpose(1, 0, 2).reshape(-1, n_alpha)).reshape(shape)
    w_t = scatter_matrix(kernel, grid.alpha, grid.h).T
    mu_s = phantom.mu_s
    u = np.empty(shape)
    # vt[k, ix * nz + iz]: the scattering density of the rows solved so far.
    vt = np.zeros((n_alpha, n1 * nz))
    v_rows = vt.reshape(n_alpha, n1, nz)
    row_tol = max(tol / 100.0, 4.0 * np.finfo(float).eps)
    n = n1 * nz
    alphas = np.arange(n_alpha)
    # slot[k * n1 + i] = i * n_alpha + k: target i, source k of a row.
    slot = (np.arange(n1) * n_alpha + alphas[:, None]).ravel()
    diffs, top = [], 1.0
    for j in range(nz):
        first = j * n1
        b = u0[:, j] + op.products(vt, first, first + n1)
        # The row's own entries, source after source, as one product over
        # the row's (n1, n_alpha) scattering density.
        counts, nodes, weight = op.entries(n + first, n + first + n1)
        tgt = np.repeat(slot, counts.ravel())
        col = nodes.astype(np.intp) // nz * n_alpha + np.repeat(alphas, counts.sum(axis=1))
        uj = b
        for m in range(MAX_SWEEPS):
            vj = (uj @ w_t) * mu_s[:, j, None]
            new = b + np.bincount(tgt, weights=vj.ravel()[col] * weight, minlength=b.size).reshape(b.shape)
            diff = float(np.max(np.abs(new - uj)))
            if not np.isfinite(diff):
                raise ForwardConvergenceError(f"fixed-point passes diverged on z-row {j}", last_diff=diff)
            if m < len(diffs):
                diffs[m] = max(diffs[m], diff)
            else:
                diffs.append(diff)
            uj = new
            top = max(top, float(np.max(new)))
            if diff <= row_tol * top:
                break
        else:
            raise ForwardConvergenceError(
                f"no convergence on z-row {j} in {MAX_SWEEPS} passes (last update {diff:.3e})",
                last_diff=diff,
            )
        u[:, j] = uj
        v_rows[:, :, j] = ((uj @ w_t) * mu_s[:, j, None]).T

    field = RadianceField(u, grid)
    if return_info:
        return field, {"sweeps": len(diffs), "diffs": diffs, "nnz": op.nnz, "operator_mb": op.nbytes / 1e6}
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
    exact matrix of u -> K u, then solves with LAPACK.  Refuses
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
