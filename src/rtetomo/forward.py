"""Forward transport: ballistic field, row-by-row ray march, and solvers.

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

The radiance at x gathers scattering only along the ray from the source
below the medium to x, so it depends only on the medium below x: K couples each z-row only to
itself and to the rows below it (the weights a ray puts on the row above
its target's, at most about 1e-16 each from rounding in the z of its
last sample, are dropped).  The production solver, :func:`solve_forward`,
therefore solves the rows from the floor up, as a transport sweep does,
and marches each row's rays, from every source to every node of the row,
once the rows below are final (:func:`_march_row`).  It needs no stored
operator: each sample's weight trap * c(s) / c(end) is dotted straight
into the interpolant of the solved scattering density below, and only
the samples in the last cell band, which reach the row itself, are summed
into a small (source, target, column) block.  The row then iterates on
that block, which mixes the sources through :func:`scatter_matrix`,
until its passes converge (giving up after ``MAX_SWEEPS`` passes on one
row).

Within a row, the rays with the same horizontal offset from source to
target and the same sample count have the same samples up to a shift of
whole columns, so their geometry is computed once, from the group's ray
from the lowest source.  A row's rays are aligned at their last samples;
a shorter ray's leading columns repeat its first sample with trapezoid
weight 0, and every other step of the march is elementwise or runs along
one ray, so no ray's result depends on the order of the targets.

What the rays share at every height is set up once per solve
(:class:`_Rays`): their (target, source) indices, horizontal offsets and
offset groups, the zero columns that widen the medium to hold every
sample's corners, and the widened attenuation.  :func:`solve_forward`
keeps one widened scattering density and writes each row's into it in
place once the row is solved, for the marches of the rows above.

A row's rays are marched in chunks of at most ``_CHUNK`` sample slots,
each in views of the 64-byte-aligned work vectors of one
:class:`_Workspace` per solve, which the row marches, the lattice marches
and :func:`u0_field`'s share: every gather, interpolation, sum and
product of a chunk writes into them, so a chunk allocates no array.
Fresh arrays per chunk, which the allocator hands back to the kernel
between chunks, cost a warmed solve at h = 1/40 about 17-21 k minor page
faults; the workspace leaves about 1.4-2.3 k.  The gathers clip instead
of checking every index, so one check per row, of the furthest corner
any ray's samples reach, raises the IndexError for a sample outside the
widened medium or density.

The ballistic term u0 aims its rays at the nodes as
:func:`~rtetomo.geometry._ray_lattice` places them: a uniform grid over
the rays' rectangle with the medium's step.  They differ from ``grid.z``
in the last bit on a few rows (11 of 41 at h = 1/40), and on some grids
whose source segment is wider than the medium from ``grid.x1``.  A one-bit
change can change ceil(segment / ds), and with it a ray's sample count:
aiming at ``grid.z`` instead moves u0 by up to 1% at h = 0.1, so the
synthetic data depend on these exact coordinates.  :func:`u0_field`
marches the lattice row by row; :func:`solve_forward` takes u0's c from
its row's march and marches again only the rows that lie off the lattice.

A dense collocation solve of the same discretization is the oracle for
small grids (at most ``DIRECT_MAX_UNKNOWNS`` unknowns).  The oracle takes
every ray from :func:`_ray_row`, a one-ray reference march that shares
only the bilinear corners and the step with the production march, so the
two solvers check each other's quadrature.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, UsageError
from .geometry import GridSet, _aligned, _ray_lattice, trapezoid_weights

_PROFILE_TABLE_N = 8193
# int_0^1 t exp(t^2 / (t^2 - 1)) dt = (1 - e E_1(1)) / 2 = 0.20182631883840296...
# The stored double is the adaptive Gauss-Kronrod value (5e-15 below) that
# every synthetic dataset and reference trace was made with.
_BUMP_RADIAL_MASS = 0.20182631883840194

# The most fixed-point passes any one z-row may take.
MAX_SWEEPS = 200
# The forward solve's tolerance on the field, relative to its max.
FORWARD_TOL = 1e-10
# The dense oracle's (n x n) float64 matrix is 0.8 GB at this cap.
DIRECT_MAX_UNKNOWNS = 10000


def _bump(t):
    return np.exp(t * t / (t * t - 1.0))


@dataclass(frozen=True, eq=False)
class SourceModel:
    """Radially symmetric bump source of radius ``sigma``, unit total mass.

    ``profile_integral`` is the line integral of the bump through its
    center: the un-attenuated ballistic amplitude at every medium node,
    since the bump lies below the medium (see :func:`u0_field`).
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
        width = self.aperture_half_width
        if not np.isfinite(width):
            raise UsageError(f"aperture half width must be finite, got {width!r}")
        if width <= 0:
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


def _sample_counts(seg, grid):
    """Samples of the rays whose segments above the medium floor are
    ``seg``: ``max(ceil(seg / ds) + 1, 2)`` with ds :func:`default_ds`, so
    each ray's step is the closest to ds that divides its segment evenly."""
    return np.maximum(np.ceil(seg / default_ds(grid)).astype(np.int64) + 1, 2)


def _bilinear_corners(px, pz, grid, pad=0):
    """Bilinear interpolation of the samples (px, pz) on the medium grid,
    widened by ``pad`` columns of zeros on each side.

    Returns (flat, corners): the flat index ``ix * nz + iz`` of each
    sample's lower-left node, and the four (offset, weight) corner pairs,
    offsets 0, nz, 1, nz + 1 into the flattened (n1 + 2 pad, nz) node
    array.  The weights vanish outside the widened x-range.
    """
    n1, nz = grid.x1.size + 2 * pad, grid.z.size
    fx = (px - grid.x1[0]) / grid.h + pad
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


# Sample slots per chunk of a row's rays: bounds the per-chunk arrays.
_CHUNK = 1 << 15


class _Workspace:
    """The work arrays of :func:`_march_row`'s chunks, shared by every
    march of one solve: one 64-byte-aligned vector per name, of ``slots``
    items (or more, if a march asks for more)."""

    def __init__(self, slots):
        self.slots = slots
        self._vectors = {}

    def get(self, name, size, dtype=float):
        """The first ``size`` items of the work vector ``name``."""
        vec = self._vectors.get(name)
        if vec is None or vec.size < size:
            vec = self._vectors[name] = _aligned(max(size, self.slots), dtype)
        return vec[:size]


@dataclass(frozen=True, eq=False)
class _Rays:
    """What the rays from every source abscissa to the targets at
    abscissae ``tx`` share at every height (see :func:`_march_row`).

    Ray ``t * n_alpha + k`` runs from source k to target t; ``dxr`` is its
    horizontal offset and ``offset`` that offset's label.  ``pad`` zero
    columns on each side of the medium hold every sample's corners (all
    lie between a source and a target), one to spare; ``atten`` is the
    flat attenuation widened by them.  ``work`` is the :class:`_Workspace`
    their marches run in, by default one that holds a chunk of the widest
    row, the one at the top of the medium.
    """

    grid: GridSet
    tx: np.ndarray
    ray_t: np.ndarray
    ray_k: np.ndarray
    dxr: np.ndarray
    offset: np.ndarray
    pad: int
    atten: np.ndarray
    work: _Workspace

    @classmethod
    def build(cls, tx, atten, grid, work=None):
        """The rays to ``tx`` through the nodal attenuation ``atten`` (n1, nz),
        marched in ``work``."""
        if atten.shape != grid.shape_medium[:2]:
            raise UsageError("attenuation shape disagrees with the grid")
        alpha, h = grid.alpha, grid.h
        beyond = max(grid.x1[0] - min(tx.min(), alpha[0]), max(tx.max(), alpha[-1]) - grid.x1[-1], 0.0)
        pad = int(np.ceil(beyond / h)) + 2
        ray_t, ray_k = np.divmod(np.arange(tx.size * alpha.size), alpha.size)
        dxr = (tx[:, None] - alpha).ravel()
        _, offset = np.unique(np.rint(dxr * (1e9 / h)), return_inverse=True)
        widened = np.pad(atten, ((pad, pad), (0, 0))).ravel()
        if work is None:
            top = grid.geometry.slab_top
            ell = np.hypot(dxr, top)
            width = int(_sample_counts(ell - ell * (grid.geometry.slab_bottom / top), grid).max())
            work = _Workspace(min(max(_CHUNK, width), ray_k.size * width))
        return cls(grid, tx, ray_t, ray_k, dxr, offset, pad, widened, work)


def _interpolate(field, idx, corners, out, scratch):
    """The bilinear interpolant of the flat ``field`` at samples whose
    lower-left nodes are ``idx``, written into ``out``: its (offset, weight)
    ``corners`` summed in place in their order, each term formed in
    ``scratch``.  The gathers clip, so the caller checks that every corner
    lies in ``field``."""
    (off, cw), *rest = corners
    np.take(field[off:], idx, out=out, mode="clip")
    out *= cw
    for off, cw in rest:
        np.take(field[off:], idx, out=scratch, mode="clip")
        scratch *= cw
        out += scratch
    return out


@dataclass(frozen=True, eq=False)
class _RowRays:
    """The rays from every source abscissa to the targets of one row.

    ``c`` (n_targets, n_alpha) holds c of every ray and ``counts`` its
    sample count (ray ``t * n_alpha + k`` runs from source k to target t).
    Given a scattering density, ``below`` (n_targets, n_alpha) holds T / c
    of every ray from the rows below the targets' z-row, and ``block``
    (n_alpha, n_targets, n1) the rays' weights of T / c on the nodes of
    that z-row, per (source, target, column); otherwise both are None.
    """

    c: np.ndarray
    counts: np.ndarray
    below: np.ndarray = None
    block: np.ndarray = None


def _march_row(rays, tz, vt=None):
    """March the :class:`_Rays` ``rays`` to the targets at height ``tz``;
    returns their :class:`_RowRays`.

    Each ray takes :func:`_sample_counts` samples, evenly spaced over its
    segment above the medium floor.  Rays with the same horizontal offset
    from source to target and the same sample count have the same samples
    up to a shift of whole columns (the sources lie on a lattice of step
    h), so the samples, their :func:`_bilinear_corners` and trapezoid
    weights are computed once per such group and shifted; each ray then
    gathers its own attenuation for c.  A row's rays are aligned at their
    last samples, and the columns before a shorter ray's first sample
    repeat it with trapezoid weight 0.

    With the widened nodal scattering density ``vt`` (n_alpha, n1 + 2 pad,
    nz), each sample's weight trap * c(s) / c(end) is also dotted with the
    bilinear interpolant of the density of its source, giving ``below``,
    and the weights that the samples in the last cell band put on the
    target's z-row are summed into ``block``.  The row solve passes ``vt``
    while the rows from the targets' up are still zero, so ``below`` sums
    only the rows below; the weights on the row above (at most about
    1e-16, rounding in the z of a ray's last sample) are dropped.
    """
    grid, pad = rays.grid, rays.pad
    n1, nz = grid.shape_medium[:2]
    n1w = n1 + 2 * pad
    alpha, h = grid.alpha, grid.h
    n_t, n_alpha = rays.tx.size, alpha.size
    if vt is not None and vt.shape != (n_alpha, n1w, nz):
        raise UsageError("scattering-density shape disagrees with the grid")
    floor_z = grid.geometry.slab_bottom
    ray_t, ray_k, dxr = rays.ray_t, rays.ray_k, rays.dxr
    c = np.ones(ray_k.size)
    below = None if vt is None else np.zeros(ray_k.size)
    if not tz > floor_z + 1e-12:
        scatter = () if vt is None else (below.reshape(n_t, n_alpha), np.zeros((n_alpha, n_t, n1)))
        return _RowRays(c.reshape(n_t, n_alpha), np.zeros(ray_k.size, np.int64), *scatter)
    ell = np.hypot(dxr, tz)
    s_a = ell * (floor_z / tz)
    seg = ell - s_a
    counts = _sample_counts(seg, grid)
    width = int(counts.max())
    # Group the rays by offset and count; each group is marched as its
    # ray from the lowest source, whatever the order of the targets.
    key = rays.offset * (width + 1) + counts
    order = np.lexsort((ray_k, key))
    _, rep, inverse = np.unique(key[order], return_index=True, return_inverse=True)
    rep = order[rep]
    group = np.empty_like(inverse)
    group[order] = inverse
    shift = ray_k - ray_k[rep][group]

    # The samples of one ray of each group.
    n = counts[rep]
    first = width - n
    col = np.arange(width)
    live = col >= first[:, None]
    ds = seg[rep] / (n - 1)
    tpar = (s_a[rep, None] + ds[:, None] * np.maximum(col - first[:, None], 0)) / ell[rep, None]
    px = alpha[ray_k[rep], None] + tpar * dxr[rep, None]
    flat, corners = _bilinear_corners(px, tpar * tz, grid, pad)
    fx = (px - grid.x1[0]) / h
    trap = ds[:, None] * live
    trap[np.arange(n.size), first] *= 0.5
    trap[:, -1] *= 0.5
    half_ds = 0.5 * ds[:, None] * live[:, :-1]

    # Every corner of every sample must lie in the widened medium (and
    # the density): the gathers below clip, so this one check raises the
    # IndexError that np.take's default mode would.  No index is negative,
    # as neither flat nor shift is.
    shift_nz = shift * nz
    reach = flat.max(axis=1)[group] + shift_nz + (nz + 1)
    if reach.max() >= rays.atten.size:
        raise IndexError(f"index {reach.max()} is out of bounds for the {rays.atten.size} widened medium nodes")
    if vt is not None:
        stride = vt[0].size
        v = vt.ravel()
        k_stride = ray_k * stride
        reach += k_stride
        if reach.max() >= v.size:
            raise IndexError(f"index {reach.max()} is out of bounds for the {v.size} widened density nodes")
    ends = fx[:, [0, -1]][group] + shift[:, None]
    beside = np.any((ends < -1e-9) | (ends > n1 - 1 + 1e-9), axis=1)

    # Every ray, a chunk at a time, shifted from its group's.  Each chunk
    # runs in (rows, columns) views of the first items of rays.work's
    # vectors, so no array is allocated per chunk.
    step = max(1, _CHUNK // width)
    rows = min(step, ray_k.size)

    def work(name, cols=width, dtype=float):
        return rays.work.get(name, rows * width, dtype)[: rows * cols].reshape(rows, cols)

    flat_w, corners_w = work("flat", dtype=np.int64), [work(f"corner{i}") for i in range(len(corners))]
    a_w, tmp_w, half_w = work("a"), work("tmp"), work("tmp", width - 1)
    terms_w, weight_w, c_w, cum_w = work("terms", width - 1), work("terms"), work("c"), work("c", width - 1)
    inside_w, upper_w = work("inside", dtype=bool), work("upper", dtype=bool)
    if vt is not None:
        # The columns from the first that reaches the last cell band, and
        # the corners' weights on the targets' z-row there.
        z_row = min(int(np.searchsorted(grid.z, tz - 1e-9 * h)), nz - 1)
        iz = flat % nz
        tail = int(np.argmax(np.any(iz >= z_row - 1, axis=0)))
        ix = flat[:, tail:] // nz
        on_row = [(off // nz, cw[:, tail:] * (iz[:, tail:] + off % nz == z_row)) for off, cw in corners]
        ix_w = work("ix", width - tail, np.int64)
        k_t0 = (ray_k * n_t + ray_t) * n1w + shift
        keys = rays.work.get("keys", len(on_row) * ray_k.size * (width - tail), np.int64)
        vals = rays.work.get("vals", keys.size)
    at = 0
    for lo in range(0, ray_k.size, step):
        r = slice(lo, lo + step)
        g = group[r]
        m = g.size
        flat_r = np.take(flat, g, axis=0, out=flat_w[:m], mode="clip")
        flat_r += shift_nz[r, None]
        corners_r = [(off, np.take(cw, g, axis=0, out=w[:m], mode="clip")) for (off, cw), w in zip(corners, corners_w)]
        a_s = _interpolate(rays.atten, flat_r, corners_r, a_w[:m], tmp_w[:m])
        inside = None
        if beside[r].any():
            fx_r = np.take(fx, g, axis=0, out=tmp_w[:m], mode="clip")
            fx_r += shift[r, None]
            inside = np.greater_equal(fx_r, -1e-9, out=inside_w[:m])
            inside &= np.less_equal(fx_r, n1 - 1 + 1e-9, out=upper_w[:m])
            a_s *= inside
        terms = np.add(a_s[:, 1:], a_s[:, :-1], out=terms_w[:m])
        terms *= np.take(half_ds, g, axis=0, out=half_w[:m], mode="clip")
        if vt is None:
            np.exp(np.cumsum(terms, axis=1, out=cum_w[:m])[:, -1], out=c[r])
            continue
        c_s = c_w[:m]
        c_s[:, 0] = 0.0
        np.cumsum(terms, axis=1, out=c_s[:, 1:])
        np.exp(c_s, out=c_s)
        c[r] = c_s[:, -1]
        weight = np.take(trap, g, axis=0, out=weight_w[:m], mode="clip")
        weight *= c_s
        weight /= c_s[:, -1:]
        if inside is not None:
            weight *= inside
        flat_r += k_stride[r, None]
        v_s = _interpolate(v, flat_r, corners_r, a_w[:m], tmp_w[:m])
        np.einsum("rm,rm->r", weight, v_s, out=below[r])
        k_t = np.take(ix, g, axis=0, out=ix_w[:m], mode="clip")
        k_t += k_t0[r, None]
        for dx, cw in on_row:
            end = at + k_t.size
            part = np.take(cw, g, axis=0, out=vals[at:end].reshape(k_t.shape), mode="clip")
            part *= weight[:, tail:]
            np.add(k_t, dx, out=keys[at:end].reshape(k_t.shape))
            at = end
    if vt is None:
        return _RowRays(c.reshape(n_t, n_alpha), n[group])
    # The widened columns beyond the medium hold only weights of 0 or of
    # rounding, and read a density of 0.
    block = np.bincount(keys, vals, n_alpha * n_t * n1w)
    block = block.reshape(n_alpha, n_t, n1w)[:, :, pad : pad + n1]
    return _RowRays(c.reshape(n_t, n_alpha), n[group], below.reshape(n_t, n_alpha), block)


def check_source_radius(source, geometry):
    """The bump must lie in the source-free gap below the medium, so every
    ray from a source to a medium node crosses the whole bump and carries
    ``profile_integral``; a radius reaching the medium is a usage error."""
    floor = geometry.slab_bottom
    if source.sigma >= floor:
        raise UsageError(f"source radius {source.sigma!r} must stay below the medium floor z = {floor!r}")


def u0_field(phantom, source, grid):
    """Ballistic (unscattered) radiance array on the medium grid, its rays
    aimed at the rays' lattice and marched one z-row at a time."""
    check_source_radius(source, grid.geometry)
    x1, z = _ray_lattice(grid)
    rays = _Rays.build(x1, phantom.attenuation, grid)
    c = np.stack([_march_row(rays, zj).c for zj in z], axis=1)
    return source.profile_integral / c


def solve_forward(phantom, source, kernel, grid, return_info=False):
    """Solve u = u0 + K u on the medium nodes, z-row by z-row from the
    floor up.

    The radiance at a node gathers scattering only along the ray from the
    source below, so K couples a z-row only to itself and to the rows
    below it.  Each row marches its rays (:func:`_march_row`), takes
    their products with the scattering density of the rows already
    solved, then repeats u_row <- b_row + K_row u_row over its own row
    until a pass's max update falls below ``FORWARD_TOL`` / 100 of the
    field's max so far (at least 1, and never less than four units in the
    last place, where the passes stop moving).  The row tolerance is 100
    times tighter than ``FORWARD_TOL`` because each row's error feeds the
    rows above it; the field then lies within about ``FORWARD_TOL`` / 10
    of the exact discrete solution, relative to its max.  K is monotone
    and block lower-triangular, so its spectral radius is the largest of
    its row blocks', and the passes of every row converge exactly when
    whole-operator sweeps would: whenever the scattering albedo stays
    subcritical.  A row whose passes diverge, or do not converge within
    ``MAX_SWEEPS`` passes, raises :class:`NumericalError` naming the row.

    Returns the (n1, nz, n_alpha) medium-grid radiance, and with
    ``return_info`` an info dict: ``sweeps``, the most passes any row took,
    and ``diffs``, for each m the largest m-th pass update over the rows.

    u0 aims at the rays' lattice (:func:`~rtetomo.geometry._ray_lattice`).
    A row on it takes u0's c from the row's own march; a row off it, in z
    or in x1, is marched once more to the lattice for u0.
    """
    check_source_radius(source, grid.geometry)
    shape = n1, nz, n_alpha = grid.shape_medium
    atten = phantom.attenuation
    x1, z = _ray_lattice(grid)
    x1_off = np.any(x1 != grid.x1)
    rays = _Rays.build(grid.x1, atten, grid)
    lattice = _Rays.build(x1, atten, grid, rays.work) if x1_off else rays
    w_t = scatter_matrix(kernel, grid.alpha, grid.h).T
    mu_s = phantom.mu_s
    u = np.empty(shape)
    # vt[k, pad + ix, iz]: the widened scattering density of the rows
    # solved so far, each row written in place once it is solved.
    pad = rays.pad
    vt = np.zeros((n_alpha, n1 + 2 * pad, nz))
    row_tol = max(FORWARD_TOL / 100.0, 4.0 * np.finfo(float).eps)
    diffs, top = [], 1.0
    for j in range(nz):
        row = _march_row(rays, grid.z[j], vt)
        c = row.c
        if x1_off or z[j] != grid.z[j]:
            c = _march_row(lattice, z[j]).c
        b = source.profile_integral / c + row.below
        block, mu_j = row.block, mu_s[:, j, None]
        uj = b
        for m in range(MAX_SWEEPS):
            vj = (uj @ w_t) * mu_j
            new = b + np.matmul(block, vj.T[:, :, None])[:, :, 0].T
            diff = float(np.abs(new - uj).max())
            if not math.isfinite(diff):
                raise NumericalError(f"fixed-point passes diverged on z-row {j}")
            if m < len(diffs):
                diffs[m] = max(diffs[m], diff)
            else:
                diffs.append(diff)
            uj = new
            top = max(top, float(new.max()))
            if diff <= row_tol * top:
                break
        else:
            raise NumericalError(
                f"no convergence on z-row {j} in {MAX_SWEEPS} passes (last update {diff:.3e})"
            )
        u[:, j] = uj
        vt[:, pad : pad + n1, j] = ((uj @ w_t) * mu_j).T
        # Free the row's block before the next row's march makes its own.
        del row, block

    if return_info:
        return u, {"sweeps": len(diffs), "diffs": diffs}
    return u


def _ray_row(x1t, zt, alpha, atten, grid):
    """Reference march of one ray, from abscissa ``alpha`` to the target
    (x1t, zt), kept apart from :func:`_march_row` as a check on it.

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
    m_cnt = int(_sample_counts(seg, grid))
    ds = seg / (m_cnt - 1)
    tpar = (s_a + ds * np.arange(m_cnt)) / ell
    flat, corners = _bilinear_corners(alpha + tpar * dxr, tpar * zt, grid)
    a_s = sum(cw * atten.ravel()[flat + off] for off, cw in corners)
    c_s = np.exp(np.concatenate([[0.0], np.cumsum(0.5 * ds * (a_s[1:] + a_s[:-1]))]))
    sample_w = trapezoid_weights(m_cnt, ds) * c_s / c_s[-1]
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
    quadrature, and u0 takes c of the ray to the rays' lattice node.
    """
    n1, nz, nk = grid.shape_medium
    n_unknown = n1 * nz * nk
    if n_unknown > DIRECT_MAX_UNKNOWNS:
        raise UsageError(f"{n_unknown} unknowns exceed the dense-solver cap {DIRECT_MAX_UNKNOWNS}")
    check_source_radius(source, grid.geometry)
    atten, mu_s = phantom.attenuation, phantom.mu_s.ravel()
    w = scatter_matrix(kernel, grid.alpha, grid.h)
    x1, z = _ray_lattice(grid)

    rhs = np.empty((n1 * nz, nk))
    smat = np.zeros((n_unknown, n1 * nz, nk))
    for t, (i, j) in enumerate(np.ndindex(n1, nz)):
        for k, alpha in enumerate(grid.alpha):
            c, row = _ray_row(grid.x1[i], grid.z[j], alpha, atten, grid)
            if (x1[i], z[j]) != (grid.x1[i], grid.z[j]):
                c = _ray_row(x1[i], z[j], alpha, atten, grid)[0]
            rhs[t, k] = source.profile_integral / c
            smat[t * nk + k] = np.outer(row * mu_s, w[k])
    rhs = rhs.ravel()

    mat = np.eye(n_unknown) - smat.reshape(n_unknown, n_unknown)
    sol = np.linalg.solve(mat, rhs)
    residual = float(np.max(np.abs(mat @ sol - rhs)))

    u = sol.reshape(grid.shape_medium)
    if return_info:
        return u, {"residual": residual, "unknowns": n_unknown}
    return u
