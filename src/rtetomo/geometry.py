"""Slab geometry, tensor grids, and transport directions.

The medium occupies the rectangle ``Omega = (-B, B) x (a, b)`` with
``0 < a < b``.  Point sources sit on the segment ``z = 0``,
``x1 in [-d, d]``, and every source-to-detector ray travels upward through
the source-free gap ``0 < z < a``, so the rays cross the taller rectangle
``P = (-Bbar, Bbar) x (0, b)`` with ``Bbar = max(B, d)``.  Only Omega
carries a grid: the media vanish outside it, and every field lives on its
nodes.
"""

from dataclasses import dataclass

import numpy as np

from .errors import UsageError


@dataclass(frozen=True)
class Geometry:
    """Slab extents and source-segment half-width, all in shared length units."""

    half_width: float = 0.5
    slab_bottom: float = 1.0
    slab_top: float = 2.0
    source_half_width: float = 0.5

    def __post_init__(self):
        if not (self.half_width > 0 and self.source_half_width > 0):
            raise UsageError("half widths must be positive")
        if not (0 < self.slab_bottom < self.slab_top):
            raise UsageError("need 0 < slab_bottom < slab_top")

    @property
    def reach(self):
        """Half-width of the rectangle P the rays cross, max(half_width, source_half_width)."""
        return max(self.half_width, self.source_half_width)


# Nodes one grid axis may have: far past any grid the 3-D solve can hold,
# so a span or step off by orders of magnitude is refused, not allocated.
_MAX_NODES = 10**5


def _uniform_span(lo, hi, h, label):
    """Closed uniform nodes on [lo, hi], at least two; the span must be a multiple of h."""
    n = (hi - lo) / h
    if not n < _MAX_NODES:
        raise UsageError(f"{label} span {hi - lo!r} at step {h!r} needs more than {_MAX_NODES} nodes")
    if round(n) < 1:
        raise UsageError(f"{label} span {hi - lo!r} is shorter than step {h!r}")
    if abs(n - round(n)) > 1e-9 * max(1.0, n):
        raise UsageError(f"{label} span {hi - lo!r} is not a multiple of step {h!r}")
    return np.linspace(lo, hi, round(n) + 1)


def _ray_lattice(grid):
    """The medium's x1 and z nodes as a uniform grid over P with the same
    steps places them.

    They equal ``grid.x1`` / ``grid.z`` up to round-off; a medium whose nodes
    are not on that lattice (say, offset from it by half a step) is refused.
    """
    g = grid.geometry
    n1, nz = grid.x1.size, grid.z.size
    ix0 = round((g.reach - g.half_width) / grid.h)
    x1 = _uniform_span(-g.reach, g.reach, grid.h, "ray x1")[ix0 : ix0 + n1]
    z = _uniform_span(0.0, g.slab_top, grid.h, "ray z")[-nz:]
    for name, lattice, nodes in (("x1", x1, grid.x1), ("z", z, grid.z)):
        if lattice.size != nodes.size or not np.allclose(lattice, nodes, rtol=0, atol=1e-9):
            raise UsageError(f"medium {name} nodes are off the rays' lattice over P")
    return x1, z


@dataclass(frozen=True, eq=False)
class GridSet:
    """Closed uniform tensor grids over Omega and the source segment.

    Built from the geometry and the one step ``h``: ``x1`` / ``z`` are the
    medium-rectangle nodes (both endpoints included) and ``alpha`` the
    source abscissae, all spaced by ``h``.
    """

    geometry: Geometry
    h: float

    @classmethod
    def uniform(cls, geometry, h):
        """Build all grids with the single step ``h`` on every axis."""
        return cls(geometry, h)

    def __post_init__(self):
        if not self.h > 0:
            raise UsageError("grid step must be positive")
        g, h = self.geometry, self.h
        object.__setattr__(self, "x1", _uniform_span(-g.half_width, g.half_width, h, "x1"))
        object.__setattr__(self, "z", _uniform_span(g.slab_bottom, g.slab_top, h, "z"))
        object.__setattr__(self, "alpha", _uniform_span(-g.source_half_width, g.source_half_width, h, "alpha"))
        _ray_lattice(self)

    @property
    def shape_medium(self):
        return (self.x1.size, self.z.size, self.alpha.size)

    @property
    def shape_hull(self):
        """Node counts a grid over P with the same steps would have; no field
        is stored there, the tuple only sizes the rays' domain."""
        g = self.geometry
        return (
            round(2.0 * g.reach / self.h) + 1,
            round(g.slab_top / self.h) + 1,
            self.alpha.size,
        )

    def spatial_mesh(self, region="medium"):
        """Meshgrid (ij indexing) of the medium's spatial nodes."""
        if region != "medium":
            raise UsageError(f"unknown region {region!r}")
        return np.meshgrid(self.x1, self.z, indexing="ij")


def direction_tables(grid):
    """Direction components and their alpha-derivatives on the medium grid.

    Returns four arrays of shape (n_x1, n_z, n_alpha): nu1, nu2, dnu1, dnu2.
    Every medium node has z >= slab_bottom > 0, so no ray is degenerate.
    """
    x1 = grid.x1[:, None, None]
    z = grid.z[None, :, None]
    alpha = grid.alpha[None, None, :]
    dx = x1 - alpha
    r = np.sqrt(dx * dx + z * z)
    nu1 = dx / r
    nu2 = z / r + np.zeros_like(dx)
    dnu1 = -z * z / r**3 + np.zeros_like(dx)
    dnu2 = z * dx / r**3
    return nu1, nu2, dnu1, dnu2


def carleman_weight(z, lam):
    """Pointwise weight exp(2 lam z^2); grows fast, so callers usually
    work with ratios against exp(2 lam b^2) instead of raw values."""
    z = np.asarray(z, dtype=float)
    return np.exp(2.0 * lam * z * z)


def _aligned(size, dtype=float):
    """Zeroed vector of ``size`` items whose data start on a 64-byte boundary.

    malloc aligns only to 16 bytes, and on CPUs with 64-byte vector stores
    (AVX-512) an elementwise kernel writing to an unaligned output runs up
    to twice as slow.
    """
    itemsize = np.dtype(dtype).itemsize
    raw = np.zeros(size + 64 // itemsize - 1, dtype)
    start = (-raw.ctypes.data % 64) // itemsize
    return raw[start : start + size]


def trapezoid_weights(n, h):
    """Composite trapezoid weights for n closed uniform nodes of step h."""
    if n < 2:
        raise UsageError("trapezoid rule needs at least two nodes")
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w
