"""Slab geometry, tensor grids, and transport directions.

The medium occupies the rectangle ``Omega = (-B, B) x (a, b)`` with
``0 < a < b``.  Point sources sit on the segment ``z = 0``,
``x1 in [-d, d]``, and every source-to-detector ray travels upward through
the source-free gap ``0 < z < a``, so the rays cross the taller rectangle
``P = (-Bbar, Bbar) x (0, b)`` with ``Bbar = max(B, d)``.  Only Omega
carries a grid: the media vanish outside it, and every field lives on its
nodes.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError


class DegenerateDirectionError(UsageError):
    """The evaluation point coincides with the source point."""


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


def _uniform_span(lo, hi, h, label):
    """Closed uniform nodes on [lo, hi]; the span must be a multiple of h."""
    n = (hi - lo) / h
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

    ``x1`` / ``z`` are the medium-rectangle nodes (both endpoints included)
    and ``alpha`` the source abscissae, all spaced by the one step ``h``.
    """

    geometry: Geometry
    x1: np.ndarray
    z: np.ndarray
    alpha: np.ndarray
    h: float

    @classmethod
    def uniform(cls, geometry, h):
        """Build all grids with the single step ``h`` on every axis."""
        if not h > 0:
            raise UsageError("grid step must be positive")
        g = geometry
        return cls(
            geometry=g,
            x1=_uniform_span(-g.half_width, g.half_width, h, "x1"),
            z=_uniform_span(g.slab_bottom, g.slab_top, h, "z"),
            alpha=_uniform_span(-g.source_half_width, g.source_half_width, h, "alpha"),
            h=h,
        )

    def __post_init__(self):
        for name in ("x1", "z", "alpha"):
            nodes = getattr(self, name)
            if nodes.ndim != 1 or nodes.size < 2:
                raise UsageError(f"{name} nodes must be a 1D array with >= 2 entries")
            if not np.allclose(np.diff(nodes), self.h, rtol=0, atol=1e-9):
                raise UsageError(f"{name} nodes are not uniform with the declared step")
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


@dataclass(eq=False)
class RadianceField:
    """Nodal samples of a directional field u(x, alpha) on the medium grid."""

    values: np.ndarray
    grid: GridSet

    def __post_init__(self):
        expected = self.grid.shape_medium
        if self.values.shape != expected:
            raise UsageError(f"field shape {self.values.shape} does not match the grid {expected}")
        if not np.all(np.isfinite(self.values)):
            raise UsageError("field contains non-finite entries")


def direction_vector(x, alpha):
    """Unit vector from the source (alpha, 0) to the point ``x = (x1, z)``."""
    dx = x[0] - alpha
    dz = x[1]
    r = np.hypot(dx, dz)
    if r == 0.0:
        raise DegenerateDirectionError(f"point {x!r} coincides with source ({alpha!r}, 0)")
    return np.array([dx / r, dz / r])


def direction_alpha_derivative(x, alpha):
    """Derivative of ``direction_vector(x, alpha)`` in the source abscissa.

    With r = |x - x_alpha| the components are (-z^2 / r^3, z (x1 - alpha) / r^3).
    """
    dx = x[0] - alpha
    dz = x[1]
    r = np.hypot(dx, dz)
    if r == 0.0:
        raise DegenerateDirectionError(f"point {x!r} coincides with source ({alpha!r}, 0)")
    return np.array([-dz * dz / r**3, dz * dx / r**3])


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


def trapezoid_weights(n, h):
    """Composite trapezoid weights for n closed uniform nodes of step h."""
    if n < 2:
        raise UsageError("trapezoid rule needs at least two nodes")
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w
