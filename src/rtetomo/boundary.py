"""Boundary measurements and the derived data driving the inversion.

From the radiance traces g on the medium boundary the inversion needs, per
source abscissa alpha:

  g1 = ln g                         (Dirichlet data for the log field)
  g2 = (d_alpha g) / g              (Dirichlet data for its alpha-derivative)
  g3 = outward normal derivative of ln u on the top face, reconstructed
       from tangential derivatives and the scattering integral alone
  g4 = d_alpha g3

All differentiation is second order (central inside, one-sided at the
ends) and happens on the acquisition grid; production runs acquire on a
finer grid than they invert on and downsample afterwards, which tames the
noise amplification of differencing.  One helper, :func:`_derive`,
computes g1-g4 from g, the grid, the kernel and mu_s, after the noise draw
and again when :func:`~rtetomo.serialize.read_boundary` reads g back.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import UsageError
from .forward import KernelModel, scatter_matrix
from .geometry import GridSet
from .seeding import stream
from .stencils import diff_axis

FACE_ORDER = ("bottom", "top", "left", "right")

# Where each face lies in the medium's (x1, z) node plane: the bottom and
# top rows keep the corner nodes, the side columns interior z rows only.
_FACE_NODES = {
    "bottom": np.s_[:, 0],
    "top": np.s_[:, -1],
    "left": np.s_[0, 1:-1],
    "right": np.s_[-1, 1:-1],
}


def face_nodes(grid):
    """(x1, z) coordinates of each face's rows, in :data:`FACE_ORDER`."""
    x1, z = grid.spatial_mesh()
    return {name: (x1[_FACE_NODES[name]], z[_FACE_NODES[name]]) for name in FACE_ORDER}


def face_shapes(grid):
    """Shape (rows, n_alpha) of each face's arrays, in :data:`FACE_ORDER`."""
    return {name: (x1.size, grid.alpha.size) for name, (x1, _) in face_nodes(grid).items()}


def face_field(faces, grid):
    """Zero field on the medium grid with each face's rows of ``faces``
    (a per-face dict shaped as :func:`face_shapes`) laid at its nodes."""
    full = np.zeros(grid.shape_medium)
    for name in FACE_ORDER:
        full[_FACE_NODES[name]] = faces[name]
    return full


def extract_boundary(u):
    """Radiance traces on the four medium faces of the (n1, nz, n_alpha)
    array ``u``, shaped as :func:`face_shapes`."""
    return {name: u[_FACE_NODES[name]].copy() for name in FACE_ORDER}


def check_noise_level(delta):
    """Refuse a noise level that is negative or not finite (NaN fails the comparison)."""
    if not 0.0 <= delta < np.inf:
        raise UsageError(f"noise level delta must be non-negative and finite, got {delta!r}")


def add_noise(faces, delta, seed):
    """Multiplicative noise g -> g (1 + delta zeta), zeta uniform in [0, 1).

    Draws come from the dedicated 'boundary-noise' stream in the fixed
    face order, so the noisy data depend only on (seed, delta), not on
    call history.  delta = 0 returns copies unchanged.
    """
    check_noise_level(delta)
    rng = stream(seed, "boundary-noise")
    out = {}
    for name in FACE_ORDER:
        g = faces[name]
        zeta = rng.random(g.shape)
        out[name] = g * (1.0 + delta * zeta)
    return out


@dataclass(eq=False)
class BoundaryDataSet:
    """All boundary quantities on one acquisition grid.

    ``g``, ``g1``, ``g2`` are per-face dicts (see :func:`face_shapes`),
    ``g3``/``g4`` top-face arrays; ``delta``/``seed`` record g's noise, and
    ``attenuation_trace`` (mu_s) and ``kernel`` what g3 was derived with.
    """

    grid: GridSet
    g: dict
    g1: dict
    g2: dict
    g3: np.ndarray
    g4: np.ndarray
    delta: float
    seed: int
    attenuation_trace: float = 5.0
    kernel: KernelModel = KernelModel()

    def __post_init__(self):
        shapes = face_shapes(self.grid)
        for dct in (self.g, self.g1, self.g2):
            for name in FACE_ORDER:
                if dct[name].shape != shapes[name]:
                    raise UsageError(f"face {name!r} has shape {dct[name].shape}, want {shapes[name]}")
        if self.g3.shape != shapes["top"] or self.g4.shape != shapes["top"]:
            raise UsageError("top-face normal data shape mismatch")


def check_acquisition_grid(grid):
    """Refuse a grid too coarse for :func:`derive_boundary_data`'s x1 and alpha stencils."""
    if grid.x1.size < 3 or grid.alpha.size < 3:
        raise UsageError(f"grid {grid.shape_medium} too coarse for the boundary stencils (3 x1, 3 alpha nodes)")


def derive_boundary_data(faces, grid, kernel, mu_s_value=5.0, delta=0.0, seed=0):
    """Log data and derived derivatives from traces, after :func:`add_noise`.

    The normal derivative on the top face never touches the (unknown)
    interior field: writing the transport equation on the face leaves
    tangential, attenuation-trace, and scattering contributions only,

        g3 = (1/nu_n) [ -nu_1 d_x1(ln g) - a_top + mu_s (int G g dbeta) / g ].

    a_top is the attenuation at the top face; absorbers are assumed to lie
    inside the medium, so it is the scattering background ``mu_s_value``,
    recorded as the dataset's ``attenuation_trace``.  Dropping the term
    would bias the reconstruction near the top by about a_top / nu_n.
    """
    # add_noise refuses a bad delta; delta = 0 draws nothing.
    return _derive(add_noise(faces, delta, seed) if delta else faces, grid, kernel, mu_s_value, delta, seed)


def _derive(faces, grid, kernel, mu_s_value, delta, seed):
    """The :class:`BoundaryDataSet` of the traces ``faces`` as measured,
    noise included: the only code that computes g1-g4."""
    check_acquisition_grid(grid)
    g = {name: faces[name].copy() for name in FACE_ORDER}
    for name, trace in g.items():
        if np.any(trace <= 0.0) or not np.all(np.isfinite(trace)):
            raise UsageError(f"non-positive or non-finite radiance on face {name!r}")
    g1 = {name: np.log(trace) for name, trace in g.items()}
    g2 = {name: diff_axis(trace, grid.h, axis=1) / trace for name, trace in g.items()}

    top = g["top"]
    zb = grid.geometry.slab_top
    dx = grid.x1[:, None] - grid.alpha[None, :]
    r = np.hypot(dx, zb)
    nu1 = dx / r
    nu_n = zb / r
    w_x1 = diff_axis(g1["top"], grid.h, axis=0)
    smat = scatter_matrix(kernel, grid.alpha, grid.h)
    scattering = mu_s_value * (top @ smat.T) / top
    g3 = (-nu1 * w_x1 + scattering - mu_s_value) / nu_n
    g4 = diff_axis(g3, grid.h, axis=1)
    return BoundaryDataSet(
        grid=grid, g=g, g1=g1, g2=g2, g3=g3, g4=g4, delta=float(delta), seed=int(seed),
        attenuation_trace=float(mu_s_value), kernel=kernel,
    )


def downsample_boundary(bds, factor):
    """Restrict a dataset to every ``factor``-th node on all axes.

    The coarse grid keeps both endpoints of every span, so the fine node
    counts minus one must be divisible by ``factor``.  Derived quantities
    are restricted, not recomputed: differentiation stays on the fine
    grid, which is the point of acquiring finely.
    """
    if not float(factor).is_integer():
        raise UsageError(f"downsampling factor {factor!r} is not an integer")
    factor = int(factor)
    if factor < 1:
        raise UsageError("downsampling factor must be >= 1")
    if factor == 1:
        return replace(bds)
    g = bds.grid
    for n in (g.x1.size, g.z.size, g.alpha.size):
        if (n - 1) % factor:
            raise UsageError(f"{n} nodes cannot be downsampled by {factor}")
    coarse = GridSet.uniform(g.geometry, g.h * factor)

    def pick(dct):
        # The faces of the restricted field: lay the traces back on the
        # grid, restrict, and read the faces off again.
        return extract_boundary(face_field(dct, g)[::factor, ::factor, ::factor])

    return replace(
        bds,
        grid=coarse,
        g=pick(bds.g),
        g1=pick(bds.g1),
        g2=pick(bds.g2),
        g3=bds.g3[::factor, ::factor].copy(),
        g4=bds.g4[::factor, ::factor].copy(),
    )
