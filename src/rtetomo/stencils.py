"""Finite-difference stencils shared by the data pipeline and the solvers.

All derivatives are second-order: central differences inside, one-sided
three-point formulas at the first and last node.  Adjoint (scatter) forms
of the interior stencils are provided for the hand-written gradient of the
weighted least-squares functional.
"""

import numpy as np


def diff_axis(f, h, axis):
    """First derivative along ``axis``: central inside, one-sided at the ends.

    End formulas are (-3 f0 + 4 f1 - f2) / 2h and its mirror, so the whole
    operator is O(h^2) for smooth data.  Needs >= 3 nodes along the axis.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[axis] < 3:
        raise ValueError("need at least three nodes to differentiate")
    f = np.moveaxis(f, axis, 0)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    out[0] = (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * h)
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def second_diff_axis(f, h, axis):
    """Second derivative along ``axis``: three-point central inside, the
    four-point one-sided formula (2 f0 - 5 f1 + 4 f2 - f3) / h^2 at the ends."""
    f = np.asarray(f, dtype=float)
    if f.shape[axis] < 4:
        raise ValueError("need at least four nodes for the one-sided second derivative")
    f = np.moveaxis(f, axis, 0)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / (h * h)
    out[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / (h * h)
    out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / (h * h)
    return np.moveaxis(out, 0, axis)


def onesided_first_end(f, h, axis):
    """Second-order one-sided first derivative at the LAST node of ``axis``."""
    f = np.moveaxis(np.asarray(f, dtype=float), axis, 0)
    return (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)


def laplacian_interior(f, h):
    """Five-point Laplacian of a spatial-by-angle array on interior spatial
    nodes of step ``h``; returns shape (n1 - 2, nz - 2, ...)."""
    core = f[1:-1, 1:-1]
    d11 = (f[2:, 1:-1] - 2.0 * core + f[:-2, 1:-1]) / (h * h)
    dzz = (f[1:-1, 2:] - 2.0 * core + f[1:-1, :-2]) / (h * h)
    return d11 + dzz


def laplacian_scatter(w, h, out):
    """Adjoint of ``laplacian_interior``: scatter interior-node weights ``w``
    through the five-point stencil into the full-grid array ``out`` (added
    in place, boundary rows included)."""
    c = 1.0 / (h * h)
    core = w * (-4.0 * c)
    out[1:-1, 1:-1] += core
    out[2:, 1:-1] += w * c
    out[:-2, 1:-1] += w * c
    out[1:-1, 2:] += w * c
    out[1:-1, :-2] += w * c
    return out


def central_scatter(w, h, axis, out):
    """Adjoint of the interior central difference along a spatial ``axis``
    (0 or 1): scatter interior weights into the full grid, in place.

    The forward op maps full-grid f to (f[i+1] - f[i-1]) / 2h on interior
    nodes of ``axis`` (interior of the other spatial axis as well, matching
    ``laplacian_interior``'s footprint).
    """
    c = 1.0 / (2.0 * h)
    if axis == 0:
        out[2:, 1:-1] += w * c
        out[:-2, 1:-1] -= w * c
    elif axis == 1:
        out[1:-1, 2:] += w * c
        out[1:-1, :-2] -= w * c
    else:
        raise ValueError("axis must be 0 (x1) or 1 (z)")
    return out


def smooth_pass(f):
    """One sweep of the five-point averaging filter (edges use clamped
    neighbors); repeated passes turn white noise into a smooth sample."""
    padded = np.pad(f, 1, mode="edge")
    return (
        padded[1:-1, 1:-1]
        + padded[2:, 1:-1]
        + padded[:-2, 1:-1]
        + padded[1:-1, 2:]
        + padded[1:-1, :-2]
    ) / 5.0
