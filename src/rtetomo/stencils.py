"""Finite-difference stencils shared by the data pipeline and the solvers.

All derivatives are second-order: central differences inside, one-sided
three-point formulas at the first and last node.
"""

import numpy as np

from .errors import UsageError


def diff_axis(f, h, axis):
    """First derivative along ``axis``: central inside, one-sided at the ends.

    End formulas are (-3 f0 + 4 f1 - f2) / 2h and its mirror, so the whole
    operator is O(h^2) for smooth data.  Needs >= 3 nodes along the axis.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[axis] < 3:
        raise UsageError("need at least three nodes to differentiate")
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
        raise UsageError("need at least four nodes for the one-sided second derivative")
    f = np.moveaxis(f, axis, 0)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / (h * h)
    out[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / (h * h)
    out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / (h * h)
    return np.moveaxis(out, 0, axis)


def smooth_pass(f):
    """One sweep of the five-point averaging filter over the first two
    axes (edges use clamped neighbors), applied to every slice along any
    trailing axes; repeated passes turn white noise into a smooth sample.

    The neighbors are added into one copy of ``f`` in a fixed order
    (center, next and previous along axis 0, then along axis 1), each
    edge adding its own value where the neighbor would lie outside.
    """
    out = np.array(f, dtype=float)
    out[:-1] += f[1:]
    out[-1] += f[-1]
    out[1:] += f[:-1]
    out[0] += f[0]
    out[:, :-1] += f[:, 1:]
    out[:, -1] += f[:, -1]
    out[:, 1:] += f[:, :-1]
    out[:, 0] += f[:, 0]
    out /= 5.0
    return out
