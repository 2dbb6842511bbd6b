"""Attenuation recovery from the minimizing pair, and quality metrics.

Averaging the transport equation for p = ln u over the source aperture
isolates the attenuation coefficient:

    a(x) = (1/2d) int [ -nu . grad p + mu_s e^{-p} int G(alpha, beta)
                         e^{p(x, beta)} dbeta ] dalpha,

evaluated with the same second-order differences and trapezoid rules as
the inversion.  Subtracting the known scattering background gives the
absorber map that the metrics score against the phantom.
"""

from dataclasses import dataclass

import numpy as np

from .forward import scatter_matrix
from .geometry import direction_tables, trapezoid_weights
from .phantom import true_contrast
from .stencils import diff_axis, smooth_pass

SMOOTH_PASSES = 1


@dataclass(eq=False)
class Reconstruction:
    """Recovered total attenuation and absorber part on the medium nodes."""

    attenuation: np.ndarray
    absorber: np.ndarray
    mu_s_value: float
    grid: "GridSet"


def recover_attenuation(pair, kernel, mu_s_value=5.0):
    """Aperture-averaged attenuation from the log-radiance pair.

    ``SMOOTH_PASSES`` five-point averaging sweeps are applied to the
    attenuation map before the absorber split.  The one-sided stencils
    feeding the average leave grid-scale ripples along the top face; one
    pass removes them while widening genuine strokes by under a cell.
    """
    grid = pair.grid
    p = pair.p
    nu1, nu2, _, _ = direction_tables(grid)
    dp1 = diff_axis(p, grid.h, axis=0)
    dpz = diff_axis(p, grid.h, axis=1)
    smat = scatter_matrix(kernel, grid.alpha, grid.h)
    acoef = np.exp(p) @ smat.T
    integrand = -(nu1 * dp1 + nu2 * dpz) + mu_s_value * np.exp(-p) * acoef
    wa = trapezoid_weights(grid.alpha.size, grid.h)
    span = grid.alpha[-1] - grid.alpha[0]
    atten = (integrand @ wa) / span
    for _ in range(SMOOTH_PASSES):
        atten = smooth_pass(atten)
    return Reconstruction(
        attenuation=atten,
        absorber=atten - mu_s_value,
        mu_s_value=float(mu_s_value),
        grid=grid,
    )


def computed_contrast(absorber, mu_s_value=5.0):
    """Contrast 1 + max(absorber)+ / mu_s implied by a recovered map."""
    return true_contrast(max(0.0, float(np.max(absorber))), mu_s_value)


def support_centroid(values, grid):
    """Unweighted centroid of the nodes where ``values`` reaches at least
    half its max.  None when the max is not positive."""
    values = np.asarray(values, dtype=float)
    peak = float(np.max(values))
    if not peak > 0:
        return None
    return mask_centroid(values >= 0.5 * peak, grid)


def mask_centroid(mask, grid):
    """Unweighted centroid of a boolean medium mask; None when empty."""
    if not np.any(mask):
        return None
    x1, z = grid.spatial_mesh("medium")
    return float(x1[mask].mean()), float(z[mask].mean())


def score(reconstruction, truth_mask, c_a, mu_s_value=5.0):
    """Quality metrics of a recovered absorber map against the truth.

    Returns a dict with the trapezoid-weighted relative L2 error, the
    computed and true contrasts, and the offset between the half-max
    support centroid and the truth centroid (in length units and in grid
    cells).  Offsets are NaN when either support is empty.
    """
    grid = reconstruction.grid
    comp = reconstruction.absorber
    truth = np.where(truth_mask, float(c_a), 0.0)
    wx = trapezoid_weights(grid.x1.size, grid.h)
    wz = trapezoid_weights(grid.z.size, grid.h)
    wxy = wx[:, None] * wz[None, :]
    diff_sq = float(np.sum(wxy * (comp - truth) ** 2))
    truth_sq = float(np.sum(wxy * truth * truth))
    if truth_sq > 0:
        l2_rel = np.sqrt(diff_sq / truth_sq)
    else:
        l2_rel = np.inf if diff_sq > 0 else 0.0
    c_comp = support_centroid(comp, grid)
    c_true = mask_centroid(truth_mask, grid)
    if c_comp is None or c_true is None:
        offset = np.nan
    else:
        offset = float(np.hypot(c_comp[0] - c_true[0], c_comp[1] - c_true[1]))
    return {
        "l2_rel": float(l2_rel),
        "contrast": computed_contrast(comp, mu_s_value),
        "true_contrast": true_contrast(c_a, mu_s_value),
        "centroid_offset": offset,
        "centroid_offset_cells": offset / grid.h if np.isfinite(offset) else np.nan,
    }
