"""Synthetic media: a uniform scatterer with letter-shaped absorbers.

Letters live inside the box [-0.35, 0.35] x [1.2, 1.8] and are drawn with
axis-aligned strokes of width 0.1 whose edges sit on multiples of 0.05, so
the masks are exact on every grid with step 1/20, 1/40, ...  The greek
letter adds one annular arc.  Membership tests use closed sets with a small
tolerance, so stroke-edge nodes belong to the mask.
"""

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .geometry import GridSet

_TOL = 1e-9

#: Axis-aligned strokes per letter, as (x_lo, x_hi, z_lo, z_hi) rectangles.
LETTER_STROKES = {
    "A": [
        (-0.35, -0.25, 1.2, 1.8),
        (0.25, 0.35, 1.2, 1.8),
        (-0.35, 0.35, 1.7, 1.8),
        (-0.25, 0.25, 1.45, 1.55),
    ],
    "SZ": [
        # S occupies x in [-0.35, -0.05]
        (-0.35, -0.05, 1.7, 1.8),
        (-0.35, -0.25, 1.5, 1.8),
        (-0.35, -0.05, 1.45, 1.55),
        (-0.15, -0.05, 1.2, 1.55),
        (-0.35, -0.05, 1.2, 1.3),
        # Z occupies x in [0.05, 0.35]; the diagonal is a three-step staircase
        (0.05, 0.35, 1.7, 1.8),
        (0.25, 0.35, 1.55, 1.7),
        (0.15, 0.25, 1.4, 1.55),
        (0.05, 0.15, 1.3, 1.4),
        (0.05, 0.35, 1.2, 1.3),
    ],
    "OMEGA": [
        (-0.3, -0.1, 1.2, 1.3),
        (0.1, 0.3, 1.2, 1.3),
    ],
}

#: Ring part of the greek letter: center, radii, and the downward-facing
#: angular gap in degrees.
OMEGA_RING = {
    "center": (0.0, 1.5),
    "r_inner": 0.15,
    "r_outer": 0.25,
    "gap_deg": (-115.0, -65.0),
}


def _in_rect(x1, z, rect):
    x_lo, x_hi, z_lo, z_hi = rect
    return (
        (x1 >= x_lo - _TOL)
        & (x1 <= x_hi + _TOL)
        & (z >= z_lo - _TOL)
        & (z <= z_hi + _TOL)
    )


def _check_letter(letter):
    if letter is not None and letter not in LETTER_STROKES:
        raise UsageError(
            f"unknown letter {letter!r}; choose from {sorted(LETTER_STROKES)} or none"
        )


def letter_mask(letter, grid):
    """Boolean absorber mask on the medium spatial nodes of ``grid``.

    ``letter`` is one of ``LETTER_STROKES``' keys or None for an empty mask.
    """
    _check_letter(letter)
    x1, z = grid.spatial_mesh("medium")
    mask = np.zeros(x1.shape, dtype=bool)
    if letter is None:
        return mask
    for rect in LETTER_STROKES[letter]:
        mask |= _in_rect(x1, z, rect)
    if letter == "OMEGA":
        cx, cz = OMEGA_RING["center"]
        r = np.hypot(x1 - cx, z - cz)
        ring = (r >= OMEGA_RING["r_inner"] - _TOL) & (r <= OMEGA_RING["r_outer"] + _TOL)
        theta = np.degrees(np.arctan2(z - cz, x1 - cx))
        lo, hi = OMEGA_RING["gap_deg"]
        ring &= ~((theta > lo) & (theta < hi))
        mask |= ring
    return mask


@dataclass(eq=False)
class Phantom:
    """Nodal medium coefficients on the medium spatial grid.

    ``attenuation`` is the total coefficient (absorption plus scattering)
    entering the ray integrals; scattering takes its medium value on every
    node, boundary included.  The media vanish outside the medium rectangle,
    so nothing is stored there.
    """

    mu_a: np.ndarray
    mu_s: np.ndarray
    attenuation: np.ndarray
    mask: np.ndarray
    grid: GridSet

    def medium_block(self, name):
        """The named coefficient array (every array is a medium block)."""
        return getattr(self, name)


def check_phantom(letter, c_a, mu_s_value):
    """Refuse a letter, absorber level or scattering level no phantom has;
    a letter of None draws no absorber."""
    _check_letter(letter)
    if c_a < 0:
        raise UsageError("absorber level must be non-negative")
    if letter is not None and not c_a > 0:
        raise UsageError("absorber level must be positive when a letter is drawn")
    if mu_s_value < 0:
        raise UsageError("scattering level must be non-negative")


def make_phantom(letter, c_a, grid, mu_s_value=5.0):
    """Build the letter phantom: mu_s = ``mu_s_value`` on the closed medium
    rectangle, mu_a = ``c_a`` on the letter mask and zero off it."""
    check_phantom(letter, c_a, mu_s_value)
    mask = letter_mask(letter, grid)
    mu_s = np.full(mask.shape, float(mu_s_value))
    mu_a = np.where(mask, float(c_a), 0.0)
    return Phantom(
        mu_a=mu_a,
        mu_s=mu_s,
        attenuation=mu_a + mu_s,
        mask=mask,
        grid=grid,
    )


def true_contrast(c_a, mu_s_value=5.0):
    """Absorber-to-background contrast (mu_s + c_a) / mu_s of the phantom."""
    if c_a < 0:
        raise UsageError("absorber level must be non-negative")
    if mu_s_value <= 0:
        raise UsageError("scattering level must be positive for a contrast")
    return 1.0 + float(c_a) / float(mu_s_value)
