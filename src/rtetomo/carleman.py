"""Empirical probes of the estimates behind the weighted objective.

Convergence of the descent rests on two quadratic-form inequalities whose
constants are existential: a lower bound on the weighted Laplacian energy
of fields vanishing on every face but the top, and strict convexity of
the objective beyond its explicit Tikhonov term.  Neither constant can be
asserted pointwise, so this module measures instead of proving: it draws
smoothed random samples, evaluates both sides of each inequality, and
reports ratios, margins, and an empirical gradient-variation constant.

Samples are plain arrays: :func:`sample_test_function` returns an
(n_x1, n_z) field and :func:`sample_in_ball` a free vector of the
objective.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, UsageError
from .geometry import carleman_weight, trapezoid_weights
from .seeding import stream
from .stencils import diff_axis, second_diff_axis, smooth_pass

SAMPLE_PASSES = 5
BALL_PASSES = 2
TOP_MARGIN = 0.2
GRADIENT_CHECK_STEP = 1e-2
GRADIENT_DIRECTIONS = 20
LAMBDAS = (2.0, 5.0, 10.0)  # the estimate probe's weight exponents, ascending


def sample_test_function(grid, rng):
    """Smoothed white noise on the medium rectangle, zeroed where required.

    ``SAMPLE_PASSES`` five-point averaging sweeps bound the discrete second
    derivatives, then the draw is zeroed on the bottom and side faces and
    on a band of height ``TOP_MARGIN`` below the top face.  The band is
    there because a live top trace enters the estimate through the factor
    lam^3 exp(2 lam b^2), which swamps the interior integral for every
    O(1) sample; with the band the trace terms vanish exactly and all
    samples are usable.  A zero margin leaves the top trace live, and the
    samples then exercise the exclusion rule instead.  Returns the
    (n_x1, n_z) array.
    """
    u = rng.standard_normal((grid.x1.size, grid.z.size))
    for _ in range(SAMPLE_PASSES):
        u = smooth_pass(u)
    u[0, :] = 0.0
    u[-1, :] = 0.0
    u[:, 0] = 0.0
    if TOP_MARGIN > 0.0:
        u[:, grid.z >= grid.geometry.slab_top - TOP_MARGIN - 1e-9] = 0.0
    return u


def carleman_sides(u, lam, grid):
    """The three quadratures of the weighted second-derivative estimate.

    Returns ``(lhs, interior, boundary)`` with weight w = exp(2 lam z^2):

      lhs      = integral of (Lap u)^2 w over the medium,
      interior = integral of (lam |grad u|^2 + lam^3 u^2) w,
      boundary = lam^3 w(b) (top-trace H1 norm^2 + normal-trace L2 norm^2).

    All derivatives are the shared second-order stencils, one-sided at
    the faces; traces are taken along z = b.  Each side has the shape of
    ``lam``, so an array of exponents shares one set of derivatives.  The
    useful ratio is lhs / (interior - boundary) where the denominator is
    positive, the sign every sample with a strong top trace loses.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 1.0):
        raise UsageError("weight exponent must be >= 1 for the estimate probe")
    v = np.asarray(u, dtype=float)
    if v.shape != (grid.x1.size, grid.z.size):
        raise UsageError(f"sample shape {v.shape} does not match the spatial grid")
    h = grid.h
    k = lam[..., None, None]
    w = carleman_weight(grid.z, k)
    quad = trapezoid_weights(grid.x1.size, h)[:, None] * trapezoid_weights(grid.z.size, h)[None, :]
    lap = second_diff_axis(v, h, 0) + second_diff_axis(v, h, 1)
    lhs = np.sum(quad * w * lap * lap, axis=(-2, -1))
    gx = diff_axis(v, h, 0)
    gz = diff_axis(v, h, 1)
    interior = np.sum(quad * w * (k * (gx * gx + gz * gz) + k**3 * v * v), axis=(-2, -1))
    top = v[:, -1]
    dtop = diff_axis(top, h, 0)
    dn = gz[:, -1]
    wx = trapezoid_weights(grid.x1.size, h)
    w_top = carleman_weight(grid.geometry.slab_top, lam)
    boundary = lam**3 * w_top * float(np.sum(wx * (top * top + dtop * dtop + dn * dn)))
    return lhs, interior, boundary


@dataclass(eq=False)
class CarlemanReport:
    """Per-sample quadratures of an estimate sweep.

    ``table`` rows are (lam, sample, lhs, interior, boundary, ratio), a
    block of ``samples`` rows per exponent in ``LAMBDAS`` order; excluded
    samples (nonpositive denominator) carry a NaN ratio.
    """

    table: np.ndarray
    samples: int
    seed: int

    def rows(self):
        """(lam, min_ratio, used, excluded) per exponent, in sweep order.

        The minimum is over the used samples; it is NaN when none is used.
        """
        out = []
        for block in self.table.reshape(-1, self.samples, 6):
            ratio = block[:, 5]
            used = int(np.count_nonzero(~np.isnan(ratio)))
            out.append((float(block[0, 0]), float(np.fmin.reduce(ratio)), used, ratio.size - used))
        return out


def empirical_carleman_constant(samples, seed, grid):
    """Minimum positive-denominator ratio over smoothed random samples.

    Each sample (drawn from the 'carleman-samples' stream) is evaluated
    at every exponent of ``LAMBDAS``, so the per-exponent minima are
    comparable.  Samples whose denominator is nonpositive prove nothing
    and are excluded with their count reported; an exponent with no
    usable sample raises :class:`DegenerateSampleError`.  The claim worth
    checking downstream is only that the minima stay positive once the
    exponent clears the empirical threshold, which is reported as data.
    """
    if samples < 1:
        raise UsageError("need at least one sample")
    rng = stream(seed, "carleman-samples")
    lams = np.array(LAMBDAS)
    draws = (sample_test_function(grid, rng) for _ in range(samples))
    # each side as a (lam, sample) array
    lhs, interior, boundary = np.array([carleman_sides(u, lams, grid) for u in draws]).transpose(1, 2, 0)
    den = interior - boundary
    ratio = np.divide(lhs, den, out=np.full_like(den, np.nan), where=den > 0.0)
    lam_col, idx_col = np.meshgrid(lams, np.arange(samples), indexing="ij")
    table = np.stack([lam_col, idx_col, lhs, interior, boundary, ratio], axis=-1).reshape(-1, 6)
    report = CarlemanReport(table=table, samples=int(samples), seed=int(seed))
    for lam, _, used, _ in report.rows():
        if not used:
            raise DegenerateSampleError(f"no sample kept a positive denominator at lam = {lam}")
    return report


def sample_in_ball(objective, rng, radius=10.0):
    """Free vector at a uniform data-norm distance from the first guess.

    The perturbation is noise on the free block, smoothed by
    ``BALL_PASSES`` averaging sweeps over the spatial axes; the data norm
    is quadratic, so one exact rescale puts the full pair difference at
    a radius drawn uniformly from (0, ``radius``].
    """
    if radius <= 0:
        raise UsageError("sampling radius must be positive")
    base = objective.initial_guess()
    return _draw_in_ball(objective, rng, radius, base, objective.apply_constraints(base))


def _draw_in_ball(objective, rng, radius, base, p0):
    """:func:`sample_in_ball` around ``base``, the first guess, whose full
    pair ``p0`` a sweep computes once for all its draws."""
    # Both fields' noise in one draw, smoothed together as a trailing axis.
    d = np.moveaxis(rng.standard_normal((2, *objective.free_shape)), 0, -1)
    for _ in range(BALL_PASSES):
        d = smooth_pass(d)
    direction = np.moveaxis(d, -1, 0).ravel()
    p1 = objective.apply_constraints(base + direction)
    s = np.sqrt(objective.s_norm_sq_arrays(p1.p - p0.p, p1.q - p0.q))
    r = radius * (1.0 - rng.random())
    return base + (r / s) * direction


@dataclass(eq=False)
class ConvexityReport:
    """Gap-versus-bound and gradient-variation statistics over couples.

    ``gaps`` holds the forward and reverse Bregman gaps per couple,
    ``bounds`` the shared lower bound, ``lipschitz`` the ratio
    |grad J(v1) - grad J(v2)| / |v1 - v2| on free vectors (reported as
    an empirical constant, never asserted against a specific value).
    """

    gaps: np.ndarray
    bounds: np.ndarray
    lipschitz: np.ndarray
    radius: float
    seed: int

    @property
    def min_margin(self):
        return float(np.min(self.gaps - self.bounds[:, None]))

    @property
    def max_lipschitz(self):
        return float(np.max(self.lipschitz))


def convexity_sweep(objective, count=100, seed=0, radius=10.0):
    """Check gap >= bound over seeded random couples in the sampling ball.

    Each couple (v1, v2) is two independent draws around the first guess.
    Its forward Bregman gap is J(v2) - J(v1) - <grad J(v1), v2 - v1>, its
    reverse gap the same with v1 and v2 swapped, and both share the bound
    gamma * squared data norm of the full pair difference, which is
    symmetric.  The Tikhonov term, being the quadratic form of that norm,
    contributes exactly the bound to each gap, so gap >= bound says the
    weighted residual part is itself convex between the two points.  Draws come from the 'convexity-pairs' stream, so the
    report depends only on (objective, count, seed, radius).
    """
    if count < 1:
        raise UsageError("need at least one couple")
    if radius <= 0:
        raise UsageError("sampling radius must be positive")
    rng = stream(seed, "convexity-pairs")
    base = objective.initial_guess()
    p0 = objective.apply_constraints(base)
    gaps = np.empty((count, 2))
    bounds = np.empty(count)
    lips = np.empty(count)
    for i in range(count):
        f1 = _draw_in_ball(objective, rng, radius, base, p0)
        f2 = _draw_in_ball(objective, rng, radius, base, p0)
        j1, g1 = objective.value_and_grad(f1)
        j2, g2 = objective.value_and_grad(f2)
        d = f2 - f1
        gaps[i, 0] = j2 - j1 - float(g1 @ d)
        gaps[i, 1] = j1 - j2 + float(g2 @ d)
        p1 = objective.apply_constraints(f1)
        p2 = objective.apply_constraints(f2)
        bounds[i] = objective.gamma * objective.s_norm_sq_arrays(p2.p - p1.p, p2.q - p1.q)
        dn = float(np.linalg.norm(d))
        lips[i] = float(np.linalg.norm(g2 - g1)) / dn if dn > 0 else 0.0
    return ConvexityReport(
        gaps=gaps, bounds=bounds, lipschitz=lips, radius=float(radius), seed=int(seed)
    )


def gradient_check(objective, seed=0):
    """Relative errors of difference quotients against the analytic gradient.

    ``GRADIENT_DIRECTIONS`` unit white-noise vectors from the
    'gradient-check' stream, at the first guess x.  Each directional
    derivative is the fourth-order quotient

        (8 [J(x + t d) - J(x - t d)] - [J(x + 2t d) - J(x - 2t d)]) / 12 t

    at t = ``GRADIENT_CHECK_STEP``: round-off in J, magnified by
    near-orthogonal draws (tiny |grad . d|), grows as t shrinks, and the
    O(t^4) truncation error lets t stay large.  Errors are measured against
    max(|analytic derivative|, 1e-12) so such draws cannot divide by zero.
    """
    rng = stream(seed, "gradient-check")
    free = objective.initial_guess()
    _, grad = objective.value_and_grad(free)
    t = GRADIENT_CHECK_STEP
    errors = np.empty(GRADIENT_DIRECTIONS)
    for i in range(GRADIENT_DIRECTIONS):
        d = rng.standard_normal(free.shape)
        d /= np.linalg.norm(d)
        near = objective.value(free + t * d) - objective.value(free - t * d)
        far = objective.value(free + 2.0 * t * d) - objective.value(free - 2.0 * t * d)
        fd = (8.0 * near - far) / (12.0 * t)
        analytic = float(grad @ d)
        errors[i] = abs(fd - analytic) / max(abs(analytic), 1e-12)
    return errors
