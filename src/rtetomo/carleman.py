"""Empirical probes of the estimates behind the weighted objective.

Convergence of the descent rests on two quadratic-form inequalities whose
constants are existential: a lower bound on the weighted Laplacian energy
of fields vanishing on every face but the top, and strict convexity of
the objective beyond its explicit Tikhonov term.  Neither constant can be
asserted pointwise, so this module measures instead of proving: it draws
smoothed random samples, evaluates both sides of each inequality, and
reports ratios, margins, and an empirical gradient-variation constant.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, UsageError
from .geometry import Geometry, GridSet, carleman_weight, trapezoid_weights
from .seeding import stream
from .stencils import diff_axis, onesided_first_end, second_diff_axis, smooth_pass

SAMPLE_PASSES = 5
BALL_PASSES = 2
GRADIENT_CHECK_STEP = 1e-2


@dataclass(eq=False)
class TestFunctionSample:
    """A spatial field vanishing on the bottom and side faces.

    ``values`` has shape (n_x1, n_z); ``seed`` records the run seed when
    the sample came from a named stream.
    """

    values: np.ndarray
    seed: "int | None" = None

    def __post_init__(self):
        v = self.values
        if v.ndim != 2 or min(v.shape) < 4:
            raise UsageError("test function must be a 2D spatial array, >= 4 nodes per axis")
        if np.any(v[0] != 0.0) or np.any(v[-1] != 0.0) or np.any(v[:, 0] != 0.0):
            raise UsageError("test function must vanish on the bottom and side faces")


def sample_test_function(grid, rng, top_margin=0.2, seed=None):
    """Smoothed white noise on the medium rectangle, zeroed where required.

    ``SAMPLE_PASSES`` five-point averaging sweeps bound the discrete second
    derivatives, then the draw is zeroed on the bottom and side faces and
    on a band of height ``top_margin`` below the top face.  The band is
    there because a live top trace enters the estimate through the factor
    lam^3 exp(2 lam b^2), which swamps the interior integral for every
    O(1) sample; with the default margin the trace terms vanish exactly
    and all samples are usable.  Pass ``top_margin=0`` to draw samples
    with live traces (they exercise the exclusion rule instead).
    """
    u = rng.standard_normal((grid.x1.size, grid.z.size))
    for _ in range(SAMPLE_PASSES):
        u = smooth_pass(u)
    u[0, :] = 0.0
    u[-1, :] = 0.0
    u[:, 0] = 0.0
    if top_margin > 0.0:
        cut = grid.geometry.slab_top - float(top_margin)
        u[:, grid.z >= cut - 1e-9] = 0.0
    return TestFunctionSample(values=u, seed=seed)


def carleman_sides(u, lam, grid):
    """The three quadratures of the weighted second-derivative estimate.

    Returns ``(lhs, interior, boundary)`` with weight w = exp(2 lam z^2):

      lhs      = integral of (Lap u)^2 w over the medium,
      interior = integral of (lam |grad u|^2 + lam^3 u^2) w,
      boundary = lam^3 w(b) (top-trace H1 norm^2 + normal-trace L2 norm^2).

    All derivatives are the shared second-order stencils, one-sided at
    the faces; traces are taken along z = b.  The useful ratio is
    lhs / (interior - boundary) where the denominator is positive, the
    sign every sample with a strong top trace loses.
    """
    if lam < 1.0:
        raise UsageError("weight exponent must be >= 1 for the estimate probe")
    v = np.asarray(getattr(u, "values", u), dtype=float)
    if v.shape != (grid.x1.size, grid.z.size):
        raise UsageError(f"sample shape {v.shape} does not match the spatial grid")
    h = grid.h
    w = carleman_weight(grid.z, lam)[None, :]
    quad = trapezoid_weights(grid.x1.size, h)[:, None] * trapezoid_weights(grid.z.size, h)[None, :]
    lap = second_diff_axis(v, h, 0) + second_diff_axis(v, h, 1)
    lhs = float(np.sum(quad * w * lap * lap))
    gx = diff_axis(v, h, 0)
    gz = diff_axis(v, h, 1)
    interior = float(np.sum(quad * w * (lam * (gx * gx + gz * gz) + lam**3 * v * v)))
    top = v[:, -1]
    dtop = diff_axis(top, h, 0)
    dn = onesided_first_end(v, h, 1)
    wx = trapezoid_weights(grid.x1.size, h)
    w_top = float(carleman_weight(grid.geometry.slab_top, lam))
    boundary = lam**3 * w_top * float(np.sum(wx * (top * top + dtop * dtop + dn * dn)))
    return lhs, interior, boundary


@dataclass(eq=False)
class CarlemanReport:
    """Minimum lhs / (interior - boundary) ratios over a sample sweep.

    ``table`` rows are (lam, sample, lhs, interior, boundary, ratio);
    excluded samples (nonpositive denominator) carry a NaN ratio.  The
    per-exponent dicts are keyed by the float exponents in sweep order.
    """

    lambdas: tuple
    min_ratio: dict
    used: dict
    excluded: dict
    table: np.ndarray
    samples: int
    seed: int

    def rows(self):
        """(lam, min_ratio, used, excluded) per exponent, for reports."""
        return [
            (lam, self.min_ratio[lam], self.used[lam], self.excluded[lam])
            for lam in self.lambdas
        ]


def empirical_carleman_constant(samples, lambda_list, seed, grid=None, top_margin=0.2):
    """Minimum positive-denominator ratio over smoothed random samples.

    The same sample set (drawn once from the 'carleman-samples' stream)
    is evaluated at every exponent, so the per-exponent minima are
    comparable.  Samples whose denominator is nonpositive prove nothing
    and are excluded with their count reported; an exponent with no
    usable sample raises :class:`DegenerateSampleError`.  The claim worth
    checking downstream is only that the minima stay positive once the
    exponent clears the empirical threshold, which is reported as data.
    """
    lams = [float(lam) for lam in lambda_list]
    if not lams:
        raise UsageError("need at least one weight exponent")
    if any(lam < 1.0 for lam in lams):
        raise UsageError("all weight exponents must be >= 1")
    if lams != sorted(lams):
        raise UsageError("weight exponents must be ascending")
    if samples < 1:
        raise UsageError("need at least one sample")
    if grid is None:
        grid = GridSet.uniform(Geometry(), 1.0 / 40.0)
    rng = stream(seed, "carleman-samples")
    draws = [
        sample_test_function(grid, rng, top_margin=top_margin, seed=seed)
        for _ in range(samples)
    ]
    rows = []
    min_ratio, used, excluded = {}, {}, {}
    for lam in lams:
        ratios = []
        for idx, draw in enumerate(draws):
            lhs, interior, boundary = carleman_sides(draw, lam, grid)
            den = interior - boundary
            ratio = lhs / den if den > 0.0 else np.nan
            rows.append((lam, idx, lhs, interior, boundary, ratio))
            if den > 0.0:
                ratios.append(ratio)
        if not ratios:
            raise DegenerateSampleError(f"no sample kept a positive denominator at lam = {lam}")
        min_ratio[lam] = float(min(ratios))
        used[lam] = len(ratios)
        excluded[lam] = samples - len(ratios)
    return CarlemanReport(
        lambdas=tuple(lams),
        min_ratio=min_ratio,
        used=used,
        excluded=excluded,
        table=np.array(rows),
        samples=int(samples),
        seed=int(seed),
    )


def _free_vector(objective, v):
    """Free coordinates of ``v`` (a PairField or an already-free vector),
    checking PairFields against the objective's boundary constraints."""
    if isinstance(v, np.ndarray):
        return np.asarray(v, dtype=float)
    free = objective.extract_free(v)
    rebuilt = objective.apply_constraints(free)
    drift = max(
        float(np.max(np.abs(rebuilt.p - v.p))),
        float(np.max(np.abs(rebuilt.q - v.q))),
    )
    if drift > 1e-10:
        raise UsageError("pair does not satisfy the objective's boundary data")
    return free


def convexity_gap(objective, v1, v2):
    """Bregman gap of the objective between two admissible points.

    Returns ``(gap, bound)`` with gap = J(v2) - J(v1) - <grad J(v1), d>
    and bound = gamma * squared data norm of the full pair difference.
    The Tikhonov term, being the quadratic form of that norm, contributes
    exactly ``bound`` to ``gap``, so gap >= bound says the weighted
    residual part is itself convex between the two points.
    """
    f1 = _free_vector(objective, v1)
    f2 = _free_vector(objective, v2)
    j1, g1 = objective.value_and_grad(f1)
    j2 = objective.value(f2)
    gap = j2 - j1 - float(g1 @ (f2 - f1))
    p1 = objective.apply_constraints(f1)
    p2 = objective.apply_constraints(f2)
    bound = objective.gamma * objective.s_norm_sq_arrays(p2.p - p1.p, p2.q - p1.q)
    return float(gap), float(bound)


def sample_in_ball(objective, rng, radius=10.0):
    """Free vector at a uniform data-norm distance from the first guess.

    The perturbation is noise on the free block, smoothed by
    ``BALL_PASSES`` averaging sweeps per abscissa; the data norm
    is quadratic, so one exact rescale puts the full pair difference at
    a radius drawn uniformly from (0, ``radius``].
    """
    if radius <= 0:
        raise UsageError("sampling radius must be positive")
    base = objective.initial_guess()
    blocks = []
    for _ in range(2):
        d = rng.standard_normal(objective.free_shape)
        for _ in range(BALL_PASSES):
            for k in range(d.shape[2]):
                d[:, :, k] = smooth_pass(d[:, :, k])
        blocks.append(d.ravel())
    direction = np.concatenate(blocks)
    p0 = objective.apply_constraints(base)
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

    Each couple is two independent draws around the first guess; both
    Bregman gaps share one bound because the data norm of the difference
    is symmetric.  Draws come from the 'convexity-pairs' stream, so the
    report depends only on (objective, count, seed, radius).
    """
    if count < 1:
        raise UsageError("need at least one couple")
    rng = stream(seed, "convexity-pairs")
    gaps = np.empty((count, 2))
    bounds = np.empty(count)
    lips = np.empty(count)
    for i in range(count):
        f1 = sample_in_ball(objective, rng, radius)
        f2 = sample_in_ball(objective, rng, radius)
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


def gradient_check(objective, directions=20, seed=0):
    """Relative errors of difference quotients against the analytic gradient.

    Directions are unit white-noise vectors from the 'gradient-check'
    stream, evaluated at the first guess x.  Each directional derivative is
    the fourth-order quotient

        (8 [J(x + t d) - J(x - t d)] - [J(x + 2t d) - J(x - 2t d)]) / 12 t

    at t = ``GRADIENT_CHECK_STEP``: round-off in J, magnified by
    near-orthogonal draws (tiny |grad . d|), grows as t shrinks, and the
    O(t^4) truncation error lets t stay large.  Errors are measured against
    max(|analytic derivative|, 1e-12) so such draws cannot divide by zero.
    """
    if directions < 1:
        raise UsageError("need at least one direction")
    rng = stream(seed, "gradient-check")
    free = objective.initial_guess()
    _, grad = objective.value_and_grad(free)
    t = GRADIENT_CHECK_STEP
    errors = np.empty(directions)
    for i in range(directions):
        d = rng.standard_normal(free.shape)
        d /= np.linalg.norm(d)
        near = objective.value(free + t * d) - objective.value(free - t * d)
        far = objective.value(free + 2.0 * t * d) - objective.value(free - 2.0 * t * d)
        fd = (8.0 * near - far) / (12.0 * t)
        analytic = float(grad @ d)
        errors[i] = abs(fd - analytic) / max(abs(analytic), 1e-12)
    return errors
