"""Empirical probes of the estimates behind the weighted objective.

Convergence of the descent rests on two quadratic-form inequalities whose
constants are existential: a lower bound on the weighted Laplacian energy
of fields vanishing on every face but the top, and strict convexity of
the objective beyond its explicit Tikhonov term.  Neither constant can be
asserted pointwise, so this module measures instead of proving: it draws
smoothed random samples and evaluates both sides of each inequality,
with the ratios and an empirical gradient-variation constant.

Samples and results are plain arrays: :func:`sample_test_function`
returns a stack of (n_x1, n_z) fields, :func:`sample_in_ball` a free
vector of the objective, and the two sweeps return their per-sample
quadratures and per-couple gaps; the caller summarizes and labels them.
Both sweeps draw, smooth and measure their samples a block at a time,
``_BLOCK`` values per block array, so each sample's numpy calls are
shared across its block and memory stays bounded for any sample count;
each sample's numbers are the bits it gets alone.
"""

import numpy as np

from .errors import NumericalError, UsageError
from .geometry import carleman_weight, trapezoid_weights
from .seeding import stream
from .stencils import diff_axis, second_diff_axis, smooth_pass

SAMPLE_PASSES = 5
BALL_PASSES = 2
TOP_MARGIN = 0.2
GRADIENT_CHECK_STEP = 1e-2
GRADIENT_DIRECTIONS = 20
LAMBDAS = (2.0, 5.0, 10.0)  # the estimate probe's weight exponents, ascending
BALL_RADIUS = 10.0  # data-norm radius of the sampling ball around the first guess
# The sweeps' bound on the values in each block array (128 KiB of float64):
# 3 test functions at h = 1/40 (their (lam, sample) sides), 5 couples at
# h = 0.1 (their free vectors).  The sweeps' transient memory grows with
# it: 400 couples and 200 samples grew the resident set by 0.42-0.43 MB at
# this bound and by 0.78 MB at twice it.
_BLOCK = 1 << 14


def sample_test_function(grid, rng, stack=()):
    """Smoothed white noise on the medium rectangle, zeroed where required.

    ``SAMPLE_PASSES`` five-point averaging sweeps bound the discrete second
    derivatives, then the draw is zeroed on the bottom and side faces and
    on a band of height ``TOP_MARGIN`` below the top face.  The band is
    there because a live top trace enters the estimate through the factor
    lam^3 exp(2 lam b^2), which swamps the interior integral for every
    O(1) sample; with the band the trace terms vanish exactly and all
    samples are usable.  A zero margin leaves the top trace live, and the
    samples then exercise the exclusion rule instead.  Returns a
    ``stack + (n_x1, n_z)`` array of independent draws, ``stack`` a shape
    tuple, which consume the stream as that many single draws in C order
    do.
    """
    noise = rng.standard_normal((*stack, grid.x1.size, grid.z.size))
    # The smoothing runs over the first two axes: the stack trails there.
    u = np.ascontiguousarray(np.moveaxis(noise, (-2, -1), (0, 1)))
    for _ in range(SAMPLE_PASSES):
        u = smooth_pass(u)
    u[0] = 0.0
    u[-1] = 0.0
    u[:, 0] = 0.0
    if TOP_MARGIN > 0.0:
        u[:, grid.z >= grid.geometry.slab_top - TOP_MARGIN - 1e-9] = 0.0
    return np.moveaxis(u, (0, 1), (-2, -1))


def carleman_sides(u, lam, grid):
    """The three quadratures of the weighted second-derivative estimate.

    Returns ``(lhs, interior, boundary)`` with weight w = exp(2 lam z^2):

      lhs      = integral of (Lap u)^2 w over the medium,
      interior = integral of (lam |grad u|^2 + lam^3 u^2) w,
      boundary = lam^3 w(b) (top-trace H1 norm^2 + normal-trace L2 norm^2).

    All derivatives are the shared second-order stencils, one-sided at
    the faces; traces are taken along z = b.  ``u`` is one sample or a
    stack of them, shape (..., n_x1, n_z), and each side has the shape
    ``lam.shape + stack``, so an array of exponents shares one set of
    derivatives.  The useful ratio is lhs / (interior - boundary) where
    the denominator is positive, the sign every sample with a strong top
    trace loses.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 1.0):
        raise UsageError("weight exponent must be >= 1 for the estimate probe")
    # C order fixes the summation order of each sample's quadratures.
    v = np.ascontiguousarray(u, dtype=float)
    if v.shape[-2:] != (grid.x1.size, grid.z.size):
        raise UsageError(f"sample shape {v.shape} does not match the spatial grid")
    h = grid.h
    # each exponent against the whole stack
    lam = lam.reshape(lam.shape + (1,) * (v.ndim - 2))
    k = lam[..., None, None]
    w = carleman_weight(grid.z, k)
    wx = trapezoid_weights(grid.x1.size, h)
    quad = wx[:, None] * trapezoid_weights(grid.z.size, h)[None, :]
    lap = second_diff_axis(v, h, -2) + second_diff_axis(v, h, -1)
    lhs = np.sum(quad * w * lap * lap, axis=(-2, -1))
    gx = diff_axis(v, h, -2)
    gz = diff_axis(v, h, -1)
    interior = np.sum(quad * w * (k * (gx * gx + gz * gz) + k**3 * v * v), axis=(-2, -1))
    top = v[..., -1]
    dtop = diff_axis(top, h, -1)
    dn = gz[..., -1]
    w_top = carleman_weight(grid.geometry.slab_top, lam)
    boundary = lam**3 * w_top * np.sum(wx * (top * top + dtop * dtop + dn * dn), axis=-1)
    return lhs, interior, boundary


def empirical_carleman_constant(samples, seed, grid):
    """Estimate sides and ratios over smoothed random samples.

    Each sample (drawn from the 'carleman-samples' stream) is evaluated
    at every exponent of ``LAMBDAS``, so the per-exponent minima are
    comparable.  Returns a (len(LAMBDAS), samples, 4) array whose last
    axis is (lhs, interior, boundary, ratio).  Samples whose denominator
    is nonpositive prove nothing and carry a NaN ratio; an exponent with
    no usable sample raises :class:`NumericalError`.  The claim worth
    checking downstream is only that the minima stay positive once the
    exponent clears the empirical threshold, which is reported as data.
    """
    _check_count(samples, "samples")
    rng = stream(seed, "carleman-samples")
    lams = np.array(LAMBDAS)
    block = max(1, _BLOCK // (lams.size * grid.x1.size * grid.z.size))
    # each side as a (lam, sample) array
    lhs, interior, boundary = np.empty((3, lams.size, samples))
    for start in range(0, samples, block):
        u = sample_test_function(grid, rng, (min(block, samples - start),))
        end = start + len(u)
        lhs[:, start:end], interior[:, start:end], boundary[:, start:end] = carleman_sides(u, lams, grid)
    den = interior - boundary
    ratio = np.divide(lhs, den, out=np.full_like(den, np.nan), where=den > 0.0)
    for lam, row in zip(LAMBDAS, ratio):
        if np.isnan(row).all():
            raise NumericalError(f"no sample kept a positive denominator at lam = {lam}")
    return np.stack([lhs, interior, boundary, ratio], axis=-1)


def _check_count(count, name):
    if not (isinstance(count, (int, np.integer)) and count >= 1):
        raise UsageError(f"{name} must be a positive integer, got {count!r}")


def _check_radius(radius):
    # NaN fails both comparisons.
    if not 0.0 < radius < np.inf:
        raise UsageError(f"sampling radius must be finite and positive, got {radius!r}")


def sample_in_ball(objective, rng, radius=BALL_RADIUS):
    """Free vector at a uniform data-norm distance from the first guess:
    a block of one draw of :func:`_draws_in_ball`, which says how."""
    _check_radius(radius)
    return _draws_in_ball(objective, rng, radius, objective.initial_guess(), 1)[0]


def _draws_in_ball(objective, rng, radius, base, count):
    """``count`` free vectors at uniform data-norm distances from ``base``,
    the first guess.

    Each perturbation is noise on the free block, smoothed by
    ``BALL_PASSES`` averaging sweeps over the spatial axes.  Its data norm,
    that of the full pair difference it makes, is ``free_norm_sq`` of the
    perturbation alone and quadratic, so one exact rescale puts it at a
    radius drawn uniformly from (0, ``radius``].  Per draw the stream
    gives both fields' noise and then the radius, in that order.
    """
    # Each draw fills its own contiguous block; the blocks' axes move once,
    # so both fields of every draw are smoothed together as trailing axes.
    noise = np.empty((count, 2, *objective.free_shape))
    u = np.empty(count)
    for i in range(count):
        rng.standard_normal(out=noise[i])
        u[i] = rng.random()
    d = np.ascontiguousarray(np.moveaxis(noise, (0, 1), (-1, -2)))
    for _ in range(BALL_PASSES):
        d = smooth_pass(d)
    d = np.moveaxis(d, (-1, -2), (0, 1)).reshape(count, -1)
    s = np.sqrt(objective.free_norm_sq(d))
    r = radius * (1.0 - u)
    return base + (r / s)[:, None] * d


def convexity_sweep(objective, count=100, seed=0, radius=BALL_RADIUS):
    """Check gap >= bound over seeded random couples in the sampling ball.

    Each couple (v1, v2) is two independent draws around the first guess.
    Its forward Bregman gap is J(v2) - J(v1) - <grad J(v1), v2 - v1>, its
    reverse gap the same with v1 and v2 swapped, and both share the bound
    gamma * squared data norm of the full pair difference, which is
    symmetric.  The Tikhonov term, being the quadratic form of that norm,
    contributes exactly the bound to each gap, so gap >= bound says the
    weighted residual part is itself convex between the two points.

    Returns a (count, 4) array with columns (gap_forward, gap_reverse,
    bound, gradient_ratio), the last being |grad J(v1) - grad J(v2)| /
    |v1 - v2| on free vectors (an empirical constant, never asserted
    against a specific value).  Draws come from the 'convexity-pairs'
    stream, so the result depends only on (objective, count, seed, radius).
    Couples are drawn and their bounds taken a block at a time; J and its
    gradient are one call per point.
    """
    _check_count(count, "count")
    _check_radius(radius)
    rng = stream(seed, "convexity-pairs")
    base = objective.initial_guess()
    block = max(1, _BLOCK // (2 * objective.n_free))
    out = np.empty((count, 4))
    for start in range(0, count, block):
        m = min(block, count - start)
        f = _draws_in_ball(objective, rng, radius, base, 2 * m)
        out[start : start + m, 2] = objective.gamma * objective.free_norm_sq(f[1::2] - f[0::2])
        for i, (f1, f2) in enumerate(zip(f[0::2], f[1::2]), start):
            j1, g1 = objective.value_and_grad(f1)
            j2, g2 = objective.value_and_grad(f2)
            d = f2 - f1
            out[i, 0] = j2 - j1 - float(g1 @ d)
            out[i, 1] = j1 - j2 + float(g2 @ d)
            dn = float(np.linalg.norm(d))
            out[i, 3] = float(np.linalg.norm(g2 - g1)) / dn if dn > 0 else 0.0
    return out


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
