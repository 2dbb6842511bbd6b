"""Weighted least-squares inversion of the log-radiance pair.

Writing p = ln u and q = d_alpha p turns the transport equation into a
first-order system in (p, q) whose coefficients no longer contain the
unknown attenuation.  Discretizing with central differences, adding a
small viscosity -eps * Laplacian, and weighting the squared residuals
with exp(2 lam z^2) (normalized by its top-face maximum so every weight
lies in (0, 1]) gives the objective

    J(p, q) = sum_interior w(z, alpha) (R1^2 + R2^2) + gamma |(p, q)|_S^2,

minimized over the affine set fixed by the boundary data: Dirichlet
values on all four faces and, on the layer below the top face, the
one-sided normal-derivative identity, which eliminates that layer in
favor of the last free one.  For lam large enough the weight makes J
strongly convex on bounded sets, so plain gradient descent with a
backtracking line search converges from the data-interpolating guess.
"""

from dataclasses import dataclass

import numpy as np

from .errors import StagnationError, UsageError
from .forward import scatter_alpha_derivative_matrix, scatter_matrix
from .geometry import direction_tables, trapezoid_weights
from .stencils import central_scatter, laplacian_interior, laplacian_scatter


@dataclass(eq=False)
class PairField:
    """The log field p and its source-abscissa derivative q on the medium grid."""

    p: np.ndarray
    q: np.ndarray
    grid: "GridSet"

    def __post_init__(self):
        want = self.grid.shape_medium
        if self.p.shape != want or self.q.shape != want:
            raise UsageError(f"pair shapes {self.p.shape}/{self.q.shape} do not match grid {want}")


class CarlemanObjective:
    """J and its exact discrete gradient for one boundary dataset.

    Free unknowns are the interior nodes excluding the eliminated layer,
    packed as one flat vector (p block then q block).  All public methods
    take and return such vectors; ``apply_constraints`` expands one into
    a full :class:`PairField`.
    """

    def __init__(self, data, kernel, mu_s_value=5.0, lam=5.0, gamma=1e-3, epsilon=1e-2):
        if lam <= 0:
            raise UsageError("weight exponent lam must be positive")
        if not 0.0 <= gamma < 1.0:
            raise UsageError("regularization weight gamma must lie in [0, 1)")
        if epsilon <= 0:
            raise UsageError("viscosity epsilon must be positive")
        grid = data.grid
        n1, nz, nk = grid.shape_medium
        if n1 < 3 or nz < 5 or nk < 2:
            raise UsageError(f"grid {grid.shape_medium} too small for the inversion stencils")
        self.data = data
        self.grid = grid
        self.kernel = kernel
        self.mu_s = float(mu_s_value)
        self.lam = float(lam)
        self.gamma = float(gamma)
        self.epsilon = float(epsilon)

        self._smat = scatter_matrix(kernel, grid.alpha, grid.h)
        self._dmat = scatter_alpha_derivative_matrix(kernel, grid.alpha, grid.h)
        nu1, nu2, dnu1, dnu2 = direction_tables(grid)
        core = (slice(1, -1), slice(1, -1))
        self._nu1 = np.ascontiguousarray(nu1[core])
        self._nu2 = np.ascontiguousarray(nu2[core])
        self._dnu1 = np.ascontiguousarray(dnu1[core])
        self._dnu2 = np.ascontiguousarray(dnu2[core])

        top = grid.geometry.slab_top
        wa = trapezoid_weights(nk, grid.h)
        zint = grid.z[1:-1]
        self._wres = (
            np.exp(2.0 * self.lam * (zint[:, None] ** 2 - top * top))
            * wa[None, :]
            * (grid.h * grid.h)
        )
        self._wres3 = self._wres[None, :, :]

        self._wx = trapezoid_weights(n1, grid.h)
        self._wz = trapezoid_weights(nz, grid.h)
        self._wa = wa
        self._wxyz = self._wx[:, None, None] * self._wz[None, :, None] * self._wa[None, None, :]
        self._wzk = self._wz[None, :, None] * self._wa[None, None, :]
        self._wxk = self._wx[:, None, None] * self._wa[None, None, :]

        self._p_faces = {
            "bottom": data.g1["bottom"],
            "top": data.g1["top"],
            "left": data.full_side("g1", "left"),
            "right": data.full_side("g1", "right"),
        }
        self._q_faces = {
            "bottom": data.g2["bottom"],
            "top": data.g2["top"],
            "left": data.full_side("g2", "left"),
            "right": data.full_side("g2", "right"),
        }
        self.free_shape = (n1 - 2, nz - 3, nk)
        self.n_free_field = int(np.prod(self.free_shape))
        self.n_free = 2 * self.n_free_field

    @property
    def residual_weights(self):
        """Combined residual weights on interior nodes, all in (0, 1] up to
        the cell measure and quadrature factors."""
        return self._wres.copy()

    def _split(self, free):
        free = np.asarray(free, dtype=float)
        if free.shape != (self.n_free,):
            raise UsageError(f"free vector has shape {free.shape}, want ({self.n_free},)")
        fp = free[: self.n_free_field].reshape(self.free_shape)
        fq = free[self.n_free_field :].reshape(self.free_shape)
        return fp, fq

    def _assemble(self, free_block, faces, top_normal):
        n1, nz, nk = self.grid.shape_medium
        h = self.grid.h
        f = np.empty((n1, nz, nk))
        f[:, 0, :] = faces["bottom"]
        f[:, -1, :] = faces["top"]
        f[0] = faces["left"]
        f[-1] = faces["right"]
        f[1:-1, 1 : nz - 2, :] = free_block
        f[1:-1, nz - 2, :] = (
            3.0 * faces["top"][1:-1] + f[1:-1, nz - 3, :] - 2.0 * h * top_normal[1:-1]
        ) / 4.0
        return f

    def apply_constraints(self, free):
        """Expand a free vector into the full pair satisfying the Dirichlet
        data and the one-sided normal-derivative identity at the top."""
        fp, fq = self._split(free)
        p = self._assemble(fp, self._p_faces, self.data.g3)
        q = self._assemble(fq, self._q_faces, self.data.g4)
        return PairField(p, q, self.grid)

    def extract_free(self, pair):
        """Free vector of a pair (drops faces and the eliminated layer)."""
        nz = self.grid.z.size
        return np.concatenate(
            [pair.p[1:-1, 1 : nz - 2, :].ravel(), pair.q[1:-1, 1 : nz - 2, :].ravel()]
        )

    def initial_guess(self):
        """Free vector of the data-interpolating first guess.

        Each field is the average of linear interpolations of its side
        faces (in x1) and its bottom/top faces (in z), then projected onto
        the constraint set; only boundary data enter.
        """
        g = self.grid
        geom = g.geometry
        tx = (g.x1 - (-geom.half_width)) / (2.0 * geom.half_width)
        tz = (g.z - geom.slab_bottom) / (geom.slab_top - geom.slab_bottom)
        guess = []
        for faces in (self._p_faces, self._q_faces):
            sides = (
                (1.0 - tx)[:, None, None] * faces["left"][None, :, :]
                + tx[:, None, None] * faces["right"][None, :, :]
            )
            caps = (
                (1.0 - tz)[None, :, None] * faces["bottom"][:, None, :]
                + tz[None, :, None] * faces["top"][:, None, :]
            )
            guess.append(0.5 * (sides + caps))
        pair = PairField(guess[0], guess[1], g)
        return self.extract_free(pair)

    def _residuals(self, p, q):
        g = self.grid
        h = g.h
        lap_p = laplacian_interior(p, h)
        lap_q = laplacian_interior(q, h)
        dq1 = (q[2:, 1:-1] - q[:-2, 1:-1]) / (2.0 * h)
        dqz = (q[1:-1, 2:] - q[1:-1, :-2]) / (2.0 * h)
        dp1 = (p[2:, 1:-1] - p[:-2, 1:-1]) / (2.0 * h)
        dpz = (p[1:-1, 2:] - p[1:-1, :-2]) / (2.0 * h)
        ep = np.exp(p)
        acoef = ep @ self._smat.T
        bcoef = ep @ self._dmat.T
        em = np.exp(-p[1:-1, 1:-1])
        q_int = q[1:-1, 1:-1]
        nonlin = self.mu_s * em * (q_int * acoef[1:-1, 1:-1] - bcoef[1:-1, 1:-1])
        common = (
            self._nu1 * dq1 + self._nu2 * dqz + self._dnu1 * dp1 + self._dnu2 * dpz + nonlin
        )
        r1 = common - self.epsilon * lap_p
        r2 = common - self.epsilon * lap_q
        cache = {
            "ep": ep, "acoef": acoef, "em": em, "q_int": q_int, "nonlin": nonlin,
        }
        return r1, r2, cache

    def residuals(self, free):
        """Interior residual arrays (R1, R2) of the expanded pair."""
        pair = self.apply_constraints(free)
        r1, r2, _ = self._residuals(pair.p, pair.q)
        return r1, r2

    def s_norm_sq_arrays(self, p, q):
        """Squared data-fit norm: trapezoid L2 plus first forward
        differences plus axis-aligned second differences, per field.

        First differences enter as quotients (a discrete H1 seminorm, the
        part that keeps descent from growing grid-scale oscillations);
        second differences stay undivided so curvature of the genuine
        log field is not penalized ahead of the residual term.  For the
        constant pair p = 1, q = 0 on the default geometry the value is
        the measure of the medium-times-aperture box, exactly 1.
        """
        g = self.grid
        h = g.h
        total = 0.0
        for f in (p, q):
            total += np.einsum("i,j,k,ijk->", self._wx, self._wz, self._wa, f * f)
            d = np.diff(f, axis=0) / h
            total += h * np.einsum("j,k,ijk->", self._wz, self._wa, d * d)
            d = np.diff(f, axis=1) / h
            total += h * np.einsum("i,k,ijk->", self._wx, self._wa, d * d)
            d = f[2:] - 2.0 * f[1:-1] + f[:-2]
            total += h * np.einsum("j,k,ijk->", self._wz, self._wa, d * d)
            d = f[:, 2:] - 2.0 * f[:, 1:-1] + f[:, :-2]
            total += h * np.einsum("i,k,ijk->", self._wx, self._wa, d * d)
        return float(total)

    def _snorm_grad_into(self, f, out, scale):
        g = self.grid
        h = g.h
        out += (2.0 * scale) * self._wxyz * f
        d = np.diff(f, axis=0) / h
        t = (2.0 * scale) * self._wzk * d
        out[1:] += t
        out[:-1] -= t
        d = np.diff(f, axis=1) / h
        t = (2.0 * scale) * self._wxk * d
        out[:, 1:] += t
        out[:, :-1] -= t
        d = f[2:] - 2.0 * f[1:-1] + f[:-2]
        t = (2.0 * scale * h) * self._wzk * d
        out[2:] += t
        out[1:-1] -= 2.0 * t
        out[:-2] += t
        d = f[:, 2:] - 2.0 * f[:, 1:-1] + f[:, :-2]
        t = (2.0 * scale * h) * self._wxk * d
        out[:, 2:] += t
        out[:, 1:-1] -= 2.0 * t
        out[:, :-2] += t

    def value(self, free):
        pair = self.apply_constraints(free)
        r1, r2, _ = self._residuals(pair.p, pair.q)
        jres = np.einsum("ijk,jk->", r1 * r1 + r2 * r2, self._wres)
        return float(jres + self.gamma * self.s_norm_sq_arrays(pair.p, pair.q))

    def value_and_grad(self, free):
        """J and its exact gradient with respect to the free vector.

        The gradient is assembled by scattering the weighted residuals
        back through every stencil (adjoint of the linearized residual),
        then folding the eliminated layer's entries into the last free
        layer with the 1/4 chain factor from the elimination formula.
        """
        pair = self.apply_constraints(free)
        p, q = pair.p, pair.q
        g = self.grid
        h = g.h
        r1, r2, cache = self._residuals(p, q)
        jres = np.einsum("ijk,jk->", r1 * r1 + r2 * r2, self._wres)
        jval = jres + self.gamma * self.s_norm_sq_arrays(p, q)

        w1 = 2.0 * self._wres3 * r1
        w2 = 2.0 * self._wres3 * r2
        wc = w1 + w2
        gp = np.zeros_like(p)
        gq = np.zeros_like(q)

        tmp = np.zeros_like(p)
        laplacian_scatter(w1, h, tmp)
        gp -= self.epsilon * tmp
        tmp[:] = 0.0
        laplacian_scatter(w2, h, tmp)
        gq -= self.epsilon * tmp

        central_scatter(self._nu1 * wc, h, 0, gq)
        central_scatter(self._nu2 * wc, h, 1, gq)
        central_scatter(self._dnu1 * wc, h, 0, gp)
        central_scatter(self._dnu2 * wc, h, 1, gp)

        em = cache["em"]
        acoef = cache["acoef"]
        gq[1:-1, 1:-1] += wc * em * self.mu_s * acoef[1:-1, 1:-1]
        gp[1:-1, 1:-1] -= wc * cache["nonlin"]
        x = wc * em
        y = (x * cache["q_int"]) @ self._smat - x @ self._dmat
        gp[1:-1, 1:-1] += self.mu_s * cache["ep"][1:-1, 1:-1] * y

        self._snorm_grad_into(p, gp, self.gamma)
        self._snorm_grad_into(q, gq, self.gamma)

        nz = g.z.size
        packed = []
        for grad in (gp, gq):
            grad[1:-1, nz - 3, :] += 0.25 * grad[1:-1, nz - 2, :]
            packed.append(grad[1:-1, 1 : nz - 2, :].ravel())
        return float(jval), np.concatenate(packed)


@dataclass(eq=False)
class InversionState:
    """Result of :func:`minimize`: final iterate, diagnostics, history."""

    free: np.ndarray
    pair: PairField
    value: float
    grad_norm: float
    iterations: int
    history: np.ndarray
    converged: bool


STEP_INIT = 1.0
ARMIJO = 1e-4
SHRINK = 0.5
GROW = 2.0
MAX_BACKTRACKS = 60


def minimize(objective, free0=None, grad_tol=1e-2, max_iters=20000):
    """Gradient descent with Armijo backtracking on the free vector.

    Stops when the max-norm of the gradient drops below ``grad_tol``
    (``converged`` True) or after ``max_iters`` accepted steps.  The first
    trial step is ``STEP_INIT``; a trial is accepted once J falls by at least
    ``ARMIJO`` times the step times |grad|^2.  The step is multiplied by
    ``SHRINK`` after each rejected trial and by ``GROW`` after each accepted
    iteration, so the schedule adapts without tuning; ``MAX_BACKTRACKS``
    rejected trials in a row raise :class:`StagnationError`.  J is strictly
    non-increasing along the returned history, whose rows are (iteration,
    J, grad max-norm, step).
    """
    obj = objective
    free = obj.initial_guess() if free0 is None else np.array(free0, dtype=float)
    jval, grad = obj.value_and_grad(free)
    ginf = float(np.max(np.abs(grad)))
    rho = STEP_INIT
    rows = [(0, jval, ginf, 0.0)]
    it = 0
    while ginf >= grad_tol and it < max_iters:
        gsq = float(grad @ grad)
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            trial = free - rho * grad
            jtrial = obj.value(trial)
            if np.isfinite(jtrial) and jtrial <= jval - ARMIJO * rho * gsq:
                accepted = True
                break
            rho *= SHRINK
        if not accepted:
            raise StagnationError(
                f"line search stalled at iteration {it} (J = {jval:.6e}, step {rho:.3e})"
            )
        free = trial
        jval, grad = obj.value_and_grad(free)
        ginf = float(np.max(np.abs(grad)))
        it += 1
        rows.append((it, jval, ginf, rho))
        rho *= GROW
    return InversionState(
        free=free,
        pair=obj.apply_constraints(free),
        value=jval,
        grad_norm=ginf,
        iterations=it,
        history=np.array(rows),
        converged=bool(ginf < grad_tol),
    )
