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
strongly convex on bounded sets, so descent with a backtracking line
search converges from the data-interpolating guess.

The S-norm is defined once, by its Gram matrix per field

    S = (Wx + Kx) (x) Wz (x) Wa + Wx (x) Kz (x) Wa,

W an axis's trapezoid weights and K its first- and second-difference
Gram.  J's penalty is gamma f.Sf for f = (p, q) and its gradient
2 gamma Sf.  The descent takes its gradient in the S inner product (a
Sobolev gradient), inverting S on the free block by fast
diagonalization, and sizes its steps by Barzilai-Borwein in that inner
product; the step count then hardly grows as the grid is refined.

Each point the descent visits costs one residual pass.  The objective
keeps a one-entry memo of the last point evaluated: a copy of its free
vector (compared by content, so changing a vector in place is seen), its
J, the arrays of its residual pass and Sf.  ``value`` and
``value_and_grad`` both go through it, so the gradient at the trial the
line search has just accepted reuses that trial's pass and adds only the
adjoint sweep.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .boundary import face_field
from .errors import NumericalError, UsageError
from .forward import scatter_alpha_derivative_matrix, scatter_matrix
from .geometry import _aligned, direction_tables, trapezoid_weights


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


def check_weights(lam, gamma, epsilon):
    """Refuse a weight exponent, Tikhonov weight or viscosity J cannot use;
    the messages name each value by its config key, as the config does."""
    for key, value in (("lambda", lam), ("gamma", gamma), ("epsilon", epsilon)):
        if not np.isfinite(value):
            raise UsageError(f"{key} must be finite, got {float(value)!r}")
    if lam <= 0:
        raise UsageError("weight exponent lambda must be positive")
    if not 0.0 <= gamma < 1.0:
        raise UsageError("regularization weight gamma must lie in [0, 1)")
    if epsilon <= 0:
        raise UsageError("viscosity epsilon must be positive")


def check_inversion_grid(grid):
    """Refuse a grid too small for the objective's stencils."""
    n1, nz, nk = grid.shape_medium
    if n1 < 3 or nz < 5 or nk < 2:
        raise UsageError(f"grid {grid.shape_medium} too small for the inversion stencils")


def _difference_gram(n, h):
    """K = D1^T D1 / h + h D2^T D2 for n nodes of step h: the first- and
    second-difference part of the S-norm along one axis."""
    d1 = np.diff(np.eye(n), axis=0)
    d2 = np.diff(d1, axis=0)
    return d1.T @ d1 / h + h * (d2.T @ d2)


def _pencil(a, b):
    """Eigenvalues lam, basis V and its inverse V^T diag(b) of the symmetric
    pencil (a, diag(b)): V^T a V = diag(lam) and V^T diag(b) V = I."""
    root = np.sqrt(b)
    lam, vec = np.linalg.eigh(a / root[:, None] / root[None, :])
    return lam, vec / root[:, None], vec.T * root


class CarlemanObjective:
    """J and its exact discrete gradient for one boundary dataset.

    Free unknowns are the interior nodes excluding the eliminated layer,
    packed as one flat vector (p block then q block).  All public methods
    take and return such vectors; ``apply_constraints`` expands one into
    a full :class:`PairField`.

    Internally the pair is one stacked array of shape (2, N), N the number
    of medium nodes in C order, so a neighbor along x1 or z is a flat
    shift by ``nz * nk`` or ``nk``.  Residuals live on the band of x1-rows
    1..n1-2 (every z row); its first and last z rows wrap across x1-rows
    and carry residual weight 0.  The memo keeps Sf, which serves both
    J's penalty f.Sf and its gradient.  The memo and the scratch of an
    evaluation are work arrays allocated once, 64-byte aligned, so the hot
    loop allocates nothing large: no page faults from malloc returning
    freed temporaries to the system, and no unaligned vector stores.
    """

    def __init__(self, data, kernel, mu_s_value=5.0, lam=5.0, gamma=1e-3, epsilon=1e-2):
        check_weights(lam, gamma, epsilon)
        grid = data.grid
        check_inversion_grid(grid)
        n1, nz, nk = grid.shape_medium
        self.grid = grid
        self.mu_s = float(mu_s_value)
        self.lam = float(lam)
        self.gamma = float(gamma)
        self.epsilon = float(epsilon)
        h = grid.h
        n = n1 * nz * nk
        self._sx, self._sz = nz * nk, nk
        band = slice(self._sx, n - self._sx)

        self._smat = scatter_matrix(kernel, grid.alpha, h)
        self._dmat = scatter_alpha_derivative_matrix(kernel, grid.alpha, h)
        nu1, nu2, dnu1, dnu2 = direction_tables(grid)
        # Central-difference coefficients with 1/2h folded in, p row then q row.
        self._cx = np.stack([dnu1.ravel()[band], nu1.ravel()[band]]) / (2.0 * h)
        self._cz = np.stack([dnu2.ravel()[band], nu2.ravel()[band]]) / (2.0 * h)
        self._ce = self.epsilon / (h * h)

        top = grid.geometry.slab_top
        wx, wz, wa = (trapezoid_weights(k, h) for k in (n1, nz, nk))
        zint = grid.z[1:-1]
        self._wres = np.exp(2.0 * self.lam * (zint[:, None] ** 2 - top * top)) * wa[None, :] * (h * h)
        # One x1-row's weights, 0 on the wrapping z rows, for every band row.
        self._wband = np.tile(np.pad(self._wres, ((1, 1), (0, 0))).ravel(), n1 - 2)

        # The S-norm's Gram matrix, (Gx (x) Wz + Wx (x) Gz) (x) Wa per field:
        # Gx = Wx + Kx along x1 and Gz = Kz along z.
        self._gx = np.diag(wx) + _difference_gram(n1, h)
        self._gz = _difference_gram(nz, h)
        self._wzk = (wz[:, None] * wa).ravel()
        self._wxk = wx[:, None, None] * wa

        self._normal2h = 2.0 * h * np.stack([data.g3[1:-1], data.g4[1:-1]])
        self.free_shape = (n1 - 2, nz - 3, nk)
        self.n_free = 2 * int(np.prod(self.free_shape))

        # Its restriction M to the free block, for ``precondition``: per
        # field and abscissa k the block
        #   wa[k] [Gx|free (x) L^T Wz L + Wx|free (x) L^T Gz L],
        # L the lift of the free z rows to the column (the eliminated row is
        # 1/4 of the last free one), so L^T Wz L is diagonal.  Both 1-D
        # pencils are diagonalized once (fast diagonalization); in the pencil
        # coordinates (Vx^-1 (x) Vz^-1) f of a free vector f, M is diagonal.
        lift = np.zeros((nz, nz - 3))
        lift[1 : nz - 2] = np.eye(nz - 3)
        lift[nz - 2, -1] = 0.25
        lamx, self._vx, self._vx_inv = _pencil(self._gx[1:-1, 1:-1], wx[1:-1])
        lamz, self._vz, self._vz_inv = _pencil(lift.T @ self._gz @ lift, (lift * lift).T @ wz)
        self._m_inv = 1.0 / ((lamx[:, None, None] + lamz[:, None]) * wa)

        # Memo: the field and its Sf, its residual r (row 0 R1, row 1 R2) and
        # exp(p), the scattering coefficient and the nonlinear term on the
        # band.  Scratch: the gradient, the S product's z term, and band
        # temporaries.
        nb = n - 2 * self._sx
        self._shape = (2, n1, nz, nk)
        self._w = SimpleNamespace(
            **{k: _aligned(2 * n).reshape(2, n) for k in ("field", "sf", "grad", "zterm")},
            **{k: _aligned(2 * nb).reshape(2, nb) for k in ("r", "a", "b")},
            **{k: _aligned(nb) for k in ("ep", "acoef", "nonlin", "c")},
        )
        # The faces of the work field hold the data for good: evaluations
        # rewrite only the interior nodes.
        field = self._w.field.reshape(self._shape)
        field[0], field[1] = face_field(data.g1, grid), face_field(data.g2, grid)
        self._top3 = 3.0 * field[:, 1:-1, -1]
        self._key = np.empty(self.n_free)
        self._value = None

    @property
    def residual_weights(self):
        """Combined residual weights on interior nodes, all in (0, 1] up to
        the cell measure and quadrature factors."""
        return self._wres.copy()

    def _expand(self, free, f):
        """Complete ``f``, a stacked (2, n1, nz, nk) pair holding the face
        data, with the free block of a free vector and the eliminated layer
        from the one-sided normal-derivative identity at the top."""
        free = np.asarray(free, dtype=float)
        if free.shape != (self.n_free,):
            raise UsageError(f"free vector has shape {free.shape}, want ({self.n_free},)")
        nz = self.grid.z.size
        f[:, 1:-1, 1 : nz - 2] = free.reshape(2, *self.free_shape)
        f[:, 1:-1, nz - 2] = (self._top3 + f[:, 1:-1, nz - 3] - self._normal2h) / 4.0
        return f

    def apply_constraints(self, free):
        """Expand a free vector into the full pair satisfying the Dirichlet
        data and the one-sided normal-derivative identity at the top."""
        # The faces of the work field hold the data; everything else is rewritten.
        f = self._expand(free, self._w.field.reshape(self._shape).copy())
        return PairField(f[0], f[1], self.grid)

    def extract_free(self, pair):
        """Free vector of a pair (drops faces and the eliminated layer)."""
        nz = self.grid.z.size
        return np.stack([pair.p, pair.q])[:, 1:-1, 1 : nz - 2].ravel()

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
        for f in self._w.field.reshape(self._shape):
            sides = (
                (1.0 - tx)[:, None, None] * f[0][None, :, :]
                + tx[:, None, None] * f[-1][None, :, :]
            )
            caps = (
                (1.0 - tz)[None, :, None] * f[:, 0][:, None, :]
                + tz[None, :, None] * f[:, -1][:, None, :]
            )
            guess.append(0.5 * (sides + caps))
        pair = PairField(guess[0], guess[1], g)
        return self.extract_free(pair)

    def _shifted(self, f, shift):
        """View of the band of a stacked (2, N) array moved by ``shift`` nodes."""
        return f[:, self._sx + shift : f.shape[1] - self._sx + shift]

    def _apply_s(self, f, out, scratch):
        """S f for a stacked (2, N) pair, written into ``out``: one matmul
        along x1 and one along z, ``scratch`` holding the z term."""
        n1 = self._shape[1]
        xterm = np.matmul(self._gx, f.reshape(2, n1, -1), out=out.reshape(2, n1, -1))
        xterm *= self._wzk
        zterm = np.matmul(self._gz, f.reshape(self._shape), out=scratch.reshape(self._shape))
        zterm *= self._wxk
        out += scratch
        return out

    def _residuals(self, f):
        """One residual pass over the stacked (2, N) pair ``f``; returns J
        and leaves in the memo arrays what the gradient reuses."""
        w = self._w
        sx, sz = self._sx, self._sz
        xp, xm, zp, zm, core = (self._shifted(f, s) for s in (sx, -sx, sz, -sz, 0))
        slope, lap, r = w.a, w.b, w.r
        np.subtract(xp, xm, out=slope)
        slope *= self._cx
        np.subtract(zp, zm, out=lap)
        lap *= self._cz
        slope += lap
        np.add(xp, xm, out=lap)
        lap += zp
        lap += zm
        lap -= np.multiply(core, 4.0, out=r)
        lap *= self._ce
        rows = np.exp(core[0], out=w.ep).reshape(-1, sz)
        np.matmul(rows, self._smat.T, out=w.acoef.reshape(-1, sz))
        bcoef = np.matmul(rows, self._dmat.T, out=w.c.reshape(-1, sz)).reshape(-1)
        nonlin = np.multiply(core[1], w.acoef, out=w.nonlin)
        nonlin -= bcoef
        nonlin *= np.divide(self.mu_s, w.ep, out=bcoef)
        common = np.add(slope[0], slope[1], out=w.c)
        common += nonlin
        np.subtract(common, lap, out=r)
        jres = np.vdot(np.multiply(self._wband, r, out=slope), r)
        return float(jres + self.gamma * np.vdot(f, self._apply_s(f, w.sf, w.zterm)))

    def _evaluate(self, free):
        """J at ``free``, from the memo when ``free`` is the last point
        evaluated; afterwards the memo arrays hold that point's pass."""
        if self._value is not None and np.array_equal(self._key, free):
            return self._value
        self._value = None
        self._expand(free, self._w.field.reshape(self._shape))
        value = self._residuals(self._w.field)
        self._key[:] = free
        self._value = value
        return value

    def residuals(self, free):
        """Interior residual arrays (R1, R2) of the expanded pair."""
        n1, nz, nk = self.grid.shape_medium
        with np.errstate(all="ignore"):
            self._evaluate(free)
        r = self._w.r.reshape(2, n1 - 2, nz, nk)[:, :, 1:-1]
        return r[0].copy(), r[1].copy()

    def s_norm_sq_arrays(self, p, q):
        """Squared S-norm f.Sf of the pair f = (p, q), the norm of J's
        Tikhonov term: trapezoid L2 plus first forward differences plus
        axis-aligned second differences, per field.

        First differences enter as quotients (a discrete H1 seminorm, the
        part that keeps descent from growing grid-scale oscillations);
        second differences stay undivided so curvature of the genuine
        log field is not penalized ahead of the residual term.  For the
        constant pair p = 1, q = 0 on the default geometry the value is
        the measure of the medium-times-aperture box, exactly 1.  Works
        on the gradient's scratch, so the memo is untouched.
        """
        f = np.stack([np.asarray(p, dtype=float), np.asarray(q, dtype=float)])
        return float(np.vdot(f, self._apply_s(f, self._w.grad, self._w.zterm)))

    def free_norm_sq(self, d):
        """d.Md for free vectors ``d``, shape (..., n_free), M the S-norm's
        Gram matrix on the free block: the squared S-norm of the pair
        difference d makes.  Summed in the pencil coordinates of
        ``precondition``, where M is diagonal; each vector of a stack gets
        the bits it gets alone, and the memo is untouched."""
        d = np.asarray(d, dtype=float)
        stack = d.shape[:-1]
        if d.shape[-1:] != (self.n_free,):
            raise UsageError(f"free vector has shape {d.shape}, want (..., {self.n_free})")
        n = self.free_shape[0]
        y = self._vz_inv @ (self._vx_inv @ d.reshape(*stack, 2, n, -1)).reshape(*stack, 2, *self.free_shape)
        y *= y
        y /= self._m_inv
        return np.sum(y.reshape(*stack, -1), axis=-1)

    def value(self, free):
        """J at ``free``: not finite, and with no warning, where exp(p) under- or overflows."""
        with np.errstate(all="ignore"):
            return self._evaluate(free)

    def precondition(self, grad):
        """M^-1 grad for a free vector ``grad``, M the Gram matrix of the
        S-norm on the free block (half the Hessian of ``s_norm_sq_arrays``
        of the expanded pair): the gradient in the S inner product.  Four
        small matrix products, O(n_free (n1 + nz)); the memo is untouched."""
        grad = np.asarray(grad, dtype=float)
        if grad.shape != (self.n_free,):
            raise UsageError(f"free vector has shape {grad.shape}, want ({self.n_free},)")
        n = self.free_shape[0]
        t = self._vz.T @ (self._vx.T @ grad.reshape(2, n, -1)).reshape(2, *self.free_shape)
        t *= self._m_inv
        return (self._vx @ (self._vz @ t).reshape(2, n, -1)).ravel()

    def value_and_grad(self, free):
        """J and its exact gradient with respect to the free vector.

        The gradient is assembled by scattering the weighted residuals
        back through every stencil (adjoint of the linearized residual),
        then folding the eliminated layer's entries into the last free
        layer with the 1/4 chain factor from the elimination formula.
        Every term carries J's factor 2, which is applied once at the end.
        """
        with np.errstate(all="ignore"):
            value = self._evaluate(free)
            w = self._w
            sx, sz = self._sx, self._sz
            g = np.multiply(w.sf, self.gamma, out=w.grad)

            t = np.multiply(self._wband, w.r, out=w.a)
            tc = np.add(t[0], t[1], out=w.c)
            u, v = t, w.b
            u *= self._ce
            core = self._shifted(g, 0)
            core += np.multiply(u, 4.0, out=v)
            for s, c in ((sx, self._cx), (sz, self._cz)):
                np.multiply(c, tc, out=v)
                ahead, behind = self._shifted(g, s), self._shifted(g, -s)
                ahead += v
                ahead -= u
                behind -= v
                behind -= u
            # u and v are spent; their rows hold the nonlinear term's temporaries.
            x, xq = u
            y, z = v
            np.divide(tc, w.ep, out=x)
            x *= self.mu_s
            core[1] += np.multiply(x, w.acoef, out=y)
            np.multiply(x, self._shifted(w.field, 0)[1], out=xq)
            np.matmul(xq.reshape(-1, sz), self._smat, out=y.reshape(-1, sz))
            y -= np.matmul(x.reshape(-1, sz), self._dmat, out=z.reshape(-1, sz)).reshape(-1)
            y *= w.ep
            y -= np.multiply(tc, w.nonlin, out=z)
            core[0] += y

            nz = self.grid.z.size
            g4 = g.reshape(self._shape)
            g4[:, 1:-1, nz - 3] += 0.25 * g4[:, 1:-1, nz - 2]
            return value, 2.0 * g4[:, 1:-1, 1 : nz - 2].ravel()


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


ARMIJO = 1e-4
SHRINK = 0.5
GROW = 2.0
MAX_BACKTRACKS = 60


def minimize(objective, free0=None, grad_tol=1e-2, max_iters=20000):
    """Descent along the S-norm gradient with Barzilai-Borwein steps and
    Armijo backtracking on the free vector.

    Each iteration moves along d = M^-1 g (``objective.precondition``), the
    gradient g taken in the inner product of the S-norm that J's penalty
    uses, so the step length is measured in S and no longer shrinks with
    the grid.  The first trial step is rho = g.g / g.d, whose first-order
    decrease rho g.d is that of a unit Euclidean gradient step, so the
    first move shrinks with the gradient.  Each later first trial is the
    Barzilai-Borwein step in that inner product, s.Ms / s.y =
    rho g.d / d.(g - g_next) with s and y the last step's changes of the
    iterate and gradient, or ``GROW`` times the last step when the
    curvature d.(g - g_next) is not positive.  Until that proposal first
    comes within ``GROW`` times the last step, the step only grows by
    ``GROW`` (a warm-up).  So a start just above ``grad_tol`` moves a
    little, not one long step: the result is continuous as noisy data
    cross the tolerance.
    A trial is accepted once J falls by at least ``ARMIJO`` times rho g.d;
    rho is multiplied by ``SHRINK`` after each rejected trial, and
    ``MAX_BACKTRACKS`` rejected trials in a row raise
    :class:`NumericalError`.

    Stops when the max-norm of the (Euclidean) gradient drops below
    ``grad_tol`` (``converged`` True) or after ``max_iters`` accepted
    steps.  J is strictly non-increasing along the returned history, whose
    rows are (iteration, J, grad max-norm, step), the step being the
    accepted rho along M^-1 g.  A ``grad_tol`` that is not finite and
    non-negative, or a ``max_iters`` that is not a non-negative integer,
    is a :class:`UsageError`; a start where J or its gradient is not
    finite raises :class:`NumericalError`.

    Every trial costs one ``value`` call; the accepted one's
    ``value_and_grad`` is served from the objective's memo of that trial,
    so each distinct point gets exactly one residual pass.
    """
    if not (np.isfinite(grad_tol) and grad_tol >= 0.0):
        raise UsageError(f"grad_tol must be finite and non-negative, got {grad_tol!r}")
    if not (isinstance(max_iters, (int, np.integer)) and max_iters >= 0):
        raise UsageError(f"max_iters must be a non-negative integer, got {max_iters!r}")
    obj = objective
    free = obj.initial_guess() if free0 is None else np.array(free0, dtype=float)
    jval, grad = obj.value_and_grad(free)
    ginf = float(np.max(np.abs(grad)))
    if not (np.isfinite(jval) and np.isfinite(ginf)):
        raise NumericalError(f"J or its gradient is not finite at the start (J = {jval:.6e}, grad {ginf:.3e})")
    rows = [(0, jval, ginf, 0.0)]
    it = 0
    warming = True
    while ginf >= grad_tol and it < max_iters:
        direction = obj.precondition(grad)
        gd = float(grad @ direction)
        if it == 0:
            rho = float(grad @ grad) / gd
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            trial = free - rho * direction
            jtrial = obj.value(trial)
            if np.isfinite(jtrial) and jtrial <= jval - ARMIJO * rho * gd:
                accepted = True
                break
            rho *= SHRINK
        if not accepted:
            raise NumericalError(f"line search stalled at iteration {it} (J = {jval:.6e}, step {rho:.3e})")
        free = trial
        jval, new_grad = obj.value_and_grad(free)
        ginf = float(np.max(np.abs(new_grad)))
        it += 1
        rows.append((it, jval, ginf, rho))
        curvature = float(direction @ (grad - new_grad))
        step = rho * gd / curvature if curvature > 0.0 else rho * GROW
        warming = warming and step > GROW * rho
        rho = GROW * rho if warming else step
        grad = new_grad
    return InversionState(
        free=free,
        pair=obj.apply_constraints(free),
        value=jval,
        grad_norm=ginf,
        iterations=it,
        history=np.array(rows),
        converged=bool(ginf < grad_tol),
    )
