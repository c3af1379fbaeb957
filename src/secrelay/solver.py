"""In-house solver for smooth convex programs.

Replaces the off-the-shelf convex-programming call of the outer
algorithms with a primal-dual interior-point method: damped Newton steps
on the perturbed KKT system, barrier parameter reduced geometrically,
fraction-to-boundary rule on the multipliers.  Infeasible starts go
through a phase-I that minimizes the maximum constraint violation with
the same machinery.

Problems are stated in minimize convention:

    min f(x)  s.t.  g_k(x) <= 0,  lb <= x <= ub.

Constraints are supplied in vectorized blocks (value, Jacobian and a
weighted-Hessian-sum callback) so structured subproblems stay cheap.
Finite bounds never become Jacobian rows: they enter the Newton matrix
as a diagonal term and the residuals as a scatter.  Each Newton point is
evaluated once: the gradient, Jacobian and constraint values of the
accepted line-search trial are carried into the next step and into the
optimality checks.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg

from ._blas import one_thread

Array = np.ndarray

# A stall (the line search or the factorization gives up) whose
# unperturbed KKT residual is within this factor of ``tol`` counts as
# optimal.  Near the noise floor of the dense Newton system, rounding
# (down to the BLAS summation order) decides whether the last step is
# found, so the status must not hinge on it.  Any other stall is a
# numerical failure.
STALL_TOL_FACTOR = 10.0


@dataclass
class ConstraintBlock:
    """A vector inequality g(x) <= 0 with m components.

    hess_weighted(x, w) must return sum_k w[k] * hessian(g_k)(x) as a
    dense (dim, dim) matrix.  Affine blocks may pass hess_weighted=None.
    """

    m: int
    value: Callable[[Array], Array]
    jacobian: Callable[[Array], Array]
    hess_weighted: Optional[Callable[[Array, Array], Array]] = None
    name: str = ""


def scalar_ineq(value: Callable[[Array], float],
                grad: Callable[[Array], Array],
                hess: Optional[Callable[[Array], Array]] = None,
                name: str = "") -> ConstraintBlock:
    """Wrap a single scalar constraint g(x) <= 0 as a block."""
    hw = None
    if hess is not None:
        hw = lambda x, w: w[0] * hess(x)
    return ConstraintBlock(
        m=1,
        value=lambda x: np.atleast_1d(np.asarray(value(x), dtype=float)),
        jacobian=lambda x: np.asarray(grad(x), dtype=float).reshape(1, -1),
        hess_weighted=hw,
        name=name,
    )


@dataclass
class SmoothConvexProgram:
    dim: int
    objective: Callable[[Array], float]
    gradient: Callable[[Array], Array]
    hessian: Optional[Callable[[Array], Array]] = None
    ineqs: Sequence[ConstraintBlock] = field(default_factory=list)
    lb: Optional[Array] = None
    ub: Optional[Array] = None
    strictly_feasible_start: Optional[Array] = None


@dataclass
class SolverOptions:
    tol: float = 1e-6
    max_iter: int = 400
    mu_factor: float = 0.2
    frac_to_boundary: float = 0.995
    inner_max: int = 40
    feas_tol: float = 1e-9


@dataclass
class SolverResult:
    x_opt: Array
    duals: Array                 # multipliers for prog.ineqs, concatenated
    bound_duals: Array           # multipliers for the internal bound block
    # optimal | max_iter | infeasible | numerical_failure.  optimal means
    # kkt_residual <= tol, or <= STALL_TOL_FACTOR * tol when Newton stalled.
    status: str
    kkt_residual: float
    iterations: int
    objective_value: float
    objective_history: list[float] = field(default_factory=list)


class _Blocks:
    """Program inequalities plus bounds, flattened into one stack.

    The stack is [program rows; lb_i - x_i; x_j - ub_j] <= 0 over the
    finite bounds.  ``jacobian`` returns the program rows only; ``jt``,
    ``jv`` and ``jt_diag_j`` apply the full stack, the bound rows
    (-e_i and +e_j) added implicitly.
    """

    def __init__(self, prog: SmoothConvexProgram):
        self.prog = prog
        self.blocks = list(prog.ineqs)
        self.n_ineq = sum(b.m for b in prog.ineqs)
        lb = prog.lb if prog.lb is not None else np.full(prog.dim, -np.inf)
        ub = prog.ub if prog.ub is not None else np.full(prog.dim, np.inf)
        lb = np.asarray(lb, dtype=float)
        ub = np.asarray(ub, dtype=float)
        self.lb_idx = np.flatnonzero(np.isfinite(lb))
        self.ub_idx = np.flatnonzero(np.isfinite(ub))
        self.lb = lb
        self.ub = ub
        self.n_lb = self.n_ineq + self.lb_idx.size   # end of the lb rows
        self.m = self.n_lb + self.ub_idx.size

    def value(self, x: Array) -> Array:
        parts = [b.value(x) for b in self.blocks]
        parts.append(self.lb[self.lb_idx] - x[self.lb_idx])
        parts.append(x[self.ub_idx] - self.ub[self.ub_idx])
        return np.concatenate(parts) if parts else np.zeros(0)

    def jacobian(self, x: Array) -> Array:
        """Jacobian of the program rows, (n_ineq, dim)."""
        J = np.zeros((self.n_ineq, self.prog.dim))
        r = 0
        for b in self.blocks:
            J[r:r + b.m] = b.jacobian(x)
            r += b.m
        return J

    def jt(self, J: Array, w: Array) -> Array:
        """Full-stack J^T w."""
        out = J.T @ w[:self.n_ineq]
        out[self.lb_idx] -= w[self.n_ineq:self.n_lb]
        out[self.ub_idx] += w[self.n_lb:]
        return out

    def jv(self, J: Array, v: Array) -> Array:
        """Full-stack J v."""
        return np.concatenate([J @ v, -v[self.lb_idx], v[self.ub_idx]])

    def jt_diag_j(self, J: Array, s: Array) -> Array:
        """Full-stack J^T diag(s) J."""
        out = (J.T * s[:self.n_ineq]) @ J
        out[self.lb_idx, self.lb_idx] += s[self.n_ineq:self.n_lb]
        out[self.ub_idx, self.ub_idx] += s[self.n_lb:]
        return out

    def hess_weighted(self, x: Array, w: Array) -> Array:
        H = np.zeros((self.prog.dim, self.prog.dim))
        r = 0
        for b in self.blocks:
            if b.hess_weighted is not None:
                H += b.hess_weighted(x, w[r:r + b.m])
            r += b.m
        return H


def _chol_solve(H: Array, rhs: Array):
    """Cholesky solve with escalating diagonal regularization."""
    dim = H.shape[0]
    scale = max(1.0, float(np.trace(H)) / max(dim, 1))
    reg = 0.0
    for _ in range(60):
        try:
            c = scipy.linalg.cho_factor(
                H + reg * np.eye(dim) if reg else H, check_finite=False)
            return scipy.linalg.cho_solve(c, rhs, check_finite=False), reg
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError):
            reg = 1e-10 * scale if reg == 0.0 else reg * 2.0
    return None, reg


def _pd_residual(blocks, grad_f, J, g, lam, mu):
    r_dual = grad_f + blocks.jt(J, lam)
    r_cent = -lam * g - mu
    return r_dual, r_cent


def _newton_unconstrained(prog: SmoothConvexProgram, x0: Array,
                          opts: SolverOptions) -> SolverResult:
    x = x0.copy()
    history = [float(prog.objective(x))]
    it = 0
    status = "max_iter"
    while it < opts.max_iter:
        grad = prog.gradient(x)
        if np.max(np.abs(grad)) <= opts.tol:
            status = "optimal"
            break
        H = prog.hessian(x) if prog.hessian is not None else np.eye(prog.dim)
        dx, _ = _chol_solve(H, -grad)
        if dx is None:
            status = "numerical_failure"
            break
        f0 = prog.objective(x)
        alpha, ok = 1.0, False
        while alpha > 1e-14:
            if prog.objective(x + alpha * dx) <= f0 + 1e-4 * alpha * grad @ dx:
                ok = True
                break
            alpha *= 0.5
        if not ok:
            status = "numerical_failure"
            break
        x = x + alpha * dx
        history.append(float(prog.objective(x)))
        it += 1
    grad = prog.gradient(x)
    res = float(np.max(np.abs(grad)))
    return SolverResult(
        x_opt=x, duals=np.zeros(0), bound_duals=np.zeros(0), status=status,
        kkt_residual=res, iterations=it,
        objective_value=float(prog.objective(x)), objective_history=history)


def _interior_start(blocks: _Blocks, x: Array) -> bool:
    g = blocks.value(x)
    return g.size == 0 or float(np.max(g)) < 0.0


def _phase_one(prog: SmoothConvexProgram, blocks: _Blocks,
               opts: SolverOptions) -> tuple[Optional[Array], str]:
    """Find a strictly feasible point by minimizing the max violation."""
    dim = prog.dim
    if prog.strictly_feasible_start is not None:
        x0 = np.asarray(prog.strictly_feasible_start, dtype=float).copy()
    else:
        x0 = np.zeros(dim)
    # Respect finite bounds in the seed (bounds are part of the stack).
    lo, hi = blocks.lb, blocks.ub
    mid_ok = np.isfinite(lo) & np.isfinite(hi)
    x0[mid_ok] = 0.5 * (lo[mid_ok] + hi[mid_ok])
    only_lo = np.isfinite(lo) & ~np.isfinite(hi)
    x0[only_lo] = np.maximum(x0[only_lo], lo[only_lo] + 1.0)
    only_hi = ~np.isfinite(lo) & np.isfinite(hi)
    x0[only_hi] = np.minimum(x0[only_hi], hi[only_hi] - 1.0)

    g0 = blocks.value(x0)
    s0 = float(np.max(g0)) if g0.size else -1.0
    if s0 < 0.0:
        return x0, "optimal"
    s_start = s0 + max(1.0, 0.1 * abs(s0))
    scale = max(1.0, abs(s0))

    def lift_block(b: ConstraintBlock) -> ConstraintBlock:
        def val(z):
            return b.value(z[:dim]) - z[dim]

        def jac(z):
            J = np.zeros((b.m, dim + 1))
            J[:, :dim] = b.jacobian(z[:dim])
            J[:, dim] = -1.0
            return J

        hw = None
        if b.hess_weighted is not None:
            def hw(z, w, _b=b):
                H = np.zeros((dim + 1, dim + 1))
                H[:dim, :dim] = _b.hess_weighted(z[:dim], w)
                return H
        return ConstraintBlock(m=b.m, value=val, jacobian=jac,
                               hess_weighted=hw, name=b.name + "+slack")

    lifted = [lift_block(b) for b in blocks.blocks]
    # Bound rows of the original program, lifted with the same slack.
    lbi, ubi = blocks.lb_idx, blocks.ub_idx

    def bounds_val(z):
        return np.concatenate([
            blocks.lb[lbi] - z[lbi] - z[dim],
            z[ubi] - blocks.ub[ubi] - z[dim],
        ])

    bounds_J = np.zeros((lbi.size + ubi.size, dim + 1))
    bounds_J[np.arange(lbi.size), lbi] = -1.0
    bounds_J[lbi.size + np.arange(ubi.size), ubi] = 1.0
    bounds_J[:, dim] = -1.0

    if lbi.size + ubi.size:
        lifted.append(ConstraintBlock(m=lbi.size + ubi.size, value=bounds_val,
                                      jacobian=lambda z: bounds_J,
                                      name="bounds+slack"))

    aux = SmoothConvexProgram(
        dim=dim + 1,
        objective=lambda z: float(z[dim]),
        gradient=lambda z: np.concatenate([np.zeros(dim), [1.0]]),
        hessian=lambda z: np.zeros((dim + 1, dim + 1)),
        ineqs=lifted,
        lb=np.concatenate([np.full(dim, -np.inf), [-scale]]),
        strictly_feasible_start=np.concatenate([x0, [s_start]]),
    )
    p1_opts = dataclasses.replace(opts, tol=max(opts.tol, 1e-8))
    res = _solve_interior(aux, p1_opts,
                          stop_early=lambda z: z[dim] < -1e-6 * scale)
    x_found = res.x_opt[:dim]
    if _interior_start(blocks, x_found):
        return x_found, "optimal"
    return None, "infeasible"


def _solve_interior(prog: SmoothConvexProgram, opts: SolverOptions,
                    x0: Optional[Array] = None,
                    stop_early=None) -> SolverResult:
    """Path-following primal-dual loop from a strictly feasible x0."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return _solve_interior_impl(prog, opts, x0, stop_early)


def _solve_interior_impl(prog: SmoothConvexProgram, opts: SolverOptions,
                         x0: Optional[Array] = None,
                         stop_early=None) -> SolverResult:
    blocks = _Blocks(prog)
    if x0 is None:
        x0 = np.asarray(prog.strictly_feasible_start, dtype=float)
    x = x0.copy()
    # Derivatives at x; each later point gets them from its line search.
    g = blocks.value(x)
    grad_f = prog.gradient(x)
    J = blocks.jacobian(x)
    lam = np.clip(1.0 / np.maximum(-g, 1e-10), 1e-8, 1e8)
    mu = float(np.mean(lam * (-g))) if g.size else 0.0
    mu = max(mu, 1e-3)
    mu_min = 0.05 * opts.tol

    hess = prog.hessian if prog.hessian is not None else (
        lambda z: np.zeros((prog.dim, prog.dim)))

    f_x = float(prog.objective(x))
    history: list[float] = [f_x]
    n_newton = 0
    status = "max_iter"
    stalled = False
    while n_newton < opts.max_iter:
        # Inner: damped Newton on the perturbed KKT system at this mu.
        inner_target = max(0.5 * mu, 0.1 * opts.tol)
        for _ in range(opts.inner_max):
            r_dual, r_cent = _pd_residual(blocks, grad_f, J, g, lam, mu)
            r_norm = max(
                float(np.max(np.abs(r_dual))),
                float(np.max(np.abs(r_cent))) if g.size else 0.0)
            if r_norm <= inner_target:
                break
            sigma = lam / np.maximum(-g, 1e-300)
            H_pd = blocks.jt_diag_j(J, sigma)
            H_pd += hess(x) + blocks.hess_weighted(x, lam)
            rhs = -r_dual - blocks.jt(J, r_cent / g)
            dx, _ = _chol_solve(H_pd, rhs)
            if dx is None:
                status = "numerical_failure"
                stalled = True
                break
            dlam = (r_cent - lam * blocks.jv(J, dx)) / g
            # Fraction-to-boundary on the multipliers, then primal
            # strict feasibility, then residual decrease.
            alpha = 1.0
            neg = dlam < 0
            if np.any(neg):
                alpha = min(alpha, opts.frac_to_boundary *
                            float(np.min(-lam[neg] / dlam[neg])))
            r0 = np.sqrt(float(r_dual @ r_dual + r_cent @ r_cent))
            accepted = False
            while alpha > 1e-13:
                x_t = x + alpha * dx
                g_t = blocks.value(x_t)
                # NaN from an out-of-domain trial point counts as infeasible.
                if g_t.size and not float(np.max(g_t)) < 0.0:
                    alpha *= 0.5
                    continue
                lam_t = lam + alpha * dlam
                grad_t = prog.gradient(x_t)
                J_t = blocks.jacobian(x_t)
                rd_t, rc_t = _pd_residual(blocks, grad_t, J_t, g_t, lam_t, mu)
                r_t = np.sqrt(float(rd_t @ rd_t + rc_t @ rc_t))
                if r_t <= (1.0 - 0.01 * alpha) * r0 or r_t <= inner_target:
                    accepted = True
                    break
                alpha *= 0.5
            if not accepted:
                stalled = True
                break
            x, lam, g, grad_f, J = x_t, lam_t, g_t, grad_t, J_t
            f_x = None
            n_newton += 1
            if n_newton >= opts.max_iter:
                break
        if f_x is None:
            f_x = float(prog.objective(x))
        history.append(f_x)
        # Unperturbed KKT residual decides optimality.
        kkt0 = _kkt_residual_raw(blocks, grad_f, J, g, lam)
        if stop_early is not None and stop_early(x):
            status = "early"
            break
        if kkt0 <= opts.tol:
            status = "optimal"
            break
        if stalled:
            status = ("optimal" if kkt0 <= STALL_TOL_FACTOR * opts.tol
                      else "numerical_failure")
            break
        mu = max(mu * opts.mu_factor, mu_min) if mu > mu_min else mu * 0.5

    kkt0 = _kkt_residual_raw(blocks, grad_f, J, g, lam)
    duals = lam[:blocks.n_ineq]
    bduals = lam[blocks.n_ineq:]
    return SolverResult(
        x_opt=x, duals=duals, bound_duals=bduals, status=status,
        kkt_residual=kkt0, iterations=n_newton,
        objective_value=f_x, objective_history=history)


def _kkt_residual_raw(blocks: _Blocks, grad_f: Array, J: Array, g: Array,
                      lam: Array) -> float:
    stat = (float(np.max(np.abs(grad_f + blocks.jt(J, lam))))
            if grad_f.size else 0.0)
    if g.size == 0:
        return stat
    return max(
        stat,
        float(np.max(np.maximum(g, 0.0))),
        float(np.max(np.abs(lam * g))),
        float(np.max(np.maximum(-lam, 0.0))),
    )


def solve(prog: SmoothConvexProgram,
          opts: Optional[SolverOptions] = None) -> SolverResult:
    """Solve a smooth convex program to KKT residual <= opts.tol.

    A run whose Newton steps stall (line search or factorization gives
    up) also ends ``optimal`` if its KKT residual is at most
    ``STALL_TOL_FACTOR * opts.tol``; otherwise it ends
    ``numerical_failure``.

    The dense algebra runs on one OpenBLAS thread (see ``_blas``), so
    the result does not depend on the BLAS thread count.
    """
    with one_thread():
        return _solve(prog, opts or SolverOptions())


def _solve(prog: SmoothConvexProgram, opts: SolverOptions) -> SolverResult:
    blocks = _Blocks(prog)
    if blocks.m == 0:
        x0 = (np.asarray(prog.strictly_feasible_start, dtype=float)
              if prog.strictly_feasible_start is not None
              else np.zeros(prog.dim))
        return _newton_unconstrained(prog, x0, opts)
    x0 = None
    if prog.strictly_feasible_start is not None:
        cand = np.asarray(prog.strictly_feasible_start, dtype=float)
        if _interior_start(blocks, cand):
            x0 = cand
    if x0 is None:
        x0, p1_status = _phase_one(prog, blocks, opts)
        if x0 is None:
            return SolverResult(
                x_opt=np.zeros(prog.dim), duals=np.zeros(blocks.n_ineq),
                bound_duals=np.zeros(blocks.m - blocks.n_ineq),
                status="infeasible", kkt_residual=np.inf, iterations=0,
                objective_value=np.nan)
    return _solve_interior(prog, opts, x0=x0)


def kkt_residual(prog: SmoothConvexProgram, x: Array, duals: Array) -> float:
    """Unperturbed KKT residual at (x, duals).

    ``duals`` covers the scalar inequalities of prog.ineqs in order; if
    the program has bounds, the bound multipliers follow (finite lower
    bounds first, then finite upper bounds).  A short vector is padded
    with zeros.
    """
    blocks = _Blocks(prog)
    lam = np.zeros(blocks.m)
    duals = np.asarray(duals, dtype=float).reshape(-1)
    lam[:duals.size] = duals
    g = blocks.value(x)
    return _kkt_residual_raw(blocks, prog.gradient(x), blocks.jacobian(x), g,
                             lam)


def verify_derivatives(prog: SmoothConvexProgram, x: Array,
                       h: Optional[float] = None) -> float:
    """Max relative error of all analytic derivatives vs central differences."""
    x = np.asarray(x, dtype=float)
    if h is None:
        h = 1e-5 * (1.0 + float(np.linalg.norm(x)))
    dim = prog.dim
    worst = 0.0

    def rel(err, ref):
        return err / (1.0 + ref)

    # Objective gradient and Hessian.
    grad = np.asarray(prog.gradient(x), dtype=float)
    fd_grad = np.zeros(dim)
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = h
        fd_grad[i] = (prog.objective(x + e) - prog.objective(x - e)) / (2 * h)
    worst = max(worst, rel(float(np.max(np.abs(grad - fd_grad))),
                           float(np.max(np.abs(grad), initial=0.0))))
    if prog.hessian is not None:
        H = np.asarray(prog.hessian(x), dtype=float)
        fd_H = np.zeros((dim, dim))
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = h
            fd_H[:, i] = (prog.gradient(x + e) - prog.gradient(x - e)) / (2 * h)
        fd_H = 0.5 * (fd_H + fd_H.T)
        worst = max(worst, rel(float(np.max(np.abs(H - fd_H))),
                               float(np.max(np.abs(H), initial=0.0))))

    for b in prog.ineqs:
        J = np.asarray(b.jacobian(x), dtype=float)
        fd_J = np.zeros_like(J)
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = h
            fd_J[:, i] = (b.value(x + e) - b.value(x - e)) / (2 * h)
        worst = max(worst, rel(float(np.max(np.abs(J - fd_J))),
                               float(np.max(np.abs(J), initial=0.0))))
        if b.hess_weighted is not None:
            w = np.ones(b.m)
            Hw = np.asarray(b.hess_weighted(x, w), dtype=float)
            fd_Hw = np.zeros((dim, dim))
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = h
                fd_Hw[:, i] = (b.jacobian(x + e).T @ w
                               - b.jacobian(x - e).T @ w) / (2 * h)
            fd_Hw = 0.5 * (fd_Hw + fd_Hw.T)
            worst = max(worst, rel(float(np.max(np.abs(Hw - fd_Hw))),
                                   float(np.max(np.abs(Hw), initial=0.0))))
    return worst


def spot_check_convexity(prog: SmoothConvexProgram, points: Sequence[Array],
                         tol_scale: float = 1e-8) -> bool:
    """Sampled-Hessian convexity check used by tests."""
    for x in points:
        mats = []
        if prog.hessian is not None:
            mats.append(np.asarray(prog.hessian(x)))
        for b in prog.ineqs:
            if b.hess_weighted is not None:
                for k in range(b.m):
                    w = np.zeros(b.m)
                    w[k] = 1.0
                    mats.append(np.asarray(b.hess_weighted(x, w)))
        for H in mats:
            scale = max(1.0, float(np.max(np.abs(H))))
            ev = np.linalg.eigvalsh(0.5 * (H + H.T))
            if ev.min() < -tol_scale * scale:
                return False
    return True
