"""In-house solver for smooth convex programs.

Replaces the off-the-shelf convex-programming call of the outer
algorithms with a primal-dual interior-point method: damped Newton steps
on the perturbed KKT system, barrier parameter reduced geometrically,
fraction-to-boundary rule on the multipliers (``MU_FACTOR``,
``INNER_MAX``, ``FRAC_TO_BOUNDARY``).  Infeasible starts go through a
phase-I that minimizes the maximum constraint violation with the same
machinery.  A program without inequalities or finite bounds runs the
same loop: its barrier terms are empty, so each step is a damped Newton
step on the gradient (regularized when there is no Hessian).

Problems are stated in minimize convention:

    min f(x)  s.t.  g_k(x) <= 0,  lb <= x.

Constraints are supplied in vectorized blocks (value, Jacobian and a
weighted-Hessian-sum callback) so structured subproblems stay cheap.
Every Jacobian is a ``RowSparse`` (a few nonzeros per row) and every
Hessian a ``SymSparse`` (lower-triangle triplets); a callback that
returns anything else raises ``TypeError``.  An upper bound x_j <= u is
a one-entry ``RowSparse`` row.  The Newton matrix
J^T diag(lam / -g) J + H is assembled straight into LAPACK's lower
banded storage and factored by ``scipy.linalg.cholesky_banded``, so a
program whose rows each touch variables close together in the ordering
costs O(dim) time and memory per Newton step.  Where its entries land
depends only on the pattern: the columns of the Jacobians and the
triplet positions of the Hessians.  A solve indexes its pattern once,
on its first Newton step (``_Plan``: the flat band position of every
entry), and each later step only gathers the values and scatters them
with one ``np.bincount``; a pattern that changes costs a new plan.
Phase I's slack enters every row: it is kept out of the band as a
one-column border and eliminated through its scalar Schur complement,
so phase I factors the same band; its bordered program gets its own
plan.

Finite lower bounds never become Jacobian rows: they enter the Newton
matrix as diagonal entries and the residuals as a scatter.  Each Newton
point is evaluated once: the constraint values of the start are handed
over from the start check, and the gradient, Jacobian, constraint values
and dual residual grad f + J^T lam of the accepted line-search trial are
carried into the next step and into the optimality checks (only the
centering residual is rebuilt when mu drops).  Within one point, the
callbacks of a program can share their common terms through a
``PointCache``, as the stage programs do.
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
# optimal.  Near the noise floor of the Newton system, rounding
# (down to the BLAS summation order) decides whether the last step is
# found, so the status must not hinge on it.  Any other stall is a
# numerical failure.
STALL_TOL_FACTOR = 10.0
# Barrier path: after each centering (at most INNER_MAX damped Newton
# steps) mu shrinks by MU_FACTOR; a step shrinks no multiplier below
# 1 - FRAC_TO_BOUNDARY of its value.
MU_FACTOR = 0.2
INNER_MAX = 40
FRAC_TO_BOUNDARY = 0.995


@dataclass(frozen=True)
class RowSparse:
    """An (m, n) matrix with at most k nonzeros per row.

    Row r holds ``vals[r, a]`` at column ``cols[r, a]``.  Repeated
    columns add up, so a short row is padded by repeating one of its
    columns with value 0.
    """

    cols: Array   # (m, k) integer
    vals: Array   # (m, k) float


@dataclass(frozen=True)
class SymSparse:
    """A symmetric matrix given by lower-triangle triplets.

    ``vals[t]`` sits at (rows[t], cols[t]) with rows[t] >= cols[t], and
    an off-diagonal entry also at its mirror position; repeated entries
    add up.
    """

    rows: Array
    cols: Array
    vals: Array


class PointCache:
    """The terms that the callbacks of one program share at one point.

    ``cache(z)`` returns ``terms(z)``, computed once per point and kept
    for the last point only.  The key is the point's bytes
    (``z.tobytes()``), not the array, so a caller that writes into an
    array it passed before still gets fresh terms.  Callbacks must not
    write into the terms they read.
    """

    def __init__(self, terms: Callable[[Array], object]):
        self.terms = terms
        self._key: Optional[bytes] = None
        self._value = None

    def __call__(self, z: Array):
        key = z.tobytes()
        if key != self._key:
            self._value = self.terms(z)
            self._key = key
        return self._value


def diag_hessian(idx: Array, vals: Array) -> SymSparse:
    """Diagonal matrix with ``vals`` at the positions ``idx``."""
    idx = np.asarray(idx)
    return SymSparse(idx, idx, np.asarray(vals, dtype=float))


def _checked(out, kind: type, callback: str, block=None):
    """The output ``out`` of ``callback`` (of the ``ConstraintBlock``
    ``block``), which must be a ``kind``."""
    if not isinstance(out, kind):
        where = "" if block is None else f" of block {block.name!r}"
        raise TypeError(f"{callback}{where} returned {type(out).__name__}, "
                        f"expected {kind.__name__}")
    return out


def _jacobian_of(b: ConstraintBlock, x: Array) -> RowSparse:
    return _checked(b.jacobian(x), RowSparse, "jacobian", b)


@dataclass
class ConstraintBlock:
    """A vector inequality g(x) <= 0 with m components.

    jacobian(x) returns the (m, dim) Jacobian as a ``RowSparse`` (a
    dense Jacobian is a ``RowSparse`` with every column in each row).
    hess_weighted(x, w) must return sum_k w[k] * hessian(g_k)(x) as a
    ``SymSparse``.  Affine blocks may pass hess_weighted=None.

    Pattern: a solve indexes the Newton-matrix positions of the
    ``RowSparse`` columns and ``SymSparse`` rows and columns once and
    reuses them while they stay the same.  Callbacks may change them
    from one point to the next (also by writing into an array they
    returned before); each change costs a rebuild of that index, O(nnz).
    """

    m: int
    value: Callable[[Array], Array]
    jacobian: Callable[[Array], RowSparse]
    hess_weighted: Optional[Callable[[Array, Array], SymSparse]] = None
    name: str = ""


@dataclass
class SmoothConvexProgram:
    """``hessian(x)`` returns a ``SymSparse``; ``None`` means a zero
    Hessian (a curved objective of a program with no rows or bounds then
    takes about 35 step halvings per Newton step).  ``lb`` holds the
    lower bounds (-inf where there is none); an upper bound is a
    one-entry row of a ``ConstraintBlock``."""

    dim: int
    objective: Callable[[Array], float]
    gradient: Callable[[Array], Array]
    hessian: Optional[Callable[[Array], SymSparse]] = None
    ineqs: Sequence[ConstraintBlock] = field(default_factory=list)
    lb: Optional[Array] = None
    strictly_feasible_start: Optional[Array] = None


@dataclass
class SolverOptions:
    tol: float = 1e-6
    max_iter: int = 400        # Newton steps over the whole barrier path


@dataclass
class SolverResult:
    x_opt: Array
    duals: Array                 # multipliers for prog.ineqs, concatenated
    bound_duals: Array           # multipliers for the finite lb, by index
    # optimal | max_iter | infeasible | numerical_failure.  optimal means
    # kkt_residual <= tol, or <= STALL_TOL_FACTOR * tol when Newton stalled.
    status: str
    kkt_residual: float
    iterations: int
    objective_value: float
    objective_history: list[float] = field(default_factory=list)


class _Blocks:
    """Program inequalities plus lower bounds, flattened into one stack.

    The stack is [program rows; lb_i - x_i] <= 0 over the finite lower
    bounds.  ``jacobian`` returns the program rows only (a
    ``_Jacobian``); ``jt``, ``jv`` and ``newton_band`` apply the full
    stack, the bound rows (-e_i) added implicitly.
    """

    def __init__(self, prog: SmoothConvexProgram):
        self.prog = prog
        self.blocks = list(prog.ineqs)
        self.n_ineq = sum(b.m for b in prog.ineqs)
        self.starts = np.cumsum([0] + [b.m for b in self.blocks])
        # The row of each sparse Jacobian entry for the last ``kinds``,
        # and the Newton-matrix plan of the last pattern.
        self._rows_for: tuple = (None, None)
        self._plan: Optional[_Plan] = None
        lb = prog.lb if prog.lb is not None else np.full(prog.dim, -np.inf)
        self.lb = np.asarray(lb, dtype=float)
        self.lb_idx = np.flatnonzero(np.isfinite(self.lb))
        self.m = self.n_ineq + self.lb_idx.size

    def value(self, x: Array) -> Array:
        parts = [b.value(x) for b in self.blocks]
        parts.append(self.lb[self.lb_idx] - x[self.lb_idx])
        return np.concatenate(parts)

    def jacobian(self, x: Array) -> "_Jacobian":
        """Jacobian of the program rows."""
        parts = [_jacobian_of(b, x) for b in self.blocks]
        kinds = tuple(p.cols.shape[1] for p in parts)
        if kinds != self._rows_for[0]:
            self._rows_for = (kinds, np.repeat(
                np.arange(self.n_ineq, dtype=np.int32),
                np.repeat(np.array(kinds, dtype=int), np.diff(self.starts))))
        cols = np.concatenate([p.cols.ravel() for p in parts]
                              or [np.zeros(0, dtype=int)])
        vals = np.concatenate([p.vals.ravel() for p in parts]
                              or [np.zeros(0)])
        return _Jacobian(parts, kinds, self._rows_for[1], cols, vals)

    def jt(self, J: "_Jacobian", w: Array) -> Array:
        """Full-stack J^T w."""
        out = np.bincount(J.cols, weights=J.vals * w[J.rows],
                          minlength=self.prog.dim).astype(float, copy=False)
        out[self.lb_idx] -= w[self.n_ineq:]
        return out

    def jv(self, J: "_Jacobian", v: Array) -> Array:
        """Full-stack J v."""
        out = np.bincount(J.rows, weights=J.vals * v[J.cols],
                          minlength=self.n_ineq).astype(float, copy=False)
        return np.concatenate([out, -v[self.lb_idx]])

    def newton_band(self, J: "_Jacobian", s: Array, hess: list,
                    border: bool = False):
        """Full-stack J^T diag(s) J plus the ``SymSparse`` Hessian parts
        ``hess`` in banded storage, see ``_Plan.band``.

        The plan of the last call is reused while the pattern stays the
        same and rebuilt when it changed.
        """
        if self._plan is None or not self._plan.fits(J, hess, border):
            self._plan = _Plan(self, J, hess, border)
        return self._plan.band(J, s, hess)

    def hess_weighted(self, x: Array, w: Array) -> list:
        return [_checked(b.hess_weighted(x, w[a:a + b.m]), SymSparse,
                         "hess_weighted", b)
                for b, a in zip(self.blocks, self.starts)
                if b.hess_weighted is not None]


@dataclass(frozen=True)
class _Jacobian:
    """Program-row Jacobian: per-block ``RowSparse`` parts and their
    kinds (entries per row); and their entries flat (row, column,
    value), so J^T w and J v take one ``bincount`` each."""

    parts: list
    kinds: tuple
    rows: Array
    cols: Array
    vals: Array


def _pattern(J: _Jacobian, hess: list) -> tuple:
    """What fixes where the Newton-matrix entries land: the Jacobian
    kinds and columns and the triplet positions of each Hessian.  The
    index arrays enter as shapes, dtypes and one joined bytes object:
    quick to compare, and immune to later writes into the arrays."""
    index = [J.cols]
    for h in hess:
        index += [h.rows, h.cols]
    shapes = tuple((a.shape, a.dtype) for a in index)
    return J.kinds, shapes, b"".join([a.tobytes() for a in index])


def _row_pairs(cols: Array, itype) -> tuple[Array, Array]:
    """Flat positions (a, b) in the (m, k) ``cols`` of the entry pairs of
    each row with cols[a] >= cols[b]."""
    r, a, b = np.nonzero(cols[:, :, None] >= cols[:, None, :])
    k = cols.shape[1]
    return (r * k + a).astype(itype), (r * k + b).astype(itype)


class _Plan:
    """Flat band positions of every Newton-matrix entry of one pattern.

    The entries, in order: J[r, a] s[r] J[r, b] for each row r of the
    Jacobian and each pair of its entries with cols[a] >= cols[b]; the
    bound diagonal; the triplets of each Hessian.  ``band`` assembles
    any Newton point of the same pattern (``fits``) from gathers of its
    values and one ``np.bincount``.
    """

    def __init__(self, blocks: _Blocks, J: _Jacobian, hess: list,
                 border: bool):
        dim = blocks.prog.dim
        nb = dim - 1 if border else dim
        # int32 positions halve the plan's memory while they cannot overflow.
        itype = (np.int32 if max(dim * dim, J.vals.size) < 2 ** 31
                 else np.intp)
        self.n_ineq, self.border, self.nb = blocks.n_ineq, border, nb
        self.pattern = _pattern(J, hess)
        idx, self.bw = [], 0

        def place(i, j):
            # Lower banded storage ab[i - j, j]; with a border, the last
            # row (c, then the corner d) comes first, the band after it.
            i = np.asarray(i, dtype=np.intp)
            j = np.asarray(j, dtype=np.intp)
            off = i - j
            pos = off * nb + j
            if border:
                at = i == nb
                pos = np.where(at, j, pos + nb + 1)
                off = off[~at]
            if off.size:
                self.bw = max(self.bw, int(off.max()))
            idx.append(pos.astype(itype))

        # Entry pairs of the rows, as flat positions in J.vals.
        fa, fb, at = [], [], 0
        for p in J.parts:
            pa, pb = _row_pairs(p.cols, itype)
            cf = p.cols.ravel()
            place(cf[pa], cf[pb])
            fa.append(pa + at)
            fb.append(pb + at)
            at += cf.size
        self.fa = np.concatenate(fa or [np.zeros(0, dtype=itype)])
        self.fb = np.concatenate(fb or [np.zeros(0, dtype=itype)])
        place(blocks.lb_idx, blocks.lb_idx)
        for h in hess:
            place(h.rows, h.cols)
        self.idx = np.concatenate(idx)
        self.size = (self.bw + 1) * nb + (nb + 1 if border else 0)

    def fits(self, J: _Jacobian, hess: list, border: bool) -> bool:
        return border == self.border and _pattern(J, hess) == self.pattern

    def band(self, J: _Jacobian, s: Array, hess: list):
        """(ab, c, d): ``ab[i - j, j] = A[i, j]`` in LAPACK lower banded
        storage for the leading block and, with a border, the last row
        split off as the vector ``c`` and the corner scalar ``d``."""
        nb = self.nb
        sv = s[J.rows] * J.vals
        vals = [sv[self.fa] * J.vals[self.fb], s[self.n_ineq:]]
        vals += [h.vals for h in hess]
        # Empty weights give an int64 count; the band is float.
        out = np.bincount(self.idx, weights=np.concatenate(vals),
                          minlength=self.size).astype(float, copy=False)
        if not self.border:
            return out.reshape(self.bw + 1, nb), None, 0.0
        return out[nb + 1:].reshape(self.bw + 1, nb), out[:nb], float(out[nb])


def _factor_solve(ab: Array, c: Optional[Array], d: float, rhs: Array):
    """Solve the banded (optionally bordered) Newton system.

    One ``cholesky_banded`` per attempt, with escalating diagonal
    regularization after a failed one.  A border is eliminated through
    its Schur complement, floored at a tiny positive value instead of
    refactoring.
    """
    nb = ab.shape[1]
    dim = nb + (c is not None)
    scale = max(1.0, (float(np.sum(ab[0])) + d) / max(dim, 1))
    reg = 0.0
    for _ in range(60):
        a = ab
        if reg:
            a = ab.copy()
            a[0] += reg
        try:
            cb = scipy.linalg.cholesky_banded(a, lower=True,
                                              check_finite=False)
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError):
            reg = 1e-10 * scale if reg == 0.0 else reg * 2.0
            continue
        if c is None:
            return scipy.linalg.cho_solve_banded(
                (cb, True), rhs, check_finite=False), reg
        y = scipy.linalg.cho_solve_banded(
            (cb, True), np.column_stack([rhs[:-1], c]), check_finite=False)
        schur = d + reg - float(c @ y[:, 1])
        if not schur > 1e-10 * scale:
            schur = 1e-10 * scale
        step = (rhs[-1] - float(c @ y[:, 0])) / schur
        return np.append(y[:, 0] - step * y[:, 1], step), reg
    return None, reg


def _pd_residual(blocks, grad_f, J, g, lam, mu):
    r_dual = grad_f + blocks.jt(J, lam)
    r_cent = -lam * g - mu
    return r_dual, r_cent


def _interior_values(blocks: _Blocks, x: Array) -> Optional[Array]:
    """Constraint values at x if x is strictly feasible, else None."""
    g = blocks.value(x)
    return g if g.size == 0 or float(np.max(g)) < 0.0 else None


def _phase_one(prog: SmoothConvexProgram, blocks: _Blocks,
               opts: SolverOptions) -> tuple[Optional[Array], Optional[Array]]:
    """Find a strictly feasible point by minimizing the max violation.

    Returns the point and its constraint values, or (None, None).  The
    slack is the last variable of the auxiliary program and the border
    of its Newton matrix.
    """
    dim = prog.dim
    if prog.strictly_feasible_start is not None:
        x0 = np.asarray(prog.strictly_feasible_start, dtype=float).copy()
    else:
        x0 = np.zeros(dim)
    # Respect finite bounds in the seed (bounds are part of the stack).
    lbi = blocks.lb_idx
    x0[lbi] = np.maximum(x0[lbi], blocks.lb[lbi] + 1.0)

    g0 = blocks.value(x0)
    s0 = float(np.max(g0)) if g0.size else -1.0
    if s0 < 0.0:
        return x0, g0
    s_start = s0 + max(1.0, 0.1 * abs(s0))
    scale = max(1.0, abs(s0))

    def with_slack(J: RowSparse) -> RowSparse:
        m = J.cols.shape[0]
        return RowSparse(np.concatenate([J.cols, np.full((m, 1), dim)], 1),
                         np.concatenate([J.vals, np.full((m, 1), -1.0)], 1))

    def lift_block(b: ConstraintBlock) -> ConstraintBlock:
        hw = None
        if b.hess_weighted is not None:
            def hw(z, w, _b=b):
                return _b.hess_weighted(z[:dim], w)
        return ConstraintBlock(
            m=b.m, value=lambda z: b.value(z[:dim]) - z[dim],
            jacobian=lambda z: with_slack(_jacobian_of(b, z[:dim])),
            hess_weighted=hw, name=b.name + "+slack")

    lifted = [lift_block(b) for b in blocks.blocks]
    # Bound rows of the original program, lifted with the same slack.
    if lbi.size:
        bounds_J = with_slack(RowSparse(lbi[:, None],
                                        np.full((lbi.size, 1), -1.0)))
        lifted.append(ConstraintBlock(
            m=lbi.size, value=lambda z: blocks.lb[lbi] - z[lbi] - z[dim],
            jacobian=lambda z: bounds_J, name="bounds+slack"))

    aux = SmoothConvexProgram(
        dim=dim + 1,
        objective=lambda z: float(z[dim]),
        gradient=lambda z: np.concatenate([np.zeros(dim), [1.0]]),
        ineqs=lifted,
        lb=np.concatenate([np.full(dim, -np.inf), [-scale]]),
        strictly_feasible_start=np.concatenate([x0, [s_start]]),
    )
    p1_opts = dataclasses.replace(opts, tol=max(opts.tol, 1e-8))
    res = _solve_interior(aux, p1_opts,
                          stop_early=lambda z: z[dim] < -1e-6 * scale,
                          border=True)
    x_found = res.x_opt[:dim]
    g = _interior_values(blocks, x_found)
    return (None, None) if g is None else (x_found, g)


def _newton_matrix(prog: SmoothConvexProgram, blocks: _Blocks, x: Array,
                   J: _Jacobian, lam: Array, sigma: Array,
                   border: bool):
    """Banded J^T diag(sigma) J + objective and constraint Hessians."""
    hess = [] if prog.hessian is None else [
        _checked(prog.hessian(x), SymSparse, "hessian")]
    return blocks.newton_band(J, sigma, hess + blocks.hess_weighted(x, lam),
                              border)


@np.errstate(invalid="ignore", divide="ignore", over="ignore")
def _solve_interior(prog: SmoothConvexProgram, opts: SolverOptions,
                    x0: Optional[Array] = None, g0: Optional[Array] = None,
                    stop_early=None, border: bool = False) -> SolverResult:
    """Path-following primal-dual loop from a strictly feasible x0.

    ``g0`` holds the constraint values at x0 when the caller has them.
    With ``border`` the last variable is solved as a border of the band.
    """
    blocks = _Blocks(prog)
    if x0 is None:
        x0 = np.asarray(prog.strictly_feasible_start, dtype=float)
    x = x0.copy()
    # Derivatives and residuals at x; each later point gets them from its
    # line search.
    g = blocks.value(x) if g0 is None else g0
    grad_f = prog.gradient(x)
    J = blocks.jacobian(x)
    lam = np.clip(1.0 / np.maximum(-g, 1e-10), 1e-8, 1e8)
    mu = float(np.mean(lam * (-g))) if g.size else 0.0
    mu = max(mu, 1e-3)
    mu_min = 0.05 * opts.tol
    r_dual, r_cent = _pd_residual(blocks, grad_f, J, g, lam, mu)

    f_x = float(prog.objective(x))
    history: list[float] = [f_x]
    n_newton = 0
    status = "max_iter"
    stalled = False
    while n_newton < opts.max_iter:
        # Inner: damped Newton on the perturbed KKT system at this mu.
        inner_target = max(0.5 * mu, 0.1 * opts.tol)
        for _ in range(INNER_MAX):
            r_norm = max(
                float(np.max(np.abs(r_dual))),
                float(np.max(np.abs(r_cent))) if g.size else 0.0)
            if r_norm <= inner_target:
                break
            sigma = lam / np.maximum(-g, 1e-300)
            rhs = -r_dual - blocks.jt(J, r_cent / g)
            dx, _ = _factor_solve(
                *_newton_matrix(prog, blocks, x, J, lam, sigma, border), rhs)
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
                alpha = min(alpha, FRAC_TO_BOUNDARY *
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
            r_dual, r_cent = rd_t, rc_t
            f_x = None
            n_newton += 1
            if n_newton >= opts.max_iter:
                break
        if f_x is None:
            f_x = float(prog.objective(x))
        history.append(f_x)
        # Unperturbed KKT residual decides optimality.
        kkt0 = _kkt_residual_raw(r_dual, g, lam)
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
        mu = max(mu * MU_FACTOR, mu_min) if mu > mu_min else mu * 0.5
        r_cent = -lam * g - mu     # the dual residual does not depend on mu

    kkt0 = _kkt_residual_raw(r_dual, g, lam)
    duals = lam[:blocks.n_ineq]
    bduals = lam[blocks.n_ineq:]
    return SolverResult(
        x_opt=x, duals=duals, bound_duals=bduals, status=status,
        kkt_residual=kkt0, iterations=n_newton,
        objective_value=f_x, objective_history=history)


def _kkt_residual_raw(r_dual: Array, g: Array, lam: Array) -> float:
    """Unperturbed KKT residual from the dual residual grad f + J^T lam."""
    stat = float(np.max(np.abs(r_dual))) if r_dual.size else 0.0
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

    The linear algebra runs on one OpenBLAS thread (see ``_blas``), so
    the result does not depend on the BLAS thread count: a threaded
    OpenBLAS sums a dot product longer than 10,000 entries in an order
    that follows the count, and the stage programs reach that length.
    """
    with one_thread():
        return _solve(prog, opts or SolverOptions())


def _solve(prog: SmoothConvexProgram, opts: SolverOptions) -> SolverResult:
    blocks = _Blocks(prog)
    x0 = g0 = None
    if prog.strictly_feasible_start is not None:
        cand = np.asarray(prog.strictly_feasible_start, dtype=float)
        g0 = _interior_values(blocks, cand)
        if g0 is not None:
            x0 = cand
    if x0 is None:
        x0, g0 = _phase_one(prog, blocks, opts)
        if x0 is None:
            return SolverResult(
                x_opt=np.zeros(prog.dim), duals=np.zeros(blocks.n_ineq),
                bound_duals=np.zeros(blocks.lb_idx.size),
                status="infeasible", kkt_residual=np.inf, iterations=0,
                objective_value=np.nan)
    return _solve_interior(prog, opts, x0=x0, g0=g0)


def kkt_residual(prog: SmoothConvexProgram, x: Array, duals: Array) -> float:
    """Unperturbed KKT residual at (x, duals).

    ``duals`` covers the scalar inequalities of prog.ineqs in order,
    then the finite lower bounds by index (the order of
    ``SolverResult.duals`` then ``bound_duals``).  A short vector is
    padded with zeros.
    """
    blocks = _Blocks(prog)
    lam = np.zeros(blocks.m)
    duals = np.asarray(duals, dtype=float).reshape(-1)
    lam[:duals.size] = duals
    g = blocks.value(x)
    r_dual = prog.gradient(x) + blocks.jt(blocks.jacobian(x), lam)
    return _kkt_residual_raw(r_dual, g, lam)
