"""In-house solver for smooth convex programs.

Replaces the off-the-shelf convex-programming call of the outer
algorithms with a primal-dual interior-point method: damped Newton steps
on the perturbed KKT system, barrier parameter reduced geometrically,
fraction-to-boundary rule on the multipliers (``MU_FACTOR``,
``INNER_MAX``, ``FRAC_TO_BOUNDARY``).  Every program brings a strictly
feasible start (``strictly_feasible_start``); ``solve`` raises
``ValueError`` without one.  The start is centred: each row's multiplier
is ``MU_START`` over its slack, capped at ``LAM_START_MAX``, and mu
starts at the mean of their products, so a row that starts a hair from
its bound neither dominates the first Newton matrix nor its dual
residual.  The stage programs are inner
approximations built around a feasible point, so each has an interior
by construction and builds its start from that point.  A program without
inequalities or finite bounds runs the same loop: its barrier terms are
empty, so each step is a damped Newton step on the gradient (shifted
when there is no Hessian).

Problems are stated in minimize convention:

    min f(x)  s.t.  g_k(x) <= 0,  lb <= x.

Constraints are supplied in vectorized blocks (value, Jacobian and a
weighted-Hessian-sum callback) so structured subproblems stay cheap.
A program declares its sparsity pattern once, when it is built: each
block the (m, k) columns of its Jacobian entries (``cols``, a few per
row) and, if curved, the lower-triangle positions of its Hessian
(``hess_idx``), and the program those of its objective Hessian.  The
callbacks return the values at those positions only; a value of another
type or shape raises ``TypeError``.  An upper bound x_j <= u is a
one-entry row.  The Newton matrix J^T diag(lam / -g) J + H is assembled
straight into LAPACK's lower banded storage and factored by LAPACK
``dpbtrf`` (its ``info`` code says whether it failed; ``SolverResult``
counts both), so a program whose rows each touch
variables close together in the ordering costs O(dim) time and memory
per Newton step.  Where its entries land depends only on the pattern,
so a solve copies the pattern once, indexes it on its first Newton step
(``_Plan``: the flat band position of every entry), and each step only
gathers the values and scatters them with one ``np.bincount``.

Finite lower bounds never become Jacobian rows: they enter the Newton
matrix as diagonal entries and the residuals as a scatter.  Each Newton
point is evaluated once: the constraint values of the start are handed
over from the start check, a line-search trial takes its constraint
values and objective, and the gradient, Jacobian and dual residual
grad f + J^T lam are taken at the accepted trial only and carried into
the next step and into the optimality checks (only the centering
residual is rebuilt when mu drops).  Within one point, the callbacks of
a program can share their common terms through a ``PointCache``: the
stage programs evaluate each point in one pass there, and each callback
reads its part.  A callback must return an array that no later call
writes into (the stage programs copy their Jacobian templates): a
caller may hold it across points.

Every step is judged by the barrier function phi_mu = f - mu sum log(-g)
over all rows and finite bounds (J. Nocedal & S. J. Wright, *Numerical
Optimization*, 2006, §19.4): a trial is accepted on an Armijo decrease
(``ARMIJO``).  The Newton right-hand side is -grad phi_mu, so any
positive definite matrix gives a descent step.  A matrix that is not
(from rounding, or from a nonconvex program: an indefinite objective
Hessian, or a row with concave curvature, as in the true trajectory
problem that the finish of ``trajectory_scp`` solves) is shifted by
the lowest rung of a ladder of multiples of the identity on which it
factors, and a shifted step is bounded by ``STEP_CAP``, a crude trust
region (§4.3); see ``_factor_solve``.  Where phi_mu's rounding hides
the step's decrease, the step is judged by the perturbed KKT residual
instead, so a solve at the noise floor stalls rather than stepping in
place.  The shift is not
an inertia correction (A. Wächter & L. T. Biegler, Math. Program. 106,
2006, §3.1): nothing checks the inertia beyond the factorization's
success.  Such a solve can end ``numerical_failure``; when it ends
``optimal`` its point satisfies the KKT conditions to ``tol``, a
first-order point that need not be a local minimum.  The caller must
check what it needs beyond that.

The result does not depend on the BLAS thread count: every sum over
all variables or rows is a numpy reduction or a ``np.bincount``, never
a BLAS dot product (which a threaded OpenBLAS splits between its threads
beyond 10,000 entries), and the banded factorization and solves are
LAPACK routines on a narrow band (at most 16 rows on the stage
programs).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpbtrf, dpbtrs

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
# Centred start: each multiplier is MU_START over its row's slack, capped
# at LAM_START_MAX, and mu starts at their mean product.  A row within
# 1e-10 of its bound gets LAM_START_MAX, not 1 / slack, so the first
# Newton matrix factors without a shift and the first dual
# residual stays moderate.  For a program whose rows all start at least
# MU_START / LAM_START_MAX inside, the barrier levels are MU_START times
# powers of MU_FACTOR, so MU_START decides the last level a solve
# reaches below its tol.  On the fixed-endpoint SCP of the benchmark
# (N = 100, its finish skipped), every MU_START from 0.03 to 0.3 with
# caps from 1e1 to 1e4 took 338 to 437 Newton steps, against 531 from
# 1 / slack; at MU_START = 1e-2 (a cliff) its first step ends
# ``max_iter``.  The exact value also decides whether a nonconvex
# finish ends ``optimal``: AO's hover-start trajectory finish on the
# T = 100 s free-endpoint benchmark (Eve moved by seeds 0-9) fails at 4
# of the 10 seeds at 0.12 or 0.15, and at none at 0.18 or 0.2.
MU_START = 0.18
LAM_START_MAX = 1e2
# Line search: a trial is accepted when phi_mu = f - mu sum log(-g)
# falls by at least ARMIJO times the decrease its slope predicts.  When
# the full step's predicted decrease is at most NOISE times the size of
# phi_mu's terms (its rounding level), phi_mu cannot judge the step, and
# a trial is accepted instead when it lowers the perturbed KKT residual
# by 1% of alpha; at the noise floor neither holds, and the solve stalls.
ARMIJO = 1e-4
NOISE = 10 * float(np.finfo(float).eps)
# Shift ladder of ``_factor_solve``: 0, then SHIFT_FIRST times the
# magnitude of the mean diagonal times 2^j, LADDER rungs in all.  A
# shifted step is kept within STEP_CAP in the max norm of the program's
# variables.  Over
# seeds 0-39 of the benchmark (Eve moved), caps of 30, 40 and 50 leave
# 2, 1 and 2 AO runs at about the Newton steps of the residual line
# search (at 40 one takes 7% more), and a cap of 10 costs the
# fixed-endpoint SCP 17% more steps than 30.
SHIFT_FIRST = 1e-10
LADDER = 60
STEP_CAP = 30.0
# Rows within this much of their bound enter ``multiplier_estimate``.
# At an interior-point solution the rows that are active in the limit
# are still slack by about the barrier parameter over their multiplier;
# at 1e-6 the estimate misses some of them.
ACTIVE_TOL = 1e-5


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


def _checked(out, shape: tuple, callback: str, block=None) -> Array:
    """The output ``out`` of ``callback`` (of the ``ConstraintBlock``
    ``block``), which must be an array of the declared ``shape``."""
    if isinstance(out, np.ndarray) and out.shape == shape:
        return out
    where = "" if block is None else f" of block {block.name!r}"
    got = type(out).__name__
    if isinstance(out, np.ndarray):
        got += f" of shape {out.shape}"
    raise TypeError(f"{callback}{where} returned {got}, "
                    f"expected an array of shape {shape}")


def _positions(hess_idx, callback: str, block=None) -> tuple[Array, Array]:
    """A copy of the (rows, cols) Hessian positions declared for
    ``callback``."""
    if hess_idx is None:
        where = "" if block is None else f" of block {block.name!r}"
        raise TypeError(f"{callback}{where} is given without hess_idx")
    rows, cols = hess_idx
    return np.array(rows), np.array(cols)


@dataclass
class ConstraintBlock:
    """A vector inequality g(x) <= 0 with one component per row of
    ``cols``.

    ``cols`` is the (m, k) integer array of the Jacobian's columns: row r
    has its entries at columns cols[r, 0..k-1].  Repeated columns add up,
    so a short row is padded by repeating one of its columns with value
    0; a dense Jacobian has every column in each row.  jacobian(x)
    returns the (m, k) values at those positions.  A curved block also
    declares ``hess_idx``, the (rows, cols) lower-triangle positions of
    its Hessian (rows >= cols; an off-diagonal entry also sits at its
    mirror position, repeated entries add up), and hess_weighted(x, w)
    returns the values of sum_k w[k] * hessian(g_k)(x) there.  Affine
    blocks leave both None.

    The pattern is fixed: a solve copies ``cols`` and ``hess_idx`` when
    it starts and never reads them again.
    """

    cols: Array
    value: Callable[[Array], Array]
    jacobian: Callable[[Array], Array]
    hess_weighted: Optional[Callable[[Array, Array], Array]] = None
    hess_idx: Optional[tuple[Array, Array]] = None
    name: str = ""

    @property
    def m(self) -> int:
        """The number of rows."""
        return len(self.cols)


@dataclass
class SmoothConvexProgram:
    """``hessian(x)`` returns the values of the objective Hessian at the
    lower-triangle positions ``hess_idx`` (rows, cols), fixed like a
    block's; ``None`` means a zero Hessian (a curved objective of a
    program with no rows or bounds then takes about 35 step halvings per
    Newton step).  ``lb`` holds the lower bounds (-inf where there is
    none); an upper bound is a one-entry row of a ``ConstraintBlock``.
    ``strictly_feasible_start`` is required: every row and every finite
    bound must be strictly satisfied there, or ``solve`` raises
    ``ValueError`` (``start_margin`` checks a start without solving).

    The solver is built for convex programs.  A nonconvex one runs the
    same loop: its indefinite Newton matrix gets the shifted, capped
    step of ``_factor_solve``, and every step must lower the barrier
    function (see the module docstring)."""

    dim: int
    objective: Callable[[Array], float]
    gradient: Callable[[Array], Array]
    hessian: Optional[Callable[[Array], Array]] = None
    hess_idx: Optional[tuple[Array, Array]] = None
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
    # optimal | max_iter | numerical_failure.  optimal means
    # kkt_residual <= tol, or <= STALL_TOL_FACTOR * tol when Newton stalled.
    status: str
    kkt_residual: float
    iterations: int
    objective_value: float
    objective_history: list[float] = field(default_factory=list)
    # Banded Cholesky factorizations (``dpbtrf``) of the Newton matrices,
    # the shift search's and the step cap's included, and how many of
    # them failed (a nonzero ``info`` code).
    factorizations: int = 0
    failed_factorizations: int = 0


class _Blocks:
    """Program inequalities plus lower bounds, flattened into one stack.

    The stack is [program rows; lb_i - x_i] <= 0 over the finite lower
    bounds.  The program's pattern is copied here once: each block's
    columns (``block_cols``) and Hessian positions (``block_hess``, None
    for an affine block), the row and column of every program-row
    Jacobian entry, flat (``rows``, ``cols``), and all Hessian positions
    (``hess_idx``: the objective's, then each curved block's).
    ``jacobian`` returns the values of the program-row entries; ``jt``,
    ``jv`` and ``newton_band`` apply the full stack, the bound rows
    (-e_i) added implicitly.
    """

    def __init__(self, prog: SmoothConvexProgram):
        self.prog = prog
        self.blocks = list(prog.ineqs)
        self.block_cols = [np.array(b.cols) for b in self.blocks]
        sizes = [c.shape[0] for c in self.block_cols]
        starts = np.cumsum([0] + sizes)
        self.n_ineq = sum(sizes)
        self.rows = np.repeat(
            np.arange(self.n_ineq, dtype=np.int32),
            np.repeat(np.array([c.shape[1] for c in self.block_cols],
                               dtype=int), sizes))
        self.cols = np.concatenate([c.ravel() for c in self.block_cols]
                                   or [np.zeros(0, dtype=int)])
        self.block_hess = [
            None if b.hess_weighted is None
            else _positions(b.hess_idx, "hess_weighted", b)
            for b in self.blocks]
        # Each curved block with its multipliers' slice and positions.
        self.curved = [(b, slice(a, a + len(c)), h) for b, a, c, h in zip(
            self.blocks, starts, self.block_cols, self.block_hess)
            if h is not None]
        self.hess_idx = [h for _, _, h in self.curved]
        if prog.hessian is not None:
            self.hess_idx.insert(0, _positions(prog.hess_idx, "hessian"))
        self._plan: Optional[_Plan] = None
        lb = prog.lb if prog.lb is not None else np.full(prog.dim, -np.inf)
        self.lb = np.asarray(lb, dtype=float)
        self.lb_idx = np.flatnonzero(np.isfinite(self.lb))
        self.lb_finite = self.lb[self.lb_idx]
        self.m = self.n_ineq + self.lb_idx.size

    def value(self, x: Array) -> Array:
        parts = [b.value(x) for b in self.blocks]
        parts.append(self.lb_finite - x[self.lb_idx])
        return np.concatenate(parts)

    def jacobian(self, x: Array) -> Array:
        """Values of the program-row Jacobian entries, flat."""
        return np.concatenate(
            [_checked(b.jacobian(x), c.shape, "jacobian", b).ravel()
             for b, c in zip(self.blocks, self.block_cols)] or [np.zeros(0)])

    def hessians(self, x: Array, lam: Array) -> list:
        """Values of the objective Hessian and of each curved block's
        weighted Hessian at (x, lam), in the order of ``hess_idx``."""
        out = []
        if self.prog.hessian is not None:
            out.append(_checked(self.prog.hessian(x),
                                self.hess_idx[0][0].shape, "hessian"))
        return out + [_checked(b.hess_weighted(x, lam[rows]), idx[0].shape,
                               "hess_weighted", b)
                      for b, rows, idx in self.curved]

    def jt(self, J: Array, w: Array) -> Array:
        """Full-stack J^T w, J the program-row values."""
        out = np.bincount(self.cols, weights=J * w[self.rows],
                          minlength=self.prog.dim).astype(float, copy=False)
        out[self.lb_idx] -= w[self.n_ineq:]
        return out

    def jv(self, J: Array, v: Array) -> Array:
        """Full-stack J v, J the program-row values."""
        out = np.bincount(self.rows, weights=J * v[self.cols],
                          minlength=self.n_ineq).astype(float, copy=False)
        return np.concatenate([out, -v[self.lb_idx]])

    def newton_band(self, J: Array, s: Array, hess: list) -> Array:
        """Full-stack J^T diag(s) J plus the Hessian values ``hess`` in
        banded storage, see ``_Plan.band``; the plan is built on the
        first call."""
        if self._plan is None:
            self._plan = _Plan(self)
        return self._plan.band(J, s, hess)

    def row_name(self, k: int) -> str:
        """Where row k of the stack comes from."""
        if k >= self.n_ineq:
            return f"the lower bound of x[{self.lb_idx[k - self.n_ineq]}]"
        ends = np.cumsum([len(c) for c in self.block_cols])
        i = int(np.searchsorted(ends, k, side="right"))
        row = k - (ends[i] - len(self.block_cols[i]))
        return f"row {row} of block {self.blocks[i].name!r}"


def _row_pairs(cols: Array, itype) -> tuple[Array, Array]:
    """Flat positions (a, b) in the (m, k) ``cols`` of the entry pairs of
    each row with cols[a] >= cols[b]."""
    r, a, b = np.nonzero(cols[:, :, None] >= cols[:, None, :])
    k = cols.shape[1]
    return (r * k + a).astype(itype), (r * k + b).astype(itype)


class _Plan:
    """Flat band positions of every Newton-matrix entry of a program.

    The entries, in order: J[r, a] s[r] J[r, b] for each row r of the
    Jacobian and each pair of its entries with cols[a] >= cols[b]; the
    bound diagonal; the positions of each Hessian.  ``band`` assembles
    any Newton point from gathers of its values and one ``np.bincount``.
    """

    def __init__(self, blocks: _Blocks):
        dim = blocks.prog.dim
        # int32 positions halve the plan's memory while they cannot overflow.
        itype = (np.int32 if max(dim * dim, blocks.cols.size) < 2 ** 31
                 else np.intp)
        self.rows, self.n_ineq, self.dim = blocks.rows, blocks.n_ineq, dim
        idx, self.bw = [], 0

        def place(i, j):
            # Lower banded storage ab[i - j, j].
            off = np.asarray(i, dtype=np.intp) - np.asarray(j, dtype=np.intp)
            if off.size:
                self.bw = max(self.bw, int(off.max()))
            idx.append((off * dim + j).astype(itype))

        # Entry pairs of the rows, as flat positions in the values.
        fa, fb, at = [], [], 0
        for cols in blocks.block_cols:
            pa, pb = _row_pairs(cols, itype)
            cf = cols.ravel()
            place(cf[pa], cf[pb])
            fa.append(pa + at)
            fb.append(pb + at)
            at += cf.size
        self.fa = np.concatenate(fa or [np.zeros(0, dtype=itype)])
        self.fb = np.concatenate(fb or [np.zeros(0, dtype=itype)])
        place(blocks.lb_idx, blocks.lb_idx)
        for rows, cols in blocks.hess_idx:
            place(rows, cols)
        self.idx = np.concatenate(idx)

    def band(self, J: Array, s: Array, hess: list) -> Array:
        """``ab`` with ``ab[i - j, j] = A[i, j]``: LAPACK lower banded
        storage."""
        sv = s[self.rows] * J
        vals = [sv[self.fa] * J[self.fb], s[self.n_ineq:]] + hess
        # Empty weights give an int64 count; the band is float.
        out = np.bincount(self.idx, weights=np.concatenate(vals),
                          minlength=(self.bw + 1) * self.dim)
        return out.astype(float, copy=False).reshape(self.bw + 1, self.dim)


class _Rung:
    """Where a solve's next shift search starts: the rung of the shift
    ladder that its last Newton matrix took (0 before the first); and
    how many factorizations the solve has made, and how many failed."""

    def __init__(self):
        self.k = 0
        self.factorizations = 0
        self.failed = 0


def _factor_solve(ab: Array, rhs: Array,
                  rung: Optional[_Rung] = None) -> Optional[Array]:
    """Solve the banded Newton system, its diagonal shifted by the lowest
    rung of the ladder 0, 2^j ``SHIFT_FIRST`` scale (j < ``LADDER`` - 1,
    scale the magnitude of the mean diagonal, at least 1) on which
    LAPACK ``dpbtrf`` succeeds; None when none does.

    The search starts at ``rung.k`` (0 without ``rung``) and goes down
    while the matrix factors, up while it fails, so it lands on the rung
    the climb from 0 finds (the shifted matrix stays positive definite
    as the shift grows) with fewer failed factorizations; ``rung.k`` is
    set to it, and ``rung`` counts every factorization by its ``info``
    code.  A shifted step longer than ``STEP_CAP`` in the max norm
    is solved again with the shift times 4 (two rungs up) until it is
    not: a crude trust region, since far from a local minimum of the
    barrier problem the lowest positive definite shift leaves the step
    almost unbounded.
    """
    rung = rung if rung is not None else _Rung()
    dim = ab.shape[1]
    scale = max(1.0, abs(float(ab[0].sum())) / max(dim, 1))

    def factor(k):
        a = ab
        if k:
            a = ab.copy()
            a[0] += SHIFT_FIRST * scale * 2.0 ** (k - 1)
        # The unshifted ab is kept for the shifts; a shifted copy is not.
        cb, info = dpbtrf(a, lower=1, overwrite_ab=k > 0)
        rung.factorizations += 1
        rung.failed += info != 0
        return cb if info == 0 else None

    k = rung.k
    cb = factor(k)
    while cb is not None and k > 0 and (lower := factor(k - 1)) is not None:
        k, cb = k - 1, lower
    while cb is None and k < LADDER - 1:
        k += 1
        cb = factor(k)
    if cb is None:
        return None
    rung.k = k
    dx = dpbtrs(cb, rhs, lower=1)[0]
    while k and k + 2 < LADDER and float(np.abs(dx).max()) > STEP_CAP:
        k += 2
        cb = factor(k)
        if cb is None:
            return None
        dx = dpbtrs(cb, rhs, lower=1)[0]
    return dx


def start_margin(prog: SmoothConvexProgram) -> float:
    """How far the program's start is inside its rows and finite bounds:
    minus the largest value of the stack there.  Positive exactly when
    ``solve`` accepts the start; NaN when a callback is outside its
    domain there."""
    g = _Blocks(prog).value(np.asarray(prog.strictly_feasible_start,
                                       dtype=float))
    return -float(np.max(g, initial=-np.inf))


def _pd_residual(blocks, grad_f, J, g, lam, mu):
    r_dual = grad_f + blocks.jt(J, lam)
    r_cent = -lam * g - mu
    return r_dual, r_cent


def _norm(r_dual: Array, r_cent: Array) -> float:
    """Euclidean norm of the perturbed KKT residual."""
    return np.sqrt(float((r_dual * r_dual).sum() + (r_cent * r_cent).sum()))


@np.errstate(invalid="ignore", divide="ignore", over="ignore")
def solve(prog: SmoothConvexProgram,
          opts: Optional[SolverOptions] = None) -> SolverResult:
    """Solve a smooth convex program to KKT residual <= opts.tol by the
    path-following primal-dual loop from the program's start.  A
    nonconvex program runs the same loop (see the module docstring).

    Raises ``ValueError`` when the program has no start or its start is
    not strictly feasible, naming the row that is furthest from it.  A
    run whose Newton steps stall (line search or factorization gives up)
    also ends ``optimal`` if its KKT residual is at most
    ``STALL_TOL_FACTOR * opts.tol``; otherwise it ends
    ``numerical_failure``.
    """
    opts = opts or SolverOptions()
    blocks = _Blocks(prog)
    if prog.strictly_feasible_start is None:
        raise ValueError("the program has no strictly_feasible_start")
    x = np.array(prog.strictly_feasible_start, dtype=float)
    g = blocks.value(x)
    if g.size and not float(g.max()) < 0.0:
        # NaN, from a start outside a callback's domain, is the maximum.
        k = int(np.argmax(g))
        raise ValueError(f"the start is not strictly feasible: "
                         f"{blocks.row_name(k)} is {g[k]:.3e}")
    lam = np.clip(MU_START / -g, 1e-8, LAM_START_MAX)
    mu = float(np.mean(lam * (-g))) if g.size else MU_START
    mu_min = 0.05 * opts.tol

    def derivatives(x, g, lam):
        """Gradient, Jacobian values and the residuals at the current mu
        of an accepted point (or of a trial judged by its residual)."""
        grad_f, J = prog.gradient(x), blocks.jacobian(x)
        return (grad_f, J) + _pd_residual(blocks, grad_f, J, g, lam, mu)

    # Values, derivatives and residuals at x; each later point gets them
    # from its line search.
    grad_f, J, r_dual, r_cent = derivatives(x, g, lam)
    f_x = float(prog.objective(x))
    logs = float(np.log(-g).sum())
    history: list[float] = [f_x]
    rung = _Rung()
    n_newton = 0
    status = "max_iter"
    stalled = False
    while n_newton < opts.max_iter:
        # Inner: damped Newton on the perturbed KKT system at this mu.
        inner_target = max(0.5 * mu, 0.1 * opts.tol)
        for _ in range(INNER_MAX):
            r_norm = max(
                float(np.abs(r_dual).max()),
                float(np.abs(r_cent).max()) if g.size else 0.0)
            if r_norm <= inner_target:
                break
            sigma = lam / np.maximum(-g, 1e-300)
            # -grad phi_mu at x.
            rhs = -r_dual - blocks.jt(J, r_cent / g)
            dx = _factor_solve(
                blocks.newton_band(J, sigma, blocks.hessians(x, lam)), rhs,
                rung)
            if dx is None:
                status = "numerical_failure"
                stalled = True
                break
            dlam = (r_cent - lam * blocks.jv(J, dx)) / g
            # Fraction-to-boundary on the multipliers, then primal
            # strict feasibility, then sufficient decrease of phi_mu.
            alpha = 1.0
            neg = dlam < 0
            if neg.any():
                alpha = min(alpha, FRAC_TO_BOUNDARY *
                            float((-lam[neg] / dlam[neg]).min()))
            slope = -float((rhs * dx).sum())
            phi = f_x - mu * logs
            # Below phi_mu's rounding level its values cannot judge a step.
            flat = -slope <= NOISE * (abs(f_x) + abs(mu * logs))
            if flat:
                r0 = _norm(r_dual, r_cent)
            accepted = False
            while alpha > 1e-13:
                x_t = x + alpha * dx
                g_t = blocks.value(x_t)
                # NaN from an out-of-domain trial point counts as infeasible.
                if g_t.size and not float(g_t.max()) < 0.0:
                    alpha *= 0.5
                    continue
                f_t = float(prog.objective(x_t))
                logs_t = float(np.log(-g_t).sum())
                lam_t = lam + alpha * dlam
                if flat:
                    point = derivatives(x_t, g_t, lam_t)
                    accepted = (_norm(*point[2:])
                                <= (1.0 - 0.01 * alpha) * r0)
                else:
                    accepted = (f_t - mu * logs_t
                                <= phi + ARMIJO * alpha * slope)
                if accepted:
                    break
                alpha *= 0.5
            if not accepted:
                stalled = True
                break
            if not flat:
                point = derivatives(x_t, g_t, lam_t)
            x, lam, g, f_x, logs = x_t, lam_t, g_t, f_t, logs_t
            grad_f, J, r_dual, r_cent = point
            n_newton += 1
            if n_newton >= opts.max_iter:
                break
        history.append(f_x)
        # Unperturbed KKT residual decides optimality.
        kkt0 = _kkt_residual_raw(r_dual, g, lam)
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
        objective_value=f_x, objective_history=history,
        factorizations=rung.factorizations,
        failed_factorizations=rung.failed)


def _kkt_residual_raw(r_dual: Array, g: Array, lam: Array) -> float:
    """Unperturbed KKT residual from the dual residual grad f + J^T lam."""
    stat = float(np.abs(r_dual).max()) if r_dual.size else 0.0
    if g.size == 0:
        return stat
    return max(
        stat,
        float(np.maximum(g, 0.0).max()),
        float(np.abs(lam * g).max()),
        float(np.maximum(-lam, 0.0).max()),
    )


def kkt_residual(prog: SmoothConvexProgram, x: Array, duals: Array) -> float:
    """Unperturbed KKT residual at (x, duals).

    ``duals`` covers the scalar inequalities of prog.ineqs in order,
    then the finite lower bounds by index (the order of
    ``SolverResult.duals`` then ``bound_duals``).  A short vector is
    padded with zeros.
    """
    return _residual(*_evaluate(prog, x), duals)


def certify(prog: SmoothConvexProgram, x: Array,
            duals: Optional[Array] = None) -> float:
    """KKT residual at x with the better of two multiplier sets.

    The smaller of the residuals with ``multiplier_estimate`` and with
    ``duals`` (in the order of ``kkt_residual``), when given.  Each is
    exact, so a small value proves x a KKT point whatever the estimate's
    quality.  The program is evaluated at x once for both.
    """
    point = _evaluate(prog, x)
    res = _residual(*point, _estimate(*point))
    return res if duals is None else min(res, _residual(*point, duals))


def _evaluate(prog: SmoothConvexProgram, x: Array) -> tuple:
    """The stack of ``prog`` with its values, its program-row Jacobian
    values and the objective gradient at x."""
    blocks = _Blocks(prog)
    return blocks, blocks.value(x), blocks.jacobian(x), prog.gradient(x)


def _residual(blocks: _Blocks, g: Array, J: Array, grad: Array,
              duals: Array) -> float:
    lam = np.zeros(blocks.m)
    duals = np.asarray(duals, dtype=float).reshape(-1)
    lam[:duals.size] = duals
    return _kkt_residual_raw(grad + blocks.jt(J, lam), g, lam)


def multiplier_estimate(prog: SmoothConvexProgram, x: Array) -> Array:
    """Least-squares multipliers of the rows active at x, clipped at 0.

    Minimizes |grad f + J_A^T lam_A| over the rows A of the stack
    (program rows, then the finite lower bounds, in the order of
    ``kkt_residual``'s duals) within ``ACTIVE_TOL`` of their bound;
    every other multiplier is 0 (Nocedal & Wright, *Numerical
    Optimization*, §12.3).  The rows are sorted by their last column, so
    for a program whose rows each touch variables close together the
    normal matrix J_A J_A^T is banded and one banded Cholesky solve
    (``solveh_banded``) costs O(dim).
    """
    return _estimate(*_evaluate(prog, x))


def _estimate(blocks: _Blocks, g: Array, J: Array, grad: Array) -> Array:
    lb_idx = blocks.lb_idx
    rows = np.concatenate([blocks.rows, np.arange(blocks.n_ineq, blocks.m)])
    cols = np.concatenate([blocks.cols, lb_idx])
    vals = np.concatenate([J, np.full(lb_idx.size, -1.0)])
    last = np.concatenate([c.max(axis=1) for c in blocks.block_cols]
                          + [lb_idx])
    lam = np.zeros(g.size)
    active = np.flatnonzero(g >= -ACTIVE_TOL)
    if active.size == 0:
        return lam
    # Band position of each active row (-1 for the others).
    pos = np.full(g.size, -1)
    pos[active[np.argsort(last[active], kind="stable")]] = np.arange(
        active.size)
    keep = pos[rows] >= 0
    p, c, v = pos[rows[keep]], cols[keep], vals[keep]
    # Lower band of J_A J_A^T: pairs of entries that share a column.  A
    # row that repeats a column pairs with itself; that cross term counts
    # twice.
    by_col = np.argsort(c * active.size + p, kind="stable")
    p, c, v = p[by_col], c[by_col], v[by_col]
    pairs = [(p, p, v * v)]
    k = 1
    while k < c.size:
        same = np.flatnonzero(c[k:] == c[:-k])
        if same.size == 0:
            break
        hi, lo = p[same + k], p[same]
        pairs.append((hi, lo, v[same + k] * v[same] * (1 + (hi == lo))))
        k += 1
    hi, lo, w = (np.concatenate(a) for a in zip(*pairs))
    ab = np.zeros((int(np.max(hi - lo)) + 1, active.size))
    np.add.at(ab, (hi - lo, lo), w)
    # A tiny ridge keeps a rank-deficient active set factorable.
    ab[0] += 1e-12 * max(float(np.max(ab[0])), 1.0)
    rhs = -np.bincount(p, weights=v * grad[c],
                       minlength=active.size)
    lam_a = scipy.linalg.solveh_banded(ab, rhs, lower=True)
    lam[active] = np.maximum(lam_a[pos[active]], 0.0)
    return lam
