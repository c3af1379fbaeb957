"""Trajectory optimization with the powers held fixed.

Each sequential step solves a convex program over the per-slot
displacements around the current trajectory and moves the trajectory.
The step is the true problem with its rates replaced by bounds built at
the iterate (one builder, ``_program``, makes both).  Every rate is one
formula (``_Rate``): log2(1 + g / w), with w = h^2 + |q0 + p - c|^2 the
squared distance from the displaced relay q0 + p to the receiver c.  It
is convex and decreasing in w, and w is convex in p, so each of its two
tangents, exact at zero displacement, bounds it.  Its tangent in w,
r0 + r'(w0) (w - w0), bounds it from below and is concave in p: the
relay's reception rate (the buffers' inflow) and Bob's (in the
objective).  Its value at the tangent of w in p, w0 + 2 (q0 - c) . p,
bounds it from above: Bob's and Eve's rates as the buffers' outflows,
Eve's also in the objective.  Every bound implies the original
inequality, so all iterates stay feasible and the true secrecy rate
ascends.  log2(1 + g / t) is convex and decreasing in t > 0, and an
affine t keeps it convex (S. Boyd & L. Vandenberghe, *Convex
Optimization*, §3.2.2), so the step is convex as it stands.  Its one
extra block holds the affine domain rows w >= (1 + ``SLACK_LB``) h^2 of
the upper bounds on the slots where the relay transmits: they keep
w > 0, also over a base point above Bob or Eve, where the tangent of the
squared ground distance is 0 for every displacement.

SCP converges only linearly, and the bounds only serve to reach a KKT
point of the true problem.  So after the first step that leaves the
stage running, the stage tries one finish (``_finish``): one solve of
the true, nonconvex trajectory problem at the fixed powers
(``_true_program``: exact 2 x 2 per-slot Hessians), from zero
displacement with the step's own two relaxations (below).  Its point is
accepted only if the solve ends ``optimal``, the point passes mobility
and causality at ``feas_tol``, its objective is at least the SCP
iterate's and, checked last, its KKT residual on the unrelaxed problem,
with the solve's duals (``solver.certify``), is within
``solver.KKT_TOL``; the stage then ends ``converged`` there, with that
certificate as the iterate's ``kkt_residual``.  Otherwise SCP goes on
exactly as without the finish and tries none again in that stage (a
retry after every step costs more than it saves).  One map of a solver
point to the iterate it reaches and its feasibility (``_displaced``)
serves the SCP steps and the finish.  A step that falls below its
iterate (beyond 1e-9) is dropped; the stage ends ``converged`` there
when the fall is within the stop rule (``rel_tol``; near a stationary
point a bound's solution loses about its duality gap), and ``stalled``
(``regressed``) otherwise.

Information causality is stated with relay buffers (``solver.Buffer``)
for Bob's and Eve's rate: b_n >= 0 with b_n <= b_{n-1} + R_in,n-1 -
R_out,n (``_true_flow``, the one flow builder of both programs).  The
variables are laid out slot by slot (``_Layout``), so each row touches
two neighbouring slots and the Newton matrix is banded.

The start of both programs is zero displacement, each buffer at
``buffer_start`` of its prefix surpluses there.  Two hair-thin
relaxations make it strictly feasible for every base point that
``build_subproblem`` accepts: each buffer starts with ``CAUS_RELAX`` plus
the start's worst prefix excess (powers restored on the 2^-40 grid of
the relay scale to just inside the causality tolerance), and the
squared travel budget is the larger of v_max's and the base point's
longest move, times 1 + ``MOBILITY_RELAX`` (hops of exactly ``v_max``,
as in the data-ferry start).  A step may thus reach points causal only
to within its start's worst excess plus ``CAUS_RELAX``; ``scp_optimize``
accepts a step only if it passes ``model.check_all`` at ``feas_tol``
(otherwise the stage ends ``stalled``, ``infeasible_step``), so every
accepted iterate is feasible at ``feas_tol``.

Each program evaluates a point in one pass (``_Point``): the displaced
positions and hops and its two stacks of rates, which compute their
derivatives on first use, by one chain rule for every form (a trial
point of the line search needs the values alone).  The callbacks of a
program read their parts from its one ``solver.PointCache``, keyed on
the point's bytes, so a caller that writes into an array it passed
before still gets fresh terms; Bob's and Eve's buffers share one
``ConstraintBlock``.  The parts of the rates that depend on the iterate
only are computed once per program, when its ``_Rate`` is built.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import model
from .model import LN2, PowerAllocation, Scenario, Trajectory
from .report import COUNTERS, RunReport, count_solve
from .solver import (KKT_TOL, Buffer, ConstraintBlock, PointCache,
                     SmoothConvexProgram, SolverOptions, certify, solve,
                     start_margin)


SUBPROBLEM = SolverOptions(tol=1e-6)
# The finish solve of the true trajectory problem (``_finish``); its
# point is accepted within ``solver.KKT_TOL`` on the unrelaxed problem.
FINISH = SolverOptions(tol=1e-6, max_iter=100)


@dataclass
class ScpOptions:
    """The options of a run, the one set ``ao_optimize``, every stage
    and the CLI share.  ``feas_tol`` is the tolerance of every
    feasibility check: the trajectory stage's, the power stage's
    (``power_dc.dc_allocate(feas_tol=)``), AO's and its start's.
    ``rel_tol`` stops the trajectory stage and AO's outer loop on a
    relative change of the objective.  ``max_iter`` caps the steps of
    each trajectory stage (AO's own cap is ``ao.MAX_ITER``)."""

    rel_tol: float = 1e-4
    max_iter: int = 100
    feas_tol: float = model.DEFAULT_FEAS_TOL


@dataclass(frozen=True)
class TrajIterate:
    """An SCP iterate: the trajectory, the SNR numerators of the relay's
    reception (ref_snr p_s) and transmission (ref_snr p_r) per slot, and
    the true objective."""

    traj: Trajectory
    gamma_s: np.ndarray
    gamma_r: np.ndarray
    objective: float


def make_iterate(scn: Scenario, traj: Trajectory,
                 pw: PowerAllocation) -> TrajIterate:
    return TrajIterate(traj, scn.ref_snr * pw.p_s, scn.ref_snr * pw.p_r,
                       model.secrecy_sum(scn, traj, pw))


def initial_trajectory(scn: Scenario) -> Trajectory:
    """Straight flight between the endpoints at constant speed.

    With both endpoints free, hover midway between Alice and Bob; with
    one fixed, hover at it.
    """
    if scn.start_xy is None and scn.end_xy is None:
        mid = 0.5 * (scn.alice_xy + scn.bob_xy)
        return Trajectory(np.tile(mid, (scn.n_slots, 1)))
    if scn.start_xy is None or scn.end_xy is None:
        anchor = scn.start_xy if scn.start_xy is not None else scn.end_xy
        return Trajectory(np.tile(anchor, (scn.n_slots, 1)))
    a, b = scn.start_xy, scn.end_xy
    dist = float(np.linalg.norm(b - a))
    budget = (scn.n_slots + 1) * scn.slot_travel
    if dist > budget:
        raise ValueError(
            f"endpoints {dist:.1f} m apart exceed the reachable "
            f"{budget:.1f} m over the horizon")
    # N interior points of the N+2-point uniform subdivision.
    t = np.arange(1, scn.n_slots + 1) / (scn.n_slots + 1)
    return Trajectory(a + t[:, None] * (b - a))


class _Layout:
    """Variable layout of the trajectory programs, slot by slot.

    Slot n (0-based) holds delta_n / H and xi_n / H; then, if n >= 1,
    Bob's and Eve's buffer after slot n (bits).  The ``i_*`` arrays give
    the positions.  ``active`` lists the slots in which the relay
    transmits (silent slots contribute nothing to rates or causality).
    """

    def __init__(self, scn: Scenario, it: TrajIterate):
        n = self.n = scn.n_slots
        self.h = scn.altitude_h
        self.active = np.flatnonzero(it.gamma_r > 0.0)
        self.dim = 4 * n - 2
        self.i_delta = np.concatenate([[0], np.arange(2, self.dim, 4)])
        self.i_xi = self.i_delta + 1
        self.i_bob = self.i_delta[1:] + 2
        self.i_eve = self.i_bob + 1

    def unpack(self, z: np.ndarray):
        return z[self.i_delta] * self.h, z[self.i_xi] * self.h


# Hair-thin relaxation (bits) of the buffers' initial content beyond the
# start's worst prefix excess, so a causality-tight base point still
# leaves the interior-point method an interior.
CAUS_RELAX = 1e-8
# Hair-thin relative relaxation of the squared travel budget, so a base
# point with a move of exactly that budget keeps an interior.
MOBILITY_RELAX = 1e-12
# The convex step keeps the w of its upper bounds (``_Rate``) at least
# (1 + SLACK_LB) h^2 on active slots: their log terms need w > 0.
SLACK_LB = -0.5


def _mobility_block(scn: Scenario, it: TrajIterate, lay: _Layout,
                    at: PointCache, relax: bool = True) -> ConstraintBlock:
    """Squared hops of the displaced trajectory, then each anchored
    slot's squared distance to its anchor, at most the squared travel
    budget (all scaled by h).  The budget is v_max's or, with ``relax``,
    the larger of that and the base point's longest move (accepted
    within feas_tol), times 1 + ``MOBILITY_RELAX``.  The displaced
    positions and hops (``px``, ``py``, ``hop_x``, ``hop_y``) at a point
    come from ``at``."""
    n, h = lay.n, lay.h
    anchors = []
    if scn.start_xy is not None:
        anchors.append((scn.start_xy, 0))
    if scn.end_xy is not None:
        anchors.append((scn.end_xy, n - 1))
    m_mob = (n - 1) + len(anchors)
    i_d, i_x = lay.i_delta, lay.i_xi
    mob_cols = np.stack([i_d[:-1], i_d[1:], i_x[:-1], i_x[1:]], axis=1)
    for _, idx in anchors:
        mob_cols = np.vstack([mob_cols, [i_d[idx], i_x[idx], i_x[idx],
                                         i_x[idx]]])
    a_idx = np.array([idx for _, idx in anchors], dtype=int)
    a_xy = np.array([anchor / h for anchor, _ in anchors]).reshape(-1, 2)
    mob_rows = np.concatenate([i_d, i_x, i_d[1:], i_x[1:]])
    mob_cols_h = np.concatenate([i_d, i_x, i_d[:-1], i_x[:-1]])

    def moves(px, py, hop_x, hop_y):
        """Squared hops, then each anchored slot's squared distance to
        its anchor (scaled by h)."""
        out = np.empty(m_mob)
        out[:n - 1] = hop_x ** 2 + hop_y ** 2
        out[n - 1:] = ((px[a_idx] - a_xy[:, 0]) ** 2
                       + (py[a_idx] - a_xy[:, 1]) ** 2)
        return out

    v2s = (scn.slot_travel / h) ** 2
    if relax:
        xs, ys = it.traj.x / h, it.traj.y / h
        v2s = (1.0 + MOBILITY_RELAX) * max(v2s, float(np.max(
            moves(xs, ys, np.diff(xs), np.diff(ys)), initial=0.0)))

    def mob_value(z):
        t = at(z)
        return moves(t.px, t.py, t.hop_x, t.hop_y) - v2s

    def mob_jacobian(z):
        t = at(z)
        vals = np.zeros((m_mob, 4))
        vals[:n - 1, 1] = 2 * t.hop_x
        vals[:n - 1, 3] = 2 * t.hop_y
        vals[:n - 1, 0:3:2] = -vals[:n - 1, 1::2]
        vals[n - 1:, 0] = 2 * (t.px[a_idx] - a_xy[:, 0])
        vals[n - 1:, 1] = 2 * (t.py[a_idx] - a_xy[:, 1])
        return vals

    def mob_hess(z, w):
        out = np.zeros(4 * n - 2)
        dd = out[:n]
        dd[1:] += 2 * w[:n - 1]
        dd[:-1] += 2 * w[:n - 1]
        np.add.at(dd, a_idx, 2 * w[n - 1:])
        out[n:2 * n] = dd
        out[2 * n:3 * n - 1] = out[3 * n - 1:] = -2 * w[:n - 1]
        return out

    return ConstraintBlock(cols=mob_cols, value=mob_value,
                           jacobian=mob_jacobian, hess_weighted=mob_hess,
                           hess_idx=(mob_rows, mob_cols_h), name="mobility")


def _check_base(scn: Scenario, traj: Trajectory, pw: PowerAllocation,
                feas_tol: float) -> None:
    """Raise ``ValueError`` when traj violates mobility or pw violates
    information causality on it at ``feas_tol``."""
    if not model.check_mobility(scn, traj, tol=feas_tol).feasible:
        raise ValueError("trajectory violates mobility constraints")
    verdict = model.check_causality(scn, traj, pw, tol=feas_tol)
    if not verdict.feasible:
        raise ValueError(f"powers violate information causality by "
                         f"{verdict.worst:.3e}")


def build_subproblem(scn: Scenario, pw: PowerAllocation, it: TrajIterate,
                     feas_tol: float = model.DEFAULT_FEAS_TOL
                     ) -> SmoothConvexProgram:
    """Convex displacement program around the iterate (minimize form).

    Raises ``ValueError`` when the base point violates mobility or
    causality at ``feas_tol``, as ``scp_optimize`` does for its input.
    """
    _check_base(scn, it.traj, pw, feas_tol)
    return _build_subproblem(scn, it, _Layout(scn, it))


def _log_slopes(g: np.ndarray, w: np.ndarray):
    """First and second derivatives of log2(1 + g / w) in w."""
    return (-g / (LN2 * w * (w + g)),
            g * (2 * w + g) / (LN2 * (w * (w + g)) ** 2))


class _Rate:
    """Reception rates log2(1 + g / w) of the receivers at c, with SNR
    numerator g per slot and w = h^2 + |q0 + p - c|^2, over the
    displacements p = (delta, xi) from the positions q0; receivers
    stacked along the first axis of c give a stack.  The rate is convex
    and decreasing in w, and w is convex in p, so either tangent bounds
    it.  It takes one of three forms:

    - ``exact``: the rate itself;
    - ``lower``: r0 + r'(w0) (w - w0), its tangent in w at p = 0, a
      lower bound, concave in p;
    - ``upper``: the rate at w0 + 2 (q0 - c) . p, the tangent of w in p,
      an upper bound, convex in p where that tangent is positive.  It
      holds w at w0 on slots with g = 0, whose rate is 0 in every form.

    All three agree at p = 0, in value and gradient.  The terms of q0
    alone (q0 - c, w0, r0, r'(w0)) are computed here, once per program;
    ``at`` gives the rates at a displacement."""

    def __init__(self, form: str, q0: np.ndarray, c, g: np.ndarray,
                 h: float):
        self.form, self.g, self.h = form, g, h
        # q0 - c, indexed (x or y, receiver, slot)
        e = q0.T[:, None] - np.asarray(c).T[:, :, None]
        self.w0 = h * h + e[0] * e[0] + e[1] * e[1]
        self.r0 = np.log2(1.0 + g / self.w0)
        self.s0 = _log_slopes(g, self.w0)[0]
        self.e = e * (g > 0.0) if form == "upper" else e

    def at(self, p: np.ndarray) -> "_RateAt":
        """The rates at the displacement p = (delta, xi), stacked."""
        e = self.e
        if self.form == "upper":
            w = self.w0 + 2 * (e[0] * p[0] + e[1] * p[1])
            return _RateAt(self, np.log2(1.0 + self.g / w), w, e)
        dq = e + p[:, None]
        w = self.h * self.h + dq[0] * dq[0] + dq[1] * dq[1]
        r = (self.r0 + self.s0 * (w - self.w0) if self.form == "lower"
             else np.log2(1.0 + self.g / w))
        return _RateAt(self, r, w, dq)


class _RateAt:
    """A ``_Rate`` at one displacement: the rates ``r``, their w and,
    computed on first use (``_d``), their gradients (``grad``: d/dx,
    d/dy) and the lower triangles of their 2 x 2 Hessians (``hess``: xx,
    yy, xy) in the slot's scaled displacement p / h: a trial point of
    the line search needs the rates alone.  dq is half the gradient of w
    in p."""

    def __init__(self, rate: _Rate, r: np.ndarray, w: np.ndarray,
                 dq: np.ndarray):
        self.rate, self.r, self.w, self.dq = rate, r, w, dq

    @functools.cached_property
    def _d(self) -> tuple[np.ndarray, np.ndarray]:
        """One chain rule for every form: with f the rate as a function
        of w, the gradient f' grad w and the Hessian
        f'' grad w grad w^T + f' hess w."""
        rate, h = self.rate, self.rate.h
        f1, f2 = ((rate.s0, 0.0) if rate.form == "lower"
                  else _log_slopes(rate.g, self.w))
        gw = 2 * h * self.dq                  # grad w, scaled by h
        hess = f2 * gw[[0, 1, 0]] * gw[[0, 1, 1]]    # xx, yy, xy
        if rate.form != "upper":              # hess w = 2 I
            hess[:2] += 2 * h * h * f1
        return f1 * gw, hess

    @property
    def grad(self) -> np.ndarray:
        return self._d[0]

    @property
    def hess(self) -> np.ndarray:
        return self._d[1]


def _rates(scn: Scenario, it: TrajIterate, gain: str, out: str):
    """The relay's and Bob's reception rates (rows 0 and 1: the buffers'
    inflow and Bob's rate in the objective) in the form ``gain``, and
    Bob's and Eve's (the buffers' outflows, Eve's also in the objective)
    in the form ``out``, around the iterate it."""
    xy, h = it.traj.xy, scn.altitude_h
    return (_Rate(gain, xy, [scn.alice_xy, scn.bob_xy],
                  np.stack([it.gamma_s, it.gamma_r]), h),
            _Rate(out, xy, [scn.bob_xy, scn.eve_xy], it.gamma_r, h))


class _Point(NamedTuple):
    """Terms of a trajectory program at one point, shared by its
    callbacks: the displaced positions (scaled by h) with their hops,
    and the two stacks of ``_rates`` there."""

    px: np.ndarray
    py: np.ndarray
    hop_x: np.ndarray
    hop_y: np.ndarray
    gain: _RateAt
    out: _RateAt


def _points(it: TrajIterate, lay: _Layout, gain: _Rate,
            out: _Rate) -> PointCache:
    """One program's cache of its ``_Point`` terms, with the rates
    ``gain`` and ``out`` (``_rates``)."""
    h = lay.h
    q0 = it.traj.xy.T / h
    i_dx = np.stack([lay.i_delta, lay.i_xi])

    def terms(z):
        zp = z[i_dx]
        q = q0 + zp
        p = zp * h
        return _Point(*q, *(q[:, 1:] - q[:, :-1]), gain.at(p), out.at(p))
    return PointCache(terms)


def _true_flow(lay: _Layout, at: PointCache) -> ConstraintBlock:
    """Net outflows R_out(q_{j+1}) - R_relay(q_j), Bob's rows then
    Eve's, with the curvature of both rates.  The terms at a point come
    from ``at``."""
    i_d, i_x, m = lay.i_delta, lay.i_xi, lay.n - 1
    cols = np.stack([i_d[:-1], i_x[:-1], i_d[1:], i_x[1:]], axis=1)
    rows = np.concatenate([i_d[:-1], i_x[:-1], i_x[:-1],
                           i_d[1:], i_x[1:], i_x[1:]])
    hcols = np.concatenate([i_d[:-1], i_x[:-1], i_d[:-1],
                            i_d[1:], i_x[1:], i_d[1:]])

    def value(z):
        t = at(z)
        return (t.out.r[:, 1:] - t.gain.r[0, :-1]).ravel()

    def jacobian(z):
        t = at(z)
        vals = np.empty((2, m, 4))
        vals[:, :, :2] = -t.gain.grad[:, 0, :-1].T
        vals[:, :, 2:] = t.out.grad[:, :, 1:].transpose(1, 2, 0)
        return vals.reshape(2 * m, 4)

    def hess_weighted(z, w):
        t = at(z)
        w = w.reshape(2, 1, m)
        out = np.empty((2, 6, m))
        out[:, :3] = -w * t.gain.hess[:, 0, :-1]
        out[:, 3:] = w * t.out.hess[:, :, 1:].transpose(1, 0, 2)
        return out.ravel()

    return ConstraintBlock(cols=np.tile(cols, (2, 1)), value=value,
                           jacobian=jacobian, hess_weighted=hess_weighted,
                           hess_idx=(np.tile(rows, 2), np.tile(hcols, 2)))


def _program(scn: Scenario, it: TrajIterate, lay: _Layout, at: PointCache,
             relax: bool = True, ineqs=()) -> SmoothConvexProgram:
    """The trajectory problem at fixed powers in the displacements from
    the iterate it, with the rates of ``at``: the one builder of the
    convex step and of the true problem.

    It maximizes sum (R_bob - R_eve) with Bob's and Eve's relay buffers
    fed by the relay's rate and drained by each receiver's, within the
    travel budget, and the further rows ``ineqs``.  With ``relax`` it
    carries the hair-thin relaxations (each buffer starts with
    ``CAUS_RELAX`` plus the start's worst prefix excess; the relaxed
    travel budget) and starts strictly inside at zero displacement.
    Without, it is the problem itself, with no start.
    """
    i_dx = np.stack([lay.i_delta, lay.i_xi])

    def objective(z):
        t = at(z)
        return -float((t.gain.r[1, 1:] - t.out.r[1, 1:]).sum())

    def gradient(z):
        t = at(z)
        g = np.zeros(lay.dim)
        g[i_dx] = t.out.grad[:, 1] - t.gain.grad[:, 1]
        return g

    def hessian(z):
        t = at(z)
        return (t.out.hess[:, 1] - t.gain.hess[:, 1]).ravel()

    buffer = Buffer(_true_flow(lay, at), np.stack([lay.i_bob, lay.i_eve]),
                    "causality", initial=CAUS_RELAX if relax else 0.0)
    z0 = None
    if relax:
        z0 = np.zeros(lay.dim)
        buffer.seed(z0)
    lb = np.full(lay.dim, -np.inf)
    lb[lay.i_bob] = lb[lay.i_eve] = 0.0
    return SmoothConvexProgram(
        dim=lay.dim, objective=objective, gradient=gradient, hessian=hessian,
        hess_idx=(np.concatenate([lay.i_delta, lay.i_xi, lay.i_xi]),
                  np.concatenate([lay.i_delta, lay.i_xi, lay.i_delta])),
        ineqs=[_mobility_block(scn, it, lay, at, relax), buffer.block(),
               *ineqs],
        lb=lb, strictly_feasible_start=z0)


def _build_subproblem(scn: Scenario, it: TrajIterate,
                      lay: _Layout) -> SmoothConvexProgram:
    """The convex step: ``_program`` on the ``lower`` forms of the
    relay's and Bob's reception rates and the ``upper`` forms of Bob's
    and Eve's outflows, with the affine domain rows w >= (1 +
    ``SLACK_LB``) h^2 of the latter on active slots (Bob's rows, then
    Eve's; scaled by h^2)."""
    h, act = lay.h, lay.active
    gain, out = _rates(scn, it, "lower", "upper")
    at = _points(it, lay, gain, out)
    top = (1.0 + SLACK_LB) * h * h       # w at the domain's edge
    jac = -(2 * out.e[:, :, act] / h).transpose(1, 2, 0).reshape(-1, 2)
    domain = ConstraintBlock(
        cols=np.tile(np.stack([lay.i_delta[act], lay.i_xi[act]], axis=1),
                     (2, 1)),
        value=lambda z: (top - at(z).out.w[:, act].ravel()) / (h * h),
        jacobian=lambda z: jac, name="domain")
    return _program(scn, it, lay, at, ineqs=[domain])


def _true_program(scn: Scenario, it: TrajIterate, lay: _Layout,
                  relax: bool = True) -> SmoothConvexProgram:
    """The true (nonconvex) trajectory problem at the iterate's powers:
    ``_program`` on the ``exact`` rates.  ``_finish`` solves it relaxed
    and certifies on it unrelaxed."""
    return _program(scn, it, lay,
                    _points(it, lay, *_rates(scn, it, "exact", "exact")),
                    relax)


def _displaced(scn: Scenario, pw: PowerAllocation, it: TrajIterate,
               lay: _Layout, z: np.ndarray,
               feas_tol: float) -> tuple[TrajIterate, bool]:
    """The iterate that the solver point z over ``lay`` reaches from it,
    and whether it passes mobility and causality at ``feas_tol``: of an
    SCP step and of the finish alike."""
    delta, xi = lay.unpack(z)
    it_new = make_iterate(
        scn, Trajectory(it.traj.xy + np.stack([delta, xi], axis=1)), pw)
    checks = model.check_all(scn, it_new.traj, pw, tol=feas_tol)
    return it_new, (checks["mobility"].feasible
                    and checks["causality"].feasible)


def _finish(scn: Scenario, pw: PowerAllocation, it: TrajIterate,
            opts: ScpOptions, report: RunReport) -> Optional[TrajIterate]:
    """One guarded solve, at ``FINISH``, of the true trajectory problem
    (``_true_program``, relaxed, from zero displacement) from the SCP
    iterate it, judged in the order the module docstring gives: a start
    not strictly inside is skipped (no solve), and the certificate is
    computed only once every other check passed.  Appends the record to
    ``report.extras["finish"]``: the solve's ``status`` (None when
    skipped), ``iterations``, ``factorizations``,
    ``failed_factorizations`` and residual (``subproblem_kkt``), the
    point's ``objective`` and certificate (``kkt_residual``), whether it
    is ``accepted`` and the ``reason`` if not.  Counts the solve in
    ``COUNTERS``; returns the accepted point, added as the last iterate,
    or None.
    """
    rec = {"status": None, "iterations": 0, "factorizations": 0,
           "failed_factorizations": 0, "subproblem_kkt": None,
           "objective": None, "kkt_residual": None, "accepted": False,
           "reason": None}
    report.extras["finish"].append(rec)
    lay = _Layout(scn, it)
    prog = _true_program(scn, it, lay)
    if not start_margin(prog) > 0.0:
        rec["reason"] = "start not strictly inside"
        return None
    res = solve(prog, FINISH)
    count_solve(report.extras, res)
    it_new, ok = _displaced(scn, pw, it, lay, res.x_opt, opts.feas_tol)
    rec.update(status=res.status, iterations=res.iterations,
               factorizations=res.factorizations,
               failed_factorizations=res.failed_factorizations,
               subproblem_kkt=res.kkt_residual, objective=it_new.objective)
    if res.status != "optimal":
        rec["reason"] = f"solve ended {res.status}"
    elif not ok:
        rec["reason"] = "infeasible at feas_tol"
    elif not it_new.objective >= it.objective:
        rec["reason"] = "objective below the stage iterate"
    else:
        rec["kkt_residual"] = certify(
            _true_program(scn, it, lay, relax=False), res.x_opt, res.duals)
        if not rec["kkt_residual"] <= KKT_TOL:
            rec["reason"] = "certificate above KKT_TOL"
    rec["accepted"] = rec["reason"] is None
    if not rec["accepted"]:
        return None
    report.add(it_new.objective, kkt_residual=rec["kkt_residual"],
               feasible=True, subproblem_kkt=res.kkt_residual,
               subproblem_iters=res.iterations)
    return it_new


def scp_optimize(scn: Scenario, pw: PowerAllocation, traj_0: Trajectory,
                 opts: Optional[ScpOptions] = None,
                 iteration_callback=None
                 ) -> tuple[Trajectory, RunReport]:
    """Sequential convex steps on the trajectory at fixed powers.

    Raises ``ValueError`` when ``traj_0`` violates mobility or ``pw``
    violates information causality on it at ``opts.feas_tol``; the
    caller restores the powers (``model.restore_feasibility``).
    ``iteration_callback(traj)``, when given, is invoked with each
    accepted trajectory iterate (e.g. to snapshot the evolution), an
    accepted finish included.  ``report.extras`` sums the solver's
    ``COUNTERS`` (the finish's included), lists the finish
    attempt (at most one) under ``finish`` (see ``_finish``), keeps a
    dropped step under ``rejected_step`` and the last accepted solve's
    residual as ``final_subproblem_kkt``.  Each iterate records its
    solve's residual as ``subproblem_kkt``; its ``kkt_residual`` is that
    residual too, except an accepted finish's, which is its certificate.
    """
    opts = opts or ScpOptions()
    report = RunReport(stage="trajectory_scp",
                       extras={**dict.fromkeys(COUNTERS, 0), "finish": []})

    _check_base(scn, traj_0, pw, opts.feas_tol)

    it = make_iterate(scn, traj_0, pw)
    report.add(it.objective, feasible=True)

    if np.all(it.gamma_r[1:] == 0.0):
        # Silent relay: the objective is identically zero.
        return traj_0, report.finish("converged")
    report.status = "max_iter"

    for _ in range(opts.max_iter):
        lay = _Layout(scn, it)
        prog = _build_subproblem(scn, it, lay)
        res = solve(prog, SUBPROBLEM)
        count_solve(report.extras, res)
        if res.status != "optimal":
            # Stay on the last feasible iterate; a vanishing interior at
            # a causality-tight point means a (near-)stationary step.
            report.status = f"solver_{res.status}"
            break
        it_new, ok = _displaced(scn, pw, it, lay, res.x_opt, opts.feas_tol)
        delta, xi = lay.unpack(res.x_opt)
        settled = model.settled(it.objective, it_new.objective,
                                opts.rel_tol)
        if it_new.objective < it.objective - 1e-9 or not ok:
            # Numerical regression; keep the last good iterate.  A fall
            # the stop rule calls settled (near a stationary point the
            # step loses about the surrogate's duality gap) ends the
            # stage ``converged`` there, as an ascent that small would.
            report.extras["rejected_step"] = {
                "objective": it_new.objective,
                "subproblem_kkt": res.kkt_residual,
                "subproblem_iters": res.iterations}
            if ok and settled:
                report.status = "converged"
            else:
                report.status = "stalled"
                report.extras["stall_reason"] = ("regressed" if ok
                                                 else "infeasible_step")
            break
        it = it_new
        if iteration_callback is not None:
            iteration_callback(it.traj)
        report.add(it.objective, kkt_residual=res.kkt_residual, feasible=ok,
                   subproblem_kkt=res.kkt_residual,
                   subproblem_iters=res.iterations,
                   step_norm=float(np.max(np.abs(
                       np.concatenate([delta, xi])))))
        if settled:
            report.status = "converged"
            break
        if report.extras["finish"]:
            continue
        finished = _finish(scn, pw, it, opts, report)
        if finished is not None:
            it = finished
            if iteration_callback is not None:
                iteration_callback(it.traj)
            report.status = "converged"
            break
    report.extras["final_subproblem_kkt"] = (
        report.iterations[-1].extras.get("subproblem_kkt"))
    return it.traj, report.finish()
