"""Trajectory optimization with the powers held fixed.

Works on the slack reformulation of the secrecy problem: auxiliary
variables stand in for the squared UAV-Eve and UAV-Bob ground distances,
coupled to the trajectory through affine lower bounds of the convex
squared-distance functions.  Each sequential step linearizes the
reception rates around the current trajectory (quadratic lower bounds),
solves the resulting convex program over the per-slot displacements, and
moves the trajectory.  Every surrogate inequality implies the original
one, so all iterates stay feasible and the true secrecy rate ascends.

SCP converges only linearly, and the surrogates only serve to reach a
KKT point of the true problem.  So after the first step that leaves the
stage running, the stage tries one finish (``_finish``): one guarded
solve (``finish``) of the true, nonconvex
trajectory problem at the fixed powers (``_true_program``: the
displacements and both buffers, no slacks, exact 2 x 2 per-slot
Hessians), from zero displacement with the step's own two relaxations
(below).  Its point is accepted only if the solve ends ``optimal``, the
point passes mobility and causality at ``feas_tol``, its objective is at
least the SCP iterate's and its KKT residual on the unrelaxed problem,
with the solve's duals (``solver.certify``), is within
``power_dc.KKT_TOL``; the stage then ends ``converged`` there, with that
certificate as the iterate's ``kkt_residual``.  Otherwise SCP goes on
exactly as without the finish and tries none again in that stage (a
retry after every step costs more than it saves).  One map of a solver
point to iterate, objective and feasibility (``_judge``) serves the SCP
steps and the finish.  A step that falls below its iterate (beyond
1e-9) is dropped; the stage ends ``converged`` there when the fall is
within the stop rule (``rel_tol``; near a stationary point a surrogate
solution loses about its duality gap), and ``stalled`` (``regressed``)
otherwise.

Information causality is stated with relay buffers (``power_dc.Buffer``)
for Bob's and Eve's rate: b_n >= 0 with b_n <= b_{n-1} + R_in,n-1 -
R_out,n, fed by the relay-rate lower bound and drained by the slack-form
outflow.  The variables are laid out slot by slot (``_Layout``), so each
row touches two neighbouring slots and the Newton matrix is banded.

The slacks are bounded below by ``SLACK_LB`` (scaled by h^2), not by 0:
the log terms only need h^2 + slack > 0, and eps <= eta_lb <= eta and
tau <= zeta_lb <= zeta still over-state Bob's outflow and Eve's rate.
So a base point hovering above Bob or Eve (where the tangent bound is 0
for every displacement) keeps an interior.  The start is zero
displacement, each slack a margin below its distance bound, sized so
the start's extra outflow stays within ``CAUS_RELAX`` / 4 over every
prefix, and each buffer at ``buffer_start`` of its prefix surpluses
there.  Two hair-thin relaxations make it strictly feasible for every
base point that ``build_subproblem`` accepts: each buffer starts with
``CAUS_RELAX`` plus the start's worst prefix excess (powers restored by
bisection to just inside the causality tolerance), and the squared
travel budget is the larger of v_max's and the base point's longest
move, times 1 + ``MOBILITY_RELAX`` (hops of exactly ``v_max``, as in the
data-ferry start).  A step may thus reach points causal only to within
its start's worst excess plus ``CAUS_RELAX``; ``scp_optimize`` accepts
a step only if it passes ``model.check_all`` at ``feas_tol`` (otherwise
the stage ends ``stalled``, ``infeasible_step``), so every accepted
iterate is feasible at ``feas_tol``.

Each step program evaluates a point in one pass (``_StepPoint``): the
unpacked displacements, the objective, Bob's and Eve's flows, the
coupling rows, the slack outflows' curvatures (shared by the objective
Hessian and the flows') and the displaced positions.  The true problem
computes its three rates (``_Rate``, Bob's and Eve's as one stack) and,
on first use, their derivatives.  The callbacks of a program read their
parts from its one ``solver.PointCache``, keyed on the point's bytes, so
a caller that writes into an array it passed before still gets fresh
terms; blocks of equal width share one ``ConstraintBlock`` in the order
of one block each (Bob's and Eve's buffers; the two couplings).  The
parts of the bounds that depend on the iterate only are computed once
per SCP step, in ``make_iterate``.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import model
from .model import PowerAllocation, Scenario, Trajectory
from .power_dc import KKT_TOL, LN2, Buffer, buffer_start
from .report import RunReport
from .solver import (ConstraintBlock, PointCache, SmoothConvexProgram,
                     SolverOptions, certify, solve, start_margin)


SUBPROBLEM = SolverOptions(tol=1e-6)
# The finish solve of the true trajectory problem (``_finish``); its
# point is accepted within ``power_dc.KKT_TOL`` on the unrelaxed problem.
FINISH = SolverOptions(tol=1e-6, max_iter=100)
# The reason a finish is rejected when its point scores below the stage
# iterate it started from (``finish``).
BELOW_ITERATE = "objective below the stage iterate"


def finish(prog: SmoothConvexProgram, opts: SolverOptions, obj: float,
           judge, certificate) -> tuple[object, dict]:
    """One guarded solve of the stage's true problem ``prog`` (with its
    start).

    ``judge(z)`` gives the stage's point at a solver point z, its
    objective and whether it passes at ``feas_tol``; obj is the stage
    iterate's objective.  A start that is not strictly inside is skipped
    (no solve).  The point is accepted only if the solve ends
    ``optimal``, the point passes, its objective is at least obj and,
    checked last, ``certificate(point, z, duals)`` (its KKT residual on
    the unrelaxed problem with the solve's duals) is within ``KKT_TOL``.
    Returns the accepted point (None otherwise) and the attempt's
    record: the solve's ``status`` (None when skipped), ``iterations``
    and residual (``subproblem_kkt``), the point's ``objective`` and
    certificate (``kkt_residual``, None when an earlier check failed),
    ``accepted``, and the ``reason`` for a rejection.
    """
    rec = {"status": None, "iterations": 0, "subproblem_kkt": None,
           "objective": None, "kkt_residual": None, "accepted": False,
           "reason": None}
    if not start_margin(prog) > 0.0:
        rec["reason"] = "start not strictly inside"
        return None, rec
    res = solve(prog, opts)
    point, objective, feasible = judge(res.x_opt)
    rec.update(status=res.status, iterations=res.iterations,
               subproblem_kkt=res.kkt_residual, objective=objective)
    if res.status != "optimal":
        rec["reason"] = f"solve ended {res.status}"
    elif not feasible:
        rec["reason"] = "infeasible at feas_tol"
    elif not objective >= obj:
        rec["reason"] = BELOW_ITERATE
    else:
        rec["kkt_residual"] = certificate(
            point, res.x_opt, np.concatenate([res.duals, res.bound_duals]))
        if not rec["kkt_residual"] <= KKT_TOL:
            rec["reason"] = "certificate above KKT_TOL"
    rec["accepted"] = rec["reason"] is None
    return (point if rec["accepted"] else None), rec


def record_finish(report: RunReport, point, rec: dict) -> None:
    """Append a finish attempt's record to ``report.extras["finish"]``,
    count its solve and Newton steps, and add an accepted point (not
    None) as the last iterate, with its solve's residual as
    ``subproblem_kkt``."""
    report.extras["finish"].append(rec)
    report.extras["solves"] += rec["status"] is not None
    report.extras["newton_steps"] += rec["iterations"]
    if point is not None:
        report.add(rec["objective"], kkt_residual=rec["kkt_residual"],
                   feasible=True, subproblem_kkt=rec["subproblem_kkt"],
                   subproblem_iters=rec["iterations"])


@dataclass
class ScpOptions:
    rel_tol: float = 1e-4
    max_iter: int = 100
    feas_tol: float = 1e-6


@dataclass(frozen=True)
class TrajIterate:
    """Trajectory with all per-slot quantities cached for one SCP step.

    Besides the rates and curvatures, it holds the iterate-only parts of
    the lower bounds (``rate_lower_bounds``, ``distance_lower_bounds``):
    the squared distances zeta and eta, and the gradients of the squared
    ground distances in the bounds' linear terms, each an (x, y) pair of
    per-slot arrays.
    """

    traj: Trajectory
    r_relay: np.ndarray    # reception rate at the relay
    r_bob: np.ndarray      # reception rate at Bob
    zeta: np.ndarray       # squared ground distance to Eve
    eta: np.ndarray        # squared ground distance to Bob
    gamma_r: np.ndarray    # ref_snr * p_r
    c_relay: np.ndarray    # curvature of the relay-rate lower bound
    c_bob: np.ndarray      # curvature of the Bob-rate lower bound
    grad_ar: tuple         # 2 (x - x_A), 2 (y - y_A)
    grad_rb: tuple         # 2 ((x - x_A) - (x_B - x_A)), same in y
    grad_zeta: tuple       # 2 (x - x_E), 2 (y - y_E)
    grad_eta: tuple        # 2 (x - x_B), 2 (y - y_B)
    objective: float


def make_iterate(scn: Scenario, traj: Trajectory,
                 pw: PowerAllocation) -> TrajIterate:
    ch = model.channel_state(scn, traj)
    rp = model.rate_profile(scn, traj, pw)
    d_ar2, d_rd2 = ch.d_ar ** 2, ch.d_rd ** 2
    gamma_s, gamma_r = scn.ref_snr * pw.p_s, scn.ref_snr * pw.p_r
    x, y = traj.x - scn.alice_xy[0], traj.y - scn.alice_xy[1]
    d_bob = scn.bob_xy - scn.alice_xy
    ex, ey = scn.eve_xy
    bx, by = scn.bob_xy
    return TrajIterate(
        traj=traj,
        r_relay=rp.r_relay,
        r_bob=rp.r_bob,
        zeta=(ex - traj.x) ** 2 + (ey - traj.y) ** 2,
        eta=(bx - traj.x) ** 2 + (by - traj.y) ** 2,
        gamma_r=gamma_r,
        c_relay=gamma_s / ((d_ar2 + gamma_s) * d_ar2 * LN2),
        c_bob=gamma_r / ((d_rd2 + gamma_r) * d_rd2 * LN2),
        grad_ar=(2 * x, 2 * y),
        grad_rb=(2 * (x - d_bob[0]), 2 * (y - d_bob[1])),
        grad_zeta=(2 * (traj.x - ex), 2 * (traj.y - ey)),
        grad_eta=(2 * (traj.x - bx), 2 * (traj.y - by)),
        objective=rp.secrecy_sum,
    )


def initial_trajectory(scn: Scenario) -> Trajectory:
    """Straight flight between the endpoints at constant speed.

    With both endpoints free, hover midway between Alice and Bob.
    """
    if scn.start_xy is None and scn.end_xy is None:
        mid = 0.5 * (scn.alice_xy + scn.bob_xy)
        return Trajectory(np.tile(mid, (scn.n_slots, 1)))
    a = scn.start_xy if scn.start_xy is not None else scn.end_xy
    b = scn.end_xy if scn.end_xy is not None else scn.start_xy
    dist = float(np.linalg.norm(b - a))
    budget = (scn.n_slots + 1) * scn.slot_travel
    if dist > budget:
        raise ValueError(
            f"endpoints {dist:.1f} m apart exceed the reachable "
            f"{budget:.1f} m over the horizon")
    # N interior points of the N+2-point uniform subdivision; with one
    # free endpoint the trajectory starts (or ends) on the anchor.
    if scn.start_xy is not None and scn.end_xy is not None:
        t = np.arange(1, scn.n_slots + 1) / (scn.n_slots + 1)
    elif scn.start_xy is not None:
        t = np.zeros(scn.n_slots)
    else:
        t = np.ones(scn.n_slots)
    return Trajectory(a + t[:, None] * (b - a))


def rate_lower_bounds(it: TrajIterate, delta: np.ndarray, xi: np.ndarray):
    """Quadratic lower bounds on both reception rates at a displacement.

    Returns (relay_lb, bob_lb) arrays over all slots, exact at zero
    displacement.
    """
    g_ar, g_rb = it.grad_ar, it.grad_rb
    quad = delta ** 2 + xi ** 2
    relay_lb = it.r_relay - it.c_relay * (quad + g_ar[0] * delta
                                          + g_ar[1] * xi)
    bob_lb = it.r_bob - it.c_bob * (quad + g_rb[0] * delta + g_rb[1] * xi)
    return relay_lb, bob_lb


def distance_lower_bounds(it: TrajIterate, delta: np.ndarray,
                          xi: np.ndarray):
    """Affine lower bounds on the squared Eve/Bob ground distances.

    Returns (zeta_lb, eta_lb): tangent planes of the convex squares,
    exact at zero displacement.
    """
    g_zeta, g_eta = it.grad_zeta, it.grad_eta
    zeta_lb = it.zeta + g_zeta[0] * delta + g_zeta[1] * xi
    eta_lb = it.eta + g_eta[0] * delta + g_eta[1] * xi
    return zeta_lb, eta_lb


class _Layout:
    """Variable layout of the convex step, slot by slot.

    Slot n (0-based) holds delta_n / H and xi_n / H; then, if n >= 1
    and the relay transmits in it, eps_n / H^2 and tau_n / H^2 (silent
    slots contribute nothing to rates or causality); then, if n >= 1,
    Bob's and Eve's buffer after slot n (bits).  The ``i_*`` arrays give
    the positions.  Without ``slacks`` (the true problem of ``_finish``)
    no slot holds eps and tau, and ``i_eps`` and ``i_tau`` are empty.
    """

    def __init__(self, scn: Scenario, it: TrajIterate, slacks: bool = True):
        n = self.n = scn.n_slots
        self.h = scn.altitude_h
        self.h2 = self.h ** 2
        self.active = np.flatnonzero(it.gamma_r[1:] > 0.0) + 1  # slot index
        self.na = self.active.size
        slotted = self.active if slacks else self.active[:0]
        act = np.zeros(n, dtype=int)
        act[slotted] = 1
        buf = (np.arange(n) >= 1).astype(int)
        count = 2 + 2 * act + 2 * buf
        off = np.concatenate([[0], np.cumsum(count)[:-1]])
        self.dim = int(np.sum(count))
        self.i_delta = off
        self.i_xi = off + 1
        self.i_eps = off[slotted] + 2
        self.i_tau = off[slotted] + 3
        self.i_bob = off[1:] + 2 + 2 * act[1:]
        self.i_eve = self.i_bob + 1

    def unpack(self, z: np.ndarray):
        delta = z[self.i_delta] * self.h
        xi = z[self.i_xi] * self.h
        eps = z[self.i_eps] * self.h2
        tau = z[self.i_tau] * self.h2
        return delta, xi, eps, tau


# Hair-thin relaxation (bits) of the buffers' initial content beyond the
# seed's worst prefix excess, so a causality-tight base point still
# leaves the interior-point method an interior.  The start's slack
# margins use at most a quarter of it.
CAUS_RELAX = 1e-8
# Hair-thin relative relaxation of the squared travel budget, so a base
# point with a move of exactly that budget keeps an interior.
MOBILITY_RELAX = 1e-12
# Lower bound of the slacks eps and tau, scaled by h^2.
SLACK_LB = -0.5
# Largest margin of a slack below its distance bound in the start
# (scaled by h^2).
SEED_MARGIN = 1e-3


class _StepPoint(NamedTuple):
    """Terms of a convex step at one point, shared by its callbacks: the
    unpacked displacements, the objective, the causality flows (Bob's
    rows, then Eve's) and the coupling rows (tau's, then eps's), h^2
    plus each slack (eps's row, then tau's) with the curvature of its
    outflow log2(1 + g / (h^2 + slack)), and the displaced positions
    (scaled by h) with their hops."""

    delta: np.ndarray
    xi: np.ndarray
    objective: float
    flow: np.ndarray
    couple: np.ndarray
    a: np.ndarray
    curv: np.ndarray
    px: np.ndarray
    py: np.ndarray
    hop_x: np.ndarray
    hop_y: np.ndarray


def _step_point(it: TrajIterate, lay: _Layout) -> PointCache:
    """One program's cache of its ``_StepPoint`` terms."""
    h, h2, act = lay.h, lay.h2, lay.active
    g_act = it.gamma_r[act]
    xs, ys = it.traj.x / h, it.traj.y / h
    i_slack = np.stack([lay.i_eps, lay.i_tau])
    i_couple = np.concatenate([lay.i_tau, lay.i_eps])
    rows = act - 1                        # row whose outflow slot is active

    def terms(z):
        delta, xi = z[lay.i_delta] * h, z[lay.i_xi] * h
        relay_lb, bob_lb = rate_lower_bounds(it, delta, xi)
        zeta_lb, eta_lb = distance_lower_bounds(it, delta, xi)
        a = h2 + z[i_slack] * h2
        out = np.log2(1.0 + g_act / a)
        flow = np.empty((2, lay.n - 1))
        flow[:] = -relay_lb[:-1]
        flow[:, rows] += out
        couple = (z[i_couple] * h2
                  - np.concatenate([zeta_lb[act], eta_lb[act]])) / h2
        curv = (g_act * (2 * a + g_act) / (LN2 * (a * (a + g_act)) ** 2)
                * h2 * h2)
        px, py = xs + z[lay.i_delta], ys + z[lay.i_xi]
        return _StepPoint(
            delta, xi, float(-bob_lb[1:].sum() + out[1].sum()),
            flow.ravel(), couple, a, curv, px, py, px[1:] - px[:-1],
            py[1:] - py[:-1])
    return PointCache(terms)


def _causality_buffer(it: TrajIterate, lay: _Layout,
                      at: PointCache) -> Buffer:
    """Bob's and Eve's relay buffers of the convex step, in one block.

    Row j (prefix ending at slot j+1, 0-based) takes in the relay-rate
    lower bound of slot j (quadratic in its displacement) and sends out
    log2(1 + g/(h2 + slack)) of slot j+1 when the relay transmits there.
    The terms at a point come from ``at``.
    """
    h, h2, m, na = lay.h, lay.h2, lay.n - 1, lay.na
    g_x, g_y = (g[:-1] for g in it.grad_ar)
    c_r = it.c_relay[:-1]
    g_act = it.gamma_r[lay.active]
    rows = lay.active - 1                 # row whose outflow slot is active
    i_d, i_x = lay.i_delta[:-1], lay.i_xi[:-1]
    cols = np.stack([i_d, i_d, i_x], axis=1)
    cols = np.stack([cols, cols])
    cols[0, rows, 0], cols[1, rows, 0] = lay.i_eps, lay.i_tau
    hess_idx = np.concatenate([lay.i_eps, i_d, i_x, lay.i_tau, i_d, i_x])

    def jacobian(z):
        t = at(z)
        vals = np.zeros((2, m, 3))    # silent rows repeat delta, value 0
        vals[:, rows, 0] = -g_act / (LN2 * t.a * (t.a + g_act)) * h2
        vals[:, :, 1] = c_r * (2 * t.delta[:-1] + g_x) * h
        vals[:, :, 2] = c_r * (2 * t.xi[:-1] + g_y) * h
        return vals.reshape(2 * m, 3)

    def hess_weighted(z, w):
        w = w.reshape(2, m)
        out = np.empty((2, na + 2 * m))
        out[:, :na] = w[:, rows] * at(z).curv
        out[:, na:na + m] = out[:, na + m:] = 2.0 * c_r * w * h * h
        return out.ravel()

    flow = ConstraintBlock(
        cols=cols.reshape(2 * m, 3), value=lambda z: at(z).flow,
        jacobian=jacobian, hess_weighted=hess_weighted,
        hess_idx=(hess_idx, hess_idx))
    return Buffer(flow, np.stack([lay.i_bob, lay.i_eve]), "causality",
                  initial=CAUS_RELAX)


def _mobility_block(scn: Scenario, it: TrajIterate, lay: _Layout,
                    at: PointCache, relax: bool = True) -> ConstraintBlock:
    """Squared hops of the displaced trajectory, then each anchored
    slot's squared distance to its anchor, at most the squared travel
    budget (all scaled by h).  The budget is v_max's or, with ``relax``,
    the larger of that and the base point's longest move (accepted
    within feas_tol), times 1 + ``MOBILITY_RELAX``.  The displaced
    positions and hops (``px``, ``py``, ``hop_x``, ``hop_y``) at a point
    come from ``at``.  The one mobility builder of the convex step and
    of the true problem."""
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


def _seed_buffer(b: Buffer, z0: np.ndarray) -> None:
    """Raise each stock's initial content by the worst prefix excess of
    its flow at z0 and put the buffers at ``buffer_start`` in z0, so
    every prefix surplus of z0 is at least the stock's own initial
    content (``CAUS_RELAX``)."""
    sent = np.cumsum(b.flow.value(z0).reshape(b.idx.shape), axis=-1)
    b.initial = b.initial + np.max(sent, axis=-1, initial=0.0)
    z0[b.idx] = buffer_start(b.initial[..., None] - sent)


def build_subproblem(scn: Scenario, pw: PowerAllocation, it: TrajIterate,
                     feas_tol: float = 1e-6) -> SmoothConvexProgram:
    """Convex displacement program around the iterate (minimize form).

    Raises ``ValueError`` when the base point violates mobility or
    causality at ``feas_tol``, as ``scp_optimize`` does for its input.
    """
    if not model.check_mobility(scn, it.traj, tol=feas_tol).feasible:
        raise ValueError("base point violates mobility constraints")
    verdict = model.check_causality(scn, it.traj, pw, tol=feas_tol)
    if not verdict.feasible:
        raise ValueError(
            f"base point violates causality by {verdict.worst:.3e}")
    return _build_subproblem(scn, it, _Layout(scn, it))


def _build_subproblem(scn: Scenario, it: TrajIterate,
                      lay: _Layout) -> SmoothConvexProgram:
    """The convex step: its blocks are the mobility rows, Bob's and
    Eve's buffers, and the couplings tau <= zeta_lb, eps <= eta_lb."""
    n, h, h2 = lay.n, lay.h, lay.h2
    g_rb = it.grad_rb
    c_d = it.c_bob
    act = lay.active
    g_act = it.gamma_r[act]
    at = _step_point(it, lay)

    # --- objective: -(sum bob rate lb) + sum log2(1 + g/(h2 + tau)) ---
    def gradient(z):
        t = at(z)
        g = np.zeros(lay.dim)
        gd = c_d * (2 * t.delta + g_rb[0])
        gx = c_d * (2 * t.xi + g_rb[1])
        gd[0] = gx[0] = 0.0        # slot 1 carries no relay power
        g[lay.i_delta] = gd * h
        g[lay.i_xi] = gx * h
        den = t.a[1] * (t.a[1] + g_act)
        g[lay.i_tau] = -g_act / (LN2 * den) * h2
        return g

    hess = np.zeros(2 * n + lay.na)
    hess[:n] = hess[n:2 * n] = 2.0 * c_d * h * h
    hess[0] = hess[n] = 0.0
    hess_idx = np.concatenate([lay.i_delta, lay.i_xi, lay.i_tau])

    def hessian(z):
        out = hess.copy()
        out[2 * n:] = at(z).curv[1]
        return out

    # --- causality: Bob's and Eve's relay buffers ---
    # Interior seed: zero displacement, each slack a margin below its
    # distance bound, buffers strictly inside at that point.  Lowering a
    # slack by m <= SEED_MARGIN raises its slot's outflow by at most m
    # times the log term's slope at SEED_MARGIN below the bound, so the
    # margin CAUS_RELAX / (4 N slope) keeps the extra outflow over any
    # prefix below CAUS_RELAX / 4.  Each buffer starts with CAUS_RELAX
    # plus the seed's worst prefix excess, so every prefix surplus of the
    # seed is at least CAUS_RELAX.
    z0 = np.zeros(lay.dim)
    for i_slack, d2 in ((lay.i_eps, it.eta[act]), (lay.i_tau, it.zeta[act])):
        a = h2 + d2 - SEED_MARGIN * h2
        slope = g_act * h2 / (LN2 * a * (a + g_act))
        z0[i_slack] = d2 / h2 - np.minimum(SEED_MARGIN,
                                           CAUS_RELAX / (4 * n * slope))
    buffer = _causality_buffer(it, lay, at)
    _seed_buffer(buffer, z0)

    # --- affine couplings: tau <= zeta_lb, then eps <= eta_lb ---
    i_d, i_x = lay.i_delta[act], lay.i_xi[act]
    jac = np.concatenate([np.stack(
        [np.ones(lay.na), -grad[0][act] * h / h2, -grad[1][act] * h / h2],
        axis=1) for grad in (it.grad_zeta, it.grad_eta)])
    couple = ConstraintBlock(
        cols=np.concatenate([np.stack([i_slack, i_d, i_x], axis=1)
                             for i_slack in (lay.i_tau, lay.i_eps)]),
        value=lambda z: at(z).couple, jacobian=lambda z: jac, name="couplings")

    lb = np.full(lay.dim, -np.inf)
    lb[lay.i_eps] = lb[lay.i_tau] = SLACK_LB
    lb[lay.i_bob] = lb[lay.i_eve] = 0.0
    return SmoothConvexProgram(
        dim=lay.dim, objective=lambda z: at(z).objective, gradient=gradient,
        hessian=hessian, hess_idx=(hess_idx, hess_idx),
        ineqs=[_mobility_block(scn, it, lay, at), buffer.block(), couple],
        lb=lb, strictly_feasible_start=z0)


class _Rate:
    """Reception rates log2(1 + g / (h^2 + |q - c|^2)) per slot (``r``)
    and, computed on first use, their gradients (``grad``: d/dx, d/dy)
    and the lower triangles of their 2 x 2 Hessians (``hess``: xx, yy,
    xy) in the slot's scaled displacement (delta, xi) / h: a trial point
    of the line search needs the rates alone.  Receivers stacked along
    the first axis of (cx, cy) give a stack of rates."""

    def __init__(self, x: np.ndarray, y: np.ndarray, cx, cy,
                 g: np.ndarray, h: float):
        """The receivers at (cx, cy) with SNR numerator g per slot, at
        the positions (x, y)."""
        self.dx, self.dy, self.g, self.h = x - cx, y - cy, g, h
        self.u = h * h + self.dx * self.dx + self.dy * self.dy
        self.r = np.log2(1.0 + g / self.u)

    @functools.cached_property
    def _d(self) -> tuple[np.ndarray, np.ndarray]:
        dx, dy, g, u, h = self.dx, self.dy, self.g, self.u, self.h
        # First and second derivatives of the rate in u.
        r_u = -g / (LN2 * u * (u + g))
        r_uu = g * (2 * u + g) / (LN2 * (u * (u + g)) ** 2)
        h2 = h * h
        grad, hess = np.empty((2,) + u.shape), np.empty((3,) + u.shape)
        grad[0], grad[1] = 2 * r_u * dx * h, 2 * r_u * dy * h
        hess[0] = (4 * r_uu * dx * dx + 2 * r_u) * h2
        hess[1] = (4 * r_uu * dy * dy + 2 * r_u) * h2
        hess[2] = 4 * r_uu * dx * dy * h2
        return grad, hess

    @property
    def grad(self) -> np.ndarray:
        return self._d[0]

    @property
    def hess(self) -> np.ndarray:
        return self._d[1]


class _TruePoint(NamedTuple):
    """Terms of the true problem at one point, shared by its callbacks:
    the displaced positions (scaled by h) with their hops, the relay's
    reception rate, and Bob's (row 0) and Eve's (row 1)."""

    px: np.ndarray
    py: np.ndarray
    hop_x: np.ndarray
    hop_y: np.ndarray
    relay: _Rate
    out: _Rate


def _true_point(scn: Scenario, pw: PowerAllocation, it: TrajIterate,
                lay: _Layout) -> PointCache:
    """One program's cache of its ``_TruePoint`` terms."""
    h = lay.h
    xs, ys = it.traj.x / h, it.traj.y / h
    g_s = scn.ref_snr * pw.p_s
    cx, cy = np.array([scn.bob_xy, scn.eve_xy]).T[:, :, None]

    def terms(z):
        zx, zy = z[lay.i_delta], z[lay.i_xi]
        px, py = xs + zx, ys + zy
        x, y = it.traj.x + zx * h, it.traj.y + zy * h
        return _TruePoint(
            px, py, px[1:] - px[:-1], py[1:] - py[:-1],
            _Rate(x, y, *scn.alice_xy, g_s, h),
            _Rate(x, y, cx, cy, it.gamma_r, h))
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
        return (t.out.r[:, 1:] - t.relay.r[:-1]).ravel()

    def jacobian(z):
        t = at(z)
        vals = np.empty((2, m, 4))
        vals[:, :, :2] = -t.relay.grad[:, :-1].T
        vals[:, :, 2:] = t.out.grad[:, :, 1:].transpose(1, 2, 0)
        return vals.reshape(2 * m, 4)

    def hess_weighted(z, w):
        t = at(z)
        w = w.reshape(2, 1, m)
        out = np.empty((2, 6, m))
        out[:, :3] = -w * t.relay.hess[:, :-1]
        out[:, 3:] = w * t.out.hess[:, :, 1:].transpose(1, 0, 2)
        return out.ravel()

    return ConstraintBlock(cols=np.tile(cols, (2, 1)), value=value,
                           jacobian=jacobian, hess_weighted=hess_weighted,
                           hess_idx=(np.tile(rows, 2), np.tile(hcols, 2)))


def _true_program(scn: Scenario, pw: PowerAllocation, it: TrajIterate,
                  lay: _Layout, relax: bool = True) -> SmoothConvexProgram:
    """The true (nonconvex) trajectory problem at the powers pw, in the
    displacements from the iterate it (a layout without slacks).

    It maximizes sum (R_bob - R_eve) with Bob's and Eve's relay buffers
    fed by the relay's rate and drained by each receiver's.  With
    ``relax`` it carries the convex step's relaxations (each buffer
    starts with ``CAUS_RELAX`` plus the start's worst prefix excess; the
    relaxed travel budget) and starts strictly inside at zero
    displacement.  Without, it is the problem itself, with no start:
    ``_finish`` certifies on it.
    """
    at = _true_point(scn, pw, it, lay)
    i_dx = np.stack([lay.i_delta, lay.i_xi])

    def objective(z):
        r = at(z).out.r
        return -float((r[0, 1:] - r[1, 1:]).sum())

    def gradient(z):
        grad = at(z).out.grad
        g = np.zeros(lay.dim)
        g[i_dx] = grad[:, 1] - grad[:, 0]
        return g

    def hessian(z):
        hess = at(z).out.hess
        return (hess[:, 1] - hess[:, 0]).ravel()

    buffer = Buffer(_true_flow(lay, at), np.stack([lay.i_bob, lay.i_eve]),
                    "causality", initial=CAUS_RELAX if relax else 0.0)
    z0 = None
    if relax:
        z0 = np.zeros(lay.dim)
        _seed_buffer(buffer, z0)
    lb = np.full(lay.dim, -np.inf)
    lb[lay.i_bob] = lb[lay.i_eve] = 0.0
    return SmoothConvexProgram(
        dim=lay.dim, objective=objective, gradient=gradient, hessian=hessian,
        hess_idx=(np.concatenate([lay.i_delta, lay.i_xi, lay.i_xi]),
                  np.concatenate([lay.i_delta, lay.i_xi, lay.i_delta])),
        ineqs=[_mobility_block(scn, it, lay, at, relax), buffer.block()],
        lb=lb, strictly_feasible_start=z0)


def _judge(scn: Scenario, pw: PowerAllocation, it: TrajIterate,
           lay: _Layout, feas_tol: float):
    """The stage's map of a solver point z over ``lay`` to the iterate
    it reaches from it, its objective and whether it passes mobility
    and causality at ``feas_tol``: of an SCP step and of the finish
    alike."""
    def judge(z):
        delta, xi, _, _ = lay.unpack(z)
        it_new = make_iterate(
            scn, Trajectory(it.traj.xy + np.stack([delta, xi], axis=1)), pw)
        checks = model.check_all(scn, it_new.traj, pw, tol=feas_tol)
        return it_new, it_new.objective, (checks["mobility"].feasible
                                          and checks["causality"].feasible)
    return judge


def _finish(scn: Scenario, pw: PowerAllocation, it: TrajIterate,
            opts: ScpOptions) -> tuple[Optional[TrajIterate], dict]:
    """``finish`` on the true trajectory problem
    (``_true_program``, relaxed, from zero displacement) from the SCP
    iterate it; the point is certified on the unrelaxed problem."""
    lay = _Layout(scn, it, slacks=False)
    return finish(
        _true_program(scn, pw, it, lay), FINISH, it.objective,
        _judge(scn, pw, it, lay, opts.feas_tol),
        lambda _, z, duals: certify(
            _true_program(scn, pw, it, lay, relax=False), z, duals))


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
    accepted finish included.  ``report.extras`` counts the ``solves``
    and their ``newton_steps`` (the finish's included), lists the finish
    attempt (at most one) under ``finish`` (see ``finish``), keeps a
    dropped step under ``rejected_step`` and the last accepted solve's
    residual as ``final_subproblem_kkt``.  Each iterate records its
    solve's residual as ``subproblem_kkt``; its ``kkt_residual`` is that
    residual too, except an accepted finish's, which is its certificate.
    """
    opts = opts or ScpOptions()
    report = RunReport(stage="trajectory_scp",
                       extras={"solves": 0, "newton_steps": 0, "finish": []})

    if not model.check_mobility(scn, traj_0, tol=opts.feas_tol).feasible:
        raise ValueError("initial trajectory violates mobility constraints")
    verdict = model.check_causality(scn, traj_0, pw, tol=opts.feas_tol)
    if not verdict.feasible:
        raise ValueError(f"input powers violate information causality by "
                         f"{verdict.worst:.3e}")

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
        report.extras["solves"] += 1
        report.extras["newton_steps"] += res.iterations
        if res.status != "optimal":
            # Stay on the last feasible iterate; a vanishing interior at
            # a causality-tight point means a (near-)stationary step.
            report.status = f"solver_{res.status}"
            break
        it_new, _, ok = _judge(scn, pw, it, lay, opts.feas_tol)(res.x_opt)
        delta, xi, eps, tau = lay.unpack(res.x_opt)
        change = abs(it_new.objective - it.objective)
        rel = change / max(abs(it_new.objective), 1e-10)
        settled = rel < opts.rel_tol or change <= model.OBJ_ABS_TOL
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
        # Tightness diagnostic of the slack couplings at the optimum
        # (silent slots have no slacks and count as tight).
        zeta_lb, eta_lb = distance_lower_bounds(it, delta, xi)
        slack_gap = float(np.max(np.minimum(zeta_lb[lay.active] - tau,
                                            eta_lb[lay.active] - eps),
                                 initial=0.0))
        it = it_new
        if iteration_callback is not None:
            iteration_callback(it.traj)
        report.add(it.objective, kkt_residual=res.kkt_residual, feasible=ok,
                   subproblem_kkt=res.kkt_residual,
                   subproblem_iters=res.iterations,
                   slack_tightness_gap=slack_gap,
                   step_norm=float(np.max(np.abs(
                       np.concatenate([delta, xi])))))
        if settled:
            report.status = "converged"
            break
        if report.extras["finish"]:
            continue
        finished, fin = _finish(scn, pw, it, opts)
        record_finish(report, finished, fin)
        if finished is not None:
            it = finished
            if iteration_callback is not None:
                iteration_callback(it.traj)
            report.status = "converged"
            break
    report.extras["final_subproblem_kkt"] = (
        report.iterations[-1].extras.get("subproblem_kkt"))
    return it.traj, report.finish()
