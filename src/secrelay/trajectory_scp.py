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
stage running, the stage tries one finish (``_finish``): the guarded
solve of both stages (``power_dc.finish``) on the true, nonconvex
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

Each step program computes its per-point terms once per point
(``_StepPoint``): the unpacked displacements and slacks, both rate and
both distance lower bounds, the slack outflows and the displaced
positions.  The objective, gradient, Hessian and block callbacks read
them from one ``solver.PointCache`` per program, keyed on the point's
bytes, so a caller that writes into an array it passed before still
gets fresh terms.  The parts of the bounds that depend on the iterate
only are computed once per SCP step, in ``make_iterate``.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import model
from .model import PowerAllocation, Scenario, Trajectory
from .power_dc import LN2, Buffer, buffer_start, finish, record_finish
from .report import RunReport
from .solver import (ConstraintBlock, PointCache, SmoothConvexProgram,
                     SolverOptions, certify, solve)


SUBPROBLEM = SolverOptions(tol=1e-6)
# The finish solve of the true trajectory problem (``_finish``); its
# point is accepted within ``power_dc.KKT_TOL`` on the unrelaxed problem.
FINISH = SolverOptions(tol=1e-6, max_iter=100)


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
    unpacked variables, the rate and distance lower bounds, h^2 plus
    each slack, the outflows log2(1 + g / (h^2 + slack)) and the
    displaced positions (scaled by h) with their hops."""

    delta: np.ndarray
    xi: np.ndarray
    relay_lb: np.ndarray
    bob_lb: np.ndarray
    zeta_lb: np.ndarray
    eta_lb: np.ndarray
    a_eps: np.ndarray
    a_tau: np.ndarray
    out_eps: np.ndarray
    out_tau: np.ndarray
    px: np.ndarray
    py: np.ndarray
    hop_x: np.ndarray
    hop_y: np.ndarray


def _step_point(it: TrajIterate, lay: _Layout) -> PointCache:
    """One program's cache of its ``_StepPoint`` terms."""
    g_act = it.gamma_r[lay.active]
    xs, ys = it.traj.x / lay.h, it.traj.y / lay.h

    def terms(z):
        delta, xi, eps, tau = lay.unpack(z)
        a_eps, a_tau = lay.h2 + eps, lay.h2 + tau
        px, py = xs + z[lay.i_delta], ys + z[lay.i_xi]
        return _StepPoint(
            delta, xi, *rate_lower_bounds(it, delta, xi),
            *distance_lower_bounds(it, delta, xi), a_eps, a_tau,
            np.log2(1.0 + g_act / a_eps), np.log2(1.0 + g_act / a_tau),
            px, py, np.diff(px), np.diff(py))
    return PointCache(terms)


def _causality_buffers(it: TrajIterate, lay: _Layout,
                       at: PointCache) -> list[Buffer]:
    """Bob's and Eve's relay buffers of the convex step.

    Row j (prefix ending at slot j+1, 0-based) takes in the relay-rate
    lower bound of slot j (quadratic in its displacement) and sends out
    log2(1 + g/(h2 + slack)) of slot j+1 when the relay transmits there.
    The terms at a point come from ``at``.
    """
    h, h2 = lay.h, lay.h2
    g_x, g_y = (g[:-1] for g in it.grad_ar)
    c_r = it.c_relay[:-1]
    g_act = it.gamma_r[lay.active]
    rows = lay.active - 1                 # row whose outflow slot is active
    i_d, i_x = lay.i_delta[:-1], lay.i_xi[:-1]

    def flow(i_slack, slack):
        cols = np.stack([i_d, i_d, i_x], axis=1)
        cols[rows, 0] = i_slack           # silent rows repeat delta, value 0
        hess_idx = np.concatenate([i_slack, i_d, i_x])
        a_name, out_name = "a_" + slack, "out_" + slack

        def value(z):
            t = at(z)
            f = -t.relay_lb[:-1]
            f[rows] += getattr(t, out_name)
            return f

        def jacobian(z):
            t = at(z)
            a = getattr(t, a_name)
            vals = np.zeros((lay.n - 1, 3))
            vals[rows, 0] = -g_act / (LN2 * a * (a + g_act)) * h2
            vals[:, 1] = c_r * (2 * t.delta[:-1] + g_x) * h
            vals[:, 2] = c_r * (2 * t.xi[:-1] + g_y) * h
            return vals

        def hess_weighted(z, w):
            a = getattr(at(z), a_name)
            hs = w[rows] * (g_act * (2 * a + g_act)
                            / (LN2 * (a * (a + g_act)) ** 2) * h2 * h2)
            dq = 2.0 * c_r * w * h * h
            return np.concatenate([hs, dq, dq])

        return ConstraintBlock(cols=cols, value=value, jacobian=jacobian,
                               hess_weighted=hess_weighted,
                               hess_idx=(hess_idx, hess_idx))

    return [Buffer(flow(lay.i_eps, "eps"), lay.i_bob, "bob_causality",
                   initial=CAUS_RELAX),
            Buffer(flow(lay.i_tau, "tau"), lay.i_eve, "eve_causality",
                   initial=CAUS_RELAX)]


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
        ends = (px[a_idx] - a_xy[:, 0]) ** 2 + (py[a_idx] - a_xy[:, 1]) ** 2
        return np.concatenate([hop_x ** 2 + hop_y ** 2, ends])

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
        ddx = 2 * t.hop_x
        ddy = 2 * t.hop_y
        vals = np.zeros((m_mob, 4))
        vals[:n - 1] = np.stack([-ddx, ddx, -ddy, ddy], axis=1)
        vals[n - 1:, 0] = 2 * (t.px[a_idx] - a_xy[:, 0])
        vals[n - 1:, 1] = 2 * (t.py[a_idx] - a_xy[:, 1])
        return vals

    def mob_hess(z, w):
        dd = np.zeros(n)
        dd[1:] += 2 * w[:n - 1]
        dd[:-1] += 2 * w[:n - 1]
        np.add.at(dd, a_idx, 2 * w[n - 1:])
        off = -2 * w[:n - 1]
        return np.concatenate([dd, dd, off, off])

    return ConstraintBlock(cols=mob_cols, value=mob_value,
                           jacobian=mob_jacobian, hess_weighted=mob_hess,
                           hess_idx=(mob_rows, mob_cols_h), name="mobility")


def _seed_buffers(buffers: list[Buffer], z0: np.ndarray) -> None:
    """Raise each buffer's initial content by the worst prefix excess of
    its flow at z0 and put the buffer at ``buffer_start`` in z0, so
    every prefix surplus of z0 is at least the buffer's own initial
    content (``CAUS_RELAX``)."""
    for b in buffers:
        sent = np.cumsum(b.flow.value(z0))
        b.initial += float(np.max(sent, initial=0.0))
        z0[b.idx] = buffer_start(b.initial - sent)


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
    n, h, h2 = lay.n, lay.h, lay.h2
    g_rb = it.grad_rb
    c_d = it.c_bob
    act = lay.active
    g_act = it.gamma_r[act]
    at = _step_point(it, lay)

    # --- objective: -(sum bob rate lb) + sum log2(1 + g/(h2 + tau)) ---
    def objective(z):
        t = at(z)
        return float(-np.sum(t.bob_lb[1:]) + np.sum(t.out_tau))

    def gradient(z):
        t = at(z)
        g = np.zeros(lay.dim)
        gd = c_d * (2 * t.delta + g_rb[0])
        gx = c_d * (2 * t.xi + g_rb[1])
        gd[0] = gx[0] = 0.0        # slot 1 carries no relay power
        g[lay.i_delta] = gd * h
        g[lay.i_xi] = gx * h
        den = t.a_tau * (t.a_tau + g_act)
        g[lay.i_tau] = -g_act / (LN2 * den) * h2
        return g

    dd0 = 2.0 * c_d * h * h
    dd0[0] = 0.0
    hess_idx = np.concatenate([lay.i_delta, lay.i_xi, lay.i_tau])

    def hessian(z):
        a = at(z).a_tau
        ht = g_act * (2 * a + g_act) / (LN2 * (a * (a + g_act)) ** 2) * h2 * h2
        return np.concatenate([dd0, dd0, ht])

    blocks = [_mobility_block(scn, it, lay, at)]
    i_d, i_x = lay.i_delta, lay.i_xi

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
    buffers = _causality_buffers(it, lay, at)
    _seed_buffers(buffers, z0)
    blocks += [b.block() for b in buffers]

    # --- affine couplings: tau <= zeta_lb, eps <= eta_lb ---
    def couple_factory(i_slack, grad, which):
        gx, gy = grad[0][act], grad[1][act]    # d bound / d delta, xi
        J = np.stack([np.ones(lay.na), -gx * h / h2, -gy * h / h2], axis=1)
        name = which + "_lb"

        def value(z):
            bound = getattr(at(z), name)
            return (z[i_slack] * h2 - bound[act]) / h2

        return value, lambda z: J

    for nm, i_slack, grad, which in (
            ("tau_le_zeta", lay.i_tau, it.grad_zeta, "zeta"),
            ("eps_le_eta", lay.i_eps, it.grad_eta, "eta")):
        val, jac = couple_factory(i_slack, grad, which)
        blocks.append(ConstraintBlock(
            cols=np.stack([i_slack, i_d[act], i_x[act]], axis=1), value=val,
            jacobian=jac, name=nm))

    lb = np.full(lay.dim, -np.inf)
    lb[lay.i_eps] = lb[lay.i_tau] = SLACK_LB
    lb[lay.i_bob] = lb[lay.i_eve] = 0.0
    return SmoothConvexProgram(
        dim=lay.dim, objective=objective, gradient=gradient, hessian=hessian,
        hess_idx=(hess_idx, hess_idx), ineqs=blocks, lb=lb,
        strictly_feasible_start=z0)


class _RateDerivatives(NamedTuple):
    """The derivatives of a ``_Rate``."""

    gx: np.ndarray
    gy: np.ndarray
    hxx: np.ndarray
    hyy: np.ndarray
    hxy: np.ndarray


class _Rate:
    """A reception rate log2(1 + g / (h^2 + |q - c|^2)) per slot (``r``)
    and, computed on first use, its gradient (gx, gy) and the lower
    triangle of its 2 x 2 Hessian (hxx, hyy, hxy) in the slot's scaled
    displacement (delta, xi) / h (``d``): a trial point of the line
    search needs the rate alone."""

    def __init__(self, x: np.ndarray, y: np.ndarray, c: np.ndarray,
                 g: np.ndarray, h: float):
        """The receiver at c with SNR numerator g per slot, at the
        positions (x, y)."""
        self.dx, self.dy, self.g, self.h = x - c[0], y - c[1], g, h
        self.u = h * h + self.dx * self.dx + self.dy * self.dy
        self.r = np.log2(1.0 + g / self.u)

    @functools.cached_property
    def d(self) -> _RateDerivatives:
        dx, dy, g, u, h = self.dx, self.dy, self.g, self.u, self.h
        # First and second derivatives of the rate in u.
        r_u = -g / (LN2 * u * (u + g))
        r_uu = g * (2 * u + g) / (LN2 * (u * (u + g)) ** 2)
        h2 = h * h
        return _RateDerivatives(
            2 * r_u * dx * h, 2 * r_u * dy * h,
            (4 * r_uu * dx * dx + 2 * r_u) * h2,
            (4 * r_uu * dy * dy + 2 * r_u) * h2, 4 * r_uu * dx * dy * h2)


class _TruePoint(NamedTuple):
    """Terms of the true problem at one point, shared by its callbacks:
    the displaced positions (scaled by h) with their hops, and the three
    reception rates."""

    px: np.ndarray
    py: np.ndarray
    hop_x: np.ndarray
    hop_y: np.ndarray
    relay: _Rate
    bob: _Rate
    eve: _Rate


def _true_point(scn: Scenario, pw: PowerAllocation, it: TrajIterate,
                lay: _Layout) -> PointCache:
    """One program's cache of its ``_TruePoint`` terms."""
    h = lay.h
    xs, ys = it.traj.x / h, it.traj.y / h
    g_s = scn.ref_snr * pw.p_s

    def terms(z):
        zx, zy = z[lay.i_delta], z[lay.i_xi]
        px, py = xs + zx, ys + zy
        x, y = it.traj.x + zx * h, it.traj.y + zy * h
        return _TruePoint(
            px, py, np.diff(px), np.diff(py),
            _Rate(x, y, scn.alice_xy, g_s, h),
            _Rate(x, y, scn.bob_xy, it.gamma_r, h),
            _Rate(x, y, scn.eve_xy, it.gamma_r, h))
    return PointCache(terms)


def _true_flow(lay: _Layout, at: PointCache, out: str) -> ConstraintBlock:
    """Net outflow R_out(q_{j+1}) - R_relay(q_j) of row j, with R_out
    the rate ``out`` ("bob" or "eve") and the curvature of both rates.
    The terms at a point come from ``at``."""
    i_d, i_x = lay.i_delta, lay.i_xi
    cols = np.stack([i_d[:-1], i_x[:-1], i_d[1:], i_x[1:]], axis=1)
    rows = np.concatenate([i_d[:-1], i_x[:-1], i_x[:-1],
                           i_d[1:], i_x[1:], i_x[1:]])
    hcols = np.concatenate([i_d[:-1], i_x[:-1], i_d[:-1],
                            i_d[1:], i_x[1:], i_d[1:]])

    def value(z):
        t = at(z)
        return getattr(t, out).r[1:] - t.relay.r[:-1]

    def jacobian(z):
        t = at(z)
        o, r = getattr(t, out).d, t.relay.d
        return np.stack([-r.gx[:-1], -r.gy[:-1], o.gx[1:], o.gy[1:]], axis=1)

    def hess_weighted(z, w):
        t = at(z)
        o, r = getattr(t, out).d, t.relay.d
        return np.concatenate([-w * r.hxx[:-1], -w * r.hyy[:-1],
                               -w * r.hxy[:-1], w * o.hxx[1:],
                               w * o.hyy[1:], w * o.hxy[1:]])

    return ConstraintBlock(cols=cols, value=value, jacobian=jacobian,
                           hess_weighted=hess_weighted,
                           hess_idx=(rows, hcols))


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
    i_d, i_x = lay.i_delta, lay.i_xi

    def objective(z):
        t = at(z)
        return -float(np.sum(t.bob.r[1:] - t.eve.r[1:]))

    def gradient(z):
        t = at(z)
        eve, bob = t.eve.d, t.bob.d
        g = np.zeros(lay.dim)
        g[i_d] = eve.gx - bob.gx
        g[i_x] = eve.gy - bob.gy
        return g

    def hessian(z):
        t = at(z)
        eve, bob = t.eve.d, t.bob.d
        return np.concatenate([eve.hxx - bob.hxx, eve.hyy - bob.hyy,
                               eve.hxy - bob.hxy])

    initial = CAUS_RELAX if relax else 0.0
    buffers = [Buffer(_true_flow(lay, at, "bob"), lay.i_bob, "bob_causality",
                      initial=initial),
               Buffer(_true_flow(lay, at, "eve"), lay.i_eve, "eve_causality",
                      initial=initial)]
    z0 = None
    if relax:
        z0 = np.zeros(lay.dim)
        _seed_buffers(buffers, z0)
    lb = np.full(lay.dim, -np.inf)
    lb[lay.i_bob] = lb[lay.i_eve] = 0.0
    return SmoothConvexProgram(
        dim=lay.dim, objective=objective, gradient=gradient, hessian=hessian,
        hess_idx=(np.concatenate([i_d, i_x, i_x]),
                  np.concatenate([i_d, i_x, i_d])),
        ineqs=[_mobility_block(scn, it, lay, at, relax)]
        + [b.block() for b in buffers],
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
    """``power_dc.finish`` on the true trajectory problem
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
    attempt (at most one) under ``finish`` (see ``power_dc.finish``), keeps a
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
