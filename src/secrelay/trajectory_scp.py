"""Trajectory optimization with the powers held fixed.

Works on the slack reformulation of the secrecy problem: auxiliary
variables stand in for the squared UAV-Eve and UAV-Bob ground distances,
coupled to the trajectory through affine lower bounds of the convex
squared-distance functions.  Each sequential step linearizes the
reception rates around the current trajectory (quadratic lower bounds),
solves the resulting convex program over the per-slot displacements, and
moves the trajectory.  Every surrogate inequality implies the original
one, so all iterates stay feasible and the true secrecy rate ascends.

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
there.  It is strictly feasible whenever the base point is feasible with
every hop strictly below ``v_max``; phase I then does not run.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import model
from .model import (PowerAllocation, Scenario, Trajectory,
                    restore_feasibility)
from .power_dc import LN2, Buffer, buffer_start
from .report import RunReport
from .solver import (ConstraintBlock, RowSparse, SmoothConvexProgram,
                     SolverOptions, SymSparse, diag_hessian, solve)


SUBPROBLEM = SolverOptions(tol=1e-6)


@dataclass
class ScpOptions:
    rel_tol: float = 1e-4
    max_iter: int = 100
    feas_tol: float = 1e-6


@dataclass(frozen=True)
class TrajIterate:
    """Trajectory with all per-slot quantities cached for one SCP step."""

    traj: Trajectory
    r_relay: np.ndarray    # reception rate at the relay
    r_bob: np.ndarray      # reception rate at Bob
    zeta: np.ndarray       # squared ground distance to Eve
    eta: np.ndarray        # squared ground distance to Bob
    gamma_r: np.ndarray    # ref_snr * p_r
    c_relay: np.ndarray    # curvature of the relay-rate lower bound
    c_bob: np.ndarray      # curvature of the Bob-rate lower bound
    objective: float


def make_iterate(scn: Scenario, traj: Trajectory,
                 pw: PowerAllocation) -> TrajIterate:
    ch = model.channel_state(scn, traj)
    rp = model.rate_profile(scn, traj, pw)
    d_ar2, d_rd2 = ch.d_ar ** 2, ch.d_rd ** 2
    gamma_s, gamma_r = scn.ref_snr * pw.p_s, scn.ref_snr * pw.p_r
    return TrajIterate(
        traj=traj,
        r_relay=rp.r_relay,
        r_bob=rp.r_bob,
        zeta=np.sum((scn.eve_xy - traj.xy) ** 2, axis=1),
        eta=np.sum((scn.bob_xy - traj.xy) ** 2, axis=1),
        gamma_r=gamma_r,
        c_relay=gamma_s / ((d_ar2 + gamma_s) * d_ar2 * LN2),
        c_bob=gamma_r / ((d_rd2 + gamma_r) * d_rd2 * LN2),
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


def rate_lower_bounds(scn: Scenario, it: TrajIterate,
                      delta: np.ndarray, xi: np.ndarray):
    """Quadratic lower bounds on both reception rates at a displacement.

    Returns (relay_lb, bob_lb) arrays over all slots, exact at zero
    displacement.
    """
    x, y = it.traj.x - scn.alice_xy[0], it.traj.y - scn.alice_xy[1]
    d_bob = scn.bob_xy - scn.alice_xy
    quad = delta ** 2 + xi ** 2
    relay_lb = it.r_relay - it.c_relay * (quad + 2 * x * delta + 2 * y * xi)
    bob_lb = it.r_bob - it.c_bob * (quad + 2 * (x - d_bob[0]) * delta
                                    + 2 * (y - d_bob[1]) * xi)
    return relay_lb, bob_lb


def distance_lower_bounds(scn: Scenario, it: TrajIterate,
                          delta: np.ndarray, xi: np.ndarray):
    """Affine lower bounds on the squared Eve/Bob ground distances.

    Returns (zeta_lb, eta_lb): tangent planes of the convex squares,
    exact at zero displacement.
    """
    ex, ey = scn.eve_xy
    bx, by = scn.bob_xy
    x, y = it.traj.x, it.traj.y
    zeta_lb = ((ex - x) ** 2 + (ey - y) ** 2
               + 2 * (x - ex) * delta + 2 * (y - ey) * xi)
    eta_lb = ((bx - x) ** 2 + (by - y) ** 2
              + 2 * (x - bx) * delta + 2 * (y - by) * xi)
    return zeta_lb, eta_lb


class _Layout:
    """Variable layout of the convex step, slot by slot.

    Slot n (0-based) holds delta_n / H and xi_n / H; then, if n >= 1
    and the relay transmits in it, eps_n / H^2 and tau_n / H^2 (silent
    slots contribute nothing to rates or causality); then, if n >= 1,
    Bob's and Eve's buffer after slot n (bits).  The ``i_*`` arrays give
    the positions.
    """

    def __init__(self, scn: Scenario, it: TrajIterate):
        n = self.n = scn.n_slots
        self.h = scn.altitude_h
        self.h2 = self.h ** 2
        self.active = np.flatnonzero(it.gamma_r[1:] > 0.0) + 1  # slot index
        self.na = self.active.size
        act = np.zeros(n, dtype=int)
        act[self.active] = 1
        buf = (np.arange(n) >= 1).astype(int)
        count = 2 + 2 * act + 2 * buf
        off = np.concatenate([[0], np.cumsum(count)[:-1]])
        self.dim = int(np.sum(count))
        self.i_delta = off
        self.i_xi = off + 1
        self.i_eps = off[self.active] + 2
        self.i_tau = off[self.active] + 3
        self.i_bob = off[1:] + 2 + 2 * act[1:]
        self.i_eve = self.i_bob + 1

    def unpack(self, z: np.ndarray):
        delta = z[self.i_delta] * self.h
        xi = z[self.i_xi] * self.h
        eps = z[self.i_eps] * self.h2
        tau = z[self.i_tau] * self.h2
        return delta, xi, eps, tau


# Hair-thin relaxation (bits), the buffers' initial content, so a
# causality-tight base point still leaves the interior-point method an
# interior; stays far inside the model's 1e-6 feasibility tolerance.
# The start's slack margins use at most a quarter of it.
CAUS_RELAX = 1e-8
# Lower bound of the slacks eps and tau, scaled by h^2.
SLACK_LB = -0.5
# Largest margin of a slack below its distance bound in the start
# (scaled by h^2).
SEED_MARGIN = 1e-3


def _causality_buffers(scn: Scenario, it: TrajIterate,
                       lay: _Layout) -> list[Buffer]:
    """Bob's and Eve's relay buffers of the convex step.

    Row j (prefix ending at slot j+1, 0-based) takes in the relay-rate
    lower bound of slot j (quadratic in its displacement) and sends out
    log2(1 + g/(h2 + slack)) of slot j+1 when the relay transmits there.
    """
    h, h2 = lay.h, lay.h2
    x = it.traj.x - scn.alice_xy[0]
    y = it.traj.y - scn.alice_xy[1]
    c_r = it.c_relay[:-1]
    g_act = it.gamma_r[lay.active]
    rows = lay.active - 1                 # row whose outflow slot is active
    i_d, i_x = lay.i_delta[:-1], lay.i_xi[:-1]

    def flow(i_slack):
        cols = np.stack([i_d, i_d, i_x], axis=1)
        cols[rows, 0] = i_slack           # silent rows repeat delta, value 0
        hess_idx = np.concatenate([i_slack, i_d, i_x])

        def value(z):
            delta, xi, _, _ = lay.unpack(z)
            relay_lb, _ = rate_lower_bounds(scn, it, delta, xi)
            f = -relay_lb[:-1]
            f[rows] += np.log2(1.0 + g_act / (h2 + z[i_slack] * h2))
            return f

        def jacobian(z):
            delta, xi, _, _ = lay.unpack(z)
            a = h2 + z[i_slack] * h2
            vals = np.zeros((lay.n - 1, 3))
            vals[rows, 0] = -g_act / (LN2 * a * (a + g_act)) * h2
            vals[:, 1] = c_r * (2 * delta[:-1] + 2 * x[:-1]) * h
            vals[:, 2] = c_r * (2 * xi[:-1] + 2 * y[:-1]) * h
            return RowSparse(cols, vals)

        def hess_weighted(z, w):
            a = h2 + z[i_slack] * h2
            hs = w[rows] * (g_act * (2 * a + g_act)
                            / (LN2 * (a * (a + g_act)) ** 2) * h2 * h2)
            dq = 2.0 * c_r * w * h * h
            return diag_hessian(hess_idx, np.concatenate([hs, dq, dq]))

        return ConstraintBlock(m=lay.n - 1, value=value, jacobian=jacobian,
                               hess_weighted=hess_weighted)

    return [Buffer(flow(lay.i_eps), lay.i_bob, "bob_causality",
                   initial=CAUS_RELAX),
            Buffer(flow(lay.i_tau), lay.i_eve, "eve_causality",
                   initial=CAUS_RELAX)]


def build_subproblem(scn: Scenario, pw: PowerAllocation, it: TrajIterate,
                     feas_tol: float = 1e-6) -> SmoothConvexProgram:
    """Convex displacement program around the iterate (minimize form)."""
    verdict = model.check_causality(scn, it.traj, pw, tol=feas_tol)
    if not verdict.feasible:
        raise ValueError(
            f"base point violates causality by {verdict.worst:.3e}")
    return _build_subproblem(scn, it, _Layout(scn, it))


def _build_subproblem(scn: Scenario, it: TrajIterate,
                      lay: _Layout) -> SmoothConvexProgram:
    n, h, h2 = lay.n, lay.h, lay.h2
    x = it.traj.x - scn.alice_xy[0]
    y = it.traj.y - scn.alice_xy[1]
    d_bob = scn.bob_xy - scn.alice_xy
    c_d = it.c_bob
    act = lay.active
    g_act = it.gamma_r[act]
    v = scn.slot_travel

    # --- objective: -(sum bob rate lb) + sum log2(1 + g/(h2 + tau)) ---
    def objective(z):
        delta, xi, _, tau = lay.unpack(z)
        _, bob_lb = rate_lower_bounds(scn, it, delta, xi)
        eve = np.log2(1.0 + g_act / (h2 + tau))
        return float(-np.sum(bob_lb[1:]) + np.sum(eve))

    def gradient(z):
        delta, xi, _, tau = lay.unpack(z)
        g = np.zeros(lay.dim)
        gd = c_d * (2 * delta + 2 * (x - d_bob[0]))
        gx = c_d * (2 * xi + 2 * (y - d_bob[1]))
        gd[0] = gx[0] = 0.0        # slot 1 carries no relay power
        g[lay.i_delta] = gd * h
        g[lay.i_xi] = gx * h
        den = (h2 + tau) * (h2 + tau + g_act)
        g[lay.i_tau] = -g_act / (LN2 * den) * h2
        return g

    dd0 = 2.0 * c_d * h * h
    dd0[0] = 0.0
    hess_idx = np.concatenate([lay.i_delta, lay.i_xi, lay.i_tau])

    def hessian(z):
        a = h2 + z[lay.i_tau] * h2
        ht = g_act * (2 * a + g_act) / (LN2 * (a * (a + g_act)) ** 2) * h2 * h2
        return diag_hessian(hess_idx, np.concatenate([dd0, dd0, ht]))

    blocks = []

    # --- mobility: squared hops of the displaced trajectory ---
    anchors = []
    if scn.start_xy is not None:
        anchors.append((scn.start_xy, 0))
    if scn.end_xy is not None:
        anchors.append((scn.end_xy, n - 1))
    m_mob = (n - 1) + len(anchors)
    v2s = (v / h) ** 2  # scaled squared travel budget

    xs = it.traj.x / h
    ys = it.traj.y / h
    i_d, i_x = lay.i_delta, lay.i_xi
    mob_cols = np.stack([i_d[:-1], i_d[1:], i_x[:-1], i_x[1:]], axis=1)
    for _, idx in anchors:
        mob_cols = np.vstack([mob_cols, [i_d[idx], i_x[idx], i_x[idx],
                                         i_x[idx]]])
    a_idx = np.array([idx for _, idx in anchors], dtype=int)
    a_xy = np.array([anchor / h for anchor, _ in anchors]).reshape(-1, 2)
    mob_rows = np.concatenate([i_d, i_x, i_d[1:], i_x[1:]])
    mob_cols_h = np.concatenate([i_d, i_x, i_d[:-1], i_x[:-1]])

    def mob_value(z):
        px = xs + z[i_d]
        py = ys + z[i_x]
        hops = (np.diff(px) ** 2 + np.diff(py) ** 2) - v2s
        ends = (px[a_idx] - a_xy[:, 0]) ** 2 + (py[a_idx] - a_xy[:, 1]) ** 2
        return np.concatenate([hops, ends - v2s])

    def mob_jacobian(z):
        px = xs + z[i_d]
        py = ys + z[i_x]
        ddx = 2 * np.diff(px)
        ddy = 2 * np.diff(py)
        vals = np.zeros((m_mob, 4))
        vals[:n - 1] = np.stack([-ddx, ddx, -ddy, ddy], axis=1)
        vals[n - 1:, 0] = 2 * (px[a_idx] - a_xy[:, 0])
        vals[n - 1:, 1] = 2 * (py[a_idx] - a_xy[:, 1])
        return RowSparse(mob_cols, vals)

    def mob_hess(z, w):
        dd = np.zeros(n)
        dd[1:] += 2 * w[:n - 1]
        dd[:-1] += 2 * w[:n - 1]
        np.add.at(dd, a_idx, 2 * w[n - 1:])
        off = -2 * w[:n - 1]
        return SymSparse(mob_rows, mob_cols_h,
                         np.concatenate([dd, dd, off, off]))

    blocks.append(ConstraintBlock(m=m_mob, value=mob_value,
                                  jacobian=mob_jacobian,
                                  hess_weighted=mob_hess, name="mobility"))

    # --- causality: Bob's and Eve's relay buffers ---
    buffers = _causality_buffers(scn, it, lay)
    blocks += [b.block() for b in buffers]

    # --- affine couplings: tau <= zeta_lb, eps <= eta_lb ---
    def couple_factory(i_slack, ref, which):
        gx = 2 * (it.traj.x[act] - ref[0])    # d bound / d delta
        gy = 2 * (it.traj.y[act] - ref[1])
        J = RowSparse(np.stack([i_slack, i_d[act], i_x[act]], axis=1),
                      np.stack([np.ones(lay.na), -gx * h / h2, -gy * h / h2],
                               axis=1))

        def value(z):
            delta, xi, _, _ = lay.unpack(z)
            zeta_lb, eta_lb = distance_lower_bounds(scn, it, delta, xi)
            bound = zeta_lb if which == "zeta" else eta_lb
            return (z[i_slack] * h2 - bound[act]) / h2

        return value, lambda z: J

    for nm, i_slack, ref, which in (
            ("tau_le_zeta", lay.i_tau, scn.eve_xy, "zeta"),
            ("eps_le_eta", lay.i_eps, scn.bob_xy, "eta")):
        val, jac = couple_factory(i_slack, ref, which)
        blocks.append(ConstraintBlock(m=lay.na, value=val, jacobian=jac,
                                      name=nm))

    lb = np.full(lay.dim, -np.inf)
    lb[lay.i_eps] = lb[lay.i_tau] = SLACK_LB
    lb[lay.i_bob] = lb[lay.i_eve] = 0.0

    # Interior seed: zero displacement, each slack a margin below its
    # distance bound, buffers strictly inside at that point.  Lowering a
    # slack by m <= SEED_MARGIN raises its slot's outflow by at most m
    # times the log term's slope at SEED_MARGIN below the bound, so the
    # margin CAUS_RELAX / (4 N slope) keeps the extra outflow over any
    # prefix below CAUS_RELAX / 4, and the buffers of a causal base point
    # positive.
    z0 = np.zeros(lay.dim)
    for i_slack, d2 in ((lay.i_eps, it.eta[act]), (lay.i_tau, it.zeta[act])):
        a = h2 + d2 - SEED_MARGIN * h2
        slope = g_act * h2 / (LN2 * a * (a + g_act))
        z0[i_slack] = d2 / h2 - np.minimum(SEED_MARGIN,
                                           CAUS_RELAX / (4 * n * slope))
    for b in buffers:
        z0[b.idx] = buffer_start(b.surplus(z0))

    return SmoothConvexProgram(
        dim=lay.dim, objective=objective, gradient=gradient, hessian=hessian,
        ineqs=blocks, lb=lb, strictly_feasible_start=z0)


def scp_optimize(scn: Scenario, pw: PowerAllocation, traj_0: Trajectory,
                 opts: Optional[ScpOptions] = None,
                 iteration_callback=None
                 ) -> tuple[Trajectory, RunReport]:
    """Sequential convex steps on the trajectory at fixed powers.

    ``iteration_callback(traj)``, when given, is invoked with each
    accepted trajectory iterate (e.g. to snapshot the evolution).
    """
    opts = opts or ScpOptions()
    report = RunReport(stage="trajectory_scp")

    if not model.check_mobility(scn, traj_0, tol=opts.feas_tol).feasible:
        raise ValueError("initial trajectory violates mobility constraints")
    pw_in = pw
    pw = restore_feasibility(scn, traj_0, pw, tol=opts.feas_tol)
    report.extras["power_rescaled"] = pw is not pw_in

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
        if res.status != "optimal":
            # Stay on the last feasible iterate; a vanishing interior at
            # a causality-tight point means a (near-)stationary step.
            report.status = f"solver_{res.status}"
            break
        delta, xi, eps, tau = lay.unpack(res.x_opt)
        traj_new = Trajectory(it.traj.xy + np.stack([delta, xi], axis=1))
        it_new = make_iterate(scn, traj_new, pw)
        checks = model.check_all(scn, traj_new, pw, tol=opts.feas_tol)
        ok = checks["mobility"].feasible and checks["causality"].feasible
        if it_new.objective < it.objective - 1e-9 or not ok:
            # Numerical regression; keep the last good iterate.
            report.status = "stalled"
            report.extras["stall_reason"] = ("regressed" if ok
                                             else "infeasible_step")
            break
        change = abs(it_new.objective - it.objective)
        rel = change / max(abs(it_new.objective), 1e-10)
        # Tightness diagnostic of the slack couplings at the optimum
        # (silent slots have no slacks and count as tight).
        zeta_lb, eta_lb = distance_lower_bounds(scn, it, delta, xi)
        slack_gap = float(np.max(np.minimum(zeta_lb[lay.active] - tau,
                                            eta_lb[lay.active] - eps),
                                 initial=0.0))
        it = it_new
        if iteration_callback is not None:
            iteration_callback(it.traj)
        report.add(it.objective, kkt_residual=res.kkt_residual, feasible=ok,
                   subproblem_iters=res.iterations,
                   slack_tightness_gap=slack_gap,
                   step_norm=float(np.max(np.abs(
                       np.concatenate([delta, xi])))))
        if rel < opts.rel_tol or change <= model.OBJ_ABS_TOL:
            report.status = "converged"
            break
    report.extras["final_subproblem_kkt"] = report.iterations[-1].kkt_residual
    return it.traj, report.finish()
