"""Trajectory optimization with the powers held fixed.

Works on the slack reformulation of the secrecy problem: auxiliary
variables stand in for the squared UAV-Eve and UAV-Bob ground distances,
coupled to the trajectory through affine lower bounds of the convex
squared-distance functions.  Each sequential step linearizes the
reception rates around the current trajectory (quadratic lower bounds),
solves the resulting convex program over the per-slot displacements, and
moves the trajectory.  Every surrogate inequality implies the original
one, so all iterates stay feasible and the true secrecy rate ascends.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import model
from .model import PowerAllocation, Scenario, Trajectory
from .power_dc import LN2, StageFailure
from .report import RunReport
from .solver import (ConstraintBlock, SmoothConvexProgram, SolverOptions,
                     solve)


@dataclass
class ScpOptions:
    rel_tol: float = 1e-4
    max_iter: int = 100
    feas_tol: float = 1e-6
    solver: SolverOptions = field(default_factory=lambda: SolverOptions(tol=1e-6))


@dataclass(frozen=True)
class TrajIterate:
    """Trajectory with all per-slot quantities cached for one SCP step."""

    traj: Trajectory
    d_ar2: np.ndarray      # squared Alice-UAV distances
    d_rd2: np.ndarray      # squared UAV-Bob distances
    r_relay: np.ndarray    # reception rate at the relay
    r_bob: np.ndarray      # reception rate at Bob
    zeta: np.ndarray       # squared ground distance to Eve
    eta: np.ndarray        # squared ground distance to Bob
    gamma_s: np.ndarray    # ref_snr * p_s
    gamma_r: np.ndarray    # ref_snr * p_r
    objective: float


def make_iterate(scn: Scenario, traj: Trajectory,
                 pw: PowerAllocation) -> TrajIterate:
    ch = model.channel_state(scn, traj)
    rp = model.rate_profile(scn, traj, pw)
    rel = traj.xy - scn.alice_xy
    return TrajIterate(
        traj=traj,
        d_ar2=ch.d_ar ** 2,
        d_rd2=ch.d_rd ** 2,
        r_relay=rp.r_relay,
        r_bob=rp.r_bob,
        zeta=np.sum((scn.eve_xy - traj.xy) ** 2, axis=1),
        eta=np.sum((scn.bob_xy - traj.xy) ** 2, axis=1),
        gamma_s=scn.ref_snr * pw.p_s,
        gamma_r=scn.ref_snr * pw.p_r,
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


@dataclass(frozen=True)
class SubproblemVars:
    """Solution of one convex step, in meters / meters squared."""

    delta: np.ndarray
    xi: np.ndarray
    eps: np.ndarray   # squared-Bob-distance slack, slots 2..N
    tau: np.ndarray   # squared-Eve-distance slack, slots 2..N


def rate_lower_bounds(scn: Scenario, it: TrajIterate,
                      delta: np.ndarray, xi: np.ndarray):
    """Quadratic lower bounds on both reception rates at a displacement.

    Returns (relay_lb, bob_lb) arrays over all slots, exact at zero
    displacement.
    """
    x, y = it.traj.x - scn.alice_xy[0], it.traj.y - scn.alice_xy[1]
    d_bob = scn.bob_xy - scn.alice_xy
    c_r = it.gamma_s / ((it.d_ar2 + it.gamma_s) * it.d_ar2 * LN2)
    c_d = it.gamma_r / ((it.d_rd2 + it.gamma_r) * it.d_rd2 * LN2)
    quad = delta ** 2 + xi ** 2
    relay_lb = it.r_relay - c_r * (quad + 2 * x * delta + 2 * y * xi)
    bob_lb = it.r_bob - c_d * (quad + 2 * (x - d_bob[0]) * delta
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


# Variable layout of the convex step (all scaled):
#   z = [delta (N) / H, xi (N) / H, eps_active / H^2, tau_active / H^2]
# where only slots n >= 2 with positive relay power carry eps/tau
# variables; silent slots contribute nothing to rates or causality.


class _Layout:
    def __init__(self, scn: Scenario, it: TrajIterate):
        self.n = scn.n_slots
        self.h = scn.altitude_h
        self.h2 = self.h ** 2
        self.active = np.flatnonzero(it.gamma_r[1:] > 0.0) + 1  # slot index
        self.na = self.active.size
        self.dim = 2 * self.n + 2 * self.na
        self.i_delta = np.arange(self.n)
        self.i_xi = np.arange(self.n, 2 * self.n)
        self.i_eps = np.arange(2 * self.n, 2 * self.n + self.na)
        self.i_tau = np.arange(2 * self.n + self.na, self.dim)

    def unpack(self, z: np.ndarray):
        delta = z[self.i_delta] * self.h
        xi = z[self.i_xi] * self.h
        eps = z[self.i_eps] * self.h2
        tau = z[self.i_tau] * self.h2
        return delta, xi, eps, tau


def _rate_lb_terms(scn: Scenario, it: TrajIterate):
    """Coefficients of the quadratic rate lower bounds (slot-wise)."""
    x = it.traj.x - scn.alice_xy[0]
    y = it.traj.y - scn.alice_xy[1]
    d_bob = scn.bob_xy - scn.alice_xy
    c_r = it.gamma_s / ((it.d_ar2 + it.gamma_s) * it.d_ar2 * LN2)
    c_d = it.gamma_r / ((it.d_rd2 + it.gamma_r) * it.d_rd2 * LN2)
    return x, y, d_bob, c_r, c_d


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
    x, y, d_bob, c_r, c_d = _rate_lb_terms(scn, it)
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

    def hessian(z):
        delta, xi, _, tau = lay.unpack(z)
        H = np.zeros((lay.dim, lay.dim))
        dd = 2.0 * c_d * h * h
        dd0 = dd.copy()
        dd0[0] = 0.0
        H[lay.i_delta, lay.i_delta] = dd0
        H[lay.i_xi, lay.i_xi] = dd0
        a = h2 + tau
        H[lay.i_tau, lay.i_tau] = (g_act * (2 * a + g_act)
                                   / (LN2 * (a * (a + g_act)) ** 2)) * h2 * h2
        return H

    blocks = []

    # --- mobility: squared hops of the displaced trajectory ---
    anchors = []
    if scn.start_xy is not None:
        anchors.append(("start", scn.start_xy, 0))
    if scn.end_xy is not None:
        anchors.append(("end", scn.end_xy, n - 1))
    m_mob = (n - 1) + len(anchors)
    v2s = (v / h) ** 2  # scaled squared travel budget

    xs = it.traj.x / h
    ys = it.traj.y / h

    def mob_value(z):
        dx = z[lay.i_delta]
        dxi = z[lay.i_xi]
        px = xs + dx
        py = ys + dxi
        hops = (np.diff(px) ** 2 + np.diff(py) ** 2) - v2s
        out = [hops]
        for _, anchor, idx in anchors:
            out.append([(px[idx] - anchor[0] / h) ** 2
                        + (py[idx] - anchor[1] / h) ** 2 - v2s])
        return np.concatenate(out)

    def mob_jacobian(z):
        dx = z[lay.i_delta]
        dxi = z[lay.i_xi]
        px = xs + dx
        py = ys + dxi
        J = np.zeros((m_mob, lay.dim))
        ddx = 2 * np.diff(px)
        ddy = 2 * np.diff(py)
        rows = np.arange(n - 1)
        J[rows, lay.i_delta[rows + 1]] = ddx
        J[rows, lay.i_delta[rows]] = -ddx
        J[rows, lay.i_xi[rows + 1] - 0] = ddy
        J[rows, lay.i_xi[rows]] = -ddy
        r = n - 1
        for _, anchor, idx in anchors:
            J[r, lay.i_delta[idx]] = 2 * (px[idx] - anchor[0] / h)
            J[r, lay.i_xi[idx]] = 2 * (py[idx] - anchor[1] / h)
            r += 1
        return J

    def mob_hess(z, w):
        H = np.zeros((lay.dim, lay.dim))
        dd = np.zeros(n)
        dd[1:] += 2 * w[:n - 1]
        dd[:-1] += 2 * w[:n - 1]
        off = -2 * w[:n - 1]
        r = n - 1
        for _, anchor, idx in anchors:
            dd[idx] += 2 * w[r]
            r += 1
        for i in (lay.i_delta, lay.i_xi):
            H[i, i] += dd
            H[i[:-1], i[1:]] += off
            H[i[1:], i[:-1]] += off
        return H

    blocks.append(ConstraintBlock(m=m_mob, value=mob_value,
                                  jacobian=mob_jacobian,
                                  hess_weighted=mob_hess, name="mobility"))

    # --- causality surrogates over prefixes n = 2..N ---
    # LHS: sum over active i <= n of log2(1 + g_i/(h2 + slack_i));
    # RHS: sum_{i<n} relay-rate lower bound (quadratic in delta, xi).
    pref = (act[None, :] <= np.arange(1, n)[:, None]).astype(float)
    # pref[j, a] = 1 iff active slot index act[a] belongs to the prefix
    # ending at slot j+2 (0-based indices <= j+1)
    tri = np.tril(np.ones((n - 1, n - 1)))   # prefix operator over slots

    # Hair-thin relaxation (bits) so a causality-tight base point still
    # leaves the interior-point method an interior; stays far inside the
    # model's 1e-6 feasibility tolerance.
    caus_relax = 1e-8

    def caus_factory(i_slack):
        def value(z):
            delta, xi, _, _ = lay.unpack(z)
            slack = z[i_slack] * h2
            relay_lb, _ = rate_lower_bounds(scn, it, delta, xi)
            lhs = pref @ np.log2(1.0 + g_act / (h2 + slack))
            rhs = np.cumsum(relay_lb[:-1])
            return lhs - rhs - caus_relax

        def jacobian(z):
            delta, xi, _, _ = lay.unpack(z)
            slack = z[i_slack] * h2
            J = np.zeros((n - 1, lay.dim))
            den = (h2 + slack) * (h2 + slack + g_act)
            J[:, i_slack] = pref * (-g_act / (LN2 * den) * h2)
            gd = c_r * (2 * delta + 2 * x)
            gx = c_r * (2 * xi + 2 * y)
            # -d rhs/d delta_i for prefixes containing slot i (i <= n-1)
            J[:, lay.i_delta[:-1]] = tri * (gd[:-1] * h)
            J[:, lay.i_xi[:-1]] = tri * (gx[:-1] * h)
            return J

        def hess_weighted(z, w):
            delta, xi, _, _ = lay.unpack(z)
            slack = z[i_slack] * h2
            H = np.zeros((lay.dim, lay.dim))
            wa = pref.T @ w      # per active slot
            a = h2 + slack
            H[i_slack, i_slack] = wa * (g_act * (2 * a + g_act)
                                        / (LN2 * (a * (a + g_act)) ** 2)
                                        * h2 * h2)
            wp = np.cumsum(w[::-1])[::-1]        # sum of w_j with j >= i
            dq = 2.0 * c_r[:-1] * wp * h * h
            H[lay.i_delta[:-1], lay.i_delta[:-1]] += dq
            H[lay.i_xi[:-1], lay.i_xi[:-1]] += dq
            return H

        return value, jacobian, hess_weighted

    for nm, i_slack in (("bob_causality", lay.i_eps),
                        ("eve_causality", lay.i_tau)):
        val, jac, hw = caus_factory(i_slack)
        blocks.append(ConstraintBlock(m=n - 1, value=val, jacobian=jac,
                                      hess_weighted=hw, name=nm))

    # --- affine couplings: tau <= zeta_lb, eps <= eta_lb ---
    def couple_factory(i_slack, which):
        def value(z):
            delta, xi, _, _ = lay.unpack(z)
            slack = z[i_slack] * h2
            zeta_lb, eta_lb = distance_lower_bounds(scn, it, delta, xi)
            bound = zeta_lb if which == "zeta" else eta_lb
            return (slack - bound[act]) / h2

        def jacobian(z):
            J = np.zeros((lay.na, lay.dim))
            J[np.arange(lay.na), i_slack] = 1.0
            ref = scn.eve_xy if which == "zeta" else scn.bob_xy
            gx = 2 * (it.traj.x - ref[0])    # d bound / d delta
            gy = 2 * (it.traj.y - ref[1])
            J[np.arange(lay.na), lay.i_delta[act]] = -gx[act] * h / h2
            J[np.arange(lay.na), lay.i_xi[act]] = -gy[act] * h / h2
            return J

        return value, jacobian

    for nm, i_slack, which in (("tau_le_zeta", lay.i_tau, "zeta"),
                               ("eps_le_eta", lay.i_eps, "eta")):
        val, jac = couple_factory(i_slack, which)
        blocks.append(ConstraintBlock(m=lay.na, value=val, jacobian=jac,
                                      name=nm))

    lb = np.full(lay.dim, -np.inf)
    lb[lay.i_eps] = 0.0
    lb[lay.i_tau] = 0.0

    # Interior seed: zero displacement, slacks just below their bounds.
    margin = 1e-3
    z0 = np.zeros(lay.dim)
    z0[lay.i_eps] = np.maximum(it.eta[act] / h2 - margin, margin)
    z0[lay.i_tau] = np.maximum(it.zeta[act] / h2 - margin, margin)

    return SmoothConvexProgram(
        dim=lay.dim, objective=objective, gradient=gradient, hessian=hessian,
        ineqs=blocks, lb=lb, strictly_feasible_start=z0)


def restore_feasibility(scn: Scenario, traj: Trajectory,
                        pw: PowerAllocation,
                        tol: float = 1e-6) -> PowerAllocation:
    """Scale the relay powers down until causality holds.

    Bisection over the scale factor; returns the input unchanged when it
    is already feasible.
    """
    if model.check_causality(scn, traj, pw, tol=tol).feasible:
        return pw

    def feasible(alpha: float) -> bool:
        cand = PowerAllocation(p_s=pw.p_s, p_r=alpha * pw.p_r)
        return model.check_causality(scn, traj, cand, tol=tol).feasible

    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return PowerAllocation(p_s=pw.p_s, p_r=lo * pw.p_r)


def subproblem_solution(scn: Scenario, it: TrajIterate,
                        z: np.ndarray) -> SubproblemVars:
    """Expand a solver solution into full-length slack vectors."""
    lay = _Layout(scn, it)
    delta, xi, eps_a, tau_a = lay.unpack(z)
    zeta_lb, eta_lb = distance_lower_bounds(scn, it, delta, xi)
    eps = eta_lb[1:].copy()
    tau = zeta_lb[1:].copy()
    eps[lay.active - 1] = eps_a
    tau[lay.active - 1] = tau_a
    return SubproblemVars(delta=delta, xi=xi, eps=eps, tau=tau)


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
    t0 = time.perf_counter()

    if not model.check_mobility(scn, traj_0, tol=opts.feas_tol).feasible:
        raise ValueError("initial trajectory violates mobility constraints")
    pw_in = pw
    pw = restore_feasibility(scn, traj_0, pw, tol=opts.feas_tol)
    report.extras["power_rescaled"] = pw is not pw_in

    it = make_iterate(scn, traj_0, pw)
    report.add(it.objective, feasible=True)
    report.status = "max_iter"

    if np.all(it.gamma_r[1:] == 0.0):
        # Silent relay: the objective is identically zero.
        report.status = "converged"
        report.total_time = time.perf_counter() - t0
        return traj_0, report

    for _ in range(opts.max_iter):
        lay = _Layout(scn, it)
        prog = _build_subproblem(scn, it, lay)
        res = solve(prog, opts.solver)
        if res.status != "optimal":
            # Stay on the last feasible iterate; a vanishing interior at
            # a causality-tight point means a (near-)stationary step.
            report.status = f"solver_{res.status}"
            break
        sol = subproblem_solution(scn, it, res.x_opt)
        traj_new = Trajectory(it.traj.xy
                              + np.stack([sol.delta, sol.xi], axis=1))
        it_new = make_iterate(scn, traj_new, pw)
        checks = model.check_all(scn, traj_new, pw, tol=opts.feas_tol)
        ok = checks["mobility"].feasible and checks["causality"].feasible
        if it_new.objective < it.objective - 1e-9 or not ok:
            # Numerical regression; keep the last good iterate.
            report.status = "converged"
            break
        rel = (abs(it_new.objective - it.objective)
               / max(abs(it_new.objective), 1e-10))
        # Tightness diagnostic of the slack couplings at the optimum.
        zeta_lb, eta_lb = distance_lower_bounds(scn, it, sol.delta, sol.xi)
        slack_gap = float(np.max(np.minimum(zeta_lb[1:] - sol.tau,
                                            eta_lb[1:] - sol.eps),
                                 initial=0.0))
        it = it_new
        if iteration_callback is not None:
            iteration_callback(it.traj)
        report.add(it.objective, kkt_residual=res.kkt_residual,
                   feasible=ok, subproblem_iters=res.iterations,
                   slack_tightness_gap=slack_gap,
                   step_norm=float(np.max(np.abs(
                       np.concatenate([sol.delta, sol.xi])))))
        if rel < opts.rel_tol:
            report.status = "converged"
            break
    report.total_time = time.perf_counter() - t0
    report.extras["final_subproblem_kkt"] = report.iterations[-1].kkt_residual
    return it.traj, report
