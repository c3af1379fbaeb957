"""Power allocation with the trajectory held fixed: one convex program.

In relay slot j let r_j = log2(1 + p_r,j g_rd,j), Bob's rate, and
c_j = g_re,j / g_rd,j (S. Boyd & L. Vandenberghe, *Convex Optimization*,
2004, §3.1.5 and §4.1.3).  For 0 <= c_j < 1 Eve's rate
log2(1 - c_j + c_j 2^r_j) is a log-sum-exp, convex in r_j, as is the
relay energy (2^r_j - 1) / g_rd,j; the inflow log2(1 + p_s g_ar) is
concave in the source power.  So every causality row is convex and the
objective concave.  Where c_j >= 1 the program takes the tangent c_j r_j
of Eve's (there concave) rate at 0, a majorant, making the secrecy term
(1 - c_j) r_j a minorant.  Such a slot scores at most 0, and silence
lowers every outflow and the energy, so an optimum leaves it silent,
where the tangents are exact: the program's optimum is the power
problem's, and ``_pw_from_z`` gives such a slot zero power.  One
interior-point solve gives that optimum, and its KKT residual
(``solver.certify``) proves it.

Information causality is stated with a relay buffer (``Buffer``) for
the rate forwarded to Bob and one for the rate leaked to Eve, the
budgets with the remaining energies in the same form, all laid out slot
by slot, so the Newton matrix is banded.  Bob's and Eve's buffers form
one block, the two energies another.  The program evaluates a point in
one pass (``_PowerPoint``: the objective, its gradient and Hessian, and
every flow with its Jacobian values and curvatures) through one
``solver.PointCache``; the callbacks read their parts, and the
constant Jacobian entries are filled once, in templates each point
copies.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import model
from .model import LN2, PowerAllocation, Scenario, Trajectory
from .report import COUNTERS, RunReport, count_solve
from .solver import (KKT_TOL, Buffer, ConstraintBlock, PointCache,
                     SmoothConvexProgram, SolverOptions, buffer_start,
                     certify, solve)

# Well below KKT_TOL, even with a stall's STALL_TOL_FACTOR (10x) slack.
SUBPROBLEM = SolverOptions(tol=1e-8)


# Per-slot variables: the scaled source power, Bob's rate r in bits,
# buffer contents in bits, scaled remaining energies.
_SLOT_VARS = ("ps", "pr", "bob", "eve", "src_energy", "relay_energy")


@dataclass
class _Pieces:
    """Channel slices and variable layout: power slot j = 0..N-2 holds
    the source power of slot j+1 and Bob's rate in slot j+2 (1-based)."""

    gar: np.ndarray   # alice->relay gain, slots 1..N-1
    grd: np.ndarray   # relay->bob gain,   slots 2..N
    c: np.ndarray     # g_re / g_rd,       slots 2..N
    u_s: float        # variable scale for source powers
    u_r: float        # energy scale for relay powers
    idx: dict
    dim: int


def _pieces(scn: Scenario, traj: Trajectory) -> _Pieces:
    ch = model.channel_state(scn, traj)
    n, stride = scn.n_slots, len(_SLOT_VARS)
    grd = ch.gamma_rd[1:]
    return _Pieces(
        gar=ch.gamma_ar[:-1], grd=grd, c=ch.gamma_re[1:] / grd,
        u_s=n * scn.p_bar_s / (n - 1), u_r=n * scn.p_bar_r / (n - 1),
        idx={v: stride * np.arange(n - 1) + a
             for a, v in enumerate(_SLOT_VARS)}, dim=stride * (n - 1))


def _pw_from_z(pc: _Pieces, z: np.ndarray) -> PowerAllocation:
    """The powers at z; a slot with c >= 1 is silent."""
    ps = pc.u_s * np.maximum(z[pc.idx["ps"]], 0.0)
    r = np.maximum(z[pc.idx["pr"]], 0.0)
    pr = np.where(pc.c < 1.0, np.expm1(LN2 * r) / pc.grd, 0.0)
    return PowerAllocation(p_s=np.append(ps, 0.0), p_r=np.insert(pr, 0, 0.0))


def _tight_point(pc: _Pieces, buffers: list[Buffer],
                 pw: PowerAllocation) -> np.ndarray:
    """pw in the program's variables, every buffer at its prefix surplus."""
    z = np.zeros(pc.dim)
    z[pc.idx["ps"]] = pw.p_s[:-1] / pc.u_s
    z[pc.idx["pr"]] = np.log1p(pw.p_r[1:] * pc.grd) / LN2
    for b in buffers:
        z[b.idx] = b.surplus(z)
    return z


class _PowerPoint(NamedTuple):
    """The program at one point: the objective with its gradient and
    Hessian values, the inflow, and each block's flows (``flow``: Bob's
    outflow minus the inflow, then Eve's; ``spend``: the scaled source
    power, then the scaled relay energy) with their Jacobian values and
    curvatures."""

    objective: float
    gradient: np.ndarray
    hessian: np.ndarray
    inflow: np.ndarray
    flow: np.ndarray
    d_flow: np.ndarray     # (2m, 2): d/dr, d/dps
    curv: np.ndarray       # (2, 2, m): Bob's d^2/dr^2, d^2/dps^2, Eve's
    spend: np.ndarray
    d_spend: np.ndarray    # (2m, 1): 1, then d/dr of the energy
    d_energy: np.ndarray   # LN2 times it is the energy's d^2/dr^2


def _power_point(pc: _Pieces) -> PointCache:
    """The program's cache of its ``_PowerPoint``, one pass per point.
    Eve's outflow is log2(1 + c (2^r - 1)) where c < 1, its tangent c r
    elsewhere.  The constant Jacobian entries (Bob's d/dr, the source's
    d/dps) are filled once."""
    active = pc.c < 1.0
    i_ps, i_pr, m = pc.idx["ps"], pc.idx["pr"], pc.c.size
    d_flow, d_spend = np.zeros((2 * m, 2)), np.zeros((2 * m, 1))
    d_flow[:m, 0] = d_spend[:m, 0] = 1.0
    curv = np.zeros((2, 2, m))

    def terms(z):
        ps, r = pc.u_s * z[i_ps], z[i_pr]
        inner = 1.0 + ps * pc.gar
        two, grow = np.exp2(r), np.expm1(LN2 * r)
        s = np.where(active, pc.c * two / (1.0 + pc.c * grow), pc.c)
        eve = np.where(active, np.log1p(pc.c * grow) / LN2, pc.c * r)
        inflow = np.log2(inner)
        grad, jac, jac_spend = np.zeros(pc.dim), d_flow.copy(), d_spend.copy()
        grad[i_pr] = s - 1.0
        jac[m:, 0] = s
        jac.reshape(2, m, 2)[:, :, 1] = -(pc.gar / (LN2 * inner) * pc.u_s)
        hess, c = np.where(active, LN2 * s * (1.0 - s), 0.0), curv.copy()
        c[:, 1] = pc.gar ** 2 / (LN2 * inner ** 2) * pc.u_s ** 2
        c[1, 0] = hess
        d_energy = LN2 * two / (pc.grd * pc.u_r)
        jac_spend[m:, 0] = d_energy
        return _PowerPoint(
            -float((r - eve).sum()), grad, hess, inflow,
            (np.concatenate([r, eve]).reshape(2, m) - inflow).ravel(), jac,
            c, np.concatenate([z[i_ps], grow / (pc.grd * pc.u_r)]),
            jac_spend, d_energy)
    return PointCache(terms)


def _power_program(scn: Scenario, pc: _Pieces
                   ) -> tuple[SmoothConvexProgram, list[Buffer]]:
    """The power program, maximizing sum (r - Eve's outflow), with its
    start, and its buffers: Bob's and Eve's in one block, the source and
    relay energy in another (blocks of equal width, in the order of one
    block per buffer, so the Newton matrix is the same to the bit).

    The start: source power 0.9 (scaled), r = min(1e-6, inflow / 2,
    g_rd u_r / 2) / max(1, c), so no outflow exceeds half the inflow and
    each slot's scaled relay energy, at most LN2 2^r / 2, stays below 1
    (the budget is N - 1), and each buffer at ``buffer_start``: strictly
    inside whenever the budgets are positive.
    """
    at = _power_point(pc)
    i_ps, i_pr, m = pc.idx["ps"], pc.idx["pr"], pc.c.size
    both = np.tile(np.concatenate([i_pr, i_ps]), 2)
    flow = ConstraintBlock(
        cols=np.tile(np.stack([i_pr, i_ps], axis=1), (2, 1)),
        value=lambda z: at(z).flow, jacobian=lambda z: at(z).d_flow,
        hess_weighted=lambda z, w: (w.reshape(2, 1, m) * at(z).curv).ravel(),
        hess_idx=(both, both))
    spend = ConstraintBlock(
        cols=np.concatenate([i_ps, i_pr])[:, None],
        value=lambda z: at(z).spend, jacobian=lambda z: at(z).d_spend,
        hess_weighted=lambda z, w: w[m:] * LN2 * at(z).d_energy,
        hess_idx=(i_pr, i_pr))
    buffers = [
        Buffer(flow, np.stack([pc.idx["bob"], pc.idx["eve"]]), "causality"),
        Buffer(spend, np.stack([pc.idx["src_energy"],
                                pc.idx["relay_energy"]]), "budgets",
               initial=np.array([scn.n_slots * scn.p_bar_s / pc.u_s,
                                 scn.n_slots * scn.p_bar_r / pc.u_r]))]
    lb = np.full(pc.dim, -np.inf)   # of the energies, only the budget row
    lb[np.concatenate([pc.idx[v] for v in ("ps", "pr", "bob", "eve")])] = 0.0
    lb[[pc.idx["src_energy"][-1], pc.idx["relay_energy"][-1]]] = 0.0
    z0 = np.zeros(pc.dim)
    z0[i_ps] = 0.9
    r0 = np.minimum(np.minimum(1e-6, at(z0).inflow / 2), pc.grd * pc.u_r / 2)
    z0[i_pr] = r0 / np.maximum(pc.c, 1.0)
    for b in buffers:
        z0[b.idx] = buffer_start(b.surplus(z0))
    prog = SmoothConvexProgram(
        dim=pc.dim, objective=lambda z: at(z).objective,
        gradient=lambda z: at(z).gradient, hessian=lambda z: at(z).hessian,
        hess_idx=(i_pr, i_pr), ineqs=[b.block() for b in buffers], lb=lb,
        strictly_feasible_start=z0)
    return prog, buffers


def dc_allocate(scn: Scenario, traj: Trajectory,
                pw_0: Optional[PowerAllocation] = None,
                feas_tol: float = model.DEFAULT_FEAS_TOL
                ) -> tuple[PowerAllocation, RunReport]:
    """The optimal power allocation at fixed traj.

    The silent relay, with no solve, when a budget is zero or no slot
    has g_rd > g_re.  Else the start is ``pw_0`` (by default
    ``model.equal_power_start``), or the silent relay if
    ``pw_0`` fails causality or the budgets at ``feas_tol``; a start
    certified within ``KKT_TOL`` is returned.  Else one solve: the stage
    ends ``solver_<status>`` with the start if it is not ``optimal``,
    ``stalled`` with the start if its point fails the checks, and else
    ``converged`` when the point's certificate (buffers tight, the
    solve's duals) is within ``KKT_TOL``, ``stalled`` otherwise.  So
    every returned allocation passes causality at ``feas_tol``.
    """
    def passes(pw):
        checks = model.check_all(scn, traj, pw, tol=feas_tol)
        return all(v.feasible for k, v in checks.items() if k != "mobility")

    report = RunReport(stage="power_dc", extras=dict.fromkeys(COUNTERS, 0))
    pc = _pieces(scn, traj)
    if scn.p_bar_s <= 0.0 or scn.p_bar_r <= 0.0 or not np.any(pc.c < 1.0):
        report.add(0.0, kkt_residual=0.0, feasible=True)
        return model.zero_power_allocation(scn), report.finish("converged")

    pw = pw_0 if pw_0 is not None else model.equal_power_start(
        scn, traj, feas_tol)
    if not passes(pw):
        pw = model.zero_power_allocation(scn)
    prog, buffers = _power_program(scn, pc)
    kkt_0 = certify(prog, _tight_point(pc, buffers, pw))
    report.add(model.secrecy_sum(scn, traj, pw), kkt_residual=kkt_0,
               feasible=True)
    if kkt_0 <= KKT_TOL:
        return pw, report.finish("converged")

    res = solve(prog, SUBPROBLEM)
    count_solve(report.extras, res)
    if res.status != "optimal":
        return pw, report.finish(f"solver_{res.status}")
    pw_opt = _pw_from_z(pc, res.x_opt)
    if not passes(pw_opt):
        return pw, report.finish("stalled")
    kkt = certify(prog, _tight_point(pc, buffers, pw_opt), res.duals)
    report.add(model.secrecy_sum(scn, traj, pw_opt), kkt_residual=kkt,
               feasible=True, subproblem_kkt=res.kkt_residual,
               subproblem_iters=res.iterations)
    return pw_opt, report.finish("converged" if kkt <= KKT_TOL
                                 else "stalled")
