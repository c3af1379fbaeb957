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
by slot, so the Newton matrix is banded.  The callbacks share the terms
at a point (``_PowerPoint``) through one ``solver.PointCache``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import model
from .model import PowerAllocation, Scenario, Trajectory
from .report import RunReport
from .solver import (ConstraintBlock, PointCache, SmoothConvexProgram,
                     SolverOptions, certify, solve)

LN2 = float(np.log(2.0))

# The KKT residual within which a point of the power problem (or of the
# true trajectory problem) is accepted as a KKT point.
KKT_TOL = 1e-5

# Well below KKT_TOL, even with a stall's STALL_TOL_FACTOR (10x) slack.
SUBPROBLEM = SolverOptions(tol=1e-8)


@dataclass
class DcOptions:
    feas_tol: float = 1e-6


@dataclass
class Buffer:
    """A stock (relay buffer, remaining energy) drained per slot by the
    net outflow ``flow``.

    Row j of ``block()`` is b_j - b_{j-1} + flow_j(z) <= 0 with
    b_{-1} = ``initial``: the buffer after slot j holds at most what it
    held before plus what came in minus what went out.  The caller
    bounds b_j >= 0.  With each b_j at its prefix surplus
    (``surplus``) every row is tight, and b >= 0 is exactly the prefix
    form sum_{i<=j} flow_i <= initial.  ``flow`` must depend on no
    buffer variable; the block's pattern is the flow's columns, then
    b_j and b_{j-1}, and the flow's Hessian positions.
    """

    flow: ConstraintBlock
    idx: np.ndarray           # positions of b_0 .. b_{m-1} in z
    name: str
    initial: float = 0.0

    def surplus(self, z: np.ndarray) -> np.ndarray:
        """Prefix surpluses initial - sum_{i<=j} flow_i(z)."""
        return self.initial - np.cumsum(self.flow.value(z))

    def block(self) -> ConstraintBlock:
        m, idx, flow = self.flow.m, self.idx, self.flow
        prev = np.concatenate([idx[:1], idx[:-1]])
        vals = np.ones((m, 2))
        vals[:, 1] = -1.0
        vals[0, 1] = 0.0       # b_{-1} is the constant ``initial``

        def value(z):
            b_prev = z[prev]
            b_prev[0] = self.initial
            return z[idx] - b_prev + flow.value(z)

        def jacobian(z):
            return np.concatenate([flow.jacobian(z), vals], axis=1)

        return ConstraintBlock(
            cols=np.concatenate([flow.cols, np.stack([idx, prev], axis=1)],
                                axis=1),
            value=value, jacobian=jacobian, hess_weighted=flow.hess_weighted,
            hess_idx=flow.hess_idx, name=self.name)


def buffer_start(surplus: np.ndarray) -> np.ndarray:
    """Strictly feasible buffer contents from the prefix surpluses S.

    b_n = S_n - n * min_{j>=n} S_j / (m+1), n = 1..m: positive, and
    S_n - b_n grows strictly with n, so every buffer row is slack,
    whenever every S_n > 0.
    """
    m = surplus.size
    tail_min = np.minimum.accumulate(surplus[::-1])[::-1]
    return surplus - np.arange(1, m + 1) * tail_min / (m + 1)


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
    """The terms at one point: the inflow with its slope and negated
    curvature, each outflow and the scaled relay energy with theirs."""

    inflow: np.ndarray
    d_in: np.ndarray
    curv: np.ndarray
    bob: tuple             # (value, d/dr, d^2/dr^2)
    eve: tuple             # the same
    energy: np.ndarray
    d_energy: np.ndarray   # d/dr; LN2 times it is d^2/dr^2


def _power_point(pc: _Pieces) -> PointCache:
    """The program's cache of its ``_PowerPoint`` terms.  Eve's outflow
    is log2(1 + c (2^r - 1)) where c < 1, its tangent c r elsewhere."""
    active = pc.c < 1.0
    one, zero = np.ones(pc.c.size), np.zeros(pc.c.size)

    def terms(z):
        ps, r = pc.u_s * z[pc.idx["ps"]], z[pc.idx["pr"]]
        inner = 1.0 + ps * pc.gar
        two, grow = np.exp2(r), np.expm1(LN2 * r)
        s = np.where(active, pc.c * two / (1.0 + pc.c * grow), pc.c)
        return _PowerPoint(
            inflow=np.log2(inner), d_in=pc.gar / (LN2 * inner) * pc.u_s,
            curv=pc.gar ** 2 / (LN2 * inner ** 2) * pc.u_s ** 2,
            bob=(r, one, zero),
            eve=(np.where(active, np.log1p(pc.c * grow) / LN2, pc.c * r),
                 s, np.where(active, LN2 * s * (1.0 - s), 0.0)),
            energy=grow / (pc.grd * pc.u_r),
            d_energy=LN2 * two / (pc.grd * pc.u_r))
    return PointCache(terms)


def _flow_block(pc: _Pieces, at: PointCache, out: str) -> ConstraintBlock:
    """Net outflow of each power slot: Bob's or Eve's outflow (``out``)
    minus the inflow, with the curvature of both."""
    def value(z):
        t = at(z)
        return getattr(t, out)[0] - t.inflow

    def jacobian(z):
        t = at(z)
        return np.stack([getattr(t, out)[1], -t.d_in], axis=1)

    def hw(z, w):
        t = at(z)
        return np.concatenate([w * getattr(t, out)[2], w * t.curv])

    i_pr, i_ps = pc.idx["pr"], pc.idx["ps"]
    both = np.concatenate([i_pr, i_ps])
    return ConstraintBlock(
        cols=np.stack([i_pr, i_ps], axis=1), value=value,
        jacobian=jacobian, hess_weighted=hw, hess_idx=(both, both))


def _power_program(scn: Scenario, pc: _Pieces
                   ) -> tuple[SmoothConvexProgram, list[Buffer]]:
    """The power program, maximizing sum (r - Eve's outflow), with its
    start, and its buffers (Bob's, Eve's, the source and relay energy).

    The start: source power 0.9 (scaled), r = min(1e-6, inflow / 2,
    g_rd u_r / 2) / max(1, c), so no outflow exceeds half the inflow and
    each slot's scaled relay energy, at most LN2 2^r / 2, stays below 1
    (the budget is N - 1), and each buffer at ``buffer_start``: strictly
    inside whenever the budgets are positive.
    """
    at = _power_point(pc)
    i_ps, i_pr = pc.idx["ps"], pc.idx["pr"]

    def gradient(z):
        g = np.zeros(pc.dim)
        g[i_pr] = at(z).eve[1] - 1.0
        return g

    source = ConstraintBlock(cols=i_ps[:, None], value=lambda z: z[i_ps],
                             jacobian=lambda z: np.ones((i_ps.size, 1)))
    relay = ConstraintBlock(
        cols=i_pr[:, None], value=lambda z: at(z).energy,
        jacobian=lambda z: at(z).d_energy[:, None],
        hess_weighted=lambda z, w: w * LN2 * at(z).d_energy,
        hess_idx=(i_pr, i_pr))
    buffers = [
        Buffer(_flow_block(pc, at, "bob"), pc.idx["bob"], "bob_causality"),
        Buffer(_flow_block(pc, at, "eve"), pc.idx["eve"], "eve_causality"),
        Buffer(source, pc.idx["src_energy"], "source_budget",
               initial=scn.n_slots * scn.p_bar_s / pc.u_s),
        Buffer(relay, pc.idx["relay_energy"], "relay_budget",
               initial=scn.n_slots * scn.p_bar_r / pc.u_r)]
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
        dim=pc.dim, gradient=gradient,
        objective=lambda z: -float(np.sum(at(z).bob[0] - at(z).eve[0])),
        hessian=lambda z: at(z).eve[2], hess_idx=(i_pr, i_pr),
        ineqs=[b.block() for b in buffers], lb=lb,
        strictly_feasible_start=z0)
    return prog, buffers


def dc_allocate(scn: Scenario, traj: Trajectory,
                pw_0: Optional[PowerAllocation] = None,
                opts: Optional[DcOptions] = None
                ) -> tuple[PowerAllocation, RunReport]:
    """The optimal power allocation at fixed traj.

    The silent relay, with no solve, when a budget is zero or no slot
    has g_rd > g_re.  Else the start is ``pw_0`` (by default equal power,
    the relay scaled back until causality holds), or the silent relay if
    ``pw_0`` fails causality or the budgets at ``opts.feas_tol``; a start
    certified within ``KKT_TOL`` is returned.  Else one solve: the stage
    ends ``solver_<status>`` with the start if it is not ``optimal``,
    ``stalled`` with the start if its point fails the checks, and else
    ``converged`` when the point's certificate (buffers tight, the
    solve's duals) is within ``KKT_TOL``, ``stalled`` otherwise.
    """
    opts = opts or DcOptions()

    def passes(pw):
        checks = model.check_all(scn, traj, pw, tol=opts.feas_tol)
        return all(v.feasible for k, v in checks.items() if k != "mobility")

    report = RunReport(stage="power_dc",
                       extras={"solves": 0, "newton_steps": 0})
    pc = _pieces(scn, traj)
    if scn.p_bar_s <= 0.0 or scn.p_bar_r <= 0.0 or not np.any(pc.c < 1.0):
        report.add(0.0, kkt_residual=0.0, feasible=True)
        return model.zero_power_allocation(scn), report.finish("converged")

    pw = pw_0 if pw_0 is not None else model.restore_feasibility(
        scn, traj, model.equal_power_allocation(scn), tol=opts.feas_tol)
    if not passes(pw):
        pw = model.zero_power_allocation(scn)
    prog, buffers = _power_program(scn, pc)
    kkt_0 = certify(prog, _tight_point(pc, buffers, pw))
    report.add(model.secrecy_sum(scn, traj, pw), kkt_residual=kkt_0,
               feasible=True)
    if kkt_0 <= KKT_TOL:
        return pw, report.finish("converged")

    res = solve(prog, SUBPROBLEM)
    report.extras.update(solves=1, newton_steps=res.iterations)
    if res.status != "optimal":
        return pw, report.finish(f"solver_{res.status}")
    pw_opt = _pw_from_z(pc, res.x_opt)
    if not passes(pw_opt):
        return pw, report.finish("stalled")
    kkt = certify(prog, _tight_point(pc, buffers, pw_opt),
                  np.concatenate([res.duals, res.bound_duals]))
    report.add(model.secrecy_sum(scn, traj, pw_opt), kkt_residual=kkt,
               feasible=True, subproblem_kkt=res.kkt_residual,
               subproblem_iters=res.iterations)
    return pw_opt, report.finish("converged" if kkt <= KKT_TOL
                                 else "stalled")
