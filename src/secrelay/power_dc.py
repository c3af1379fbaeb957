"""Power allocation with the trajectory held fixed.

The secrecy objective is a difference of concave functions of the relay
power.  Each iteration linearizes the subtracted (eavesdropper) term and
the concave relay outflows of information causality at the current
allocation, solves the resulting convex program, and repeats.  The
surrogate is tight at the linearization point and minorizes the true
objective, so the true objective ascends monotonically and the limit is
a KKT point of the power allocation problem.

CCP converges only linearly, and the surrogates only serve to reach a
KKT point of the true problem.  So after each surrogate step that leaves
the stage running, the stage tries a finish (``_finish``): one
interior-point solve of the true, nonconvex power problem
(``_original_power_program``, with its Hessians) from a strict interior
point next to that step's solution (T. Lipp & S. Boyd, "Variations and
extension of the convex-concave procedure", Optim. Eng. 17, 2016).
``finish`` is the guarded solve of both stages (``trajectory_scp``
calls it too): its point is accepted only if the solve ends
``optimal``, the point is feasible at ``feas_tol``, its objective is at
least the stage iterate's and its certificate is within ``KKT_TOL``; the
stage then ends ``converged`` there.  Otherwise CCP takes its next step
exactly as without the finish and tries again after it, so the stage
stays monotone and a rejected finish never sets a ``solver_*`` status.
After a finish whose point falls below the CCP iterate
(``BELOW_ITERATE``, "objective below the stage iterate") no finish is
tried again: CCP is at least as far along, and each retry would land on
the same KKT point.  One map of a solver point to powers, objective and
feasibility (``_judge``) serves the surrogate steps and the finish.

Before the first surrogate is built, the stage certifies the start: it
estimates the multipliers of the true power problem by least squares
over the nearly active rows and evaluates the exact KKT residual
(``solver.certify``).  A start within ``KKT_TOL`` is returned unchanged
without a solve.  Otherwise the stage returns the accepted finish, or
the last surrogate solution, each certified with its own solve's duals,
or the start when the first step does not improve on it.

One builder (``_power_program``) makes the true problem and the
surrogate from rate triples (value, first and second derivative per
watt): the true problem has the exact rates, and the surrogate replaces
Eve's rate and both outflows by their tangents at the linearization
point (second derivative 0).

Information causality is stated with an explicit relay buffer
(``Buffer``): one buffer for the rate forwarded to Bob and one for the
rate leaked to Eve, each b_j >= 0 with b_j <= b_{j-1} + R_in,j - R_out,j.
The power budgets use the same form on the remaining energy
r_j = N p_bar - e_j of the cumulative energy e_j >= e_{j-1} + p_j, with
only r_{N-2} >= 0 bounded.  The variables are laid out slot by slot, so
every row touches two neighbouring slots and the solver's Newton matrix
is banded.  Each surrogate starts strictly inside: the source powers of
the linearization point moved a thousandth of the way to a near-equal
level, a tiny relay power, and each buffer at ``buffer_start`` of its
prefix surpluses (``_build_surrogate`` gives the argument).

Each program computes its per-point terms once per point: the powers
from the scaled variables, the relay inflow log2(1 + p_s g_ar), its
derivative and its curvature (``_PowerPoint``).  The objective,
gradient, Hessian and causality callbacks read them from one
``solver.PointCache`` per program, keyed on the point's bytes, so a
caller that writes into an array it passed before still gets fresh
terms.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import model
from .model import PowerAllocation, Scenario, Trajectory
from .report import RunReport
from .solver import (ConstraintBlock, PointCache, SmoothConvexProgram,
                     SolverOptions, certify, kkt_residual, solve,
                     start_margin)

LN2 = float(np.log(2.0))

# The KKT residual within which a point of the true power problem (and,
# in ``trajectory_scp``, of the true trajectory problem) is accepted as a
# KKT point: a certified start, a finish or a converged stop.
KKT_TOL = 1e-5
# The reason a finish is rejected when its point scores below the stage
# iterate it started next to (``finish``).
BELOW_ITERATE = "objective below the stage iterate"

# Subproblems are solved well below KKT_TOL so the outer loop can keep
# certifying progress without hitting the solver's noise floor.  tol=1e-8
# sits close to that floor; a Newton stall within solver.STALL_TOL_FACTOR
# (10x) of it still counts as optimal, which leaves the loosened limit
# (1e-7) two orders below KKT_TOL.
SUBPROBLEM = SolverOptions(tol=1e-8)

# Each finish starts from a CCP iterate with its relay powers cut by
# FINISH_CUT and its source powers by FINISH_CUT ** 2.  A concave rate
# that is 0 at power 0 keeps at least (1 - cut) of itself, so each
# inflow loses at most 0.25% while an outflow loses up to 5%: a tight
# causality row usually turns slack.  ``_finish`` skips a start that is
# not strictly inside.
FINISH_CUT = 0.05


def finish(prog: SmoothConvexProgram, opts: SolverOptions, obj: float,
           judge: Callable, certificate: Callable) -> tuple[object, dict]:
    """One guarded solve of a stage's true problem ``prog`` (with its
    start), the finish of both stages.

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
class DcOptions:
    rel_tol: float = 1e-5
    max_iter: int = 100
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


# Per-slot variable order of the power programs: scaled powers, buffer
# contents in bits, scaled remaining energies.
_SLOT_VARS = ("ps", "pr", "bob", "eve", "src_energy", "relay_energy")


@dataclass
class _Pieces:
    """Channel slices and variable layout over the power slots.

    Power slot j = 0..N-2 holds the source power of slot j+1 and the
    relay power of slot j+2 (1-based), both scaled; ``idx[name]`` gives
    the positions of one per-slot variable of ``_SLOT_VARS``.
    """

    n: int
    gar: np.ndarray   # alice->relay gain, slots 1..N-1
    grd: np.ndarray   # relay->bob gain,   slots 2..N
    gre: np.ndarray   # relay->eve gain,   slots 2..N
    u_s: float        # variable scale for source powers
    u_r: float        # variable scale for relay powers
    idx: dict
    dim: int


def _layout(n: int) -> tuple[dict, int]:
    """Positions of each per-slot variable, and the dimension, for N = n."""
    stride = len(_SLOT_VARS)
    return ({v: stride * np.arange(n - 1) + a
             for a, v in enumerate(_SLOT_VARS)}, stride * (n - 1))


def _pieces(scn: Scenario, traj: Trajectory) -> _Pieces:
    ch = model.channel_state(scn, traj)
    n = scn.n_slots
    u_s = max(n * scn.p_bar_s / (n - 1), 1e-9)
    u_r = max(n * scn.p_bar_r / (n - 1), 1e-9)
    idx, dim = _layout(n)
    return _Pieces(
        n=n, gar=ch.gamma_ar[:-1], grd=ch.gamma_rd[1:],
        gre=ch.gamma_re[1:], u_s=u_s, u_r=u_r, idx=idx, dim=dim)


def _split(pc: _Pieces, z: np.ndarray):
    return pc.u_s * z[pc.idx["ps"]], pc.u_r * z[pc.idx["pr"]]


def _pw_from_z(pc: _Pieces, z: np.ndarray) -> PowerAllocation:
    ps, pr = _split(pc, np.maximum(z, 0.0))
    return PowerAllocation(p_s=np.append(ps, 0.0), p_r=np.insert(pr, 0, 0.0))


class _PowerPoint(NamedTuple):
    """Terms of a power program at one point, shared by its callbacks:
    the relay powers and the relay inflow log2(1 + p_s g_ar) with its
    derivative and curvature in the scaled source power."""

    pr: np.ndarray         # relay power, watts
    inflow: np.ndarray
    d_in: np.ndarray       # d inflow / dz
    curv: np.ndarray       # -d^2 inflow / dz^2


def _power_point(pc: _Pieces) -> PointCache:
    """One program's cache of its ``_PowerPoint`` terms."""
    def terms(z):
        ps, pr = _split(pc, z)
        one = 1.0 + ps * pc.gar
        return _PowerPoint(
            pr=pr, inflow=np.log2(one),
            d_in=pc.gar / (LN2 * one) * pc.u_s,
            curv=pc.gar ** 2 / (LN2 * one ** 2) * pc.u_s ** 2)
    return PointCache(terms)


def _flow_block(pc: _Pieces, at: PointCache, out: Callable, d_out: Callable,
                dd_out: Callable) -> ConstraintBlock:
    """Net outflow out(p_r) - log2(1 + p_s g_ar) of each power slot.

    ``d_out`` and ``dd_out`` are the first and second derivatives of
    ``out`` per watt (``dd_out`` is 0 for a tangent).  The block carries
    the curvature of both flows.  The terms at a point come from ``at``.
    """
    def value(z):
        t = at(z)
        return out(t.pr) - t.inflow

    def jacobian(z):
        t = at(z)
        vals = np.empty((pc.n - 1, 2))
        vals[:, 0] = d_out(t.pr) * pc.u_r
        vals[:, 1] = -t.d_in
        return vals

    def hw(z, w):
        t = at(z)
        return np.concatenate([w * dd_out(t.pr) * pc.u_r ** 2, w * t.curv])

    i_pr, i_ps = pc.idx["pr"], pc.idx["ps"]
    both = np.concatenate([i_pr, i_ps])
    return ConstraintBlock(
        cols=np.stack([i_pr, i_ps], axis=1), value=value,
        jacobian=jacobian, hess_weighted=hw, hess_idx=(both, both))


def _energy_flow(pc: _Pieces, var: str) -> ConstraintBlock:
    i_p = pc.idx[var]
    J = np.ones((i_p.size, 1))
    return ConstraintBlock(cols=i_p[:, None], value=lambda z: z[i_p],
                           jacobian=lambda z: J)


def _lower_bounds(pc: _Pieces) -> np.ndarray:
    """Powers and relay buffers >= 0; only the final remaining energies
    are bounded (r_{N-2} >= 0 is the budget)."""
    lb = np.full(pc.dim, -np.inf)
    for v in ("ps", "pr", "bob", "eve"):
        lb[pc.idx[v]] = 0.0
    lb[pc.idx["src_energy"][-1]] = 0.0
    lb[pc.idx["relay_energy"][-1]] = 0.0
    return lb


def _tight_point(pc: _Pieces, buffers: list[Buffer],
                 pw: PowerAllocation) -> np.ndarray:
    """pw in the program's variables, every buffer at its prefix surplus."""
    z = np.zeros(pc.dim)
    z[pc.idx["ps"]] = pw.p_s[:-1] / pc.u_s
    z[pc.idx["pr"]] = pw.p_r[1:] / pc.u_r
    for b in buffers:
        z[b.idx] = b.surplus(z)
    return z


def build_dc_surrogate(scn: Scenario, traj: Trajectory,
                       pw_k: PowerAllocation,
                       feas_tol: float = 1e-6) -> SmoothConvexProgram:
    """Convex surrogate of the power problem, linearized at pw_k.

    The decision vector holds, slot by slot, the scaled source and relay
    powers (equal-power per-slot levels as scales), Bob's and Eve's
    relay buffers and the remaining source and relay energy, at the
    positions ``_layout(scn.n_slots)`` gives.
    """
    checks = model.check_all(scn, traj, pw_k, tol=feas_tol)
    bad = [k for k, v in checks.items() if k != "mobility" and not v.feasible]
    if bad:
        raise ValueError(f"linearization point infeasible: {bad}")
    pc = _pieces(scn, traj)
    return _build_surrogate(scn, pc, pw_k)


def _rate(gain: np.ndarray) -> tuple:
    """log2(1 + p_r gain) and its first two derivatives per watt."""
    return (lambda pr: np.log2(1.0 + pr * gain),
            lambda pr: gain / (LN2 * (1.0 + pr * gain)),
            lambda pr: -gain ** 2 / (LN2 * (1.0 + pr * gain) ** 2))


def _tangent(gain: np.ndarray, pr_k: np.ndarray) -> tuple:
    """The tangent of ``_rate(gain)`` at the relay powers pr_k, as the
    same triple."""
    rate, slope, _ = _rate(gain)
    c = slope(pr_k)
    const = rate(pr_k) - c * pr_k
    return lambda pr: const + c * pr, lambda pr: c, np.zeros_like


def _power_program(scn: Scenario, pc: _Pieces, eve: tuple, bob_out: tuple
                   ) -> tuple[SmoothConvexProgram, list[Buffer]]:
    """A power program without a start, and its buffers (Bob's, Eve's,
    then the remaining source and relay energy).

    It maximizes sum (R_bob - eve) with Bob's buffer drained by
    ``bob_out`` and Eve's by ``eve``, each a rate triple (``_rate``) and
    R_bob Bob's exact rate.  The one builder of the true power problem
    (exact rates: ``_original_power_program``) and of the CCP surrogate
    (tangents at pw_k: ``_build_surrogate``).  The objective Hessian is
    diagonal, with mixed signs in the true problem.
    """
    at = _power_point(pc)
    i_pr = pc.idx["pr"]
    bob = _rate(pc.grd)

    def objective(z):
        pr = at(z).pr
        return -float(np.sum(bob[0](pr) - eve[0](pr)))

    def gradient(z):
        pr = at(z).pr
        g = np.zeros(pc.dim)
        g[i_pr] = (eve[1](pr) - bob[1](pr)) * pc.u_r
        return g

    def hessian(z):
        pr = at(z).pr
        return (eve[2](pr) - bob[2](pr)) * pc.u_r ** 2

    buffers = [
        Buffer(_flow_block(pc, at, *bob_out), pc.idx["bob"], "bob_causality"),
        Buffer(_flow_block(pc, at, *eve), pc.idx["eve"], "eve_causality"),
        Buffer(_energy_flow(pc, "ps"), pc.idx["src_energy"], "source_budget",
               initial=scn.n_slots * scn.p_bar_s / pc.u_s),
        Buffer(_energy_flow(pc, "pr"), pc.idx["relay_energy"], "relay_budget",
               initial=scn.n_slots * scn.p_bar_r / pc.u_r),
    ]
    prog = SmoothConvexProgram(
        dim=pc.dim, objective=objective, gradient=gradient, hessian=hessian,
        hess_idx=(i_pr, i_pr), ineqs=[b.block() for b in buffers],
        lb=_lower_bounds(pc))
    return prog, buffers


def _build_surrogate(scn: Scenario, pc: _Pieces,
                     pw_k: PowerAllocation) -> SmoothConvexProgram:
    """The surrogate at pw_k with a strictly feasible start.

    Eve's rate and both outflows are their tangents at pw_k.  In scaled
    powers the start is (1 - t) A + t B, t = 1e-3, with A = (source of
    pw_k, relay 1e-6) and B = (source 0.9, relay 1e-6).  Every
    positivity bound is slack there, and so are the budgets whenever pw_k
    spends less than 1 + t / 10 times the source budget.  A causality
    prefix F is convex in the powers, so F(start) <= (1 - t) F(A) +
    t F(B).  The outflow is the tangent at pw_k, so F(A) is pw_k's own
    prefix excess (at most the tolerance it was accepted at) minus the
    tangent slope c times the cut in relay power.  As c p_r >= t
    log2(1 + g p_r) while g p_r < e^500, F(start) <= (1 - t) excess +
    sum (c 1e-6 - t inflow at source 0.9): negative when a thousandth of
    the inflow at 0.9 outweighs the start's relay outflow and pw_k's
    excess over every prefix.  The buffers at ``buffer_start`` then
    leave every row slack.
    """
    prk = pw_k.p_r[1:]
    prog, buffers = _power_program(scn, pc, _tangent(pc.gre, prk),
                                   _tangent(pc.grd, prk))
    z0 = np.zeros(pc.dim)
    z0[pc.idx["ps"]] = (1.0 - 1e-3) * pw_k.p_s[:-1] / pc.u_s + 1e-3 * 0.9
    z0[pc.idx["pr"]] = 1e-6
    for b in buffers:
        z0[b.idx] = buffer_start(b.surplus(z0))
    return dataclasses.replace(prog, strictly_feasible_start=z0)


def _original_power_program(scn: Scenario, pc: _Pieces):
    """The true (nonconvex) power problem and its buffers: every point
    is certified on it, and ``_finish`` solves it from a start it gives.
    """
    return _power_program(scn, pc, _rate(pc.gre), _rate(pc.grd))


def _judge(scn: Scenario, traj: Trajectory, pc: _Pieces,
           feas_tol: float) -> Callable:
    """The stage's map of a solver point z to its powers, their
    objective and whether they pass causality and the budgets at
    ``feas_tol``: of a surrogate step and of a finish alike."""
    def judge(z):
        pw = _pw_from_z(pc, z)
        checks = model.check_all(scn, traj, pw, tol=feas_tol)
        return (pw, model.secrecy_sum(scn, traj, pw),
                all(v.feasible for k, v in checks.items() if k != "mobility"))
    return judge


def _finish(pc: _Pieces, orig: SmoothConvexProgram, buffers: list[Buffer],
            pw: PowerAllocation, obj: float, judge: Callable
            ) -> tuple[Optional[PowerAllocation], dict]:
    """``finish`` on the true power problem ``orig`` from next to the
    CCP iterate pw, whose objective is obj: pw with its powers cut
    (``FINISH_CUT``) and each buffer at ``buffer_start``.  The point is
    certified with every buffer at its prefix surplus."""
    cut = PowerAllocation(p_s=(1.0 - FINISH_CUT ** 2) * pw.p_s,
                          p_r=(1.0 - FINISH_CUT) * pw.p_r)
    z0 = _tight_point(pc, buffers, cut)
    for b in buffers:
        z0[b.idx] = buffer_start(z0[b.idx])
    return finish(
        dataclasses.replace(orig, strictly_feasible_start=z0), SUBPROBLEM,
        obj, judge, lambda pw_fin, z, duals: certify(
            orig, _tight_point(pc, buffers, pw_fin), duals))


def dc_allocate(scn: Scenario, traj: Trajectory,
                pw_0: Optional[PowerAllocation] = None,
                opts: Optional[DcOptions] = None
                ) -> tuple[PowerAllocation, RunReport]:
    """Ascend the secrecy rate over the power allocations at fixed traj.

    Starts from ``pw_0``, by default equal power with the relay scaled
    back until causality holds (``model.restore_feasibility``).
    Iteration 0 records the start's certificate (``solver.certify`` on
    the true problem); a start within ``KKT_TOL`` is returned unchanged
    (``converged``) and no subproblem is solved.  After each surrogate
    step that leaves the stage running, the finish (``_finish``) is
    tried from next to it; an accepted finish is the last iterate and
    ends the stage ``converged`` (``record_finish``).  Otherwise returns
    the last surrogate solution (the start if no step is accepted), also
    when a surrogate solve is not ``optimal``, which ends the stage
    ``solver_<status>``.  No finish follows one that ended below its CCP
    iterate (``BELOW_ITERATE``).  ``report.extras`` counts the
    ``solves`` and their ``newton_steps`` (the finishes' included);
    ``finish`` lists the record of each attempt in order (see
    ``finish``).
    """
    opts = opts or DcOptions()
    report = RunReport(stage="power_dc",
                       extras={"solves": 0, "newton_steps": 0, "finish": []})

    if scn.p_bar_s <= 0.0 or scn.p_bar_r <= 0.0:
        report.add(0.0, kkt_residual=0.0, feasible=True)
        return model.zero_power_allocation(scn), report.finish("converged")

    pw = pw_0 if pw_0 is not None else model.restore_feasibility(
        scn, traj, model.equal_power_allocation(scn), tol=opts.feas_tol)
    checks = model.check_all(scn, traj, pw, tol=opts.feas_tol)
    if not (checks["causality"].feasible and checks["power_budget"].feasible):
        raise ValueError("initial power allocation infeasible")

    pc = _pieces(scn, traj)
    orig, orig_buffers = _original_power_program(scn, pc)
    judge = _judge(scn, traj, pc, opts.feas_tol)
    obj = model.secrecy_sum(scn, traj, pw)
    kkt_0 = certify(orig, _tight_point(pc, orig_buffers, pw))
    report.add(obj, kkt_residual=kkt_0, feasible=True)
    if kkt_0 <= KKT_TOL:
        # The start is already a KKT point: CCP would not move it.
        return pw, report.finish("converged")
    report.status = "max_iter"
    retry = True
    for _ in range(opts.max_iter):
        prog = _build_surrogate(scn, pc, pw)
        res = solve(prog, SUBPROBLEM)
        report.extras["solves"] += 1
        report.extras["newton_steps"] += res.iterations
        if res.status != "optimal":
            report.status = f"solver_{res.status}"
            break
        duals = np.concatenate([res.duals, res.bound_duals])
        pw_new, obj_new, feasible = judge(res.x_opt)
        if obj_new < obj - 1e-9:
            # Solver-tolerance hiccup: keep the better point and stop.
            # Certify it with its own multiplier estimate and with the
            # subproblem's duals, both sound; the estimate's active set
            # can miss rows that are only nearly active.  The attempt
            # goes to the extras: ``iterations`` holds accepted iterates
            # only.
            kkt_kept = certify(orig, _tight_point(pc, orig_buffers, pw),
                               duals)
            report.extras["rejected_step"] = {
                "objective": obj_new, "subproblem_kkt": res.kkt_residual,
                "subproblem_iters": res.iterations, "kept_kkt": kkt_kept}
            report.status = ("converged" if kkt_kept <= KKT_TOL
                             else "stalled")
            break
        kkt_orig = kkt_residual(
            orig, _tight_point(pc, orig_buffers, pw_new), duals)
        rel = abs(obj_new - obj) / max(abs(obj_new), 1e-10)
        if rel < opts.rel_tol:
            if kkt_orig <= KKT_TOL:
                report.status = "converged"
            elif rel < 1e-13:
                # Iterates stopped moving without certifying; report as is.
                report.status = "stalled"
        report.add(obj_new, kkt_residual=kkt_orig, feasible=feasible,
                   subproblem_kkt=res.kkt_residual,
                   subproblem_iters=res.iterations)
        pw, obj = pw_new, obj_new
        if report.status != "max_iter":
            break
        if not retry:
            continue
        finished, fin = _finish(pc, orig, orig_buffers, pw, obj, judge)
        record_finish(report, finished, fin)
        # A finish that reached a KKT point below the CCP iterate shows
        # CCP at least as far along; a later one would land there again.
        retry = fin["reason"] != BELOW_ITERATE
        if finished is not None:
            return finished, report.finish("converged")
    return pw, report.finish()
