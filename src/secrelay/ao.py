"""Alternating optimization driver over powers and trajectory."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import model
from .model import (PowerAllocation, Scenario, Trajectory,
                    restore_feasibility)
from .power_dc import DcOptions, dc_allocate
from .report import RunReport
from .trajectory_scp import ScpOptions, initial_trajectory, scp_optimize


@dataclass
class AoOptions:
    """AO restores each power start and judges feasibility at
    ``dc.feas_tol``, the tolerance of the stage that start feeds."""

    rel_tol: float = 1e-4
    max_iter: int = 30
    dc: DcOptions = field(default_factory=DcOptions)
    scp: ScpOptions = field(default_factory=ScpOptions)


@dataclass(frozen=True)
class EvalSnapshot:
    """Pure re-evaluation of a candidate solution."""

    objective: float
    secrecy_avg: float
    mobility: model.FeasibilityVerdict
    causality: model.FeasibilityVerdict
    power_budget: model.FeasibilityVerdict

    @property
    def feasible(self) -> bool:
        return (self.mobility.feasible and self.causality.feasible
                and self.power_budget.feasible)


def evaluate(scn: Scenario, traj: Trajectory,
             pw: PowerAllocation,
             tol: float = model.DEFAULT_FEAS_TOL) -> EvalSnapshot:
    rp = model.rate_profile(scn, traj, pw)
    checks = model.check_all(scn, traj, pw, tol)
    return EvalSnapshot(
        objective=rp.secrecy_sum, secrecy_avg=rp.secrecy_avg,
        mobility=checks["mobility"], causality=checks["causality"],
        power_budget=checks["power_budget"])


def _ao_single(scn: Scenario, traj: Trajectory,
               opts: AoOptions) -> tuple[Trajectory, PowerAllocation, RunReport]:
    report = RunReport(stage="ao")
    tol = opts.dc.feas_tol
    # Feasible warm start for the first power step: equal power, relay
    # scaled down until causality holds on the initial trajectory.
    pw = restore_feasibility(scn, traj, model.equal_power_allocation(scn),
                             tol=tol)
    obj = model.secrecy_sum(scn, traj, pw)
    report.add(obj, feasible=True)

    if scn.p_bar_r <= 0.0:
        return traj, model.zero_power_allocation(scn), report.finish(
            "converged")

    report.status = "max_iter"
    for _ in range(opts.max_iter):
        pw_start = restore_feasibility(scn, traj, pw, tol=tol)
        pw_dc, dc_rep = dc_allocate(scn, traj, pw_0=pw_start, opts=opts.dc)
        report.sub_reports.append(dc_rep)
        if dc_rep.status.startswith("solver_"):
            # Keep the last AO iterate; the failed stage ends the report.
            report.status = "inner_stage_failure"
            break
        # The trajectory stage runs at its own tolerance; restore here so
        # AO keeps and scores the powers the trajectory is planned for.
        pw = restore_feasibility(scn, traj, pw_dc, tol=opts.scp.feas_tol)
        traj, scp_rep = scp_optimize(scn, pw, traj, opts=opts.scp)
        report.sub_reports.append(scp_rep)
        obj_new = model.secrecy_sum(scn, traj, pw)
        change = abs(obj_new - obj)
        rel = change / max(abs(obj_new), 1e-10)
        feas = all(v.feasible for v in
                   model.check_all(scn, traj, pw, tol).values())
        # The trajectory solve's residual says nothing about stationarity
        # of the AO problem, so AO records no kkt_residual.
        report.add(obj_new, feasible=feas,
                   subproblem_kkt=scp_rep.extras.get("final_subproblem_kkt"))
        obj = obj_new
        if scp_rep.status.startswith("solver_"):
            # The stage's last iterate is feasible and recorded above;
            # the failed stage ends the report.
            report.status = "inner_stage_failure"
            break
        if rel < opts.rel_tol or change <= model.OBJ_ABS_TOL:
            report.status = "converged"
            break
    return traj, pw, report.finish()


def default_starts(scn: Scenario) -> list[Trajectory]:
    """Multi-start pool: straight line / hover, plus (with free
    endpoints) the ferry plan and a hover at the most promising fixed
    location, so a locally hopeless hover start cannot trap the search."""
    starts = [initial_trajectory(scn)]
    if scn.start_xy is None and scn.end_xy is None:
        from . import baselines
        ferry = baselines.data_ferry(scn)
        if ferry.load_slots > 0:
            starts.append(ferry.traj)
        cand, _ = baselines.ranked_locations(
            scn, baselines.StaticGrid.default(scn))
        starts.append(Trajectory(np.tile(cand[0], (scn.n_slots, 1))))
    return starts


def ao_optimize(scn: Scenario, opts: Optional[AoOptions] = None,
                init_trajs: Optional[Sequence[Trajectory]] = None
                ) -> tuple[Trajectory, PowerAllocation, RunReport]:
    """Alternate power allocation and trajectory steps until the secrecy
    objective settles; with several starting trajectories, keeps the best
    run (multi-start).  ``report.extras["multistart_runs"]`` sums up every
    run, in start order, with the ``solves`` and ``newton_steps`` of its
    stages."""
    opts = opts or AoOptions()
    if init_trajs is None:
        init_trajs = default_starts(scn)
    best = None
    runs = []
    for traj0 in init_trajs:
        out = _ao_single(scn, traj0, opts)
        runs.append(out)
        if best is None or out[2].final_objective > best[2].final_objective:
            best = out
    traj, pw, report = best
    report.extras["multistart_runs"] = [
        {"objective": r.final_objective, "status": r.status,
         "total_time": r.total_time,
         "stage_statuses": [s.status for s in r.sub_reports],
         **{k: sum(s.extras[k] for s in r.sub_reports)
            for k in ("solves", "newton_steps")}}
        for _, _, r in runs]
    if len(runs) > 1:
        report.extras["multistart_objectives"] = [
            r[2].final_objective for r in runs]
    return traj, pw, report
