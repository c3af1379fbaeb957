"""Alternating optimization driver over powers and trajectory."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import model
from .model import PowerAllocation, Scenario, Trajectory
from .power_dc import dc_allocate
from .report import COUNTERS, RunReport
from .trajectory_scp import ScpOptions, initial_trajectory, scp_optimize

# AO's cap on its outer iterations (``ScpOptions.max_iter`` caps each
# trajectory stage).
MAX_ITER = 30


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
               opts: ScpOptions) -> tuple[Trajectory, PowerAllocation, RunReport]:
    """One AO run from traj; every stage and check at ``opts.feas_tol``.

    It stops ``converged`` when the objective settles
    (``model.settled`` at ``opts.rel_tol``), or when the trajectory
    stage returns its input trajectory unchanged.  Every
    allocation the power stage returns passes causality at
    ``opts.feas_tol``, so the trajectory stage takes it as it is.
    """
    report = RunReport(stage="ao")
    tol = opts.feas_tol
    pw = model.equal_power_start(scn, traj, tol)
    obj = model.secrecy_sum(scn, traj, pw)
    report.add(obj, feasible=True)
    report.status = "max_iter"
    for _ in range(MAX_ITER):
        pw_dc, dc_rep = dc_allocate(scn, traj, pw_0=pw, feas_tol=tol)
        report.sub_reports.append(dc_rep)
        if dc_rep.status.startswith("solver_"):
            # Keep the last AO iterate; the failed stage ends the report.
            report.status = "inner_stage_failure"
            break
        pw = pw_dc
        traj_0 = traj
        traj, scp_rep = scp_optimize(scn, pw, traj, opts=opts)
        report.sub_reports.append(scp_rep)
        obj_new = model.secrecy_sum(scn, traj, pw)
        settled = model.settled(obj, obj_new, opts.rel_tol)
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
        # An unchanged trajectory is a fixed point: the power stage gives
        # it these powers again, so a next iteration would repeat this one.
        if np.array_equal(traj.xy, traj_0.xy) or settled:
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
        # The hover start sits at the top of the ranking bound, not at the
        # best hover optimum the static scan picks by.  On the
        # free-endpoint benchmarks that optimum is at (1800, 0), and a
        # hover start there drops AO on free-T40 from 20.404824 to
        # 13.352013 and takes the hover run on free-T100 from 1,043 to
        # 1,354 Newton steps.
        cand, _ = baselines.ranked_locations(
            scn, baselines.StaticGrid.default(scn))
        starts.append(Trajectory(np.tile(cand[0], (scn.n_slots, 1))))
    return starts


def ao_optimize(scn: Scenario, opts: Optional[ScpOptions] = None,
                init_trajs: Optional[Sequence[Trajectory]] = None
                ) -> tuple[Trajectory, PowerAllocation, RunReport]:
    """Alternate power allocation and trajectory steps, at most
    ``MAX_ITER`` times, until the secrecy objective settles or the
    trajectory stops moving (``_ao_single``), with the one set of
    options ``opts``; with several starting trajectories, keeps the best
    run (multi-start).  ``report.extras["multistart_runs"]`` sums up every
    run, in start order, with the solver counters (``COUNTERS``) of its
    stages."""
    opts = opts or ScpOptions()
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
            for k in COUNTERS}}
        for _, _, r in runs]
    if len(runs) > 1:
        report.extras["multistart_objectives"] = [
            r[2].final_objective for r in runs]
    return traj, pw, report
