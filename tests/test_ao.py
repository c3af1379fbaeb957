"""Alternating optimization driver."""
import numpy as np
import pytest

from conftest import (assert_wall_times, fail_power_solves,
                      fail_trajectory_solves, random_scenario, small_scenario)
from secrelay import benchmark_scenario, model
from secrelay.ao import AoOptions, ao_optimize, evaluate
from secrelay.model import Scenario
from secrelay.power_dc import DcOptions
from secrelay.trajectory_scp import ScpOptions, initial_trajectory


class TestAoOptimize:
    def test_zero_relay_budget(self):
        scn = small_scenario(p_bar_r=0.0)
        traj, pw, report = ao_optimize(scn)
        assert report.final_objective == pytest.approx(0.0, abs=1e-9)
        assert np.all(pw.p_r == 0.0)
        assert evaluate(scn, traj, pw).feasible

    def test_outer_monotone_ascent_and_feasibility(self, rng):
        scn = random_scenario(rng, n_slots=8)
        traj, pw, report = ao_optimize(scn)
        objs = report.objectives
        assert all(b >= a - 1e-6 for a, b in zip(objs, objs[1:]))
        snap = evaluate(scn, traj, pw)
        assert snap.feasible
        assert snap.objective == pytest.approx(report.final_objective,
                                               abs=1e-9)
        # AO has no stationarity certificate: the trajectory solve's
        # residual is kept as ``subproblem_kkt``, not as ``kkt_residual``.
        assert all(r.kkt_residual is None for r in report.iterations)
        scp = [s for s in report.sub_reports if s.stage == "trajectory_scp"]
        assert ([r.extras["subproblem_kkt"] for r in report.iterations[1:]]
                == [s.extras.get("final_subproblem_kkt") for s in scp])

    def test_free_endpoints_dominate_fixed(self, rng):
        # Dropping the endpoint anchors relaxes the problem; with the
        # fixed-endpoint solution offered as one of the starting
        # trajectories, the free run must not come out worse.
        import dataclasses
        from secrelay.ao import default_starts
        for _ in range(3):
            scn_fixed = random_scenario(rng, n_slots=6, free_endpoints=False)
            scn_free = dataclasses.replace(scn_fixed, start_xy=None,
                                           end_xy=None)
            traj_fixed, _, rep_fixed = ao_optimize(scn_fixed)
            starts = default_starts(scn_free) + [traj_fixed]
            _, _, rep_free = ao_optimize(scn_free, init_trajs=starts)
            assert (rep_free.final_objective
                    >= rep_fixed.final_objective - 1e-6)

    def test_idempotent_at_convergence(self, rng):
        scn = random_scenario(rng, n_slots=6)
        opts = AoOptions()
        traj, pw, report = ao_optimize(scn, opts=opts)
        if report.status != "converged":
            pytest.skip("run did not converge inside the iteration cap")
        from secrelay.ao import _ao_single
        traj2, pw2, report2 = _ao_single(scn, traj, opts)
        rel = (abs(report2.final_objective - report.final_objective)
               / max(abs(report.final_objective), 1e-10))
        assert rel < 10 * opts.rel_tol

    def test_multistart_keeps_best(self, rng):
        scn = random_scenario(rng, n_slots=6)
        traj, pw, report = ao_optimize(scn)
        starts = report.extras.get("multistart_objectives")
        if starts is not None:
            assert report.final_objective == pytest.approx(max(starts))

    def test_every_multistart_run_reported(self, rng):
        from secrelay.ao import default_starts
        scn = random_scenario(rng, n_slots=6)
        starts = default_starts(scn)
        traj, pw, report = ao_optimize(scn, init_trajs=starts)
        runs = report.extras["multistart_runs"]
        assert len(runs) == len(starts) > 1
        assert [r["objective"] for r in runs] == (
            report.extras["multistart_objectives"])
        winner = max(runs, key=lambda r: r["objective"])
        assert winner["objective"] == report.final_objective
        assert winner["status"] == report.status
        assert winner["total_time"] == report.total_time
        assert winner["stage_statuses"] == [
            s.status for s in report.sub_reports]
        for r in runs:
            assert r["total_time"] > 0.0 and r["stage_statuses"]

    def test_wall_times(self, rng):
        scn = random_scenario(rng, n_slots=6)
        _, _, report = ao_optimize(scn)
        assert len(report.iterations) > 1
        assert_wall_times(report)
        for sub in report.sub_reports:
            assert_wall_times(sub)


class TestStageContract:
    def test_power_stage_failure_keeps_last_iterate(self, monkeypatch):
        """The first power stage fails at its second surrogate solve (the
        finish between the two surrogate solves fails too, and is
        rejected): AO ends ``inner_stage_failure`` with its start and that
        start's objective, and the failed stage report comes last."""
        scn = small_scenario()
        traj0 = initial_trajectory(scn)
        pw0 = model.restore_feasibility(scn, traj0,
                                        model.equal_power_allocation(scn))
        fail_power_solves(monkeypatch, after=1)
        traj, pw, report = ao_optimize(scn, init_trajs=[traj0])
        assert report.status == "inner_stage_failure"
        assert [s.status for s in report.sub_reports] == [
            "solver_numerical_failure"]
        assert report.sub_reports[-1].extras["solves"] == 3
        [finish] = report.sub_reports[-1].extras["finish"]
        assert not finish["accepted"]
        np.testing.assert_array_equal(traj.xy, traj0.xy)
        np.testing.assert_array_equal(pw.p_s, pw0.p_s)
        np.testing.assert_array_equal(pw.p_r, pw0.p_r)
        assert report.objectives == [model.secrecy_sum(scn, traj0, pw0)]
        assert report.final_objective == model.secrecy_sum(scn, traj, pw)

    def test_trajectory_stage_failure_ends_run(self, monkeypatch):
        """The second trajectory stage fails at its first solve: AO
        records that stage's last (feasible) iterate, its start, and ends
        ``inner_stage_failure`` with the failed stage report last."""
        scn = small_scenario()
        traj0 = initial_trajectory(scn)
        fail_trajectory_solves(monkeypatch, after=1)
        traj, pw, report = ao_optimize(scn, init_trajs=[traj0])
        assert report.status == "inner_stage_failure"
        assert [(s.stage, s.status) for s in report.sub_reports] == [
            ("power_dc", "converged"), ("trajectory_scp", "converged"),
            ("power_dc", "converged"),
            ("trajectory_scp", "solver_numerical_failure")]
        assert len(report.sub_reports[-1].iterations) == 1
        assert len(report.iterations) == 3
        assert not np.array_equal(traj.xy, traj0.xy)
        assert report.final_objective == model.secrecy_sum(scn, traj, pw)
        assert report.final_objective > report.objectives[0]
        assert evaluate(scn, traj, pw).feasible

    def test_start_restored_at_power_tolerance(self):
        """AO restores its power start at ``dc.feas_tol``, so the start
        it records is the power stage's own start."""
        scn = benchmark_scenario(40.0, 2.0)
        traj0 = initial_trajectory(scn)
        _, _, report = ao_optimize(scn, AoOptions(dc=DcOptions(feas_tol=1e-4)),
                                   init_trajs=[traj0])
        start = model.restore_feasibility(
            scn, traj0, model.equal_power_allocation(scn), tol=1e-4)
        assert report.iterations[0].objective == model.secrecy_sum(
            scn, traj0, start)

    def test_loose_power_tolerance_strict_trajectory(self):
        """The stages' tolerances may differ; AO judges at the power
        stage's."""
        scn = benchmark_scenario(40.0, 2.0)
        opts = AoOptions(dc=DcOptions(feas_tol=1e-4),
                         scp=ScpOptions(feas_tol=1e-8))
        traj, pw, report = ao_optimize(scn, opts,
                                       init_trajs=[initial_trajectory(scn)])
        assert report.status == "converged"
        assert all(r.feasible for r in report.iterations)
        assert evaluate(scn, traj, pw, tol=1e-4).feasible

    def test_trajectory_powers_restored_at_its_tolerance(self):
        """AO restores the powers at the trajectory stage's tolerance
        before that stage (which raises on others), and keeps those, so
        the plan is causal at that tolerance."""
        scn = benchmark_scenario(40.0, 2.0)
        opts = AoOptions(dc=DcOptions(feas_tol=1e-4),
                         scp=ScpOptions(feas_tol=1e-8))
        traj, pw, report = ao_optimize(scn, opts)
        scp_reports = [s for s in report.sub_reports
                       if s.stage == "trajectory_scp"]
        assert scp_reports
        assert model.check_causality(scn, traj, pw, tol=1e-8).feasible
        assert evaluate(scn, traj, pw, tol=1e-8).feasible


class TestZeroSecrecyStart:
    def test_midway_hover_stops_at_noise(self):
        """Hovering midway between Alice and Bob on the T = 100 s free
        benchmark, the power stage leaves the relay almost silent and the
        secrecy sum near 0, where the relative change stays large: the
        absolute rule (``model.OBJ_ABS_TOL``) stops the SCP stage and AO."""
        from secrelay import benchmark_scenario
        from secrelay.ao import _ao_single
        from secrelay.trajectory_scp import initial_trajectory
        scn = benchmark_scenario(100.0, 2.0)
        _, _, report = _ao_single(scn, initial_trajectory(scn), AoOptions())
        first_scp = report.sub_reports[1]
        assert first_scp.stage == "trajectory_scp"
        assert len(first_scp.iterations) - 1 <= 2
        assert abs(first_scp.final_objective) <= 1e-6
        assert report.status == "converged"
        assert len(report.iterations) - 1 < AoOptions().max_iter


class TestHoverStart:
    def test_first_trajectory_finish_accepted(self):
        """From the hover start of the T = 100 s free benchmark, the first
        trajectory stage's finish, a nonconvex solve that a line search on
        the KKT residual leaves at a saddle of the barrier problem, is
        accepted, and the whole run takes under 700 Newton steps (1,043
        with that line search)."""
        from secrelay.ao import default_starts
        scn = benchmark_scenario(100.0, 2.0)
        _, _, report = ao_optimize(scn, init_trajs=[default_starts(scn)[-1]])
        first_scp = report.sub_reports[1]
        assert first_scp.stage == "trajectory_scp"
        assert first_scp.extras["finish"][0]["accepted"]
        (run,) = report.extras["multistart_runs"]
        assert run["newton_steps"] < 700


class TestEvaluate:
    def test_mirrors_model_checks(self, rng):
        scn = small_scenario()
        from conftest import random_feasible_trajectory, random_power
        traj = random_feasible_trajectory(rng, scn)
        pw = random_power(rng, scn)
        snap = evaluate(scn, traj, pw)
        checks = model.check_all(scn, traj, pw)
        assert snap.mobility.feasible == checks["mobility"].feasible
        assert snap.causality.feasible == checks["causality"].feasible
        assert (snap.power_budget.feasible
                == checks["power_budget"].feasible)
        assert snap.objective == pytest.approx(
            model.secrecy_sum(scn, traj, pw))

    def test_zero_power_snapshot(self):
        scn = small_scenario()
        from secrelay.trajectory_scp import initial_trajectory
        snap = evaluate(scn, initial_trajectory(scn),
                        model.zero_power_allocation(scn))
        assert snap.objective == 0.0
        assert snap.feasible

    def test_secrecy_avg_normalization(self, rng):
        scn = small_scenario()
        from conftest import random_feasible_trajectory, random_power
        traj = random_feasible_trajectory(rng, scn)
        pw = random_power(rng, scn)
        snap = evaluate(scn, traj, pw)
        assert snap.secrecy_avg == pytest.approx(
            snap.objective / scn.n_slots)
