"""Alternating optimization driver."""
import dataclasses
import math
import random

import numpy as np
import pytest

from conftest import (assert_wall_times, fail_power_solves,
                      fail_trajectory_solves, random_scenario, small_scenario)
from secrelay import ao, benchmark_scenario, model
from secrelay.ao import ao_optimize, evaluate
from secrelay.model import Trajectory
from secrelay.trajectory_scp import ScpOptions, initial_trajectory


class TestAoOptimize:
    @pytest.mark.parametrize("budgets", [
        {"p_bar_s": 0.0}, {"p_bar_r": 0.0}, {"p_bar_s": 0.0, "p_bar_r": 0.0}],
        ids=["source", "relay", "both"])
    def test_zero_budget(self, budgets):
        """A zero budget runs through both stages, whose silent-relay
        returns end every run ``converged`` at 0 with zero powers."""
        scn = small_scenario(**budgets)
        traj, pw, report = ao_optimize(scn)
        assert report.status == "converged"
        assert report.final_objective == 0.0
        assert np.all(pw.p_s == 0.0) and np.all(pw.p_r == 0.0)
        assert all(r["status"] == "converged" and r["objective"] == 0.0
                   for r in report.extras["multistart_runs"])
        assert [s.stage for s in report.sub_reports] == [
            "power_dc", "trajectory_scp"]
        assert all(s.status == "converged" for s in report.sub_reports)
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
        opts = ScpOptions()
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
        from secrelay.report import COUNTERS
        for k in COUNTERS:
            assert winner[k] == sum(s.extras[k] for s in report.sub_reports)
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
        """The first power stage fails at its solve: AO ends
        ``inner_stage_failure`` with its start and that start's objective,
        and the failed stage report comes last.  The start flies towards
        Bob, so the stage does not certify its start and solves."""
        scn = small_scenario()
        traj0 = Trajectory(np.stack([np.linspace(250.0, 390.0, 6),
                                     np.full(6, -50.0)], axis=1))
        pw0 = model.restore_feasibility(scn, traj0,
                                        model.equal_power_allocation(scn))
        fail_power_solves(monkeypatch)
        traj, pw, report = ao_optimize(scn, init_trajs=[traj0])
        assert report.status == "inner_stage_failure"
        assert [s.status for s in report.sub_reports] == [
            "solver_numerical_failure"]
        assert report.sub_reports[-1].extras["solves"] == 1
        np.testing.assert_array_equal(traj.xy, traj0.xy)
        np.testing.assert_array_equal(pw.p_s, pw0.p_s)
        np.testing.assert_array_equal(pw.p_r, pw0.p_r)
        assert report.objectives == [model.secrecy_sum(scn, traj0, pw0)]
        assert report.final_objective == model.secrecy_sum(scn, traj, pw)

    def test_trajectory_stage_failure_ends_run(self, monkeypatch):
        """The second trajectory stage fails at its first solve: AO
        records that stage's last (feasible) iterate, its start, and ends
        ``inner_stage_failure`` with the failed stage report last.  The
        start hovers where the relay has secrecy to gain."""
        scn = small_scenario()
        traj0 = Trajectory(np.tile([300.0, -50.0], (scn.n_slots, 1)))
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
        """AO restores its power start at the run's ``feas_tol``, loose
        or strict, so the start it records is the power stage's own
        start."""
        scn = benchmark_scenario(40.0, 2.0)
        traj0 = initial_trajectory(scn)
        for tol in (1e-4, 1e-8):
            _, _, report = ao_optimize(scn, ScpOptions(feas_tol=tol),
                                       init_trajs=[traj0])
            start = model.restore_feasibility(
                scn, traj0, model.equal_power_allocation(scn), tol=tol)
            assert report.iterations[0].objective == model.secrecy_sum(
                scn, traj0, start)

    def test_loose_power_tolerance_strict_trajectory(self):
        """At a loose and at a strict run tolerance AO converges, and
        judges every iterate and the plan feasible at that tolerance."""
        scn = benchmark_scenario(40.0, 2.0)
        for tol in (1e-4, 1e-8):
            traj, pw, report = ao_optimize(
                scn, ScpOptions(feas_tol=tol),
                init_trajs=[initial_trajectory(scn)])
            assert report.status == "converged"
            assert all(r.feasible for r in report.iterations)
            assert evaluate(scn, traj, pw, tol=tol).feasible

    def test_trajectory_powers_restored_at_its_tolerance(self):
        """The trajectory stage (which raises on powers that fail
        causality) runs at the run's tolerance on the power stage's
        output, and AO keeps those powers, so the multistart plan is
        causal at that tolerance, loose or strict."""
        scn = benchmark_scenario(40.0, 2.0)
        for tol in (1e-4, 1e-8):
            traj, pw, report = ao_optimize(scn, ScpOptions(feas_tol=tol))
            scp_reports = [s for s in report.sub_reports
                           if s.stage == "trajectory_scp"]
            assert scp_reports
            assert model.check_causality(scn, traj, pw, tol=tol).feasible
            assert evaluate(scn, traj, pw, tol=tol).feasible

    def test_start_is_the_only_restore(self, monkeypatch):
        """An AO run restores powers once, for its start: every power
        the power stage returns already passes causality at the run
        tolerance, and the trajectory stage gets that very allocation.
        From the hover start the run takes 4 iterations."""
        from secrelay.ao import default_starts
        scn = benchmark_scenario(40.0, 2.0)
        start = default_starts(scn)[-1]
        for tol in (1e-4, 1e-8):
            restored, handed, planned = [], [], []

            def restore(scn, traj, pw, tol=model.DEFAULT_FEAS_TOL,
                        _orig=model.restore_feasibility):
                restored.append(pw)
                return _orig(scn, traj, pw, tol=tol)

            def power_stage(scn, traj, *args, _orig=ao.dc_allocate,
                            **kwargs):
                pw, rep = _orig(scn, traj, *args, **kwargs)
                handed.append(pw)
                assert model.check_causality(scn, traj, pw,
                                             tol=tol).feasible
                return pw, rep

            def trajectory_stage(scn, pw, *args, _orig=ao.scp_optimize,
                                 **kwargs):
                planned.append(pw)
                return _orig(scn, pw, *args, **kwargs)

            with monkeypatch.context() as m:
                m.setattr(model, "restore_feasibility", restore)
                m.setattr(ao, "dc_allocate", power_stage)
                m.setattr(ao, "scp_optimize", trajectory_stage)
                _, _, report = ao_optimize(scn, ScpOptions(feas_tol=tol),
                                           init_trajs=[start])
            assert len(restored) == 1
            equal = model.equal_power_allocation(scn)
            np.testing.assert_array_equal(restored[0].p_s, equal.p_s)
            np.testing.assert_array_equal(restored[0].p_r, equal.p_r)
            assert len(report.iterations) - 1 >= 2
            assert len(handed) == len(planned) == len(report.iterations) - 1
            assert all(a is b for a, b in zip(handed, planned))


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
        _, _, report = _ao_single(scn, initial_trajectory(scn), ScpOptions())
        first_scp = report.sub_reports[1]
        assert first_scp.stage == "trajectory_scp"
        assert len(first_scp.iterations) - 1 <= 2
        assert abs(first_scp.final_objective) <= 1e-6
        assert report.status == "converged"
        assert len(report.iterations) - 1 < ao.MAX_ITER


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


class TestHardInstances:
    """Benchmark instances on which the SCP step once jammed or crawled
    while it carried slack variables for the distances."""

    @pytest.mark.parametrize("horizon", [350.0, 400.0])
    def test_long_fixed_horizon_converges(self, horizon):
        """On fixed endpoints with 1 s slots at T = 350 and 400 s, AO ends
        ``converged`` with a feasible plan (``inner_stage_failure`` with
        the slacks: a step solve ended ``max_iter``)."""
        scn = benchmark_scenario(horizon, 1.0, fixed_endpoints=True)
        traj, pw, report = ao_optimize(scn)
        assert report.status == "converged"
        assert all(v.feasible for v in model.check_all(scn, traj, pw).values())

    @pytest.mark.parametrize("seed", [15, 25])
    def test_free_horizon_seed_under_700_newton_steps(self, seed):
        """AO on the T = 100 s free benchmark with Eve moved 10 m in a
        direction drawn from the seed takes under 700 Newton steps over
        all its multistart runs (1,143 and 1,162 with the slacks)."""
        scn = benchmark_scenario(100.0, 2.0)
        angle = random.Random(seed).uniform(0.0, 2.0 * math.pi)
        scn = dataclasses.replace(scn, eve_xy=scn.eve_xy + 10.0 * np.array(
            [math.cos(angle), math.sin(angle)]))
        _, _, report = ao_optimize(scn)
        assert sum(r["newton_steps"]
                   for r in report.extras["multistart_runs"]) < 700


class TestFixedPointStop:
    """AO stops ``converged`` as soon as its trajectory stage returns the
    trajectory unchanged, since the next iteration would repeat it."""

    def test_hover_start_stops_one_iteration_early(self):
        """From the hover start of the T = 100 s free benchmark the third
        trajectory stage returns its input: the run stops there after 3
        AO iterations, and one more power stage and trajectory stage
        reproduce its plan bit for bit."""
        from secrelay.ao import _ao_single, default_starts
        from secrelay.power_dc import dc_allocate
        from secrelay.trajectory_scp import scp_optimize
        scn = benchmark_scenario(100.0, 2.0)
        opts = ScpOptions()
        traj, pw, report = _ao_single(scn, default_starts(scn)[-1], opts)
        assert report.status == "converged"
        assert len(report.iterations) - 1 == 3
        pw_next, dc_rep = dc_allocate(scn, traj, pw_0=pw,
                                      feas_tol=opts.feas_tol)
        assert dc_rep.status == "converged"
        traj_next, scp_rep = scp_optimize(scn, pw_next, traj, opts=opts)
        assert scp_rep.status == "converged"
        np.testing.assert_array_equal(traj_next.xy, traj.xy)
        np.testing.assert_array_equal(pw_next.p_s, pw.p_s)
        np.testing.assert_array_equal(pw_next.p_r, pw.p_r)

    @pytest.mark.parametrize("max_iter", [1, 30])
    def test_still_trajectory_stops_above_rel_tol(self, monkeypatch,
                                                  max_iter):
        """A trajectory stage that returns (a copy of) its input stops AO
        ``converged`` after one iteration although the power stage moved
        the objective by far more than ``rel_tol``, also when that
        iteration is the last one ``ao.MAX_ITER`` allows."""
        from secrelay.report import COUNTERS, RunReport

        def still(scn, pw, traj, opts=None):
            rep = RunReport(stage="trajectory_scp", extras={
                **dict.fromkeys(COUNTERS, 0), "finish": []})
            rep.add(model.secrecy_sum(scn, traj, pw), feasible=True)
            return Trajectory(traj.xy.copy()), rep.finish("converged")

        monkeypatch.setattr(ao, "scp_optimize", still)
        monkeypatch.setattr(ao, "MAX_ITER", max_iter)
        # Flying towards Bob, the power stage solves from its start.
        scn = small_scenario()
        traj0 = Trajectory(np.stack([np.linspace(250.0, 390.0, 6),
                                     np.full(6, -50.0)], axis=1))
        opts = ScpOptions()
        traj, pw, report = ao._ao_single(scn, traj0, opts)
        assert report.status == "converged"
        assert len(report.iterations) == 2
        before, after = report.objectives
        assert abs(after - before) / abs(after) > 100 * opts.rel_tol
        np.testing.assert_array_equal(traj.xy, traj0.xy)


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
