"""Static-relay and data-ferry benchmark schemes."""
import dataclasses

import numpy as np
import pytest

from conftest import random_scenario, small_scenario
from secrelay import benchmark_scenario, model
from secrelay.ao import ao_optimize
from secrelay.baselines import (StaticGrid, _solve_location, data_ferry,
                                ferry_plan, scan_options, static_relay_best,
                                transit_slot_count)
from secrelay.model import Scenario
from secrelay.power_dc import DcOptions


def _free(scn):
    return dataclasses.replace(scn, start_xy=None, end_xy=None)


class TestStaticRelay:
    def test_single_point_grid(self):
        scn = small_scenario(n_slots=6)
        grid = StaticGrid(x_min=300.0, x_max=300.0, y_min=-50.0, y_max=-50.0,
                          nx=1, ny=1, refine_halvings=0)
        res = static_relay_best(scn, grid=grid)
        np.testing.assert_allclose(res.location, [300.0, -50.0])
        traj = np.tile(res.location, (scn.n_slots, 1))
        assert res.objective == pytest.approx(
            model.secrecy_sum(scn, model.Trajectory(traj), res.pw),
            abs=1e-9)

    def test_output_feasible(self):
        scn = small_scenario(n_slots=6)
        res = static_relay_best(scn)
        traj = model.Trajectory(np.tile(res.location, (scn.n_slots, 1)))
        checks = model.check_all(_free(scn), traj, res.pw)
        assert all(v.feasible for v in checks.values())

    def test_eve_under_bob_dominated_by_mobile(self):
        # Eve on Bob's ground projection: hardly any secrecy anywhere
        # static; the mobile relay must do at least as well.
        scn = small_scenario(n_slots=6, eve_xy=[400.0, 0.0])
        res = static_relay_best(scn)
        _, _, rep = ao_optimize(_free(scn))
        assert rep.final_objective >= res.objective - 1e-6

    def test_stage_failure_scored_and_counted(self, monkeypatch):
        # The power stage fails at one grid location; the scan scores the
        # stage's last iterate there and goes on.
        import secrelay.baselines as baselines
        from secrelay.report import RunReport
        scn = small_scenario(n_slots=5)
        grid = StaticGrid(x_min=0.0, x_max=400.0, y_min=-120.0, y_max=120.0,
                          nx=7, ny=5, refine_halvings=1)
        # Scanned once (the hover optimum skips most of the grid), not
        # the winner.
        bad_xy = np.array([400.0, 0.0])
        real = baselines.dc_allocate
        calls = []

        def flaky(scn_, traj, pw_0=None, opts=None):
            at_bad = np.array_equal(traj.xy[0], bad_xy)
            calls.append(at_bad)
            if at_bad:
                # A first solve that fails returns the stage's start, by
                # default dc_allocate's equal-power start, recorded as the
                # report's only iterate.
                start = pw_0 if pw_0 is not None else model.restore_feasibility(
                    scn_, traj, model.equal_power_allocation(scn_),
                    tol=opts.feas_tol)
                report = RunReport(stage="power_dc",
                                   status="solver_numerical_failure",
                                   extras={"solves": 1, "finish": []})
                report.add(model.secrecy_sum(scn_, traj, start),
                           feasible=True)
                return start, report
            return real(scn_, traj, pw_0=pw_0, opts=opts)

        monkeypatch.setattr(baselines, "dc_allocate", flaky)
        res = static_relay_best(scn, grid=grid)
        assert sum(calls) == 1
        assert not np.array_equal(res.location, bad_xy)
        assert res.failed == 1
        assert res.evaluated == len(calls)
        traj = model.Trajectory(np.tile(res.location, (scn.n_slots, 1)))
        checks = model.check_all(_free(scn), traj, res.pw)
        assert all(v.feasible for v in checks.values())
        assert res.objective == pytest.approx(
            model.secrecy_sum(_free(scn), traj, res.pw), abs=1e-9)

    def test_benchmark_scan_certified_without_solves(self, power_solves):
        """On the T = 130 s benchmark every scanned start is already a KKT
        point of its power problem: no subproblem is solved.  The hover
        optimum leaves 14 grid and refinement locations to scan, plus the
        winner's re-solve."""
        res = static_relay_best(benchmark_scenario(130.0, 2.0))
        assert power_solves == []
        assert res.certified == res.evaluated == 15
        assert res.failed == 0
        assert res.objective == pytest.approx(22.95017096347572, rel=1e-12)

    def test_pruning_matches_exhaustive_scan(self):
        # The bound-ordered scan with pruning returns the same winner as
        # evaluating every grid cell.
        scn = small_scenario(n_slots=5)
        grid = StaticGrid(x_min=0.0, x_max=400.0, y_min=-120.0, y_max=120.0,
                          nx=7, ny=5, refine_halvings=0)
        res = static_relay_best(scn, grid=grid)
        best = 0.0
        opts = DcOptions(rel_tol=1e-4, max_iter=40)
        for x in np.linspace(0.0, 400.0, 7):
            for y in np.linspace(-120.0, 120.0, 5):
                obj, *_ = _solve_location(_free(scn), [x, y], opts)
                best = max(best, obj)
        assert res.objective >= best - 1e-6


def _scalar_rank_bound(scn, xy):
    """The ranking bound of one location, one scalar at a time."""
    h2 = scn.altitude_h ** 2
    g_ar, g_rd, g_re = (scn.ref_snr / (h2 + np.sum((xy - p) ** 2))
                        for p in (scn.alice_xy, scn.bob_xy, scn.eve_xy))
    if g_rd <= g_re:
        return 0.0
    n = scn.n_slots
    p_r = n * scn.p_bar_r / (n - 1)
    deliver = (n - 1) * float(np.log2(1 + p_r * g_rd)
                              - np.log2(1 + p_r * g_re))
    p_s = n * scn.p_bar_s / (n - 1)
    return min(deliver, (n - 1) * float(np.log2(1 + p_s * g_ar)))


class TestRankedLocations:
    def test_bound_order_ties_in_grid_order(self):
        from secrelay.baselines import ranked_locations
        scn = small_scenario(n_slots=5)
        grid = StaticGrid(x_min=0.0, x_max=400.0, y_min=-120.0, y_max=120.0,
                          nx=7, ny=5)
        cand, bounds = ranked_locations(scn, grid)
        grid_xy = [(x, y) for x in np.linspace(0.0, 400.0, 7)
                   for y in np.linspace(-120.0, 120.0, 5)]
        pos = [grid_xy.index(tuple(c)) for c in cand]
        assert sorted(pos) == list(range(35))
        assert [_scalar_rank_bound(scn, c) for c in cand] == list(bounds)
        assert all(b1 > b2 or (b1 == b2 and p1 < p2) for b1, b2, p1, p2
                   in zip(bounds, bounds[1:], pos, pos[1:]))

    def test_scan_and_ao_hover_start_share_the_top(self, monkeypatch):
        """The scan evaluates the top-ranked location first, and AO's
        hover start sits there."""
        import secrelay.baselines as baselines
        from secrelay.ao import default_starts
        scn = small_scenario(n_slots=6)
        top = baselines.ranked_locations(scn, StaticGrid.default(scn))[0][0]
        assert np.array_equal(default_starts(scn)[-1].xy,
                              np.tile(top, (scn.n_slots, 1)))
        seen = []
        real = baselines._solve_location

        def recording(scn_, xy, opts):
            seen.append(np.array(xy))
            return real(scn_, xy, opts)

        monkeypatch.setattr(baselines, "_solve_location", recording)
        static_relay_best(scn)
        assert np.array_equal(seen[0], top)


def _hover_optimum(scn, xy, tol):
    from secrelay.baselines import _hover_bounds
    return float(_hover_bounds(scn, np.asarray(xy, dtype=float)[None],
                               tol)[1][0])


class TestHoverOptimum:
    """The closed-form optimum of the power problem at a fixed location,
    with causality and the budgets loosened by the check tolerance."""

    @pytest.mark.parametrize("opts", [scan_options(), DcOptions()],
                             ids=["scan", "default"])
    def test_no_stage_output_above_it(self, opts):
        rng = np.random.default_rng(7)
        for _ in range(6):
            scn = random_scenario(rng)
            xs, ys = StaticGrid.default(scn).axes()
            for _ in range(4):
                xy = [rng.choice(xs), rng.choice(ys)]
                *_, report = _solve_location(scn, xy, opts)
                assert report.final_objective <= _hover_optimum(
                    scn, xy, opts.feas_tol)

    @pytest.mark.parametrize("horizon", [40.0, 70.0, 100.0, 130.0])
    def test_tight_at_the_benchmark_winner(self, horizon):
        """Equal powers attain the unpadded optimum, so a certified stage
        lands just below the padded one."""
        scn = benchmark_scenario(horizon, 2.0)
        opts = DcOptions()
        *_, report = _solve_location(scn, [1800.0, -7.5], opts)
        assert report.status == "converged"
        gap = _hover_optimum(scn, [1800.0, -7.5], opts.feas_tol) \
            - report.final_objective
        assert 0.0 <= gap <= 5e-5

    def test_above_bob_and_above_eve(self):
        scn = small_scenario(n_slots=6)
        tol = DcOptions().feas_tol
        *_, report = _solve_location(scn, scn.bob_xy, DcOptions())
        assert 0.0 < report.final_objective <= _hover_optimum(
            scn, scn.bob_xy, tol)
        assert _hover_optimum(scn, scn.eve_xy, tol) == 0.0

    @pytest.mark.parametrize("budget", ["p_bar_s", "p_bar_r"])
    def test_zero_budget(self, budget):
        """Only the padding's tol watts and bits are left to send."""
        scn = small_scenario(n_slots=6, **{budget: 0.0})
        assert _hover_optimum(scn, [300.0, -50.0], 0.0) == 0.0
        assert 0.0 < _hover_optimum(scn, [300.0, -50.0],
                                    DcOptions().feas_tol) < 1e-3
        res = static_relay_best(scn)
        assert res.objective == 0.0
        assert res.evaluated == 0
        assert not np.any(res.pw.p_r)

    @pytest.mark.parametrize("scn", [benchmark_scenario(40.0, 2.0),
                                     small_scenario(n_slots=6)],
                             ids=["free-T40", "small"])
    def test_skip_changes_no_result(self, scn, monkeypatch):
        """With no location skipped by its hover optimum, the scan
        evaluates more locations and returns the same result."""
        import secrelay.baselines as baselines
        res = static_relay_best(scn)
        bounds = baselines._hover_bounds

        def no_skip(scn_, xy, tol):
            rank, optimum = bounds(scn_, xy, tol)
            return rank, np.full_like(optimum, np.inf)

        monkeypatch.setattr(baselines, "_hover_bounds", no_skip)
        full = static_relay_best(scn)
        assert full.evaluated > res.evaluated
        assert np.array_equal(full.location, res.location)
        assert full.objective == res.objective
        assert np.array_equal(full.pw.p_s, res.pw.p_s)
        assert np.array_equal(full.pw.p_r, res.pw.p_r)


class TestDataFerry:
    def test_transit_too_long_zero(self):
        scn = small_scenario(n_slots=4, v_max=40.0)  # needs 10 slots
        res = data_ferry(scn)
        assert res.objective == 0.0
        assert res.load_slots == 0
        assert res.diagnostic != ""

    def test_eve_at_bob_zero(self):
        scn = small_scenario(n_slots=8, eve_xy=[400.0, 0.0], v_max=100.0)
        res = data_ferry(scn)
        assert res.objective == pytest.approx(0.0, abs=1e-9)

    def test_output_feasible(self):
        scn = small_scenario(n_slots=10, v_max=100.0)
        res = data_ferry(scn)
        checks = model.check_all(_free(scn), res.traj, res.pw)
        assert all(v.feasible for v in checks.values())

    def test_sweep_is_exhaustive(self):
        # The returned split matches re-running every admissible split.
        scn = small_scenario(n_slots=10, v_max=100.0)
        res = data_ferry(scn)
        scn_f = _free(scn)
        transit = transit_slot_count(scn_f)
        best = -np.inf
        best_n1 = None
        for n1 in range(1, scn.n_slots - transit):
            traj, pw = ferry_plan(scn_f, n1)
            obj = model.secrecy_sum(scn_f, traj, pw)
            if obj > best:
                best, best_n1 = obj, n1
        assert res.objective == pytest.approx(best, abs=1e-12)
        assert res.load_slots == best_n1

    def test_transit_slots_silent(self):
        scn = small_scenario(n_slots=10, v_max=100.0)
        scn_f = _free(scn)
        transit = transit_slot_count(scn_f)
        traj, pw = ferry_plan(scn_f, 3)
        sl = slice(3, 3 + transit)
        assert np.all(pw.p_s[sl] == 0.0)
        assert np.all(pw.p_r[sl] == 0.0)
        np.testing.assert_allclose(traj.xy[0], scn.alice_xy)
        np.testing.assert_allclose(traj.xy[-1], scn.bob_xy)


class TestDominance:
    def test_ao_beats_both_baselines(self, rng):
        # With a hover at the static winner and the ferry plan among the
        # starting trajectories, the joint optimizer must match or beat
        # both benchmark schemes.
        from secrelay.ao import default_starts
        for _ in range(3):
            scn = random_scenario(rng, n_slots=8)
            st = static_relay_best(scn)
            fe = data_ferry(scn)
            hover = model.Trajectory(np.tile(st.location, (scn.n_slots, 1)))
            starts = default_starts(scn) + [hover]
            _, _, rep = ao_optimize(scn, init_trajs=starts)
            assert rep.final_objective >= st.objective - 1e-6
            assert rep.final_objective >= fe.objective - 1e-6
