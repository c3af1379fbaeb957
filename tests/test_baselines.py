"""Static-relay and data-ferry benchmark schemes."""
import dataclasses

import numpy as np
import pytest

from conftest import random_scenario, small_scenario
from secrelay import baselines, benchmark_scenario, model
from secrelay.ao import ao_optimize
from secrelay.baselines import (StaticGrid, _constant_traj, _ferry_caps,
                                _gains, data_ferry, ferry_plan,
                                ranked_locations, static_relay_best,
                                transit_slot_count)
from secrelay.power_dc import dc_allocate

# The five benchmark configurations: free endpoints at T = 40, 70, 100
# and 130 s with 2 s slots, fixed endpoints at T = 100 s with 1 s slots
# (the static relay frees them).
BENCHMARKS = {"free-T40": (40.0, 2.0), "free-T70": (70.0, 2.0),
              "free-T100": (100.0, 2.0), "free-T130": (130.0, 2.0),
              "fixed-T100": (100.0, 1.0)}


def _free(scn):
    return dataclasses.replace(scn, start_xy=None, end_xy=None)


def _stage(scn, xy, feas_tol=model.DEFAULT_FEAS_TOL, pw_0=None):
    """The power stage on the relay hovering at xy, endpoints freed."""
    scn = _free(scn)
    return dc_allocate(scn, _constant_traj(scn, xy), pw_0=pw_0,
                       feas_tol=feas_tol)


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

    @pytest.mark.parametrize("config, objective", [
        ("free-T40", 7.0270499061424365),
        ("free-T70", 12.335180953661137),
        ("free-T100", 17.642758585646487),
        ("free-T130", 22.95017096347572),
        ("fixed-T100", 35.33391180026328)])
    def test_benchmark_result_pinned(self, config, objective):
        """Location and objective on the benchmark configs, bit for bit."""
        res = static_relay_best(benchmark_scenario(*BENCHMARKS[config]))
        assert res.location.tolist() == [1800.0, -7.5]
        assert res.objective == objective

    def test_benchmark_scan_certified_without_solves(self, power_solves):
        """On the benchmark configs the power stage, started at the
        returned powers, certifies them a KKT point of the power problem
        and returns them unchanged, with no solve."""
        for horizon, slot in BENCHMARKS.values():
            scn = benchmark_scenario(horizon, slot)
            res = static_relay_best(scn)
            pw, report = _stage(scn, res.location, pw_0=res.pw)
            assert report.status == "converged"
            assert report.extras["solves"] == 0
            assert report.final_objective == res.objective
            assert np.array_equal(pw.p_s, res.pw.p_s)
            assert np.array_equal(pw.p_r, res.pw.p_r)
        assert power_solves == []

    def test_pruning_matches_exhaustive_scan(self):
        """No power stage at a grid location beats the static result on
        that grid: the closed form stands in for an exhaustive scan."""
        rng = np.random.default_rng(5)
        for scn in [small_scenario(n_slots=5)] + [
                random_scenario(rng) for _ in range(3)]:
            grid = dataclasses.replace(StaticGrid.default(scn), nx=7, ny=5,
                                       refine_halvings=0)
            res = static_relay_best(scn, grid=grid)
            xs, ys = grid.axes()
            best = max(_stage(scn, [x, y])[1].final_objective
                       for x in xs for y in ys)
            assert best <= res.objective + 1e-9


def _hover_optimum(scn, xy, tol):
    """The hover optimum of one location."""
    xy = np.asarray(xy, dtype=float)[None]
    return float(baselines._hover_optimum(scn, _gains(scn, xy), tol)[0])


def _walk_one_at_a_time(scn, grid):
    """The static scan, written as its docstring states it: the first
    location with the best hover optimum in the order of
    ``ranked_locations``, then the refinement scoring one neighbour per
    call.  Returns the location, its hover optimum, the locations
    compared, whether a move happened before a round's last neighbour,
    and how many grid locations tie at the best optimum."""
    cand, _ = ranked_locations(scn, grid)
    optima = baselines._hover_optimum(scn, _gains(scn, cand), 0.0)
    k = int(np.argmax(optima))
    tied = int(np.count_nonzero(optima == optima[k]))
    best_xy, best_opt, evaluated = cand[k], optima[k], len(cand)
    moved_mid_round = False
    xs, ys = grid.axes()
    step_x = (xs[1] - xs[0]) if grid.nx > 1 else scn.altitude_h
    step_y = (ys[1] - ys[0]) if grid.ny > 1 else scn.altitude_h
    for _ in range(grid.refine_halvings):
        step_x *= 0.5
        step_y *= 0.5
        walked = 0
        for dx in (-step_x, 0.0, step_x):
            for dy in (-step_y, 0.0, step_y):
                if dx == 0.0 and dy == 0.0:
                    continue
                xy = best_xy + np.array([dx, dy])
                (optimum,) = baselines._hover_optimum(
                    scn, _gains(scn, xy[None]), 0.0)
                evaluated += 1
                walked += 1
                if optimum > best_opt:
                    best_opt, best_xy = optimum, xy
                    moved_mid_round |= walked < 8
    return best_xy, best_opt, evaluated, moved_mid_round, tied


class TestStaticRefinement:
    @pytest.mark.parametrize("halvings", [1, 2, 3])
    def test_matches_one_at_a_time_walk(self, halvings):
        """Location bytes, objective and locations compared, bit for bit,
        on the benchmark configs, random scenarios, random scenarios with
        Eve on the Alice-Bob axis and zero budgets; some case moves the
        incumbent before a round's last neighbour, and some ties at the
        best grid optimum."""
        rng = np.random.default_rng(11)
        scns = [benchmark_scenario(*hs) for hs in BENCHMARKS.values()] + [
            random_scenario(rng, n_slots=int(rng.integers(4, 40)))
            for _ in range(12)]
        # With Eve on the axis and an even row count the best grid
        # locations are a mirrored pair; a zero budget ties the grid.
        cases = [(scn, {}) for scn in scns] + [
            (dataclasses.replace(scn, eve_xy=[scn.eve_xy[0], 0.0]),
             {"ny": 20}) for scn in scns[5:11]] + [
            (small_scenario(n_slots=6, **{budget: 0.0}), {})
            for budget in ("p_bar_s", "p_bar_r")]
        moved = ties = 0
        for scn, shape in cases:
            scn = _free(scn)
            grid = dataclasses.replace(StaticGrid.default(scn),
                                       refine_halvings=halvings, **shape)
            xy, opt, evaluated, mid, tied = _walk_one_at_a_time(scn, grid)
            res = static_relay_best(scn, grid=grid)
            traj = _constant_traj(scn, xy)
            pw = (model.equal_power_start(scn, traj) if opt > 0.0
                  else model.zero_power_allocation(scn))
            assert res.location.tobytes() == xy.tobytes()
            assert res.objective == model.secrecy_sum(scn, traj, pw)
            assert res.evaluated == evaluated == (
                grid.nx * grid.ny + 8 * halvings)
            moved += mid
            ties += tied > 1
        assert moved > 0
        assert ties >= 8

    def test_tie_goes_to_the_first_in_ranking_order(self, monkeypatch):
        """With the hover optimum rounded down to whole bits, locations
        with different ranking bounds tie; the grid pick is still the
        first tied location in ranking order, and in some case that is
        not the first in grid order."""
        exact = baselines._hover_optimum
        monkeypatch.setattr(baselines, "_hover_optimum",
                            lambda scn, gains, tol: np.floor(
                                exact(scn, gains, tol)))
        rng = np.random.default_rng(13)
        not_grid_order = 0
        for _ in range(8):
            scn = random_scenario(rng, n_slots=int(rng.integers(4, 40)))
            grid = dataclasses.replace(StaticGrid.default(scn),
                                       refine_halvings=0)
            xy = _walk_one_at_a_time(scn, grid)[0]
            res = static_relay_best(scn, grid=grid)
            assert res.location.tobytes() == xy.tobytes()
            cand = baselines._grid_points(*grid.axes())
            optima = baselines._hover_optimum(scn, _gains(scn, cand), 0.0)
            not_grid_order += not np.array_equal(
                res.location, cand[np.argmax(optima)])
        assert not_grid_order > 0


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

    def test_scan_and_ao_hover_start_share_the_top(self):
        """AO's hover start sits at the top-ranked location, where the
        scan also leaves a silent relay when no location has a positive
        optimum."""
        from secrelay.ao import default_starts
        scn = small_scenario(n_slots=6)
        top = ranked_locations(scn, StaticGrid.default(scn))[0][0]
        assert np.array_equal(default_starts(scn)[-1].xy,
                              np.tile(top, (scn.n_slots, 1)))


class TestHoverOptimum:
    """The closed-form optimum of the power problem at a fixed location,
    with causality and the budgets loosened by the check tolerance."""

    @pytest.mark.parametrize("tol", [1e-4, model.DEFAULT_FEAS_TOL],
                             ids=["loose", "default"])
    def test_no_stage_output_above_it(self, tol):
        """The power stage never scores above the optimum at its check
        tolerance, nor below the optimum at tolerance 0 by more than
        1e-7 relative."""
        rng = np.random.default_rng(7)
        for _ in range(6):
            scn = random_scenario(rng)
            xs, ys = StaticGrid.default(scn).axes()
            for _ in range(4):
                xy = [rng.choice(xs), rng.choice(ys)]
                _, report = _stage(scn, xy, tol)
                assert report.final_objective <= _hover_optimum(
                    scn, xy, tol)
                exact = _hover_optimum(scn, xy, 0.0)
                assert report.final_objective >= exact * (1.0 - 1e-7)

    @pytest.mark.parametrize("horizon", [40.0, 70.0, 100.0, 130.0])
    def test_tight_at_the_benchmark_winner(self, horizon):
        """Equal powers attain the unpadded optimum, so a certified stage
        lands just below the padded one."""
        scn = benchmark_scenario(horizon, 2.0)
        _, report = _stage(scn, [1800.0, -7.5])
        assert report.status == "converged"
        gap = _hover_optimum(scn, [1800.0, -7.5], model.DEFAULT_FEAS_TOL) \
            - report.final_objective
        assert 0.0 <= gap <= 5e-5

    def test_static_result_attains_it(self):
        """The static relay's restored equal powers score between the
        optimum at its location at tolerance 0 and at ``feas_tol``."""
        rng = np.random.default_rng(3)
        tol = model.DEFAULT_FEAS_TOL
        for scn in [small_scenario(n_slots=6)] + [
                random_scenario(rng, n_slots=int(rng.integers(4, 40)))
                for _ in range(8)]:
            res = static_relay_best(scn)
            lo = _hover_optimum(scn, res.location, 0.0)
            assert lo > 0.0
            assert lo * (1.0 - 1e-12) <= res.objective <= _hover_optimum(
                scn, res.location, tol)

    def test_above_bob_and_above_eve(self):
        scn = small_scenario(n_slots=6)
        tol = model.DEFAULT_FEAS_TOL
        _, report = _stage(scn, scn.bob_xy, tol)
        assert 0.0 < report.final_objective <= _hover_optimum(
            scn, scn.bob_xy, tol)
        assert _hover_optimum(scn, scn.eve_xy, tol) == 0.0

    @pytest.mark.parametrize("budget", ["p_bar_s", "p_bar_r"])
    def test_zero_budget(self, budget):
        """Only the padding's tol watts and bits are left to send; the
        relay stays silent at the top-ranked location."""
        scn = small_scenario(n_slots=6, **{budget: 0.0})
        assert _hover_optimum(scn, [300.0, -50.0], 0.0) == 0.0
        assert 0.0 < _hover_optimum(scn, [300.0, -50.0],
                                    model.DEFAULT_FEAS_TOL) < 1e-3
        res = static_relay_best(scn)
        assert res.objective == 0.0
        assert np.array_equal(
            res.location, ranked_locations(scn, StaticGrid.default(scn))[0][0])
        assert not np.any(res.pw.p_r)


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
        """The returned split matches re-running every admissible split,
        trajectory and powers bit for bit, on random scenarios and the
        benchmark configs."""
        rng = np.random.default_rng(0)
        scns = [small_scenario(n_slots=10, v_max=100.0)] + [
            random_scenario(rng, n_slots=int(rng.integers(8, 60)))
            for _ in range(3)] + [
            benchmark_scenario(*hs) for hs in BENCHMARKS.values()]
        for scn in scns:
            res = data_ferry(scn)
            scn_f = _free(scn)
            transit = transit_slot_count(scn_f)
            best = -np.inf
            best_n1 = best_plan = None
            for n1 in range(1, scn.n_slots - transit):
                traj, pw = ferry_plan(scn_f, n1)
                obj = model.secrecy_sum(scn_f, traj, pw)
                if obj > best:
                    best, best_n1, best_plan = obj, n1, (traj, pw)
            if best_plan is None:   # free-T40: the transit takes every slot
                assert (res.load_slots, res.objective) == (0, 0.0)
                continue
            assert res.objective == pytest.approx(best, abs=1e-12)
            assert res.load_slots == best_n1
            assert res.objective == best
            traj, pw = best_plan
            assert np.array_equal(res.traj.xy, traj.xy)
            assert np.array_equal(res.pw.p_s, pw.p_s)
            assert np.array_equal(res.pw.p_r, pw.p_r)

    @pytest.mark.parametrize("feas_tol", [0.0, 1e-4, model.DEFAULT_FEAS_TOL],
                             ids=["zero", "loose", "default"])
    def test_cap_bounds_every_split(self, feas_tol):
        """No restored split scores above its cap, rounding slack
        included, also with Eve so far away that the received bits and
        tol bind; with Eve above Bob every cap is 0."""
        rng = np.random.default_rng(17)
        scns = [random_scenario(rng, n_slots=int(rng.integers(8, 60)))
                for _ in range(8)]
        scns += [dataclasses.replace(scn, eve_xy=[0.0, 1e9])
                 for scn in scns[:3]]
        scns += [dataclasses.replace(scns[0], eve_xy=scns[0].bob_xy)]
        for scn in scns:
            scn = _free(scn)
            n1s = np.arange(1, scn.n_slots - transit_slot_count(scn))
            caps, slack = _ferry_caps(scn, n1s, feas_tol)
            for n1, cap, pad in zip(n1s, caps, slack):
                obj = model.secrecy_sum(scn, *ferry_plan(scn, int(n1),
                                                         feas_tol))
                assert obj <= cap + pad
        assert np.all(caps == 0.0)

    def test_tie_keeps_smallest_split(self, monkeypatch):
        """With every split scoring the same, the sweep restores them all
        and keeps the smallest n1, as the full sweep does."""
        monkeypatch.setattr(model, "secrecy_sum", lambda *args: 0.0)
        res = data_ferry(benchmark_scenario(*BENCHMARKS["free-T100"]))
        assert res.load_slots == 1

    def test_sweep_restores_four_splits_on_free_t100(self, monkeypatch):
        calls = []

        def counting_plan(scn, load_slots, feas_tol):
            calls.append(load_slots)
            return ferry_plan(scn, load_slots, feas_tol)

        monkeypatch.setattr(baselines, "ferry_plan", counting_plan)
        data_ferry(benchmark_scenario(*BENCHMARKS["free-T100"]))
        assert len(calls) == 4

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


class TestFreeEndpoints:
    def test_fixed_scenario_scores_as_its_free_twin(self):
        """Both schemes ignore the endpoints: on fixed-T100 they return,
        bit for bit, what they return with the endpoints left free."""
        fixed = benchmark_scenario(*BENCHMARKS["fixed-T100"],
                                   fixed_endpoints=True)
        free = benchmark_scenario(*BENCHMARKS["fixed-T100"])
        st_fixed, st_free = static_relay_best(fixed), static_relay_best(free)
        assert st_fixed.location.tobytes() == st_free.location.tobytes()
        assert st_fixed.objective == st_free.objective
        assert st_fixed.evaluated == st_free.evaluated
        assert st_fixed.pw.p_s.tobytes() == st_free.pw.p_s.tobytes()
        assert st_fixed.pw.p_r.tobytes() == st_free.pw.p_r.tobytes()
        fe_fixed, fe_free = data_ferry(fixed), data_ferry(free)
        assert fe_fixed.load_slots == fe_free.load_slots
        assert fe_fixed.objective == fe_free.objective
        assert fe_fixed.traj.xy.tobytes() == fe_free.traj.xy.tobytes()
        assert fe_fixed.pw.p_s.tobytes() == fe_free.pw.p_s.tobytes()
        assert fe_fixed.pw.p_r.tobytes() == fe_free.pw.p_r.tobytes()

    def test_free_scenario_passes_through(self):
        scn = benchmark_scenario(*BENCHMARKS["free-T130"])
        assert baselines._free_endpoints(scn) is scn
        fixed = benchmark_scenario(100.0, 1.0, fixed_endpoints=True)
        freed = baselines._free_endpoints(fixed)
        assert freed.start_xy is None and freed.end_xy is None


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
