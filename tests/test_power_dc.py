"""Power allocation at a fixed trajectory: one convex program in Bob's
rate."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (assert_wall_times, fail_power_solves, power_program,
                      random_feasible_trajectory, random_power,
                      random_scenario, small_scenario, stage_programs)
from numerics import (as_dense, assert_outputs_stay_fresh, callback_outputs,
                      record_points, spot_check_convexity,
                      verify_derivatives)
from secrelay import benchmark_scenario, model, power_dc, solver
from secrelay.model import (PowerAllocation, Scenario, Trajectory,
                            restore_feasibility)
from secrelay.power_dc import dc_allocate
from secrelay.report import COUNTERS
from secrelay.solver import (Buffer, ConstraintBlock, SmoothConvexProgram,
                             buffer_start, certify, multiplier_estimate,
                             solve)

# The program works on the scaled source powers p_s[1..N-1]/u_s and on
# Bob's rates r = log2(1 + p_r g_rd) of slots 2..N, laid out slot by slot
# next to buffer and energy variables (positions from _pieces).


def _hover_traj(scn, xy):
    return Trajectory(np.tile(np.asarray(xy, float), (scn.n_slots, 1)))


def _program(scn, traj):
    """The power program, its buffers and its pieces."""
    pc = power_dc._pieces(scn, traj)
    return (*power_dc._power_program(scn, pc), pc)


class TestProgram:
    def test_derivatives_and_convexity(self, rng):
        """Gradients, Jacobians and Hessians match central differences,
        and every Hessian is positive semidefinite, at random points of
        random instances, with silent slots (c >= 1) among them."""
        silent = 0
        for _ in range(5):
            scn = random_scenario(rng)
            traj = random_feasible_trajectory(rng, scn)
            prog, _, pc = _program(scn, traj)
            silent += int(np.sum(pc.c >= 1.0))
            points = [rng.uniform(0.01, 2.0, prog.dim) for _ in range(5)]
            for z in points:
                assert verify_derivatives(prog, z) < 1e-5
            assert spot_check_convexity(prog, points)
        assert silent > 0

    def test_objective_is_the_secrecy_sum(self, rng):
        """At the powers of a solver point, every buffer at its prefix
        surplus, the program's objective is the secrecy sum: silent slots
        carry no relay power and r = 0."""
        for _ in range(5):
            scn = random_scenario(rng)
            traj = random_feasible_trajectory(rng, scn)
            prog, buffers, pc = _program(scn, traj)
            pw = power_dc._pw_from_z(pc, rng.uniform(0.0, 1.0, prog.dim))
            assert not np.any(pw.p_r[1:][pc.c >= 1.0])
            z = power_dc._tight_point(pc, buffers, pw)
            assert -prog.objective(z) == pytest.approx(
                model.secrecy_sum(scn, traj, pw), rel=1e-12, abs=1e-12)


def _cached_programs():
    """A function that builds the power program on a hover of the
    T = 40 s benchmark, with two points: its start and the restored
    equal powers, every buffer at its prefix surplus."""
    scn = benchmark_scenario(horizon_s=40.0, slot_len_s=2.0)
    traj = _hover_traj(scn, (600.0, 40.0))
    pw = restore_feasibility(scn, traj, model.equal_power_allocation(scn))
    prog, buffers, pc = _program(scn, traj)

    def build():
        return power_program(scn, traj)
    return {"start": (build, np.asarray(prog.strictly_feasible_start)),
            "tight point": (build, power_dc._tight_point(pc, buffers, pw))}


class TestPointCache:
    """Each power program computes its shared per-point terms once per
    point, keyed on the point's bytes."""

    def test_write_into_point_gives_fresh_terms(self, rng):
        """Callbacks called at z, then at the same array after a write
        into it, give bit for bit what a fresh program gives there."""
        for name, (build, z0) in _cached_programs().items():
            z_new = z0 + 1e-3 * rng.uniform(0.0, 1.0, z0.size)
            prog, z = build(), z0.copy()
            before = callback_outputs(prog, z)
            z[:] = z_new
            after = callback_outputs(prog, z)
            assert after != before, name
            assert after == callback_outputs(build(), z_new.copy()), name

    def test_callback_order_does_not_matter(self):
        """All callbacks at one point, in program order and in reverse,
        on the same program and on a fresh one: no callback writes into
        a shared term."""
        for name, (build, z) in _cached_programs().items():
            prog = build()
            forward = callback_outputs(prog, z)
            assert callback_outputs(prog, z, reverse=True) == forward, name
            assert callback_outputs(build(), z, reverse=True) == forward, name

    def test_outputs_stay_fresh(self, rng):
        """An array a callback returned at one point is unchanged, bit
        for bit, after every callback ran at another: the Jacobian
        templates are copied, never handed out."""
        for name, (build, z0) in _cached_programs().items():
            z1 = z0 + 1e-3 * rng.uniform(0.0, 1.0, z0.size)
            assert_outputs_stay_fresh(build(), z0, z1)

    def test_one_fill_per_point_in_solve(self, cache_fills):
        """In a solve of the power stage program the shared terms are
        computed once for each distinct point the callbacks see."""
        prog, points = record_points(stage_programs(50)["power"])
        cache_fills.clear()
        res = solve(prog)
        assert res.status == "optimal" and res.iterations > 0
        assert len(cache_fills) == len(set(cache_fills))
        assert set(cache_fills) == set().union(*points.values())


def _feasible_random_power(rng, scn, traj):
    """Random power allocation repaired to satisfy budgets and causality."""
    n = scn.n_slots
    p_s = rng.uniform(0.0, 1.0, n)
    p_s *= n * scn.p_bar_s / max(np.sum(p_s), 1e-12) * rng.uniform(0.3, 1.0)
    p_s[-1] = 0.0
    p_r = rng.uniform(0.0, 1.0, n)
    p_r *= n * scn.p_bar_r / max(np.sum(p_r), 1e-12) * rng.uniform(0.3, 1.0)
    p_r[0] = 0.0
    return restore_feasibility(scn, traj, PowerAllocation(p_s=p_s, p_r=p_r))


class TestDcAllocate:
    def test_equal_links_no_secrecy(self, rng):
        """With Eve on top of Bob no slot has g_rd > g_re: the relay
        stays silent, exactly, with no solve."""
        scn = small_scenario(eve_xy=[400.0, 0.0])  # Eve on top of Bob
        traj = random_feasible_trajectory(rng, scn)
        pw, report = dc_allocate(scn, traj)
        assert not np.any(pw.p_r)
        assert model.secrecy_sum(scn, traj, pw) == 0.0
        assert report.status == "converged"
        assert report.extras["solves"] == 0

    def test_zero_source_budget(self):
        scn = small_scenario(p_bar_s=0.0)
        traj = _hover_traj(scn, [100.0, 0.0])
        pw, report = dc_allocate(scn, traj)
        assert np.all(pw.p_s == 0.0) and np.all(pw.p_r == 0.0)
        assert report.final_objective == 0.0

    def test_two_slot_toy_vs_grid_oracle(self):
        # One receive slot, one transmit slot; compare with a 1000x1000
        # brute force over the budget box with the causality filter.
        scn = Scenario(bob_xy=[200.0, 0.0], eve_xy=[30.0, 250.0],
                       altitude_h=60.0, n_slots=2, slot_len=1.0, v_max=50.0,
                       ref_snr=5e6, p_bar_s=0.02, p_bar_r=0.02)
        traj = Trajectory([[60.0, 0.0], [120.0, 0.0]])
        ch = model.channel_state(scn, traj)
        gar, grd, gre = ch.gamma_ar[0], ch.gamma_rd[1], ch.gamma_re[1]
        assert grd > gre

        ps = np.linspace(0.0, 2 * scn.p_bar_s, 1000)
        pr = np.linspace(0.0, 2 * scn.p_bar_r, 1000)
        PS, PR = np.meshgrid(ps, pr, indexing="ij")
        r_in = np.log2(1.0 + PS * gar)
        r_bob = np.log2(1.0 + PR * grd)
        r_eve = np.log2(1.0 + PR * gre)
        feas = (r_bob <= r_in + 1e-12) & (r_eve <= r_in + 1e-12)
        oracle = float(np.max(np.where(feas, r_bob - r_eve, -np.inf)))

        pw, report = dc_allocate(scn, traj)
        assert model.secrecy_sum(scn, traj, pw) == pytest.approx(
            oracle, abs=1e-3)
        assert report.status == "converged"

    def test_monotone_ascent_and_feasibility(self, rng):
        for _ in range(5):
            scn = random_scenario(rng)
            traj = random_feasible_trajectory(rng, scn)
            pw, report = dc_allocate(scn, traj,
                                     pw_0=_feasible_random_power(rng, scn,
                                                                 traj))
            objs = report.objectives
            assert all(b >= a - 1e-7 for a, b in zip(objs, objs[1:]))
            checks = model.check_all(scn, traj, pw, tol=1e-6)
            assert checks["causality"].feasible
            assert checks["power_budget"].feasible
            for rec in report.iterations:
                if rec.feasible is not None:
                    assert rec.feasible

    def test_structural_zeros(self, rng):
        scn = random_scenario(rng)
        traj = random_feasible_trajectory(rng, scn)
        pw, _ = dc_allocate(scn, traj)
        assert pw.p_s[-1] == 0.0
        assert pw.p_r[0] == 0.0

    def test_infeasible_start_rejected(self):
        """A start that fails the checks is rejected, not certified: the
        stage starts from the silent relay, solves, and its output
        passes."""
        scn = small_scenario()
        traj = _hover_traj(scn, [350.0, -60.0])
        n = scn.n_slots
        p_r = np.full(n, 100.0 * scn.p_bar_r)
        p_r[0] = 0.0
        bad = PowerAllocation(p_s=np.zeros(n), p_r=p_r)
        pw, report = dc_allocate(scn, traj, pw_0=bad)
        assert report.status == "converged"
        assert report.extras["solves"] == 1
        assert report.objectives[0] == 0.0 < report.final_objective
        checks = model.check_all(scn, traj, pw, tol=model.DEFAULT_FEAS_TOL)
        assert all(v.feasible for v in checks.values())
        assert model.secrecy_sum(scn, traj, pw) == report.final_objective

    def test_counts_its_solve(self, monkeypatch):
        """A stage that solves reports its solve, Newton steps and
        factorizations in ``report.extras``; one that does not reports
        zeros.  The solve is made to report one failed factorization
        more, which a convex power solve never has, so the sum shows
        it."""
        scn = small_scenario()
        traj = _hover_traj(scn, [350.0, -60.0])
        results, solve = [], power_dc.solve

        def recording_solve(prog, opts):
            res = solve(prog, opts)
            results.append(dataclasses.replace(
                res, factorizations=res.factorizations + 1,
                failed_factorizations=res.failed_factorizations + 1))
            return results[-1]

        monkeypatch.setattr(power_dc, "solve", recording_solve)
        _, report = dc_allocate(scn, traj,
                                pw_0=model.zero_power_allocation(scn))
        [res] = results
        assert report.extras == {
            "solves": 1, "newton_steps": res.iterations,
            "factorizations": res.factorizations,
            "failed_factorizations": res.failed_factorizations}
        assert res.factorizations > res.iterations > 0
        assert res.failed_factorizations == 1
        _, silent = dc_allocate(small_scenario(p_bar_r=0.0), traj)
        assert silent.extras == dict.fromkeys(COUNTERS, 0)

    def test_at_least_any_feasible_allocation(self, rng):
        """On random instances the stage scores at least every random
        allocation that passes the checks at tolerance 0, within 1e-7
        relative."""
        for _ in range(8):
            scn = random_scenario(rng)
            traj = random_feasible_trajectory(rng, scn)
            _, report = dc_allocate(scn, traj)
            # Budgets spent at most to within rounding of 1e-9.
            cap = (1.0 - 1e-9) * scn.n_slots
            for _ in range(50):
                pw = random_power(rng, scn)
                pw = PowerAllocation(
                    p_s=pw.p_s * min(1.0, cap * scn.p_bar_s / pw.p_s.sum()),
                    p_r=pw.p_r * min(1.0, cap * scn.p_bar_r / pw.p_r.sum()))
                pw = restore_feasibility(scn, traj, pw, tol=0.0)
                assert all(v.feasible for v in model.check_all(
                    scn, traj, pw, tol=0.0).values())
                other = model.secrecy_sum(scn, traj, pw)
                assert report.final_objective >= other - 1e-7 * abs(other)

    @pytest.mark.parametrize("budgets", [
        {"p_bar_s": 1e-12}, {"p_bar_s": 1e-9, "p_bar_r": 1e3}])
    def test_tiny_budgets_start_inside(self, budgets):
        """With a source budget of a picowatt, or a nanowatt against a
        large relay budget, the program still starts strictly inside
        and the stage solves it."""
        scn = small_scenario(**budgets)
        traj = _hover_traj(scn, [350.0, -60.0])
        assert solver.start_margin(power_program(scn, traj)) > 0.0
        pw, report = dc_allocate(scn, traj)
        assert report.status == "converged"
        assert report.extras["solves"] == 1
        checks = model.check_all(scn, traj, pw, tol=model.DEFAULT_FEAS_TOL)
        assert all(v.feasible for v in checks.values())

    def test_final_kkt_certified(self, rng):
        # Hover near Bob, far from Eve: positive secrecy, interior optimum.
        scn = small_scenario(n_slots=8)
        traj = _hover_traj(scn, [350.0, -60.0])
        pw, report = dc_allocate(scn, traj)
        assert report.status == "converged"
        last_kkt = [r.kkt_residual for r in report.iterations
                    if r.kkt_residual is not None][-1]
        assert last_kkt <= 1e-5


def _straight_ferry(scn):
    """Hover at Alice, fly along the x axis to Bob at full speed, hover
    at Bob, with the flight centred in the horizon."""
    n = scn.n_slots
    step = scn.v_max * scn.slot_len
    k = (n - int(np.ceil(scn.bob_xy[0] / step))) // 2
    x = np.clip((np.arange(n) - k) * step, 0.0, scn.bob_xy[0])
    return Trajectory(np.stack([x, np.zeros(n)], axis=1))


class TestBoostedCcp:
    """The straight ferry path of the T = 100 s benchmark, where CCP on
    the power problem converged only linearly and needed a boosted line
    search (Aragón Artacho et al., 2018).  The stage solves its convex
    program there once."""

    @pytest.fixture(scope="class")
    def ferry_run(self):
        scn = benchmark_scenario(100.0, 2.0)
        traj = _straight_ferry(scn)
        pw0 = restore_feasibility(scn, traj, model.equal_power_allocation(scn))
        pw, report = dc_allocate(scn, traj, pw_0=pw0)
        return scn, traj, pw, report

    def test_objectives_nondecreasing(self, ferry_run):
        report = ferry_run[3]
        assert report.status == "converged"
        assert report.extras["solves"] == 1
        objs = report.objectives
        assert all(b >= a for a, b in zip(objs, objs[1:]))

    def test_wall_times(self, ferry_run):
        assert_wall_times(ferry_run[3])

    def test_every_solve_accounted_for(self, rng, power_solves):
        """Each call solves at most once, the report counts that solve,
        and ``converged`` is always certified."""
        for _ in range(5):
            scn = random_scenario(rng)
            traj = random_feasible_trajectory(rng, scn)
            power_solves.clear()
            pw0 = restore_feasibility(scn, traj, random_power(rng, scn))
            pw, report = dc_allocate(scn, traj, pw_0=pw0)
            assert len(power_solves) == report.extras["solves"] <= 1
            assert model.secrecy_sum(scn, traj, pw) == report.final_objective
            if report.status == "converged":
                assert report.iterations[-1].kkt_residual <= solver.KKT_TOL


class TestNoiseFloorStall:
    """Hover locations of the static scan whose first CCP subproblem
    stalled a little above the solver tolerance (1e-8): near (1800, 30)
    with two BLAS threads, near (1800, -16.5) with a moved Eve at any
    thread count.  The start there is a KKT point up to the causality
    tolerance of ``restore_feasibility``, so the stage takes it."""

    LOCATIONS = [
        ((1000.7554842675484, 109.97142133908135),
         (1800.0, -16.495713200862212)),
        (None, (1800.0, 30.0)),
    ]

    @staticmethod
    def _run(eve_xy, xy):
        scn = benchmark_scenario(horizon_s=130.0, slot_len_s=2.0)
        if eve_xy is not None:
            scn = dataclasses.replace(scn, eve_xy=np.asarray(eve_xy))
        traj = _hover_traj(scn, xy)
        pw0 = restore_feasibility(scn, traj, model.equal_power_allocation(scn))
        pw, report = dc_allocate(scn, traj, pw_0=pw0)
        return scn, traj, pw0, pw, report

    @pytest.mark.parametrize("eve_xy, xy", LOCATIONS)
    def test_static_scan_location(self, eve_xy, xy):
        scn, traj, pw0, pw, report = self._run(eve_xy, xy)
        checks = model.check_all(scn, traj, pw, tol=1e-6)
        assert all(v.feasible for v in checks.values())
        assert (model.secrecy_sum(scn, traj, pw)
                >= model.secrecy_sum(scn, traj, pw0) - 1e-9)
        for rec in report.iterations:
            if "subproblem_kkt" in rec.extras:
                assert rec.extras["subproblem_kkt"] <= 1e-7

    @pytest.mark.parametrize("eve_xy, xy", LOCATIONS)
    def test_start_certified_without_solve(self, eve_xy, xy, power_solves):
        """The scan's start is returned as is, with no solve."""
        *_, pw0, pw, report = self._run(eve_xy, xy)
        assert power_solves == []
        assert report.status == "converged"
        np.testing.assert_array_equal(pw.p_s, pw0.p_s)
        np.testing.assert_array_equal(pw.p_r, pw0.p_r)
        assert report.iterations[0].kkt_residual <= solver.KKT_TOL


class TestStartCertificate:
    """The multiplier-estimate certificate ``dc_allocate`` runs on its
    start, at hover locations of the T = 130 s benchmark."""

    @staticmethod
    def _start(xy, relay_scale=1.0):
        scn = benchmark_scenario(horizon_s=130.0, slot_len_s=2.0)
        traj = _hover_traj(scn, xy)
        pw0 = restore_feasibility(scn, traj, model.equal_power_allocation(scn))
        return scn, traj, PowerAllocation(p_s=pw0.p_s,
                                          p_r=relay_scale * pw0.p_r)

    @pytest.mark.parametrize("xy, relay_scale", [
        ((1800.0, 30.0), 1.0), ((1800.0, 30.0), 0.98), ((200.0, 50.0), 1.0)])
    def test_estimate_matches_dense_least_squares(self, xy, relay_scale):
        """The banded normal equations give the least-squares multipliers
        of a dense solve over the same active rows, clipped at 0."""
        scn, traj, pw = self._start(xy, relay_scale)
        orig, buffers, pc = _program(scn, traj)
        z = power_dc._tight_point(pc, buffers, pw)
        has_lb = np.isfinite(orig.lb)
        J = np.vstack([as_dense(b.cols, b.jacobian(z), orig.dim)
                       for b in orig.ineqs]
                      + [-np.eye(orig.dim)[has_lb]])
        g = np.concatenate([b.value(z) for b in orig.ineqs]
                           + [orig.lb[has_lb] - z[has_lb]])
        active = g >= -solver.ACTIVE_TOL
        ref = np.zeros(g.size)
        ref[active] = np.maximum(np.linalg.lstsq(
            J[active].T, -orig.gradient(z), rcond=None)[0], 0.0)
        lam = multiplier_estimate(orig, z)
        np.testing.assert_allclose(lam, ref, rtol=0.0, atol=1e-6)
        assert np.all(lam[~active] == 0.0)

    def test_certify_evaluates_once(self, monkeypatch):
        """``solver.certify`` gives, bit for bit, the residual with the
        multiplier estimate, or with the duals when given, even where the
        estimate's is smaller, from one stack and one call of each
        callback."""
        scn, traj, pw = self._start((1800.0, 30.0), 0.98)
        orig, buffers, pc = _program(scn, traj)
        z = power_dc._tight_point(pc, buffers, pw)
        estimated = certify(orig, z, multiplier_estimate(orig, z))
        duals = np.random.default_rng(4).uniform(0.0, 1.0,
                                                 solver._Blocks(orig).m)
        given = certify(orig, z, duals)
        assert given > estimated
        stacks = []

        class Counting(solver._Blocks):
            def __init__(self, prog):
                stacks.append(prog)
                super().__init__(prog)

        monkeypatch.setattr(solver, "_Blocks", Counting)
        prog, seen = record_points(orig)
        assert solver.certify(prog, z) == estimated
        assert solver.certify(prog, z, duals) == given
        assert len(stacks) == 2
        calls = {name: len(points) for name, points in seen.items()}
        assert calls.pop("objective") == 0
        # The certificate needs no second derivatives.
        assert calls.pop("hessian") == 0
        # Both blocks are curved: Bob's and Eve's flows, and the relay
        # energy next to the source power.
        assert all(calls.pop(f"hess_weighted{k}") == 0 for k in (0, 1))
        assert calls == {"gradient": 2, **{f"{c}{k}": 2 for k in range(2)
                                           for c in ("value", "jacobian")}}

    def test_repeated_columns_add_up(self):
        """A row that repeats a column holds the sum of its entries there:
        J = [[3, 0], [1, 1]], stationary at lam = (1, 2)."""
        block = ConstraintBlock(
            cols=np.array([[0, 0], [0, 1]]), value=lambda z: np.zeros(2),
            jacobian=lambda z: np.array([[1.0, 2.0], [1.0, 1.0]]))
        prog = SmoothConvexProgram(
            dim=2, objective=lambda z: 0.0,
            gradient=lambda z: np.array([-5.0, -2.0]), ineqs=[block],
            lb=np.full(2, -np.inf))
        np.testing.assert_allclose(
            multiplier_estimate(prog, np.zeros(2)), [1.0, 2.0],
            rtol=1e-9)

    @pytest.mark.parametrize("xy, start, end", [
        ((1800.0, 30.0), 22.490, 22.887), ((1550.0, -60.0), 10.271, 10.428)])
    def test_non_stationary_start_rejected(self, xy, start, end):
        """With the relay power 2% below the scan's start, the start is
        feasible but not a KKT point: the certificate rejects it and the
        stage solves once, to a point certified with the solve's duals."""
        scn, traj, pw98 = self._start(xy, 0.98)
        assert solver.KKT_TOL == 1e-5
        pw, report = dc_allocate(scn, traj, pw_0=pw98)
        assert report.iterations[0].kkt_residual > 100 * solver.KKT_TOL
        assert report.extras["solves"] == 1
        assert report.objectives[0] == pytest.approx(start, abs=1e-3)
        assert report.final_objective == pytest.approx(end, abs=1e-3)
        assert model.secrecy_sum(scn, traj, pw) == report.final_objective
        assert report.iterations[-1].kkt_residual <= solver.KKT_TOL
        assert report.status == "converged"

    def test_failed_solve_returns_start(self, monkeypatch):
        """A solve that is not optimal ends the stage with a ``solver_*``
        status; the start comes back unchanged."""
        scn, traj, pw98 = self._start((1800.0, 30.0), 0.98)
        fail_power_solves(monkeypatch)
        pw, report = dc_allocate(scn, traj, pw_0=pw98)
        assert report.status == "solver_numerical_failure"
        assert report.extras["solves"] == 1
        np.testing.assert_array_equal(pw.p_s, pw98.p_s)
        np.testing.assert_array_equal(pw.p_r, pw98.p_r)
        assert report.objectives == [model.secrecy_sum(scn, traj, pw98)]


    def test_failing_point_stalls_on_the_start(self, monkeypatch):
        """A solved point that fails the checks (here its relay powers
        doubled, which breaks causality) is not taken: the stage ends
        ``stalled`` with the start unchanged and uncertified."""
        scn, traj, pw98 = self._start((1800.0, 30.0), 0.98)
        pw_from_z = power_dc._pw_from_z

        def overdriven(pc, z):
            pw = pw_from_z(pc, z)
            return PowerAllocation(p_s=pw.p_s, p_r=2.0 * pw.p_r)

        monkeypatch.setattr(power_dc, "_pw_from_z", overdriven)
        pw, report = dc_allocate(scn, traj, pw_0=pw98)
        assert report.status == "stalled"
        assert report.extras["solves"] == 1
        np.testing.assert_array_equal(pw.p_s, pw98.p_s)
        np.testing.assert_array_equal(pw.p_r, pw98.p_r)
        assert report.objectives == [model.secrecy_sum(scn, traj, pw98)]

    def test_certificate_above_tolerance_stalls(self, monkeypatch):
        """A solved point whose certificate exceeds ``KKT_TOL`` (here 0)
        is returned, the stage ending ``stalled``: the same powers as
        the ``converged`` run, with its certificate."""
        scn, traj, pw98 = self._start((1800.0, 30.0), 0.98)
        want, converged = dc_allocate(scn, traj, pw_0=pw98)
        assert converged.status == "converged"
        monkeypatch.setattr(power_dc, "KKT_TOL", 0.0)
        pw, report = dc_allocate(scn, traj, pw_0=pw98)
        assert report.status == "stalled"
        assert report.extras["solves"] == 1
        np.testing.assert_array_equal(pw.p_s, want.p_s)
        np.testing.assert_array_equal(pw.p_r, want.p_r)
        assert report.objectives == converged.objectives
        assert (report.iterations[-1].kkt_residual
                == converged.iterations[-1].kkt_residual > 0.0)


def _fixed_flow_buffer(flow, initial):
    """A buffer over z = b whose net outflows are the constants ``flow``."""
    m = len(flow)
    f = np.asarray(flow, dtype=float)
    block = ConstraintBlock(
        cols=np.zeros((m, 1), dtype=int), value=lambda z: f,
        jacobian=lambda z: np.zeros((m, 1)))
    return Buffer(block, np.arange(m), "buffer", initial=initial)


_FLOWS = st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=40)
_INITIAL = st.sampled_from([0.0, 1e-8, 0.5])
# Prefix surpluses of a causal flow, each at least 1e-6.
_SURPLUSES = st.lists(st.floats(1e-6, 5.0), min_size=1, max_size=40)


class TestBufferForm:
    """Relay buffers state information causality exactly."""

    @settings(max_examples=200, deadline=None)
    @given(_FLOWS, _INITIAL)
    def test_prefix_iff_buffer_rows(self, flow, initial):
        buf = _fixed_flow_buffer(flow, initial)
        prefix_ok = bool(np.all(np.cumsum(flow) <= initial))
        b = buf.surplus(np.zeros(len(flow)))
        rows = buf.block().value(b)
        scale = 1.0 + float(np.max(np.abs(b)))
        # At the prefix surpluses every row is tight ...
        assert np.all(np.abs(rows) <= 1e-13 * scale)
        # ... and the buffers are nonnegative exactly when every prefix
        # constraint holds.
        assert bool(np.all(b >= 0.0)) == prefix_ok

    @settings(max_examples=200, deadline=None)
    @given(_SURPLUSES, _INITIAL)
    def test_buffer_start_strictly_feasible(self, target, initial):
        """Every flow whose prefix surpluses are all positive gets a
        strictly feasible start; the flow is drawn through them."""
        flow = -np.diff(target, prepend=initial)  # S_{j-1} - S_j
        buf = _fixed_flow_buffer(flow, initial)
        surplus = buf.surplus(np.zeros(len(flow)))
        np.testing.assert_allclose(surplus, target, rtol=0.0, atol=1e-12)
        assert np.all(surplus > 0.0)
        b = buffer_start(surplus)
        assert np.all(b > 0.0)
        assert np.all(buf.block().value(b) < 0.0)

    @settings(max_examples=200, deadline=None)
    @given(_FLOWS, st.sampled_from([1e-8, 0.5]))
    def test_seed_strictly_feasible(self, flow, initial):
        """``Buffer.seed`` raises ``initial`` by the worst prefix excess,
        so every flow, causal or not, gets a strictly feasible start
        whose prefix surpluses are at least the former ``initial``."""
        buf = _fixed_flow_buffer(flow, initial)
        z = np.zeros(len(flow))
        buf.seed(z)
        assert buf.initial == initial + max(0.0, np.max(np.cumsum(flow)))
        assert np.all(buf.surplus(z) >= initial - 1e-12)
        assert np.all(z > 0.0)
        assert np.all(buf.block().value(z) < 0.0)
