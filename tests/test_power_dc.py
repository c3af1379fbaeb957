"""Difference-of-concave power allocation at a fixed trajectory."""
import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (assert_wall_times, fail_power_solves,
                      random_feasible_trajectory, random_scenario,
                      reject_power_finish, small_scenario, stage_programs)
from numerics import (as_dense, callback_outputs, record_points,
                      verify_derivatives)
from secrelay import benchmark_scenario, model, power_dc, solver
from secrelay.model import (PowerAllocation, Scenario, Trajectory,
                            restore_feasibility)
from secrelay.power_dc import (LN2, Buffer, DcOptions, _layout, buffer_start,
                               build_dc_surrogate, dc_allocate)
from secrelay.solver import (ConstraintBlock, SmoothConvexProgram,
                             kkt_residual, multiplier_estimate, solve)

# The surrogate program works on scaled variables p_s[1..N-1]/u_s and
# p_r[2..N]/u_r with the equal-power scales u, laid out slot by slot
# next to buffer and energy variables (positions from _layout).


def _scales(scn):
    n = scn.n_slots
    return (max(n * scn.p_bar_s / (n - 1), 1e-9),
            max(n * scn.p_bar_r / (n - 1), 1e-9))


def _z(scn, pw):
    """pw in the surrogate's variables; buffers and energies at 0."""
    u_s, u_r = _scales(scn)
    idx, dim = _layout(scn.n_slots)
    z = np.zeros(dim)
    z[idx["ps"]] = pw.p_s[:-1] / u_s
    z[idx["pr"]] = pw.p_r[1:] / u_r
    return z


def _hover_traj(scn, xy):
    return Trajectory(np.tile(np.asarray(xy, float), (scn.n_slots, 1)))


class TestSurrogate:
    def test_gradient_at_zero_relay_power(self):
        scn = small_scenario()
        traj = _hover_traj(scn, [150.0, -20.0])
        pw0 = PowerAllocation(p_s=model.equal_power_allocation(scn).p_s,
                              p_r=np.zeros(scn.n_slots))
        prog = build_dc_surrogate(scn, traj, pw0)
        ch = model.channel_state(scn, traj)
        u_s, u_r = _scales(scn)
        g = prog.gradient(_z(scn, pw0))
        i_pr = _layout(scn.n_slots)[0]["pr"]
        # Maximize convention flips to minimize: d(-surrogate)/dz_r.
        want = -(ch.gamma_rd[1:] - ch.gamma_re[1:]) / LN2 * u_r
        np.testing.assert_allclose(g[i_pr], want, rtol=1e-12)

    def test_tangency_at_linearization_point(self, rng):
        for _ in range(5):
            scn = random_scenario(rng)
            traj = random_feasible_trajectory(rng, scn)
            pw_k = _feasible_random_power(rng, scn, traj)
            prog = build_dc_surrogate(scn, traj, pw_k)
            true_obj = model.secrecy_sum(scn, traj, pw_k)
            assert -prog.objective(_z(scn, pw_k)) == pytest.approx(
                true_obj, rel=1e-10, abs=1e-10)

    def test_minorization_1000_points(self, rng):
        scn = small_scenario(n_slots=8)
        traj = _hover_traj(scn, [180.0, -30.0])
        pw_k = _feasible_random_power(rng, scn, traj)
        prog = build_dc_surrogate(scn, traj, pw_k)
        n = scn.n_slots
        for _ in range(1000):
            p_r = rng.uniform(0.0, 3.0 * scn.p_bar_r, n)
            p_r[0] = 0.0
            p_s = pw_k.p_s
            pw = PowerAllocation(p_s=p_s, p_r=p_r)
            true_obj = model.secrecy_sum(scn, traj, pw)
            assert -prog.objective(_z(scn, pw)) <= true_obj + 1e-9 * (
                1.0 + abs(true_obj))

    def test_derivatives_and_infeasible_point_rejected(self, rng):
        scn = small_scenario()
        traj = _hover_traj(scn, [120.0, 10.0])
        pw_k = _feasible_random_power(rng, scn, traj)
        prog = build_dc_surrogate(scn, traj, pw_k)
        for _ in range(10):
            z = rng.uniform(0.01, 1.0, prog.dim)
            assert verify_derivatives(prog, z) < 1e-5
        # A grossly infeasible linearization point is refused.
        n = scn.n_slots
        p_r = np.full(n, 50.0 * scn.p_bar_r)
        p_r[0] = 0.0
        bad = PowerAllocation(p_s=np.zeros(n), p_r=p_r)
        with pytest.raises(ValueError):
            build_dc_surrogate(scn, traj, bad)


def _cached_programs():
    """Functions that build the power surrogate and the certification
    program on a hover of the T = 40 s benchmark, each with a point."""
    scn = benchmark_scenario(horizon_s=40.0, slot_len_s=2.0)
    traj = _hover_traj(scn, (600.0, 40.0))
    pw = restore_feasibility(scn, traj, model.equal_power_allocation(scn))
    pc = power_dc._pieces(scn, traj)
    surrogate = build_dc_surrogate(scn, traj, pw)
    orig, buffers = power_dc._original_power_program(scn, pc)
    return {
        "surrogate": (lambda: build_dc_surrogate(scn, traj, pw),
                      np.asarray(surrogate.strictly_feasible_start)),
        "certification": (
            lambda: power_dc._original_power_program(scn, pc)[0],
            power_dc._tight_point(pc, buffers, pw))}


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
        scn = small_scenario(eve_xy=[400.0, 0.0])  # Eve on top of Bob
        traj = random_feasible_trajectory(rng, scn)
        pw, report = dc_allocate(scn, traj)
        assert model.secrecy_sum(scn, traj, pw) >= -1e-7

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
        scn = small_scenario()
        traj = _hover_traj(scn, [50.0, 0.0])
        n = scn.n_slots
        p_r = np.full(n, 100.0 * scn.p_bar_r)
        p_r[0] = 0.0
        bad = PowerAllocation(p_s=np.zeros(n), p_r=p_r)
        with pytest.raises(ValueError):
            dc_allocate(scn, traj, pw_0=bad)

    def test_final_kkt_certified(self, rng):
        # Hover near Bob, far from Eve: positive secrecy, interior optimum.
        scn = small_scenario(n_slots=8)
        traj = _hover_traj(scn, [350.0, -60.0])
        pw, report = dc_allocate(scn, traj)
        assert report.status == "converged"
        last_kkt = [r.kkt_residual for r in report.iterations
                    if r.kkt_residual is not None][-1]
        assert last_kkt <= 1e-5


def _accounted_solves(report) -> int:
    """The solves a power-stage report accounts for: one per accepted
    iterate (an accepted finish is one) and rejected step, plus 1 per
    finish that was tried and rejected; a skipped finish costs none."""
    return (len(report.iterations) - 1
            + ("rejected_step" in report.extras)
            + sum(f["status"] is not None and not f["accepted"]
                  for f in report.extras["finish"]))


def _straight_ferry(scn):
    """Hover at Alice, fly along the x axis to Bob at full speed, hover
    at Bob, with the flight centred in the horizon."""
    n = scn.n_slots
    step = scn.v_max * scn.slot_len
    k = (n - int(np.ceil(scn.bob_xy[0] / step))) // 2
    x = np.clip((np.arange(n) - k) * step, 0.0, scn.bob_xy[0])
    return Trajectory(np.stack([x, np.zeros(n)], axis=1))


class TestBoostedCcp:
    """The straight ferry path of the T = 100 s benchmark, where plain
    CCP converges only linearly and the first finish fails."""

    @pytest.fixture(scope="class")
    def ferry_run(self):
        scn = benchmark_scenario(100.0, 2.0)
        traj = _straight_ferry(scn)
        pw0 = restore_feasibility(scn, traj, model.equal_power_allocation(scn))
        pw, report = dc_allocate(scn, traj, pw_0=pw0)
        return scn, traj, pw, report

    def test_finish_retried_on_the_ferry(self, ferry_run):
        """The finish after the first step ends ``numerical_failure``; a
        later one is accepted and the stage ends ``converged`` within 4
        solves, no lower than CCP with a boosted line search (Aragón
        Artacho et al., 2018) converges to on this path."""
        *_, report = ferry_run
        first, *later = report.extras["finish"]
        assert first["status"] == "numerical_failure"
        assert first["reason"] == "solve ended numerical_failure"
        assert not first["accepted"]
        assert later and later[-1]["accepted"]
        assert report.status == "converged"
        assert report.extras["solves"] <= 4
        assert report.extras["solves"] == _accounted_solves(report)
        assert report.final_objective >= 104.85665832425138

    def test_objectives_nondecreasing(self, ferry_run):
        objs = ferry_run[3].objectives
        assert all(b >= a for a, b in zip(objs, objs[1:]))

    def test_returns_certified_surrogate_solution(self, ferry_run):
        scn, traj, pw, report = ferry_run
        assert model.secrecy_sum(scn, traj, pw) == report.final_objective
        checks = model.check_all(scn, traj, pw, tol=DcOptions().feas_tol)
        assert all(v.feasible for v in checks.values())
        assert report.iterations[-1].kkt_residual <= DcOptions().kkt_tol

    def test_wall_times(self, ferry_run):
        assert_wall_times(ferry_run[3])

    def test_every_solve_accounted_for(self, rng, monkeypatch):
        """Each subproblem solve is an accepted iterate, the one rejected
        step or a rejected finish, and ``converged`` is always certified.
        Every finish is rejected, so the CCP tail runs."""
        reject_power_finish(monkeypatch)
        solves = []

        def counting_solve(prog, opts):
            solves.append(1)
            return solve(prog, opts)

        solve = power_dc.solve
        monkeypatch.setattr(power_dc, "solve", counting_solve)
        for _ in range(5):
            scn = random_scenario(rng)
            traj = random_feasible_trajectory(rng, scn)
            solves.clear()
            opts = DcOptions()
            pw, report = dc_allocate(
                scn, traj, pw_0=_feasible_random_power(rng, scn, traj),
                opts=opts)
            assert len(solves) == _accounted_solves(report)
            assert model.secrecy_sum(scn, traj, pw) == report.final_objective
            if report.status == "converged":
                kkt = report.extras.get("rejected_step", {}).get(
                    "kept_kkt", report.iterations[-1].kkt_residual)
                assert kkt <= opts.kkt_tol


class TestNoiseFloorStall:
    """Hover locations of the static scan whose first power subproblem
    stalls a little above the solver tolerance (1e-8): near (1800, 30)
    with two BLAS threads, near (1800, -16.5) with a moved Eve at any
    thread count.  The stage must take such a solve as optimal."""

    LOCATIONS = [
        ((1000.7554842675484, 109.97142133908135),
         (1800.0, -16.495713200862212)),
        (None, (1800.0, 30.0)),
    ]

    @staticmethod
    def _run(eve_xy, xy, opts):
        scn = benchmark_scenario(horizon_s=130.0, slot_len_s=2.0)
        if eve_xy is not None:
            scn = dataclasses.replace(scn, eve_xy=np.asarray(eve_xy))
        traj = _hover_traj(scn, xy)
        pw0 = restore_feasibility(scn, traj, model.equal_power_allocation(scn))
        pw, report = dc_allocate(scn, traj, pw_0=pw0, opts=opts)
        return scn, traj, pw0, pw, report

    @pytest.mark.parametrize("eve_xy, xy", LOCATIONS)
    def test_static_scan_location(self, eve_xy, xy):
        scn, traj, pw0, pw, report = self._run(
            eve_xy, xy, DcOptions(rel_tol=1e-4, max_iter=40))
        checks = model.check_all(scn, traj, pw, tol=1e-6)
        assert all(v.feasible for v in checks.values())
        assert (model.secrecy_sum(scn, traj, pw)
                >= model.secrecy_sum(scn, traj, pw0) - 1e-9)
        for rec in report.iterations:
            if "subproblem_kkt" in rec.extras:
                assert rec.extras["subproblem_kkt"] <= 1e-7

    @pytest.mark.parametrize("eve_xy, xy", LOCATIONS)
    def test_start_certified_without_solve(self, eve_xy, xy, power_solves):
        """The scan's start is a KKT point up to the causality tolerance
        of ``restore_feasibility``: it is returned as is, no solve."""
        opts = DcOptions(rel_tol=1e-4, max_iter=40)
        *_, pw0, pw, report = self._run(eve_xy, xy, opts)
        assert power_solves == []
        assert report.status == "converged"
        np.testing.assert_array_equal(pw.p_s, pw0.p_s)
        np.testing.assert_array_equal(pw.p_r, pw0.p_r)
        assert report.iterations[0].kkt_residual <= opts.kkt_tol

    @pytest.mark.parametrize("eve_xy, xy", LOCATIONS)
    def test_non_improving_step_recorded_and_certified(self, eve_xy, xy):
        """A subproblem that ends below the start is recorded, and the
        kept start is converged only if its certificate passes.  At
        ``kkt_tol`` 1e-7 the start (residual about 1e-6, the causality
        tolerance of ``restore_feasibility``) is not certified up front,
        so the subproblem is solved."""
        opts = DcOptions(rel_tol=1e-4, max_iter=40, kkt_tol=1e-7)
        *_, pw0, pw, report = self._run(eve_xy, xy, opts)
        rejected = report.extras["rejected_step"]
        assert rejected["subproblem_kkt"] <= 1e-7
        assert rejected["subproblem_iters"] > 0
        assert rejected["objective"] < report.final_objective
        assert report.status == ("converged"
                                 if rejected["kept_kkt"] <= opts.kkt_tol
                                 else "stalled")
        # Only accepted iterates are recorded.
        assert all("subproblem_kkt" in r.extras
                   for r in report.iterations[1:])
        if len(report.iterations) == 1:
            np.testing.assert_array_equal(pw.p_r, pw0.p_r)


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
        pc = power_dc._pieces(scn, traj)
        orig, buffers = power_dc._original_power_program(scn, pc)
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
        multiplier estimate and the smaller of it and the residual with
        given duals, from one stack and one call of each callback."""
        scn, traj, pw = self._start((1800.0, 30.0), 0.98)
        pc = power_dc._pieces(scn, traj)
        orig, buffers = power_dc._original_power_program(scn, pc)
        z = power_dc._tight_point(pc, buffers, pw)
        estimated = kkt_residual(orig, z, multiplier_estimate(orig, z))
        duals = np.random.default_rng(4).uniform(0.0, 1.0,
                                                 solver._Blocks(orig).m)
        given = kkt_residual(orig, z, duals)
        stacks = []

        class Counting(solver._Blocks):
            def __init__(self, prog):
                stacks.append(prog)
                super().__init__(prog)

        monkeypatch.setattr(solver, "_Blocks", Counting)
        prog, seen = record_points(orig)
        assert solver.certify(prog, z) == estimated
        assert solver.certify(prog, z, duals) == min(estimated, given)
        assert len(stacks) == 2
        calls = {name: len(points) for name, points in seen.items()}
        assert calls.pop("objective") == 0
        # The certificate needs no second derivatives.
        assert calls.pop("hessian") == 0
        assert all(calls.pop(f"hess_weighted{k}") == 0 for k in range(2))
        assert calls == {"gradient": 2, **{f"{c}{k}": 2 for k in range(4)
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
    def test_non_stationary_start_rejected(self, xy, start, end,
                                           monkeypatch):
        """With the relay power 2% below the scan's start, the start is
        feasible but not a KKT point: the certificate rejects it (about
        0.89 and 0.18) and the stage climbs by CCP (the finish is
        rejected).  Its last step ends below the kept point, which the
        multiplier estimate certifies (at (1550, -60) the rejected
        subproblem's duals give only 1.1e-4)."""
        reject_power_finish(monkeypatch)
        scn, traj, pw98 = self._start(xy, 0.98)
        opts = DcOptions()
        assert opts.kkt_tol == 1e-5
        pw, report = dc_allocate(scn, traj, pw_0=pw98, opts=opts)
        assert report.iterations[0].kkt_residual > 100 * opts.kkt_tol
        assert report.extras["solves"] >= 1
        assert report.objectives[0] == pytest.approx(start, abs=1e-3)
        assert report.final_objective == pytest.approx(end, abs=1e-3)
        assert model.secrecy_sum(scn, traj, pw) == report.final_objective
        assert report.extras["rejected_step"]["kept_kkt"] <= opts.kkt_tol
        assert report.status == "converged"

    def test_failed_solve_returns_start(self, monkeypatch):
        """A subproblem solve that is not optimal ends the stage with a
        ``solver_*`` status; the start, not yet improved on, comes back
        unchanged."""
        scn, traj, pw98 = self._start((1800.0, 30.0), 0.98)
        fail_power_solves(monkeypatch)
        pw, report = dc_allocate(scn, traj, pw_0=pw98)
        assert report.status == "solver_numerical_failure"
        assert report.extras["solves"] == 1
        np.testing.assert_array_equal(pw.p_s, pw98.p_s)
        np.testing.assert_array_equal(pw.p_r, pw98.p_r)
        assert report.objectives == [model.secrecy_sum(scn, traj, pw98)]


def _skip_finish(monkeypatch) -> None:
    """The power stage with every finish skipped: the pure CCP loop."""
    monkeypatch.setattr(power_dc, "_finish",
                        lambda *args: (None, {"status": None,
                                              "iterations": 0,
                                              "reason": None}))


def _same_run(a, b) -> None:
    """Two power-stage runs gave, bit for bit, the same powers,
    objectives, certificates and status."""
    (pw_a, rep_a), (pw_b, rep_b) = a, b
    np.testing.assert_array_equal(pw_a.p_s, pw_b.p_s)
    np.testing.assert_array_equal(pw_a.p_r, pw_b.p_r)
    assert rep_a.objectives == rep_b.objectives
    assert ([r.kkt_residual for r in rep_a.iterations]
            == [r.kkt_residual for r in rep_b.iterations])
    assert rep_a.status == rep_b.status


class TestFinish:
    """The solve of the true power problem after each CCP step, at hover
    locations of the T = 130 s benchmark with the relay power 2%
    below the scan's start (``TestStartCertificate``)."""

    XY = [(1800.0, 30.0), (1550.0, -60.0)]

    @pytest.mark.parametrize("xy", XY)
    def test_accepted(self, xy):
        """The finish ends the stage ``converged``, at or above the CCP
        iterate it started next to, certified with its own duals, and is
        recorded as the last iterate with its solve's residual."""
        scn, traj, pw0 = TestStartCertificate._start(xy, 0.98)
        opts = DcOptions()
        pw, report = dc_allocate(scn, traj, pw_0=pw0, opts=opts)
        [finish] = report.extras["finish"]
        assert finish["accepted"] and finish["reason"] is None
        assert finish["status"] == "optimal" and finish["iterations"] > 0
        assert report.status == "converged"
        assert report.extras["solves"] == 2
        ccp, last = report.iterations[-2:]
        assert len(report.iterations) == 3
        assert last.objective == finish["objective"] >= ccp.objective
        assert last.kkt_residual == finish["kkt_residual"] <= opts.kkt_tol
        assert last.extras["subproblem_kkt"] == finish["subproblem_kkt"]
        assert finish["subproblem_kkt"] <= 10.0 * power_dc.SUBPROBLEM.tol
        assert last.feasible
        assert model.secrecy_sum(scn, traj, pw) == report.final_objective
        checks = model.check_all(scn, traj, pw, tol=opts.feas_tol)
        assert all(v.feasible for v in checks.values())
        assert report.extras["solves"] == _accounted_solves(report)

    @pytest.mark.parametrize("xy", XY)
    def test_rejected_finish_leaves_ccp_unchanged(self, xy, monkeypatch):
        """Finishes whose solves end ``numerical_failure`` are recorded
        and rejected; the stage then gives, bit for bit, what the pure CCP
        loop gives, with one more solve after each CCP step (here every
        step leaves the stage running: it ends on a rejected step) and no
        ``solver_*`` status."""
        scn, traj, pw0 = TestStartCertificate._start(xy, 0.98)
        with monkeypatch.context() as m:
            _skip_finish(m)
            ccp = dc_allocate(scn, traj, pw_0=pw0)
        reject_power_finish(monkeypatch)
        run = dc_allocate(scn, traj, pw_0=pw0)
        _same_run(run, ccp)
        assert "rejected_step" in ccp[1].extras
        steps = len(ccp[1].iterations) - 1
        assert steps > 1
        finishes = run[1].extras["finish"]
        assert len(finishes) == steps
        for finish in finishes:
            assert finish["status"] == "numerical_failure"
            assert not finish["accepted"]
            assert finish["reason"] == "solve ended numerical_failure"
            assert finish["kkt_residual"] is None
        assert run[1].extras["solves"] == ccp[1].extras["solves"] + steps
        assert run[1].status == "converged"

    def test_no_retry_after_finish_below_ccp(self, monkeypatch):
        """After a finish that reached a point below the CCP iterate, no
        finish is tried again; CCP runs on alone, bit for bit."""
        scn, traj, pw0 = TestStartCertificate._start(self.XY[0], 0.98)
        with monkeypatch.context() as m:
            _skip_finish(m)
            ccp = dc_allocate(scn, traj, pw_0=pw0)
        below = {"status": "optimal", "iterations": 7, "subproblem_kkt": 0.0,
                 "objective": 0.0, "kkt_residual": None, "accepted": False,
                 "reason": "objective below the CCP iterate"}
        monkeypatch.setattr(power_dc, "_finish",
                            lambda *args: (None, dict(below)))
        run = dc_allocate(scn, traj, pw_0=pw0)
        _same_run(run, ccp)
        assert len(ccp[1].iterations) - 1 > 1
        assert run[1].extras["finish"] == [below]
        assert run[1].extras["solves"] == ccp[1].extras["solves"] + 1
        assert (run[1].extras["newton_steps"]
                == ccp[1].extras["newton_steps"] + 7)

    def test_start_not_inside_skipped(self, monkeypatch, power_solves):
        """A finish start that is not strictly inside (here: source
        powers cut to 0, on their bound) is skipped before any solve, not
        raised, after every CCP step, and the stage runs the pure CCP
        loop."""
        scn, traj, pw0 = TestStartCertificate._start(self.XY[0], 0.98)
        with monkeypatch.context() as m:
            _skip_finish(m)
            ccp = dc_allocate(scn, traj, pw_0=pw0)
        n_ccp = len(power_solves)
        monkeypatch.setattr(power_dc, "FINISH_CUT", 1.0)
        run = dc_allocate(scn, traj, pw_0=pw0)
        _same_run(run, ccp)
        assert len(power_solves) == 2 * n_ccp
        assert run[1].extras["finish"] == (len(run[1].iterations) - 1) * [{
            "status": None, "iterations": 0, "subproblem_kkt": None,
            "objective": None, "kkt_residual": None, "accepted": False,
            "reason": "start not strictly inside"}]
        assert run[1].extras["solves"] == _accounted_solves(run[1])

    def test_every_solve_accounted_for(self, rng, power_solves):
        """On random instances, with the finish left to decide: each solve
        is an accepted iterate (an accepted finish is one), the one
        rejected step or a rejected finish; only the last finish may be
        accepted, it never ends below the CCP iterate before it, and
        ``converged`` is always certified."""
        opts = DcOptions()
        tried = 0
        for _ in range(5):
            scn = random_scenario(rng)
            traj = random_feasible_trajectory(rng, scn)
            power_solves.clear()
            pw, report = dc_allocate(
                scn, traj, pw_0=_feasible_random_power(rng, scn, traj),
                opts=opts)
            assert len(power_solves) == report.extras["solves"]
            assert report.extras["solves"] == _accounted_solves(report)
            assert model.secrecy_sum(scn, traj, pw) == report.final_objective
            finishes = report.extras["finish"]
            tried += any(f["status"] is not None for f in finishes)
            assert not any(f["accepted"] for f in finishes[:-1])
            if finishes and finishes[-1]["accepted"]:
                assert report.objectives[-1] >= report.objectives[-2]
            if report.status == "converged":
                kkt = report.extras.get("rejected_step", {}).get(
                    "kept_kkt", report.iterations[-1].kkt_residual)
                assert kkt <= opts.kkt_tol
        assert tried > 0


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
    @given(_FLOWS, _INITIAL)
    def test_buffer_start_strictly_feasible(self, flow, initial):
        buf = _fixed_flow_buffer(flow, initial)
        surplus = buf.surplus(np.zeros(len(flow)))
        assume(np.all(surplus > 1e-6))      # the prefix start is strict
        b = buffer_start(surplus)
        assert np.all(b > 0.0)
        assert np.all(buf.block().value(b) < 0.0)
