"""Sequential convex trajectory optimization at fixed powers."""
import dataclasses

import numpy as np
import pytest

from conftest import (assert_wall_times, random_feasible_trajectory,
                      random_power, random_scenario, rate_forms,
                      reject_trajectory_finish, small_scenario,
                      stage_programs, true_rates)
from numerics import (as_dense, assert_outputs_stay_fresh,
                      callback_outputs, record_points, spot_check_convexity,
                      verify_derivatives)
from secrelay import benchmark_scenario, model, solver, trajectory_scp
from secrelay.baselines import _constant_traj, static_relay_best
from secrelay.model import (PowerAllocation, Scenario, Trajectory,
                            restore_feasibility)
from secrelay.report import COUNTERS, RunReport
from secrelay.solver import solve, start_margin
from secrelay.trajectory_scp import (CAUS_RELAX, ScpOptions, _Layout,
                                     build_subproblem, initial_trajectory,
                                     make_iterate, scp_optimize)


class TestInitialTrajectory:
    def test_fixed_endpoints_equally_spaced(self):
        scn = small_scenario(n_slots=4, start_xy=[200.0, -100.0],
                             end_xy=[1800.0, -100.0], v_max=400.0)
        traj = initial_trajectory(scn)
        t = np.arange(1, 5) / 5.0
        want = np.stack([200.0 + t * 1600.0, np.full(4, -100.0)], axis=1)
        np.testing.assert_allclose(traj.xy, want, atol=1e-9)
        assert model.check_mobility(scn, traj).feasible

    def test_start_equals_end_constant(self):
        scn = small_scenario(n_slots=5, start_xy=[30.0, 40.0],
                             end_xy=[30.0, 40.0])
        traj = initial_trajectory(scn)
        np.testing.assert_allclose(traj.xy, np.tile([30.0, 40.0], (5, 1)))

    @pytest.mark.parametrize("end", ["start_xy", "end_xy"])
    def test_one_anchor_hovers_at_it(self, end):
        """With one endpoint fixed the start hovers at it; it is mobile
        and the trajectory stage runs from it."""
        anchor = [150.0, 30.0]
        scn = small_scenario(**{end: anchor})
        traj = initial_trajectory(scn)
        assert np.array_equal(traj.xy, np.tile(anchor, (scn.n_slots, 1)))
        assert model.check_mobility(scn, traj).feasible
        pw = model.equal_power_start(scn, traj)
        out, report = scp_optimize(scn, pw, traj)
        assert report.status == "converged"
        assert report.final_objective >= report.objectives[0]
        assert model.check_mobility(scn, out).feasible

    def test_unreachable_endpoints_error(self):
        scn = small_scenario(n_slots=4, v_max=10.0, start_xy=[0.0, 0.0],
                             end_xy=[1000.0, 0.0])
        with pytest.raises(ValueError):
            initial_trajectory(scn)

    def test_free_endpoints_hover_midway(self):
        scn = small_scenario()
        traj = initial_trajectory(scn)
        mid = 0.5 * (scn.alice_xy + scn.bob_xy)
        np.testing.assert_allclose(traj.xy, np.tile(mid, (scn.n_slots, 1)))


class TestRateLowerBounds:
    """The three forms of the trajectory stage's rate: the exact rate,
    its tangent in w (lower) and its value at the tangent of w in the
    displacement (upper)."""

    def _setup(self, rng):
        scn = random_scenario(rng)
        traj = random_feasible_trajectory(rng, scn)
        pw = random_power(rng, scn)
        return scn, make_iterate(scn, traj, pw), pw

    def test_equality_at_zero_displacement(self, rng):
        scn, it, pw = self._setup(rng)
        z = np.zeros(scn.n_slots)
        forms = rate_forms(scn, it, z, z)
        truth = true_rates(scn, it.traj, pw)
        for form in forms.values():
            np.testing.assert_allclose(form.r, truth, rtol=1e-12,
                                       atol=1e-12)
        np.testing.assert_array_equal(forms["upper"].w, forms["exact"].w)

    def test_soundness_random_draws(self, rng):
        # 10^4 (point, displacement) draws: lower <= exact <= upper, the
        # upper bound wherever its w is positive (its domain).
        in_domain = draws = 0
        for _ in range(10):
            scn, it, pw = self._setup(rng)
            v = scn.slot_travel
            for _ in range(1000 // scn.n_slots + 1):
                delta = rng.uniform(-v, v, scn.n_slots)
                xi = rng.uniform(-v, v, scn.n_slots)
                forms = rate_forms(scn, it, delta, xi)
                moved = Trajectory(it.traj.xy + np.stack([delta, xi], axis=1))
                truth = true_rates(scn, moved, pw)
                tol = 1e-9 * (1 + truth)
                np.testing.assert_allclose(forms["exact"].r, truth,
                                           rtol=1e-12, atol=1e-12)
                assert np.all(forms["lower"].r <= truth + tol)
                dom = forms["upper"].w > 0.0
                assert np.all(truth[dom] <= forms["upper"].r[dom] + tol[dom])
                in_domain += dom.sum()
                draws += dom.size
        assert in_domain > 0.9 * draws

    def test_gradient_match_at_zero(self, rng):
        scn, it, pw = self._setup(rng)
        z = np.zeros(scn.n_slots)
        forms = rate_forms(scn, it, z, z)
        for form in ("lower", "upper"):
            np.testing.assert_allclose(forms[form].grad, forms["exact"].grad,
                                       rtol=1e-12, atol=1e-15)
        h = 1e-5 * (1.0 + float(np.max(np.abs(it.traj.xy))))
        for axis in (0, 1):
            e = np.zeros((scn.n_slots, 2))
            e[:, axis] = h
            fd = (true_rates(scn, Trajectory(it.traj.xy + e), pw)
                  - true_rates(scn, Trajectory(it.traj.xy - e), pw)) / (2 * h)
            scale = 1.0 + np.abs(fd)
            assert np.all(np.abs(forms["exact"].grad[axis] - fd)
                          <= 1e-5 * scale)
            plus = rate_forms(scn, it, e[:, 0], e[:, 1])
            minus = rate_forms(scn, it, -e[:, 0], -e[:, 1])
            for form in ("lower", "upper"):
                an = (plus[form].r - minus[form].r) / (2 * h)
                assert np.all(np.abs(an - fd) <= 1e-5 * scale)


class TestDistanceLowerBounds:
    """The upper form's w: the tangent of w = h^2 + |q - c|^2 in the
    displacement, a lower bound of the squared distance."""

    def test_equality_and_soundness(self, rng):
        for _ in range(10):
            scn = random_scenario(rng)
            it = make_iterate(scn, random_feasible_trajectory(rng, scn),
                              random_power(rng, scn))
            z = np.zeros(scn.n_slots)
            forms = rate_forms(scn, it, z, z)
            ends = [scn.alice_xy, scn.bob_xy, scn.bob_xy, scn.eve_xy]
            dist2 = np.stack([scn.altitude_h ** 2 + np.sum(
                (it.traj.xy - c) ** 2, axis=1) for c in ends])
            np.testing.assert_allclose(forms["upper"].w, dist2, rtol=1e-12)
            # The upper form holds w at w0 where the relay is silent.
            w0 = forms["upper"].w[2:]
            on = np.broadcast_to(it.gamma_r > 0.0, (2, scn.n_slots))
            v = scn.slot_travel
            for _ in range(1000 // scn.n_slots + 1):
                delta = rng.uniform(-v, v, scn.n_slots)
                xi = rng.uniform(-v, v, scn.n_slots)
                forms = rate_forms(scn, it, delta, xi)
                w_lb, w = forms["upper"].w[2:], forms["exact"].w[2:]
                assert np.all(w_lb[on] <= w[on] + 1e-9 * (1 + w[on]))
                np.testing.assert_array_equal(w_lb[~on], w0[~on])

    def test_zero_at_eve(self, rng):
        """Above Eve the tangent of her squared ground distance is 0 at
        every displacement: her upper bound is exact at zero
        displacement, and its domain row holds everywhere with the
        margin ``SLACK_LB``."""
        scn = small_scenario(n_slots=2)
        traj = Trajectory(np.tile(scn.eve_xy, (2, 1)))
        pw = restore_feasibility(scn, traj, model.equal_power_allocation(scn))
        it = make_iterate(scn, traj, pw)
        assert it.gamma_r[1] > 0.0
        z = np.zeros(2)
        forms = rate_forms(scn, it, z, z)
        np.testing.assert_allclose(forms["upper"].r[3], forms["exact"].r[3],
                                   rtol=1e-12)
        prog = build_subproblem(scn, pw, it)
        [domain] = [b for b in prog.ineqs if b.name == "domain"]
        for zz in (np.zeros(prog.dim), rng.uniform(-1.0, 1.0, prog.dim)):
            bob_row, eve_row = domain.value(zz)
            assert bob_row <= 0.0
            assert eve_row == pytest.approx(trajectory_scp.SLACK_LB,
                                            abs=1e-12)


class TestSubproblem:
    def test_silent_relay_constant_objective(self, rng):
        scn = small_scenario()
        traj = random_feasible_trajectory(rng, scn)
        pw = PowerAllocation(p_s=np.append(np.full(scn.n_slots - 1, 0.01),
                                           0.0),
                             p_r=np.zeros(scn.n_slots))
        prog = build_subproblem(scn, pw, make_iterate(scn, traj, pw))
        vals = {prog.objective(rng.uniform(-0.5, 0.5, prog.dim))
                for _ in range(5)}
        assert all(v == pytest.approx(0.0, abs=1e-12) for v in vals)

    def test_tangency_and_base_feasibility(self, rng):
        scn = small_scenario()
        traj = random_feasible_trajectory(rng, scn)
        pw = restore_feasibility(scn, traj,
                                 model.equal_power_allocation(scn))
        it = make_iterate(scn, traj, pw)
        prog = build_subproblem(scn, pw, it)
        # Base point: zero displacement, buffers at the model's prefix
        # surpluses (CAUS_RELAX less its causality gaps).
        lay = _Layout(scn, it)
        gaps = model.check_causality(scn, traj, pw).slacks
        z0 = np.zeros(prog.dim)
        z0[lay.i_bob] = CAUS_RELAX - gaps["bob_gaps"]
        z0[lay.i_eve] = CAUS_RELAX - gaps["eve_gaps"]
        # The bounds' objective (negated) equals the true secrecy sum.
        assert -prog.objective(z0) == pytest.approx(it.objective, abs=1e-9)
        # All rows hold at the base point, within the model feasibility
        # tolerance the base point itself was checked at.
        for block in prog.ineqs:
            assert np.all(block.value(z0) <= 2e-6)
        # At the base point the bounds are the true rates, so the buffers
        # hold the prefix surpluses: every buffer row after the first
        # (which starts from the relaxed initial content) is tight.
        [buffers] = [b for b in prog.ineqs if b.name == "causality"]
        rows = buffers.value(z0).reshape(2, scn.n_slots - 1)
        np.testing.assert_allclose(rows[:, 1:], 0.0, atol=1e-9)
        fin = np.isfinite(prog.lb)
        assert np.all(z0[fin] - prog.lb[fin] >= -2e-6)

    def test_step_toward_bob_helps(self):
        scn = small_scenario(eve_xy=[5000.0, 5000.0])  # Eve far away
        traj = Trajectory(np.tile([200.0, 0.0], (scn.n_slots, 1)))
        pw = restore_feasibility(scn, traj,
                                 model.equal_power_allocation(scn))
        it = make_iterate(scn, traj, pw)
        prog = build_subproblem(scn, pw, it)
        lay = _Layout(scn, it)
        z_stay = np.zeros(prog.dim)
        z_move = z_stay.copy()
        # Displace the last slot toward Bob by 10 m (scaled by H).
        z_move[lay.i_delta[-1]] = 10.0 / scn.altitude_h
        assert prog.objective(z_move) < prog.objective(z_stay)

    def test_derivatives(self, rng):
        """Derivatives of the step match central differences, and its
        objective and every curved row have positive semidefinite
        Hessians, at points around the start: on random scenarios, and
        on hovers above Bob and above Eve, where a tangent bound is 0 at
        every displacement."""
        cases = []
        for scn in (small_scenario(), random_scenario(rng),
                    random_scenario(rng)):
            cases.append((scn, random_feasible_trajectory(rng, scn)))
        scn = benchmark_scenario(20.0, 2.0)
        cases += [(scn, Trajectory(np.tile(xy, (scn.n_slots, 1))))
                  for xy in (scn.bob_xy, scn.eve_xy)]
        for scn, traj in cases:
            pw = restore_feasibility(scn, traj,
                                     model.equal_power_allocation(scn))
            prog = build_subproblem(scn, pw, make_iterate(scn, traj, pw))
            z0 = np.asarray(prog.strictly_feasible_start)
            points = [z0 + rng.uniform(-0.05, 0.05, prog.dim)
                      for _ in range(3)]
            for z in points:
                assert verify_derivatives(prog, z) < 1e-5
            assert spot_check_convexity(prog, [z0] + points)

    def test_infeasible_base_point_rejected(self):
        scn = small_scenario()
        traj = Trajectory(np.tile([200.0, 0.0], (scn.n_slots, 1)))
        pw = model.equal_power_allocation(scn)
        if model.check_causality(scn, traj, pw).feasible:
            pytest.skip("equal power happens to be causal here")
        with pytest.raises(ValueError):
            build_subproblem(scn, pw, make_iterate(scn, traj, pw))


class TestPointCache:
    """The trajectory step computes its shared per-point terms once per
    point, keyed on the point's bytes."""

    @staticmethod
    def _build():
        """A function that builds the fixed-endpoint step at N = 40 (half
        the restored relay power), and the step's start."""
        scn = benchmark_scenario(40.0, 1.0, fixed_endpoints=True)
        traj = initial_trajectory(scn)
        pw = restore_feasibility(scn, traj,
                                 model.equal_power_allocation(scn))
        half = PowerAllocation(p_s=pw.p_s, p_r=0.5 * pw.p_r)

        def build():
            return build_subproblem(scn, half, make_iterate(scn, traj, half))
        return build, np.asarray(build().strictly_feasible_start)

    def test_write_into_point_gives_fresh_terms(self, rng):
        """Callbacks called at z, then at the same array after a write
        into it, give bit for bit what a fresh program gives there."""
        build, z0 = self._build()
        z_new = z0 + 1e-3 * rng.uniform(0.0, 1.0, z0.size)
        prog, z = build(), z0.copy()
        before = callback_outputs(prog, z)
        z[:] = z_new
        after = callback_outputs(prog, z)
        assert after != before
        assert after == callback_outputs(build(), z_new.copy())

    def test_callback_order_does_not_matter(self):
        """All callbacks at one point, in program order and in reverse,
        on the same program and on a fresh one: no callback writes into
        a shared term."""
        build, z = self._build()
        prog = build()
        forward = callback_outputs(prog, z)
        assert callback_outputs(prog, z, reverse=True) == forward
        assert callback_outputs(build(), z, reverse=True) == forward

    def test_outputs_stay_fresh(self, rng):
        """On the convex step and on the true problem, an array a
        callback returned at one point is unchanged, bit for bit, after
        every callback ran at another: the Jacobian templates are
        copied, never handed out."""
        build, z0 = self._build()
        z1 = z0 + 1e-3 * rng.uniform(0.0, 1.0, z0.size)
        assert_outputs_stay_fresh(build(), z0, z1)
        scn, traj, pw = _fixed_start()
        it = make_iterate(scn, traj, pw)
        prog = trajectory_scp._true_program(scn, it, _Layout(scn, it))
        z0 = np.asarray(prog.strictly_feasible_start)
        z1 = z0 + 1e-3 * rng.uniform(-1.0, 1.0, z0.size)
        assert_outputs_stay_fresh(prog, z0, z1)

    @pytest.mark.parametrize("name",
                             ["trajectory", "trajectory causality edge"])
    def test_one_fill_per_point_in_solve(self, name, cache_fills):
        """In a solve of a trajectory stage program, the shared terms are
        computed once for each distinct point the callbacks see."""
        prog, points = record_points(stage_programs(50)[name])
        cache_fills.clear()
        res = solve(prog)
        assert res.status == "optimal" and res.iterations > 0
        assert len(cache_fills) == len(set(cache_fills))
        assert set(cache_fills) == set().union(*points.values())


class TestRestoreFeasibility:
    def test_feasible_unchanged(self, rng):
        scn = small_scenario()
        traj = random_feasible_trajectory(rng, scn)
        pw = PowerAllocation(
            p_s=np.append(np.full(scn.n_slots - 1, 0.01), 0.0),
            p_r=np.zeros(scn.n_slots))
        assert restore_feasibility(scn, traj, pw) is pw

    def test_overdriven_relay_scaled_back(self, rng):
        scn = small_scenario()
        traj = random_feasible_trajectory(rng, scn)
        base = restore_feasibility(scn, traj,
                                   model.equal_power_allocation(scn))
        hot = PowerAllocation(p_s=base.p_s, p_r=base.p_r * 10.0)
        if model.check_causality(scn, traj, hot).feasible:
            pytest.skip("tenfold relay power still causal")
        fixed = restore_feasibility(scn, traj, hot)
        assert model.check_causality(scn, traj, fixed).feasible
        assert np.all(fixed.p_r <= hot.p_r)

    def test_silent_source_silences_relay(self, rng):
        scn = small_scenario()
        traj = random_feasible_trajectory(rng, scn)
        n = scn.n_slots
        p_r = np.append(0.0, np.full(n - 1, 0.01))
        pw = PowerAllocation(p_s=np.zeros(n), p_r=p_r)
        fixed = restore_feasibility(scn, traj, pw)
        # With nothing received, the relay is silenced down to the
        # causality tolerance: every transmit rate is negligible.
        rp = model.rate_profile(scn, traj, fixed)
        assert np.all(rp.r_bob <= 2e-6)
        assert np.all(rp.r_eve <= 2e-6)
        assert model.check_causality(scn, traj, fixed).feasible


def _reference_restore(scn, traj, pw, tol=1e-6):
    """The relay-scale bisection with a full ``check_causality`` (channel
    state, rate profile, prefix sums) per probe."""
    if model.check_causality(scn, traj, pw, tol=tol).feasible:
        return pw

    def feasible(alpha):
        cand = PowerAllocation(p_s=pw.p_s, p_r=alpha * pw.p_r)
        return model.check_causality(scn, traj, cand, tol=tol).feasible

    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return PowerAllocation(p_s=pw.p_s, p_r=lo * pw.p_r)


class TestRestoreFeasibilityOracle:
    """``restore_feasibility`` returns the reference bisection's powers
    bit for bit."""

    @staticmethod
    def _instance(rng, n):
        d = 2000.0
        scn = Scenario(
            bob_xy=[d, 0.0],
            eve_xy=[rng.uniform(0.0, d), rng.uniform(-400.0, 400.0)],
            altitude_h=rng.uniform(30.0, 300.0), n_slots=n, slot_len=1.0,
            v_max=50.0, ref_snr=10.0 ** rng.uniform(6.0, 9.0),
            p_bar_s=0.01, p_bar_r=0.01)
        return scn, random_feasible_trajectory(rng, scn)

    @staticmethod
    def _overdriven(rng, scn):
        pw = model.equal_power_allocation(scn)
        return PowerAllocation(p_s=pw.p_s * rng.uniform(0.01, 1.0),
                               p_r=pw.p_r * 10.0 ** rng.uniform(0.0, 4.0))

    def _assert_same(self, scn, traj, pw, tol=1e-6):
        got = restore_feasibility(scn, traj, pw, tol=tol)
        ref = _reference_restore(scn, traj, pw, tol=tol)
        assert np.array_equal(got.p_r, ref.p_r)
        assert np.array_equal(got.p_s, ref.p_s)
        return got

    def test_random_instances(self):
        rng = np.random.default_rng(11)
        rescaled = 0
        for n in rng.integers(2, 301, 60):
            scn, traj = self._instance(rng, int(n))
            pw = self._overdriven(rng, scn)
            rescaled += self._assert_same(scn, traj, pw) is not pw
        assert rescaled >= 50

    @pytest.mark.parametrize("tol", [0.0, 1e-3])
    def test_tolerances_and_silent_slots(self, tol):
        """Other tolerances, and relays silent in some slots."""
        rng = np.random.default_rng(14)
        for n in rng.integers(2, 120, 20):
            scn, traj = self._instance(rng, int(n))
            pw = self._overdriven(rng, scn)
            p_r = np.where(rng.uniform(size=int(n)) < 0.3, 0.0, pw.p_r)
            pw = PowerAllocation(p_s=pw.p_s, p_r=p_r)
            got = restore_feasibility(scn, traj, pw, tol=tol)
            ref = _reference_restore(scn, traj, pw, tol=tol)
            assert got.p_r.tobytes() == ref.p_r.tobytes()
            assert model.check_causality(scn, traj, got, tol=tol).feasible

    @pytest.mark.parametrize("where", ["bob", "eve"])
    def test_hover_above_receiver(self, where):
        rng = np.random.default_rng(12)
        for n in (2, 3, 65, 300):
            scn, _ = self._instance(rng, n)
            xy = scn.bob_xy if where == "bob" else scn.eve_xy
            traj = Trajectory(np.tile(xy, (n, 1)))
            fixed = self._assert_same(scn, traj, self._overdriven(rng, scn))
            assert model.check_causality(scn, traj, fixed).feasible

    def test_silent_source(self):
        rng = np.random.default_rng(13)
        for n in (2, 40, 257):
            scn, traj = self._instance(rng, n)
            pw = PowerAllocation(
                p_s=np.zeros(n), p_r=model.equal_power_allocation(scn).p_r)
            fixed = self._assert_same(scn, traj, pw)
            assert np.all(fixed.p_r[1:] < pw.p_r[1:])

    def test_feasible_input_returned_as_is(self):
        """Zero relay power, and an input restored already."""
        rng = np.random.default_rng(15)
        for n in (2, 65, 300):
            scn, traj = self._instance(rng, n)
            silent = PowerAllocation(
                p_s=model.equal_power_allocation(scn).p_s, p_r=np.zeros(n))
            restored = _reference_restore(scn, traj,
                                          self._overdriven(rng, scn))
            for pw in (silent, restored):
                assert self._assert_same(scn, traj, pw) is pw

    @staticmethod
    def _hover_at_scale(scn, xy, scale, tol):
        """A hover at xy with equal powers whose restored relay scale is
        ``scale`` up to rounding: (N-1) log2(1 + scale p_r g) is what the
        last prefix may forward, g the stronger receiver's gain."""
        n = scn.n_slots
        traj = Trajectory(np.tile(xy, (n, 1)))
        ch = model.channel_state(scn, traj)
        gain = max(ch.gamma_rd[0], ch.gamma_re[0])
        p_s = model.equal_power_allocation(scn).p_s
        need = model.received_prefix(ch, p_s)[-1] + tol
        p = np.expm1(need * np.log(2.0) / (n - 1)) / (scale * gain)
        return traj, PowerAllocation(p_s=p_s,
                                     p_r=np.append(0.0, np.full(n - 1, p)))

    @pytest.mark.parametrize("tol", [0.0, 1e-3])
    @pytest.mark.parametrize("where", ["bob", "eve"])
    def test_scales_at_the_grid_edges(self, tol, where):
        """Hovers whose scale is chosen: within a few 2^-40 of 0, on and
        next to the boundaries of the 2^-40 cells the restore checks and
        of coarser nodes, and just below 1; also with some relay slots
        silent."""
        g = 2.0 ** -40
        cell = round(0.4 / (4 * g)) * 4 * g
        targets = [0.5 * g, g, 1.5 * g, 3 * g, 4 * g, 4.5 * g, 5 * g,
                   cell - 0.5 * g, cell, cell + 0.5 * g,
                   0.25 - g, 0.25 - 0.5 * g, 0.25 + 0.5 * g,
                   0.625 + 16.5 * g, 0.625 + 15.5 * g,
                   1.0 - 5 * g, 1.0 - 1.5 * g, 1.0 - g, 1.0 - 0.5 * g]
        rng = np.random.default_rng(17)
        for n in (2, 3, 65):
            scn, _ = self._instance(rng, n)
            xy = scn.bob_xy if where == "bob" else scn.eve_xy
            for t in targets:
                traj, pw = self._hover_at_scale(scn, xy, t, tol)
                got = self._assert_same(scn, traj, pw, tol)
                assert abs(got.p_r[-1] / pw.p_r[-1] - t) <= 2 * g
                if n > 2:
                    p_r = pw.p_r.copy()
                    p_r[1::2] = 0.0
                    self._assert_same(
                        scn, traj, PowerAllocation(p_s=pw.p_s, p_r=p_r), tol)

    def test_scales_near_zero(self):
        """A silent or 1e-7 W source with a 1-100 W relay at tolerance 0,
        on random trajectories and hovering above Bob: scales of 0 and
        within a few 2^-40 of it, also with N = 2."""
        rng = np.random.default_rng(18)
        scales = []
        for n in (2, 3, 40, 200):
            scn, traj = self._instance(rng, n)
            above_bob = Trajectory(np.tile(scn.bob_xy, (n, 1)))
            for tr in (traj, above_bob):
                for source in (0.0, 1e-7):
                    p_s = np.append(np.full(n - 1, source), 0.0)
                    for relay in (1.0, 10.0, 100.0):
                        p_r = np.append(0.0, np.full(n - 1, relay))
                        got = self._assert_same(
                            scn, tr, PowerAllocation(p_s=p_s, p_r=p_r), 0.0)
                        scales.append(got.p_r[-1] / relay / 2.0 ** -40)
        assert sum(s == 0.0 for s in scales) >= 24
        assert sum(0.0 < s <= 8.0 for s in scales) >= 3

    @staticmethod
    def _count_passes(monkeypatch) -> list:
        """One entry per ``model.causality_gaps`` pass from now on."""
        passes = []
        causality_gaps = model.causality_gaps

        def counting(*args):
            passes.append(1)
            return causality_gaps(*args)

        monkeypatch.setattr(model, "causality_gaps", counting)
        return passes

    @pytest.mark.parametrize("wrong", ["zero", "one", "above", "below"])
    def test_wrong_estimate_falls_back(self, wrong, monkeypatch):
        """With the root estimate replaced by a wrong one, its cell fails
        the check and the restore bisects [0, 1], one scale per pass: the
        same powers in 1 + 1 + 40 passes."""
        estimate = model._scale_estimate
        wrongs = {"zero": lambda c: 0.0, "one": lambda c: 1.0,
                  "above": lambda c: c * (1 + 2.0 ** -30),
                  "below": lambda c: c * (1 - 2.0 ** -30)}
        monkeypatch.setattr(
            model, "_scale_estimate",
            lambda gains, need: wrongs[wrong](estimate(gains, need)))
        passes = self._count_passes(monkeypatch)
        rng = np.random.default_rng(19)
        for n in (2, 3, 65, 300):
            scn, traj = self._instance(rng, n)
            # Scales above 2^-6, so that c (1 +- 2^-30) leaves its cell.
            traj, pw = self._hover_at_scale(scn, traj.xy[0],
                                            rng.uniform(0.02, 0.98), 1e-6)
            ref = _reference_restore(scn, traj, pw)
            passes.clear()
            got = restore_feasibility(scn, traj, pw)
            assert got.p_r.tobytes() == ref.p_r.tobytes()
            assert len(passes) == 42

    def test_two_passes_on_the_benchmark_inputs(self, monkeypatch):
        """The equal-power restore on the five benchmark configs'
        initial trajectories and the four free configs' static winners
        makes 2 ``causality_gaps`` passes (scale 1, then the estimate's
        2^-40 cell; a bisection from [0, 1] makes 41), with the
        reference's powers."""
        inputs = []
        for horizon, slot, fixed in ((40.0, 2.0, False), (70.0, 2.0, False),
                                     (100.0, 2.0, False),
                                     (130.0, 2.0, False),
                                     (100.0, 1.0, True)):
            scn = benchmark_scenario(horizon, slot, fixed_endpoints=fixed)
            inputs.append((scn, initial_trajectory(scn)))
            if not fixed:
                xy = static_relay_best(scn).location
                inputs.append((scn, _constant_traj(scn, xy)))
        passes = self._count_passes(monkeypatch)
        for scn, traj in inputs:
            pw = model.equal_power_allocation(scn)
            passes.clear()
            got = model.equal_power_start(scn, traj)
            assert len(passes) == 2
            ref = _reference_restore(scn, traj, pw)
            assert got.p_r.tobytes() == ref.p_r.tobytes()

    def test_channel_state_once_per_call(self, monkeypatch):
        """The gains are computed once per call, not once per probe."""
        calls = []
        channel_state = model.channel_state

        def counting(scn, traj):
            calls.append(1)
            return channel_state(scn, traj)

        monkeypatch.setattr(model, "channel_state", counting)
        rng = np.random.default_rng(16)
        scn, traj = self._instance(rng, 65)
        pw = self._overdriven(rng, scn)
        fixed = restore_feasibility(scn, traj, pw)
        assert fixed is not pw and len(calls) == 1
        calls.clear()
        assert restore_feasibility(scn, traj, fixed) is fixed
        assert len(calls) == 1


def _triple_oracle(scn, pw, cand, v_eff, tol=1e-6):
    """Exhaustive best value over mobility-feasible candidate triples for
    a 3-slot scenario, vectorized; the per-triple power treatment mirrors
    restore_feasibility (40-step bisection on a relay power scale)."""
    h2 = scn.altitude_h ** 2

    def gains(term):
        d2 = h2 + np.sum((cand - term) ** 2, axis=1)
        return scn.ref_snr / d2

    g_ar = gains(scn.alice_xy)
    g_rd = gains(scn.bob_xy)
    g_re = gains(scn.eve_xy)

    # Enumerate feasible triples as index arrays.
    k = cand.shape[0]
    dist = np.sqrt(np.sum((cand[:, None] - cand[None]) ** 2, axis=2))
    ok_start = np.linalg.norm(cand - scn.start_xy, axis=1) <= v_eff
    ok_end = np.linalg.norm(cand - scn.end_xy, axis=1) <= v_eff
    ia, ib = np.nonzero((dist <= v_eff) & ok_start[:, None])
    best = -np.inf
    r1 = np.log2(1.0 + pw.p_s[0] * g_ar)
    r2 = np.log2(1.0 + pw.p_s[1] * g_ar)
    for c_idx in np.flatnonzero(ok_end):
        mask = dist[ib, c_idx] <= v_eff
        if not np.any(mask):
            continue
        a, b = ia[mask], ib[mask]
        recv1 = r1[a]
        recv2 = recv1 + r2[b]
        gd2, ge2 = g_rd[b], g_re[b]
        gd3, ge3 = g_rd[c_idx], g_re[c_idx]

        alpha = np.ones(a.size)
        needs = ~_gaps_ok_subset(pw, recv1, recv2, gd2, ge2, gd3, ge3,
                                 alpha, tol)
        if np.any(needs):
            lo = np.zeros(np.count_nonzero(needs))
            hi = np.ones_like(lo)
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                sub_ok = _gaps_ok_subset(pw, recv1[needs], recv2[needs],
                                         gd2[needs], ge2[needs], gd3, ge3,
                                         mid, tol)
                lo = np.where(sub_ok, mid, lo)
                hi = np.where(sub_ok, hi, mid)
            alpha[needs] = lo
        b2 = np.log2(1.0 + alpha * pw.p_r[1] * gd2)
        b3 = np.log2(1.0 + alpha * pw.p_r[2] * gd3)
        e2 = np.log2(1.0 + alpha * pw.p_r[1] * ge2)
        e3 = np.log2(1.0 + alpha * pw.p_r[2] * ge3)
        vals = (b2 - e2) + (b3 - e3)
        best = max(best, float(np.max(vals)))
    return best


def _gaps_ok_subset(pw, recv1, recv2, gd2, ge2, gd3, ge3, alpha, tol):
    b2 = np.log2(1.0 + alpha * pw.p_r[1] * gd2)
    b3 = np.log2(1.0 + alpha * pw.p_r[2] * gd3)
    e2 = np.log2(1.0 + alpha * pw.p_r[1] * ge2)
    e3 = np.log2(1.0 + alpha * pw.p_r[2] * ge3)
    worst = np.maximum.reduce([b2 - recv1, b2 + b3 - recv2,
                               e2 - recv1, e2 + e3 - recv2])
    return worst <= tol


class TestScpOptimize:
    def test_silent_relay_returns_start(self, rng):
        scn = small_scenario()
        traj = random_feasible_trajectory(rng, scn)
        pw = PowerAllocation(
            p_s=np.append(np.full(scn.n_slots - 1, 0.01), 0.0),
            p_r=np.zeros(scn.n_slots))
        out, report = scp_optimize(scn, pw, traj)
        assert out is traj
        assert report.status == "converged"
        assert report.final_objective == 0.0

    def test_causality_violating_powers_raise(self):
        """Equal power on the T = 40 s hover start breaks information
        causality: the stage raises instead of optimizing other powers
        than the ones it was given."""
        scn = benchmark_scenario(40.0, 2.0)
        traj = initial_trajectory(scn)
        pw = model.equal_power_allocation(scn)
        opts = trajectory_scp.ScpOptions()
        assert not model.check_causality(scn, traj, pw,
                                         tol=opts.feas_tol).feasible
        with pytest.raises(ValueError, match="causality"):
            scp_optimize(scn, pw, traj, opts=opts)

    def test_overlong_hop_raises(self):
        """A hop longer than one slot of travel (hops of exactly v_max
        pass): the stage raises instead of optimizing, even with powers
        that hold causality there."""
        scn = small_scenario()
        xy = np.tile([150.0, 30.0], (scn.n_slots, 1))
        xy[3:, 0] += scn.slot_travel
        pw = model.equal_power_start(scn, Trajectory(xy))
        scp_optimize(scn, pw, Trajectory(xy))
        xy[3:, 0] += 1.0
        pw = model.equal_power_start(scn, Trajectory(xy))
        with pytest.raises(ValueError, match="^trajectory violates "
                           "mobility constraints$"):
            scp_optimize(scn, pw, Trajectory(xy))

    def test_monotone_feasible_ascent(self, rng):
        for _ in range(3):
            scn = random_scenario(rng, n_slots=8)
            traj = random_feasible_trajectory(rng, scn)
            pw = restore_feasibility(scn, traj,
                                     model.equal_power_allocation(scn))
            out, report = scp_optimize(scn, pw, traj)
            objs = report.objectives
            assert all(b >= a - 1e-6 for a, b in zip(objs, objs[1:]))
            assert model.check_mobility(scn, out).feasible
            assert model.check_causality(scn, out, pw).feasible
            for rec in report.iterations:
                if rec.feasible is not None:
                    assert rec.feasible

    def test_three_slot_grid_restriction_vs_oracle(self):
        # Post-hoc comparison: snap the SCP trajectory onto a 21x21 grid
        # per slot; the snapped value cannot beat the exhaustive optimum
        # over the same grid (mobility relaxed by the snap radius so the
        # snapped trajectory stays inside the enumerated set).
        scn = Scenario(bob_xy=[40.0, 0.0], eve_xy=[20.0, 8.0],
                       altitude_h=10.0, n_slots=3, slot_len=1.0, v_max=15.0,
                       ref_snr=4e4, p_bar_s=0.02, p_bar_r=0.02,
                       start_xy=[5.0, 0.0], end_xy=[35.0, 0.0])
        traj0 = initial_trajectory(scn)
        pw = restore_feasibility(scn, traj0,
                                 model.equal_power_allocation(scn))
        out, report = scp_optimize(scn, pw, traj0)
        assert report.final_objective >= report.objectives[0] - 1e-9

        xs = np.linspace(0.0, 40.0, 21)
        ys = np.linspace(-10.0, 10.0, 21)
        cand = np.array([(x, y) for x in xs for y in ys])
        snap_r = float(np.hypot(xs[1] - xs[0], ys[1] - ys[0])) / 2.0
        v_eff = scn.slot_travel + 2.0 * snap_r + 1e-9

        def value(xy_triple):
            """Deterministic value of a position triple: fixed-power
            profile with the relay side rescaled to restore causality."""
            traj = Trajectory(np.asarray(xy_triple))
            pw_c = restore_feasibility(scn, traj, pw)
            return model.secrecy_sum(scn, traj, pw_c)

        def mobility_ok(xy, v):
            hops = [np.linalg.norm(xy[1] - xy[0]),
                    np.linalg.norm(xy[2] - xy[1]),
                    np.linalg.norm(xy[0] - scn.start_xy),
                    np.linalg.norm(xy[2] - scn.end_xy)]
            return max(hops) <= v

        best = _triple_oracle(scn, pw, cand, v_eff)

        snapped = cand[np.argmin(
            np.sum((out.xy[:, None, :] - cand[None]) ** 2, axis=2), axis=1)]
        assert mobility_ok(snapped, v_eff)
        assert value(snapped) <= best + 1e-9

    def test_wall_times(self, rng):
        scn = random_scenario(rng, n_slots=6)
        traj = random_feasible_trajectory(rng, scn)
        pw = restore_feasibility(scn, traj,
                                 model.equal_power_allocation(scn))
        _, report = scp_optimize(scn, pw, traj)
        assert len(report.iterations) > 1
        assert_wall_times(report)

    def test_iteration_callback_sees_each_iterate(self, rng):
        scn = random_scenario(rng, n_slots=6)
        traj = random_feasible_trajectory(rng, scn)
        pw = restore_feasibility(scn, traj,
                                 model.equal_power_allocation(scn))
        seen = []
        out, report = scp_optimize(scn, pw, traj,
                                   iteration_callback=seen.append)
        assert len(seen) == len(report.iterations) - 1
        if seen:
            np.testing.assert_array_equal(seen[-1].xy, out.xy)

    @pytest.mark.parametrize("reason", ["regressed", "infeasible_step"])
    def test_bad_step_stalls(self, rng, monkeypatch, reason):
        """A step that lowers the true objective or leaves the feasible
        set is dropped: the stage keeps its start and says ``stalled``,
        with the reason, not ``converged``."""
        scn = small_scenario()
        traj = random_feasible_trajectory(rng, scn)
        pw = restore_feasibility(scn, traj,
                                 model.equal_power_allocation(scn))
        if reason == "regressed":
            real = trajectory_scp.make_iterate

            def worse_after_start(scn, traj_n, pw):
                it = real(scn, traj_n, pw)
                if traj_n is traj:
                    return it
                return dataclasses.replace(it, objective=-np.inf)

            monkeypatch.setattr(trajectory_scp, "make_iterate",
                                worse_after_start)
        else:
            real = model.check_all

            def immobile(*args, **kwargs):
                checks = real(*args, **kwargs)
                checks["mobility"] = model.FeasibilityVerdict(False, {}, 1.0)
                return checks

            monkeypatch.setattr(model, "check_all", immobile)
        out, report = scp_optimize(scn, pw, traj)
        assert out is traj
        assert report.status == "stalled"
        assert report.extras["stall_reason"] == reason
        assert len(report.iterations) == 1


    def test_settled_regression_converges(self, rng, monkeypatch):
        """A step that falls below its iterate by more than 1e-9 but by
        less than the stop rule (``rel_tol``) counts as settled: the
        stage keeps the iterate, records the step and ends
        ``converged``, as an ascent that small would."""
        scn = small_scenario()
        traj = random_feasible_trajectory(rng, scn)
        pw = restore_feasibility(scn, traj,
                                 model.equal_power_allocation(scn))
        real = trajectory_scp.make_iterate
        start = real(scn, traj, pw).objective

        def slightly_worse(scn, traj_n, pw):
            it = real(scn, traj_n, pw)
            if traj_n is traj:
                return it
            return dataclasses.replace(it, objective=start - 1e-6)

        monkeypatch.setattr(trajectory_scp, "make_iterate", slightly_worse)
        out, report = scp_optimize(scn, pw, traj)
        assert out is traj
        assert report.status == "converged"
        assert "stall_reason" not in report.extras
        assert report.extras["rejected_step"]["objective"] == start - 1e-6
        assert len(report.iterations) == 1
        assert report.extras["solves"] == 1
        assert report.extras["finish"] == []


class TestInterior:
    """The step's start is strictly feasible whenever its base point is
    accepted, also on the boundary."""

    @pytest.mark.parametrize("where", ["bob", "eve"])
    def test_hover_above_receiver(self, where):
        """Above Bob (Eve) the tangent bound on the squared distance is 0
        for every displacement; the step's domain rows, at
        ``SLACK_LB`` h^2 below it, keep an interior."""
        scn = benchmark_scenario(40.0, 2.0)
        xy = scn.bob_xy if where == "bob" else scn.eve_xy
        traj = Trajectory(np.tile(xy, (scn.n_slots, 1)))
        pw = restore_feasibility(scn, traj,
                                 model.equal_power_allocation(scn), tol=0.0)
        assert start_margin(
            build_subproblem(scn, pw, make_iterate(scn, traj, pw))) > 0.0
        out, report = scp_optimize(scn, pw, traj)
        assert not report.status.startswith("solver_")
        assert len(report.iterations) >= 2
        assert report.final_objective > report.objectives[0]
        assert model.check_causality(scn, out, pw).feasible

    def test_first_step_from_restored_powers_accepted(self):
        """Powers restored by bisection are causal only to within the
        restoring tolerance, more than CAUS_RELAX past the edge.  The first
        step from them is accepted, and its iterate is causal at
        ``feas_tol``."""
        scn = benchmark_scenario(60.0, 1.0, fixed_endpoints=True)
        traj = initial_trajectory(scn)
        pw = restore_feasibility(scn, traj,
                                 model.equal_power_allocation(scn))
        assert model.check_causality(scn, traj, pw).worst > CAUS_RELAX
        iterates = []
        opts = ScpOptions()
        _, report = scp_optimize(scn, pw, traj, opts=opts,
                                 iteration_callback=iterates.append)
        assert report.status == "converged"
        assert len(report.iterations) >= 2
        assert model.check_all(scn, iterates[0], pw,
                               tol=opts.feas_tol)["causality"].feasible


def _fixed_start():
    """The fixed-endpoint benchmark at T = 50 s (1 s slots) from its
    straight line, with the relay scaled back to causality."""
    scn = benchmark_scenario(50.0, 1.0, fixed_endpoints=True)
    traj = initial_trajectory(scn)
    return scn, traj, restore_feasibility(
        scn, traj, model.equal_power_allocation(scn))


def _skip_finish(monkeypatch) -> None:
    """The trajectory stage with its finish skipped: the pure SCP loop."""
    monkeypatch.setattr(trajectory_scp, "_finish",
                        lambda scn, pw, it, opts, report: None)


def _same_run(a, b) -> None:
    """Two trajectory-stage runs gave, bit for bit, the same trajectory,
    objectives, residuals and status."""
    (traj_a, rep_a), (traj_b, rep_b) = a, b
    np.testing.assert_array_equal(traj_a.xy, traj_b.xy)
    assert rep_a.objectives == rep_b.objectives
    assert ([r.kkt_residual for r in rep_a.iterations]
            == [r.kkt_residual for r in rep_b.iterations])
    assert rep_a.status == rep_b.status


class TestTrajectoryFinish:
    """The one solve of the true trajectory problem per stage, after the
    first SCP step that leaves the stage running."""

    def test_true_program_derivatives(self, rng):
        """Gradients, Jacobians and Hessians of the true program, relaxed
        and not, match central differences, including the xy entries of
        each slot's 2 x 2 Hessians."""
        for _ in range(3):
            scn = random_scenario(rng, n_slots=6)
            traj = random_feasible_trajectory(rng, scn)
            pw = restore_feasibility(scn, traj,
                                     model.equal_power_allocation(scn))
            it = make_iterate(scn, traj, pw)
            lay = _Layout(scn, it)
            assert lay.dim == 2 * scn.n_slots + 2 * (scn.n_slots - 1)
            for relax in (True, False):
                prog = trajectory_scp._true_program(scn, it, lay, relax)
                z = rng.uniform(-0.3, 0.3, prog.dim)
                assert verify_derivatives(prog, z) < 1e-5
                H = as_dense(prog.hess_idx, prog.hessian(z), prog.dim)
                # Slot 1 carries no relay power.
                assert np.all(H[lay.i_xi[1:], lay.i_delta[1:]] != 0.0)
                flows = prog.ineqs[1]     # Bob's and Eve's buffers
                Hw = as_dense(flows.hess_idx,
                              flows.hess_weighted(z, np.ones(flows.m)),
                              prog.dim)
                assert np.all(Hw[lay.i_xi, lay.i_delta] != 0.0)

    def test_accepted(self):
        """On a fixed-endpoint config the finish after the first step is
        accepted: at or above that iterate, certified within
        ``solver.KKT_TOL`` on the unrelaxed problem, the last iterate,
        and the stage ends ``converged``."""
        scn, traj, pw = _fixed_start()
        opts = ScpOptions()
        seen = []
        out, report = scp_optimize(scn, pw, traj, opts=opts,
                                   iteration_callback=seen.append)
        [finish] = report.extras["finish"]
        assert finish["accepted"] and finish["reason"] is None
        assert finish["status"] == "optimal" and finish["iterations"] > 0
        assert report.status == "converged"
        assert len(report.iterations) == 3
        step, last = report.iterations[-2:]
        assert last.objective == finish["objective"] >= step.objective
        assert (last.kkt_residual == finish["kkt_residual"]
                <= solver.KKT_TOL)
        assert last.extras["subproblem_kkt"] == finish["subproblem_kkt"]
        assert (report.extras["final_subproblem_kkt"]
                == finish["subproblem_kkt"])
        assert seen[-1] is out
        assert model.secrecy_sum(scn, out, pw) == report.final_objective
        checks = model.check_all(scn, out, pw, tol=opts.feas_tol)
        assert all(v.feasible for v in checks.values())
        assert report.extras["solves"] == 2
        assert report.extras["newton_steps"] == sum(
            r.extras["subproblem_iters"] for r in report.iterations[1:])

    def test_rejected_finish_leaves_scp_unchanged(self, monkeypatch):
        """A finish whose solve ends ``numerical_failure`` is recorded and
        rejected; the stage then gives, bit for bit, what pure SCP gives,
        with one more solve, and tries no second finish."""
        scn, traj, pw = _fixed_start()
        with monkeypatch.context() as m:
            _skip_finish(m)
            scp = scp_optimize(scn, pw, traj)
        reject_trajectory_finish(monkeypatch)
        run = scp_optimize(scn, pw, traj)
        _same_run(run, scp)
        assert len(scp[1].iterations) > 3
        [finish] = run[1].extras["finish"]
        assert finish["status"] == "numerical_failure"
        assert not finish["accepted"]
        assert finish["reason"] == "solve ended numerical_failure"
        assert finish["kkt_residual"] is None
        assert run[1].extras["solves"] == scp[1].extras["solves"] + 1
        assert (run[1].extras["newton_steps"]
                == scp[1].extras["newton_steps"] + finish["iterations"])
        assert run[1].status == "converged"

    def test_counts_every_solve_and_factorization(self, monkeypatch):
        """The stage sums its solves' Newton steps and factorizations,
        the finish's included, in ``report.extras``.  From the hover
        start of the T = 40 s free benchmark the finish of the true
        (nonconvex) problem fails some factorizations, and its record
        holds its own counts."""
        from secrelay.ao import default_starts
        scn = benchmark_scenario(40.0, 2.0)
        traj = default_starts(scn)[-1]
        pw = restore_feasibility(scn, traj, model.equal_power_allocation(scn))
        results, solve = [], trajectory_scp.solve

        def recording_solve(prog, opts):
            results.append(solve(prog, opts))
            return results[-1]

        monkeypatch.setattr(trajectory_scp, "solve", recording_solve)
        _, report = scp_optimize(scn, pw, traj)
        [finish] = report.extras["finish"]
        assert finish["accepted"]
        extras = report.extras
        assert extras["solves"] == len(results) > 1
        assert extras["newton_steps"] == sum(r.iterations for r in results)
        assert extras["factorizations"] == sum(
            r.factorizations for r in results)
        assert extras["failed_factorizations"] == sum(
            r.failed_factorizations for r in results) > 0
        assert (finish["factorizations"], finish["failed_factorizations"]
                ) == (results[-1].factorizations,
                      results[-1].failed_factorizations)
        assert finish["failed_factorizations"] > 0

    def test_start_not_inside_skipped(self, monkeypatch):
        """A finish start that is not strictly inside (here: a buffer
        below its bound) is skipped before any solve, once, and the stage
        runs the pure SCP loop."""
        scn, traj, pw = _fixed_start()
        with monkeypatch.context() as m:
            _skip_finish(m)
            scp = scp_optimize(scn, pw, traj)
        true_program = trajectory_scp._true_program

        def outside(scn, it, lay, relax=True):
            prog = true_program(scn, it, lay, relax)
            if relax:
                prog.strictly_feasible_start[lay.i_bob[0]] = -1.0
            return prog

        monkeypatch.setattr(trajectory_scp, "_true_program", outside)
        solves = []
        solve = trajectory_scp.solve

        def counting_solve(prog, opts):
            solves.append(1)
            return solve(prog, opts)

        monkeypatch.setattr(trajectory_scp, "solve", counting_solve)
        run = scp_optimize(scn, pw, traj)
        _same_run(run, scp)
        assert len(solves) == run[1].extras["solves"]
        assert run[1].extras["solves"] == scp[1].extras["solves"]
        assert run[1].extras["finish"] == [{
            "status": None, "iterations": 0, "factorizations": 0,
            "failed_factorizations": 0, "subproblem_kkt": None,
            "objective": None, "kkt_residual": None, "accepted": False,
            "reason": "start not strictly inside"}]


class TestFinishGuard:
    """``trajectory_scp._finish`` called directly from ``_fixed_start()``:
    each check in its order, the certificate computed only when every
    earlier check passed, and the record, counters and iterate it leaves
    in the report."""

    @staticmethod
    def _run(monkeypatch, opts=None, raise_objective=0.0):
        """``_finish`` from the fixed start's iterate, its objective
        raised by ``raise_objective``.  Returns that iterate, the
        accepted point, the report and the certificates computed."""
        scn, traj, pw = _fixed_start()
        it = make_iterate(scn, traj, pw)
        it = dataclasses.replace(it, objective=it.objective + raise_objective)
        certificates, certify = [], trajectory_scp.certify

        def recording_certify(*args):
            certificates.append(certify(*args))
            return certificates[-1]

        monkeypatch.setattr(trajectory_scp, "certify", recording_certify)
        report = RunReport(stage="trajectory_scp", extras={
            **dict.fromkeys(COUNTERS, 0), "finish": []})
        point = trajectory_scp._finish(scn, pw, it, opts or ScpOptions(),
                                       report)
        return it, point, report, certificates

    @staticmethod
    def _assert_counted(report, rec) -> None:
        """The report counts the finish's one solve, its Newton steps and
        factorizations, and holds its record."""
        assert rec["factorizations"] >= rec["iterations"] > 0
        assert report.extras == {
            "solves": 1, "newton_steps": rec["iterations"],
            "factorizations": rec["factorizations"],
            "failed_factorizations": rec["failed_factorizations"],
            "finish": [rec]}

    def test_accepted(self, monkeypatch):
        it, point, report, certificates = self._run(monkeypatch)
        [rec] = report.extras["finish"]
        assert rec["accepted"] and rec["reason"] is None
        assert rec["status"] == "optimal" and rec["iterations"] > 0
        assert rec["subproblem_kkt"] <= trajectory_scp.FINISH.tol
        assert rec["objective"] == point.objective >= it.objective
        assert certificates == [rec["kkt_residual"]]
        assert rec["kkt_residual"] <= solver.KKT_TOL
        self._assert_counted(report, rec)
        [last] = report.iterations
        assert last.objective == rec["objective"]
        assert last.kkt_residual == rec["kkt_residual"]
        assert last.extras["subproblem_kkt"] == rec["subproblem_kkt"]
        assert last.extras["subproblem_iters"] == rec["iterations"]

    def test_skipped(self, monkeypatch):
        """A start that is not strictly inside (a buffer below its bound)
        is skipped before any solve; the record is kept, nothing is
        counted and no iterate is added."""
        true_program = trajectory_scp._true_program

        def outside(scn, it, lay, relax=True):
            prog = true_program(scn, it, lay, relax)
            if relax:
                prog.strictly_feasible_start[lay.i_bob[0]] = -1.0
            return prog

        solves = []
        monkeypatch.setattr(trajectory_scp, "_true_program", outside)
        monkeypatch.setattr(trajectory_scp, "solve",
                            lambda *args: solves.append(1))
        _, point, report, certificates = self._run(monkeypatch)
        assert point is None and solves == [] and certificates == []
        assert report.extras == {
            "solves": 0, "newton_steps": 0, "factorizations": 0,
            "failed_factorizations": 0, "finish": [{
                "status": None, "iterations": 0, "factorizations": 0,
                "failed_factorizations": 0, "subproblem_kkt": None,
                "objective": None, "kkt_residual": None,
                "accepted": False, "reason": "start not strictly inside"}]}
        assert report.iterations == []

    @pytest.mark.parametrize("case, reason", [
        ("max_iter", "solve ended max_iter"),
        ("infeasible", "infeasible at feas_tol"),
        ("below", "objective below the stage iterate"),
    ])
    def test_rejected_before_the_certificate(self, case, reason,
                                             monkeypatch):
        """A solve cut at one Newton step, a point that fails its check
        (a negative ``feas_tol``) and an iterate whose objective is
        raised above what the finish reaches: each is rejected with its
        reason, counted, and never certified."""
        kw = {}
        if case == "max_iter":
            monkeypatch.setattr(trajectory_scp, "FINISH", dataclasses.replace(
                trajectory_scp.FINISH, max_iter=1))
        elif case == "infeasible":
            kw["opts"] = ScpOptions(feas_tol=-1.0)
        else:
            kw["raise_objective"] = 1e3
        _, point, report, certificates = self._run(monkeypatch, **kw)
        [rec] = report.extras["finish"]
        assert point is None and not rec["accepted"]
        assert rec["reason"] == reason
        assert rec["status"] is not None and rec["objective"] is not None
        assert rec["kkt_residual"] is None and certificates == []
        self._assert_counted(report, rec)
        assert report.iterations == []

    def test_certificate_above_tolerance(self, monkeypatch):
        monkeypatch.setattr(trajectory_scp, "KKT_TOL", 0.0)
        _, point, report, certificates = self._run(monkeypatch)
        [rec] = report.extras["finish"]
        assert point is None and not rec["accepted"]
        assert rec["status"] == "optimal"
        assert rec["reason"] == "certificate above KKT_TOL"
        assert certificates == [rec["kkt_residual"]]
        assert rec["kkt_residual"] > 0.0
        self._assert_counted(report, rec)
        assert report.iterations == []
