"""Channel model, rates and feasibility checks."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (random_feasible_trajectory, random_power,
                      random_scenario, small_scenario)
from secrelay import model
from secrelay.model import PowerAllocation, Scenario, Trajectory


def _constant(scn, xy):
    return Trajectory(np.tile(np.asarray(xy, float), (scn.n_slots, 1)))


class TestChannelState:
    def test_distance_above_alice(self):
        """Right above Alice the link is the altitude long."""
        scn = small_scenario(altitude_h=100.0)
        ch = model.channel_state(scn, _constant(scn, [0.0, 0.0]))
        assert ch.gamma_ar[0] == pytest.approx(scn.ref_snr / 100.0 ** 2,
                                               rel=1e-12)

    def test_gain_at_100m(self):
        scn = small_scenario(altitude_h=100.0, ref_snr=1e8)
        ch = model.channel_state(scn, _constant(scn, [0.0, 0.0]))
        assert ch.gamma_ar[0] == pytest.approx(1e4, rel=1e-12)

    def test_distance_above_eve(self):
        scn = small_scenario(eve_xy=[1000.0, 100.0], altitude_h=100.0)
        ch = model.channel_state(scn, _constant(scn, [1000.0, 100.0]))
        assert ch.gamma_re[0] == pytest.approx(scn.ref_snr / 100.0 ** 2,
                                               rel=1e-12)

    def test_distances_at_least_altitude(self, rng):
        """No gain exceeds the one at the altitude's distance."""
        for _ in range(50):
            scn = random_scenario(rng)
            traj = random_feasible_trajectory(rng, scn)
            ch = model.channel_state(scn, traj)
            top = scn.ref_snr / scn.altitude_h ** 2
            for g in (ch.gamma_ar, ch.gamma_rd, ch.gamma_re):
                assert np.all(g <= top * (1.0 + 1e-12))

    def test_dimension_mismatch(self):
        scn = small_scenario(n_slots=6)
        with pytest.raises(ValueError):
            model.channel_state(scn, Trajectory(np.zeros((5, 2))))

    def test_gamma_matches_bruteforce_1000_scenarios(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            scn = random_scenario(rng, n_slots=4)
            traj = random_feasible_trajectory(rng, scn)
            ch = model.channel_state(scn, traj)
            for k, term in (("ar", scn.alice_xy), ("rd", scn.bob_xy),
                            ("re", scn.eve_xy)):
                for n in range(scn.n_slots):
                    dx = traj.xy[n, 0] - term[0]
                    dy = traj.xy[n, 1] - term[1]
                    d2 = dx * dx + dy * dy + scn.altitude_h ** 2
                    ref = scn.ref_snr / d2
                    got = getattr(ch, f"gamma_{k}")[n]
                    assert abs(got - ref) <= 1e-12 * ref


class TestRateProfile:
    def test_log2_101(self):
        # p * gamma = 0.01 * 1e4 = 100 on the relay-to-destination link.
        scn = small_scenario(bob_xy=[500.0, 0.0], altitude_h=100.0,
                             ref_snr=1e8, n_slots=2)
        traj = _constant(scn, [500.0, 0.0])   # directly above Bob
        pw = PowerAllocation(p_s=[0.0, 0.0], p_r=[0.0, 0.01])
        rp = model.rate_profile(scn, traj, pw)
        assert rp.r_bob[1] == pytest.approx(np.log2(101.0), rel=1e-12)
        assert rp.r_bob[1] == pytest.approx(6.6582, abs=5e-5)

    def test_identical_links_cancel(self, rng):
        scn = small_scenario(eve_xy=[400.0, 0.0])   # Eve on top of Bob
        for _ in range(10):
            traj = random_feasible_trajectory(rng, scn)
            pw = random_power(rng, scn)
            assert model.secrecy_sum(scn, traj, pw) == pytest.approx(0.0,
                                                                     abs=1e-12)

    def test_zero_power_zero_rates(self):
        scn = small_scenario()
        rp = model.rate_profile(scn, _constant(scn, [1.0, 2.0]),
                                model.zero_power_allocation(scn))
        assert np.all(rp.r_relay == 0.0)
        assert np.all(rp.r_bob == 0.0)
        assert np.all(rp.r_eve == 0.0)
        assert rp.secrecy_sum == 0.0

    def test_structural_slots_and_nonnegative_rates(self, rng):
        for _ in range(20):
            scn = random_scenario(rng)
            rp = model.rate_profile(scn, random_feasible_trajectory(rng, scn),
                                    random_power(rng, scn))
            assert rp.r_relay[-1] == 0.0
            assert rp.r_bob[0] == 0.0 and rp.r_eve[0] == 0.0
            for r in (rp.r_relay, rp.r_bob, rp.r_eve):
                assert np.all(r >= 0.0)
            assert rp.secrecy_avg == pytest.approx(
                rp.secrecy_sum / scn.n_slots)


class TestPowerAllocation:
    def test_structural_zero_enforced(self):
        with pytest.raises(ValueError):
            PowerAllocation(p_s=[0.01, 0.01], p_r=[0.0, 0.01])
        with pytest.raises(ValueError):
            PowerAllocation(p_s=[0.01, 0.0], p_r=[0.01, 0.01])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PowerAllocation(p_s=[-0.01, 0.0], p_r=[0.0, 0.01])


class TestInputChecks:
    """Each check on input from outside the package raises
    ``ValueError`` with its own message."""

    @pytest.mark.parametrize("overrides, match", [
        ({"bob_xy": [400.0, 0.0, 0.0]}, r"bob_xy must be a 2-vector, got "
                                        r"shape \(3,\)"),
        ({"eve_xy": [np.nan, 60.0]}, "eve_xy must be finite"),
        ({"n_slots": 1}, "n_slots must be an integer >= 2"),
        ({"n_slots": 2.5}, "n_slots must be an integer >= 2"),
        ({"v_max": 0.0}, "v_max must be > 0"),
        ({"p_bar_r": -1e-3}, "average power limits must be >= 0"),
        ({"bob_xy": [0.0, 0.0]}, "bob_xy must differ from alice_xy"),
        ({"slot_len": np.inf}, "slot_len must be finite"),
        ({"altitude_h": np.inf}, "altitude_h must be finite"),
        ({"v_max": np.inf}, "v_max must be finite"),
        ({"ref_snr": np.nan}, "ref_snr must be finite"),
        ({"ref_snr": np.inf}, "ref_snr must be finite"),
        ({"p_bar_s": np.nan}, "average power limits must be finite"),
        ({"p_bar_r": np.inf}, "average power limits must be finite"),
        ({"p_bar_s": -np.inf}, "average power limits must be finite"),
        ({"n_slots": "6"}, "n_slots must be an integer >= 2"),
        ({"n_slots": np.inf}, "n_slots must be an integer >= 2"),
    ])
    def test_scenario(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            small_scenario(**overrides)

    @pytest.mark.parametrize("xy, match", [
        (np.zeros((3, 3)), r"xy must have shape \(N, 2\), got \(3, 3\)"),
        ([[0.0, np.inf], [1.0, 1.0]], "trajectory coordinates must be finite"),
    ])
    def test_trajectory(self, xy, match):
        with pytest.raises(ValueError, match=match):
            Trajectory(xy)

    @pytest.mark.parametrize("p_s, p_r, match", [
        ([0.01, 0.0], [0.0, 0.01, 0.0], "p_s and p_r must have equal length"),
        ([np.nan, 0.0], [0.0, 0.01], "powers must be finite"),
    ])
    def test_power_allocation(self, p_s, p_r, match):
        with pytest.raises(ValueError, match=match):
            PowerAllocation(p_s=p_s, p_r=p_r)


class TestMobility:
    def test_straight_line_feasible(self):
        scn = small_scenario(n_slots=5, start_xy=[0.0, 0.0],
                             end_xy=[300.0, 0.0], v_max=80.0)
        t = np.arange(1, 6) / 6.0
        traj = Trajectory(np.stack([300.0 * t, np.zeros(5)], axis=1))
        assert model.check_mobility(scn, traj).feasible

    def test_overlong_step_slack(self):
        scn = small_scenario(n_slots=2, v_max=80.0, slot_len=1.0)
        v = scn.slot_travel
        traj = Trajectory([[0.0, 0.0], [v + 1.0, 0.0]])
        verdict = model.check_mobility(scn, traj)
        assert not verdict.feasible
        assert verdict.slacks["steps"][0] == pytest.approx(-(2 * v + 1.0))

    def test_degenerate_constant_trajectory(self):
        # Smallest legal instance: both anchors on the hover point.
        scn = small_scenario(n_slots=2, start_xy=[10.0, 5.0],
                             end_xy=[10.0, 5.0])
        traj = _constant(scn, [10.0, 5.0])
        assert model.check_mobility(scn, traj).feasible

    def test_free_endpoints_skip_anchor_slacks(self):
        scn = small_scenario()
        verdict = model.check_mobility(scn, _constant(scn, [5000.0, 0.0]))
        assert verdict.slacks["start"] is None
        assert verdict.slacks["end"] is None
        assert verdict.feasible


class TestCausality:
    def test_silent_relay_feasible(self, rng):
        scn = small_scenario()
        pw = PowerAllocation(p_s=np.append(np.full(5, 0.01), 0.0),
                             p_r=np.zeros(6))
        traj = random_feasible_trajectory(rng, scn)
        verdict = model.check_causality(scn, traj, pw)
        assert verdict.feasible
        assert np.all(verdict.slacks["bob_gaps"] <= 0.0)
        assert np.all(verdict.slacks["eve_gaps"] <= 0.0)

    def test_two_slot_gap_of_one(self):
        # First slot loads 3 bits, second slot tries to deliver 4.
        scn = small_scenario(n_slots=2, altitude_h=100.0, ref_snr=1e8,
                             bob_xy=[500.0, 0.0])
        traj = Trajectory([[0.0, 0.0], [0.0, 0.0]])
        ch = model.channel_state(scn, traj)
        p_s1 = (2.0 ** 3 - 1.0) / ch.gamma_ar[0]
        p_r2 = (2.0 ** 4 - 1.0) / ch.gamma_rd[1]
        pw = PowerAllocation(p_s=[p_s1, 0.0], p_r=[0.0, p_r2])
        verdict = model.check_causality(scn, traj, pw)
        assert not verdict.feasible
        assert verdict.slacks["bob_gaps"][0] == pytest.approx(1.0, abs=1e-9)

    def test_tight_case_zero_gaps(self):
        # Deliver in slot n exactly what was received in slot n-1.
        scn = small_scenario(n_slots=4, ref_snr=1e8, altitude_h=100.0,
                             eve_xy=[5000.0, 5000.0])  # Eve link weaker
        traj = _constant(scn, [100.0, 0.0])
        ch = model.channel_state(scn, traj)
        rng = np.random.default_rng(3)
        p_s = np.append(rng.uniform(0.001, 0.02, 3), 0.0)
        r_in = np.log2(1.0 + p_s * ch.gamma_ar)
        p_r = np.zeros(4)
        p_r[1:] = (2.0 ** r_in[:-1] - 1.0) / ch.gamma_rd[1:]
        pw = PowerAllocation(p_s=p_s, p_r=p_r)
        verdict = model.check_causality(scn, traj, pw)
        assert verdict.feasible
        assert np.max(np.abs(verdict.slacks["bob_gaps"])) < 1e-9


def _gaps_by_rates(scn, traj, pw):
    """Causality gaps (Bob's, Eve's) from the rate profile, as prefix
    sums of the per-slot rates."""
    rp = model.rate_profile(scn, traj, pw)
    recv = np.cumsum(rp.r_relay)[:-1]
    return (np.cumsum(rp.r_bob[1:]) - recv, np.cumsum(rp.r_eve[1:]) - recv)


class TestCausalityGaps:
    def test_equal_to_check_causality_bit_for_bit(self, rng):
        for _ in range(200):
            scn = random_scenario(rng, n_slots=int(rng.integers(2, 300)))
            traj = random_feasible_trajectory(rng, scn)
            pw = random_power(rng, scn)
            ch = model.channel_state(scn, traj)
            gaps = model.causality_gaps(ch, pw.p_r,
                                        model.received_prefix(ch, pw.p_s))
            verdict = model.check_causality(scn, traj, pw)
            assert gaps.shape == (2, scn.n_slots - 1)
            assert np.array_equal(gaps[0], verdict.slacks["bob_gaps"])
            assert np.array_equal(gaps[1], verdict.slacks["eve_gaps"])
            bob, eve = _gaps_by_rates(scn, traj, pw)
            assert np.array_equal(gaps[0], bob)
            assert np.array_equal(gaps[1], eve)
            worst = max(np.max(bob, initial=0.0), np.max(eve, initial=0.0))
            assert verdict.worst == worst
            assert verdict.feasible == (worst <= model.DEFAULT_FEAS_TOL)

    def test_slot_mismatch_raises(self):
        scn = small_scenario(n_slots=6)
        traj = _constant(scn, [100.0, 0.0])
        short = model.equal_power_allocation(small_scenario(n_slots=5))
        with pytest.raises(ValueError, match="power allocation has 5 slots"):
            model.check_causality(scn, traj, short)
        with pytest.raises(ValueError, match="trajectory has 5 slots"):
            model.check_causality(scn, Trajectory(np.zeros((5, 2))),
                                  model.equal_power_allocation(scn))
        with pytest.raises(ValueError, match="power allocation has 5 slots"):
            model.check_power_budget(scn, short)
        with pytest.raises(ValueError, match="trajectory has 5 slots"):
            model.check_mobility(scn, Trajectory(np.zeros((5, 2))))


class TestPowerBudget:
    def test_equal_allocation_zero_slack(self):
        scn = small_scenario()
        verdict = model.check_power_budget(
            scn, model.equal_power_allocation(scn))
        assert verdict.feasible
        assert verdict.slacks["source"] == pytest.approx(0.0, abs=1e-15)
        assert verdict.slacks["relay"] == pytest.approx(0.0, abs=1e-15)

    def test_zero_feasible(self):
        scn = small_scenario()
        assert model.check_power_budget(
            scn, model.zero_power_allocation(scn)).feasible

    def test_one_percent_overload_infeasible(self):
        scn = small_scenario()
        n = scn.n_slots
        p_r = np.full(n, 1.01 * n * scn.p_bar_r / (n - 1))
        p_r[0] = 0.0
        pw = PowerAllocation(p_s=np.zeros(n), p_r=p_r)
        assert not model.check_power_budget(scn, pw).feasible


@st.composite
def _instances(draw):
    seed = draw(st.integers(0, 2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    scn = random_scenario(rng)
    return scn, random_feasible_trajectory(rng, scn), random_power(rng, scn)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(_instances(), st.floats(1e-3, 1e3))
    def test_snr_power_rescale_invariance(self, inst, c):
        scn, traj, pw = inst
        rp = model.rate_profile(scn, traj, pw)
        scn2 = Scenario(
            bob_xy=scn.bob_xy, eve_xy=scn.eve_xy, altitude_h=scn.altitude_h,
            n_slots=scn.n_slots, slot_len=scn.slot_len, v_max=scn.v_max,
            ref_snr=scn.ref_snr * c, p_bar_s=scn.p_bar_s / c,
            p_bar_r=scn.p_bar_r / c)
        pw2 = PowerAllocation(p_s=pw.p_s / c, p_r=pw.p_r / c)
        rp2 = model.rate_profile(scn2, traj, pw2)
        np.testing.assert_allclose(rp2.r_relay, rp.r_relay, rtol=1e-10,
                                   atol=1e-12)
        np.testing.assert_allclose(rp2.r_bob, rp.r_bob, rtol=1e-10,
                                   atol=1e-12)
        assert rp2.secrecy_sum == pytest.approx(rp.secrecy_sum, rel=1e-10,
                                                abs=1e-10)
        v1 = model.check_causality(scn, traj, pw)
        v2 = model.check_causality(scn2, traj, pw2)
        assert v1.feasible == v2.feasible

    @settings(max_examples=60, deadline=None)
    @given(_instances(), st.integers(1, 100), st.floats(0.01, 0.99))
    def test_closer_to_bob_never_hurts(self, inst, slot_seed, shrink):
        scn, traj, pw = inst
        n = slot_seed % scn.n_slots
        xy = traj.xy.copy()
        xy[n] = scn.bob_xy + shrink * (xy[n] - scn.bob_xy)
        rp = model.rate_profile(scn, traj, pw)
        rp2 = model.rate_profile(scn, Trajectory(xy), pw)
        assert rp2.r_bob[n] >= rp.r_bob[n] - 1e-12

    @settings(max_examples=40, deadline=None)
    @given(_instances(), st.integers(0, 2 ** 31 - 1))
    def test_permutation_of_tail_slots(self, inst, perm_seed):
        scn, traj, pw = inst
        n = scn.n_slots
        perm = np.concatenate(
            [[0], 1 + np.random.default_rng(perm_seed).permutation(n - 1)])
        traj_p = Trajectory(traj.xy[perm])
        pw_p = PowerAllocation(p_s=np.append(pw.p_s[perm][:-1], 0.0),
                               p_r=pw.p_r[perm])
        # Aggregate secrecy only sums per-slot terms over slots 2..N: the
        # joint shuffle moves p_s mass between slots but the secrecy sum
        # only involves (traj, p_r) pairs, which travel together.
        s1 = model.secrecy_sum(scn, traj, pw)
        s2 = model.secrecy_sum(scn, traj_p, pw_p)
        assert s2 == pytest.approx(s1, rel=1e-9, abs=1e-9)

    def test_causality_not_permutation_invariant(self):
        # Loading late and sending early flips the verdict.
        scn = small_scenario(n_slots=3, ref_snr=1e8, altitude_h=100.0)
        traj = _constant(scn, [50.0, 0.0])
        pw = PowerAllocation(p_s=[1e-4, 0.02, 0.0], p_r=[0.0, 0.0, 0.01])
        assert model.check_causality(scn, traj, pw).feasible
        # Swap slots 2 and 3: the relay now transmits before loading enough.
        pw_sw = PowerAllocation(p_s=[1e-4, 0.0, 0.0], p_r=[0.0, 0.01, 0.0])
        s_orig = model.secrecy_sum(scn, traj, pw)
        s_sw = model.secrecy_sum(scn, traj, pw_sw)
        assert s_sw == pytest.approx(s_orig, rel=1e-12)
        assert not model.check_causality(scn, traj, pw_sw).feasible
