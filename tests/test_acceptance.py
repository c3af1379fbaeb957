"""End-to-end acceptance battery.

Each test covers one contract-level criterion and prints a single
verdict line (CRITERION <n>: PASS/FAIL) in addition to the pytest
outcome.  Heavy runs are shared through module-scoped fixtures; the
determinism criterion re-executes them and compares artifact bytes.
"""
import time

import numpy as np
import pytest

from conftest import (power_program, random_feasible_trajectory,
                      random_scenario, rate_forms, true_rates)
from numerics import verify_derivatives
from secrelay import cli, model, solver
from secrelay.ao import ao_optimize
from secrelay.baselines import data_ferry, static_relay_best, transit_slot_count
from secrelay.cli import benchmark_scenario
from secrelay.model import (PowerAllocation, Scenario, Trajectory,
                            restore_feasibility)
from secrelay.power_dc import dc_allocate
from secrelay.trajectory_scp import (ScpOptions, build_subproblem,
                                     initial_trajectory, make_iterate,
                                     scp_optimize)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"CRITERION {num} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# Shared heavy runs


def _run_scp_benchmark():
    """Fixed-endpoint benchmark: 100 slots, equal powers, straight start."""
    scn = benchmark_scenario(horizon_s=100.0, slot_len_s=1.0,
                             fixed_endpoints=True)
    traj0 = initial_trajectory(scn)
    pw = restore_feasibility(scn, traj0, model.equal_power_allocation(scn))
    t0 = time.perf_counter()
    traj, report = scp_optimize(scn, pw, traj0, opts=ScpOptions(max_iter=50))
    wall = time.perf_counter() - t0
    return {"scn": scn, "pw": pw, "traj0": traj0, "traj": traj,
            "report": report, "wall": wall}


def _run_dc_battery():
    """20 random fixed-trajectory power runs plus a 2-slot grid oracle."""
    rng = np.random.default_rng(20240903)
    t0 = time.perf_counter()
    runs = []
    for _ in range(20):
        scn = random_scenario(rng)
        traj = random_feasible_trajectory(rng, scn)
        pw0 = restore_feasibility(scn, traj,
                                  model.equal_power_allocation(scn))
        pw, report = dc_allocate(scn, traj, pw_0=pw0)
        runs.append({"scn": scn, "traj": traj, "pw": pw, "report": report})

    # Two-slot toy: one receive slot, one transmit slot, against a
    # 1000x1000 brute force over the budget box with causality enforced.
    scn = Scenario(bob_xy=[200.0, 0.0], eve_xy=[30.0, 250.0],
                   altitude_h=60.0, n_slots=2, slot_len=1.0, v_max=50.0,
                   ref_snr=5e6, p_bar_s=0.02, p_bar_r=0.02)
    traj = Trajectory([[60.0, 0.0], [120.0, 0.0]])
    ch = model.channel_state(scn, traj)
    gar, grd, gre = ch.gamma_ar[0], ch.gamma_rd[1], ch.gamma_re[1]
    ps = np.linspace(0.0, 2 * scn.p_bar_s, 1000)
    pr = np.linspace(0.0, 2 * scn.p_bar_r, 1000)
    PS, PR = np.meshgrid(ps, pr, indexing="ij")
    r_in = np.log2(1.0 + PS * gar)
    r_bob = np.log2(1.0 + PR * grd)
    r_eve = np.log2(1.0 + PR * gre)
    feas = (r_bob <= r_in + 1e-12) & (r_eve <= r_in + 1e-12)
    oracle = float(np.max(np.where(feas, r_bob - r_eve, -np.inf)))
    pw, report = dc_allocate(scn, traj)
    toy = {"scn": scn, "traj": traj, "pw": pw, "report": report,
           "oracle": oracle, "value": model.secrecy_sum(scn, traj, pw)}
    wall = time.perf_counter() - t0
    return {"runs": runs, "toy": toy, "wall": wall}


def _run_family():
    """Free-endpoint benchmark family over four horizons, 2 s slots."""
    t0 = time.perf_counter()
    out = {}
    for horizon in (40.0, 70.0, 100.0, 130.0):
        scn = benchmark_scenario(horizon_s=horizon, slot_len_s=2.0)
        traj, pw, report = ao_optimize(scn)
        st = static_relay_best(scn)
        fe = data_ferry(scn)
        out[horizon] = {"scn": scn, "traj": traj, "pw": pw,
                        "ao": report.final_objective,
                        "static": st.objective, "ferry": fe.objective}
    out["wall"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def scp_run():
    return _run_scp_benchmark()


@pytest.fixture(scope="module")
def dc_battery():
    return _run_dc_battery()


@pytest.fixture(scope="module")
def family():
    return _run_family()


# ---------------------------------------------------------------------------
# 1. Surrogate soundness


def test_criterion_1_lower_bound_soundness():
    t0 = time.perf_counter()
    n = 10_000
    rng = np.random.default_rng(20240901)
    scn = Scenario(bob_xy=[2000.0, 0.0], eve_xy=[1000.0, 100.0],
                   altitude_h=100.0, n_slots=n, slot_len=1.0, v_max=50.0,
                   ref_snr=1e8, p_bar_s=0.01, p_bar_r=0.01)
    xy = rng.uniform([-200.0, -500.0], [2200.0, 500.0], (n, 2))
    disp = rng.uniform(-80.0, 80.0, (n, 2))
    p_s = rng.uniform(0.0, 0.05, n)
    p_r = rng.uniform(0.0, 0.05, n)
    p_s[-1] = 0.0
    p_r[0] = 0.0
    pw = PowerAllocation(p_s=p_s, p_r=p_r)
    it = make_iterate(scn, Trajectory(xy), pw)
    delta, xi = disp[:, 0], disp[:, 1]

    # lower <= exact <= upper, the upper bound on its domain (w > 0).
    r_disp = true_rates(scn, Trajectory(xy + disp), pw)
    forms = rate_forms(scn, it, delta, xi)
    scale = 1.0 + np.abs(r_disp)
    dom = forms["upper"].w > 0.0
    rate_sound = bool(
        np.allclose(forms["exact"].r, r_disp, rtol=1e-12, atol=1e-12)
        and np.all(forms["lower"].r <= r_disp + 1e-9 * scale)
        and np.all(r_disp[dom] <= forms["upper"].r[dom] + 1e-9 * scale[dom])
        and dom.mean() > 0.9)

    # The upper form's w lower-bounds the squared distance where the
    # relay transmits.
    on = np.broadcast_to(p_r > 0.0, (2, n))
    w_lb, w_true = forms["upper"].w[2:][on], forms["exact"].w[2:][on]
    dist_sound = bool(np.all(w_lb <= w_true * (1 + 1e-9) + 1e-9))

    # Equality at zero displacement, in value and gradient.
    zero = np.zeros(n)
    forms0 = rate_forms(scn, it, zero, zero)
    r0 = true_rates(scn, Trajectory(xy), pw)
    tight = all(np.allclose(f.r, r0, rtol=1e-12) for f in forms0.values())
    grads_ok = all(np.allclose(forms0[f].grad, forms0["exact"].grad,
                               rtol=1e-12, atol=1e-15)
                   for f in ("lower", "upper"))

    # Gradient match at zero displacement (central differences).
    h = 1e-3
    for axis in (0, 1):
        e = np.zeros((n, 2))
        e[:, axis] = h
        fd = (true_rates(scn, Trajectory(xy + e), pw)
              - true_rates(scn, Trajectory(xy - e), pw)) / (2 * h)
        ref = 1.0 + np.abs(fd)
        plus = rate_forms(scn, it, e[:, 0], e[:, 1])
        minus = rate_forms(scn, it, -e[:, 0], -e[:, 1])
        grads_ok = grads_ok and bool(
            np.all(np.abs(forms0["exact"].grad[axis] - fd) <= 1e-5 * ref))
        for f in ("lower", "upper"):
            sg = (plus[f].r - minus[f].r) / (2 * h)
            grads_ok = grads_ok and bool(np.all(np.abs(sg - fd) <= 1e-5 * ref))

    wall = time.perf_counter() - t0
    ok = rate_sound and dist_sound and tight and grads_ok and wall < 10.0
    _verdict(1, "lower-bound soundness", ok,
             f"10^4 triples, sound={rate_sound and dist_sound}, "
             f"tight={tight}, grads={grads_ok}, {wall:.1f}s")


# ---------------------------------------------------------------------------
# 2. SCP monotone ascent on the fixed-endpoint benchmark


def test_criterion_2_scp_monotone_ascent(scp_run):
    report = scp_run["report"]
    objs = report.objectives
    monotone = all(b >= a - 1e-6 for a, b in zip(objs, objs[1:]))
    converged = report.status == "converged"
    iters = len(objs) - 1
    initial, final = objs[0], objs[-1]
    improved = final - initial >= 0.1 * max(abs(initial), 1e-12)
    ok = (monotone and converged and iters <= 50 and improved
          and scp_run["wall"] < 300.0)
    _verdict(2, "SCP monotone ascent", ok,
             f"{initial:.2f} -> {final:.2f} in {iters} iters, "
             f"status={report.status}, {scp_run['wall']:.1f}s")


# ---------------------------------------------------------------------------
# 3. Power optimum + feasibility, with a brute-force cross-check


def test_criterion_3_dc_ascent_and_oracle(dc_battery):
    """The power stage's one solve is the optimum of a convex program:
    every output passes the checks, and on the two-slot toy it matches
    the grid oracle."""
    feasible = True
    for run in dc_battery["runs"]:
        for rec in run["report"].iterations:
            if rec.feasible is not None:
                feasible = feasible and rec.feasible
        checks = model.check_all(run["scn"], run["traj"], run["pw"],
                                 tol=1e-6)
        feasible = feasible and all(v.feasible for v in checks.values())
    toy = dc_battery["toy"]
    oracle_ok = abs(toy["value"] - toy["oracle"]) <= 1e-3
    ok = feasible and oracle_ok and dc_battery["wall"] < 120.0
    _verdict(3, "power optimum + grid oracle", ok,
             f"20 runs feasible={feasible}, "
             f"toy {toy['value']:.6f} vs oracle {toy['oracle']:.6f}, "
             f"{dc_battery['wall']:.1f}s")


# ---------------------------------------------------------------------------
# 4. Solver certification


def test_criterion_4_solver_certification(scp_run, dc_battery):
    # An accepted trajectory finish is the last SCP iterate; its
    # ``kkt_residual`` is the finish's certificate on the true problem,
    # which ``trajectory_scp._finish`` accepts up to ``KKT_TOL``.  Every
    # other iterate after the start is an SCP step with its subproblem
    # residual.
    scp = scp_run["report"]
    n_steps = len(scp.iterations) - sum(
        rec["accepted"] for rec in scp.extras["finish"])
    kkts = [rec.extras["subproblem_kkt"]
            for rec in scp.iterations[1:n_steps]]
    certs = [rec.kkt_residual for rec in scp.iterations[n_steps:]]
    cert_ok = all(c <= solver.KKT_TOL for c in certs)
    for run in dc_battery["runs"] + [dc_battery["toy"]]:
        for rec in run["report"].iterations:
            sub = rec.extras.get("subproblem_kkt")
            if sub is not None:
                kkts.append(sub)
    kkt_ok = bool(kkts) and max(kkts) <= 1e-6

    rng = np.random.default_rng(20240904)
    worst = {"power": 0.0, "trajectory": 0.0}
    scn = Scenario(bob_xy=[400.0, 0.0], eve_xy=[200.0, 60.0],
                   altitude_h=50.0, n_slots=6, slot_len=1.0, v_max=80.0,
                   ref_snr=1e7, p_bar_s=0.01, p_bar_r=0.01)
    traj = Trajectory(np.tile([150.0, -30.0], (scn.n_slots, 1)))
    pw = restore_feasibility(scn, traj, model.equal_power_allocation(scn))
    prog_p = power_program(scn, traj)
    it = make_iterate(scn, traj, pw)
    prog_t = build_subproblem(scn, pw, it)
    for _ in range(100):
        zp = rng.uniform(0.05, 1.5, prog_p.dim)
        worst["power"] = max(worst["power"], verify_derivatives(prog_p, zp))
        zt = rng.uniform(-0.4, 0.4, prog_t.dim)
        worst["trajectory"] = max(worst["trajectory"],
                                  verify_derivatives(prog_t, zt))
    deriv_ok = max(worst.values()) <= 1e-5

    ok = kkt_ok and cert_ok and deriv_ok
    _verdict(4, "solver certification", ok,
             f"{len(kkts)} subproblems, max KKT {max(kkts):.2e}, "
             f"{len(certs)} finish certificates, max "
             f"{max(certs, default=0.0):.2e}, "
             f"deriv err power {worst['power']:.2e} / "
             f"traj {worst['trajectory']:.2e}")


# ---------------------------------------------------------------------------
# 5. Joint brute-force oracle at tiny scale


def _tiny_scenario(rng) -> Scenario:
    d = float(rng.uniform(60.0, 200.0))
    eve = [float(rng.uniform(0.2 * d, 0.8 * d)),
           float(rng.uniform(0.1 * d, 0.5 * d))]
    return Scenario(bob_xy=[d, 0.0], eve_xy=eve,
                    altitude_h=float(rng.uniform(15.0, 50.0)),
                    n_slots=3, slot_len=1.0, v_max=10.0 * d,
                    ref_snr=float(10.0 ** rng.uniform(4.5, 6.0)),
                    p_bar_s=float(10.0 ** rng.uniform(-2.5, -1.5)),
                    p_bar_r=float(10.0 ** rng.uniform(-2.5, -1.5)))


class _TinyOracle:
    """Joint brute force for 3 slots: 21 candidate positions on the
    source-destination axis per slot, 11-point per-slot power grids,
    all causality and budget constraints enforced exactly."""

    def __init__(self, scn: Scenario):
        self.scn = scn
        d = float(np.linalg.norm(scn.bob_xy - scn.alice_xy))
        self.xs = np.linspace(0.0, d, 21)
        h2 = scn.altitude_h ** 2
        pos = np.stack([self.xs, np.zeros(21)], axis=1)
        self.g_ar = scn.ref_snr / (h2 + np.sum((pos - scn.alice_xy) ** 2, 1))
        self.g_rd = scn.ref_snr / (h2 + np.sum((pos - scn.bob_xy) ** 2, 1))
        self.g_re = scn.ref_snr / (h2 + np.sum((pos - scn.eve_xy) ** 2, 1))
        self.ps_grid = np.linspace(0.0, 3 * scn.p_bar_s, 11)
        self.pr_grid = np.linspace(0.0, 3 * scn.p_bar_r, 11)
        # Budget-feasible power pairs (slot powers sum to <= N * budget).
        s1, s2 = np.meshgrid(self.ps_grid, self.ps_grid, indexing="ij")
        keep = (s1 + s2 <= 3 * scn.p_bar_s + 1e-15)
        self.s_pairs = np.stack([s1[keep], s2[keep]], axis=1)
        r2, r3 = np.meshgrid(self.pr_grid, self.pr_grid, indexing="ij")
        keep = (r2 + r3 <= 3 * scn.p_bar_r + 1e-15)
        self.r_pairs = np.stack([r2[keep], r3[keep]], axis=1)

    def _caps(self, i: int, j: int):
        """Received-prefix caps (n=2 and n=3) for every source pair."""
        a2 = np.log2(1.0 + self.s_pairs[:, 0] * self.g_ar[i])
        a3 = a2 + np.log2(1.0 + self.s_pairs[:, 1] * self.g_ar[j])
        return a2, a3

    def _transmit_tables(self, j: int, k: int):
        """Per relay pair: worst prefix demands and secrecy objective."""
        b2 = np.log2(1.0 + self.r_pairs[:, 0] * self.g_rd[j])
        e2 = np.log2(1.0 + self.r_pairs[:, 0] * self.g_re[j])
        b3 = np.log2(1.0 + self.r_pairs[:, 1] * self.g_rd[k])
        e3 = np.log2(1.0 + self.r_pairs[:, 1] * self.g_re[k])
        m2 = np.maximum(b2, e2)
        m3 = np.maximum(b2 + b3, e2 + e3)
        return m2, m3, (b2 - e2) + (b3 - e3)

    def best_given(self, i: int, j: int, k: int, p_s1: float,
                   p_s2: float) -> float:
        """Best grid relay powers at fixed positions and source powers."""
        a2 = float(np.log2(1.0 + p_s1 * self.g_ar[i]))
        a3 = a2 + float(np.log2(1.0 + p_s2 * self.g_ar[j]))
        m2, m3, obj = self._transmit_tables(j, k)
        feas = (m2 <= a2 + 1e-9) & (m3 <= a3 + 1e-9)
        return float(np.max(obj[feas]))  # all-zero pair is always feasible

    def best(self) -> float:
        best = 0.0
        tables = [self._transmit_tables(j, k)
                  for j in range(21) for k in range(21)]
        for i in range(21):
            for j in range(21):
                a2, a3 = self._caps(i, j)
                # Staircase: sort source pairs by descending n=2 cap and
                # keep the running maximum of the n=3 cap, so a demand
                # pair (m2, m3) is admissible iff some prefix dominates.
                order = np.argsort(-a2, kind="stable")
                a2s = a2[order]
                a3max = np.maximum.accumulate(a3[order])
                for k in range(21):
                    m2, m3, obj = tables[j * 21 + k]
                    # Number of source pairs with cap2 >= m2.
                    pos = np.searchsorted(-a2s, -(m2 - 1e-9), side="right")
                    feas = pos > 0
                    a3_best = np.where(feas, a3max[np.minimum(pos, len(a3max)) - 1],
                                       -np.inf)
                    feas &= m3 <= a3_best + 1e-9
                    if np.any(feas):
                        best = max(best, float(np.max(obj[feas])))
        return best

    def snap(self, traj: Trajectory, pw: PowerAllocation):
        """Project a continuous solution into the oracle's grid: nearest
        candidate position per slot, source powers rounded down."""
        idx = [int(np.argmin(np.sum((np.stack([self.xs, np.zeros(21)], 1)
                                     - traj.xy[n]) ** 2, axis=1)))
               for n in range(3)]
        snap_ps = [float(self.ps_grid[np.searchsorted(
            self.ps_grid, p + 1e-15, side="right") - 1]) for p in pw.p_s[:2]]
        return self.best_given(idx[0], idx[1], idx[2], *snap_ps)


def test_criterion_5_tiny_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240905)
    hits = 0
    sound = True
    details = []
    for _ in range(10):
        scn = _tiny_scenario(rng)
        oracle = _TinyOracle(scn)
        oracle_best = oracle.best()
        traj, pw, report = ao_optimize(scn)
        ao_obj = report.final_objective
        snapped = oracle.snap(traj, pw)
        sound = sound and (oracle_best >= snapped - 1e-6)
        if ao_obj >= 0.9 * oracle_best - 1e-9:
            hits += 1
        details.append(f"{ao_obj:.4f}/{oracle_best:.4f}")
    wall = time.perf_counter() - t0
    ok = sound and hits >= 8 and wall < 600.0
    _verdict(5, "tiny-scale oracle equivalence", ok,
             f"sound={sound}, >=90% on {hits}/10, {wall:.1f}s; "
             + " ".join(details))


# ---------------------------------------------------------------------------
# 6. Benchmark-family ordering against the baselines


def test_criterion_6_baseline_ordering(family):
    ordering = True
    details = []
    for horizon in (40.0, 70.0, 100.0, 130.0):
        run = family[horizon]
        ordering = ordering and (run["ao"] >= run["ferry"] - 1e-6
                                 and run["ferry"] >= -1e-9
                                 and run["ao"] >= run["static"] - 1e-6)
        details.append(f"T={horizon:g}: ao {run['ao']:.1f} "
                       f"static {run['static']:.1f} ferry {run['ferry']:.1f}")
    # Static must win over ferrying when transit eats > 80% of the
    # horizon; that first happens at the shortest horizon.
    short = family[40.0]
    frac = (transit_slot_count(short["scn"])
            / short["scn"].n_slots)
    static_wins = frac > 0.8 and short["static"] >= short["ferry"] - 1e-9
    ok = ordering and static_wins and family["wall"] < 1200.0
    _verdict(6, "baseline ordering", ok,
             f"{'; '.join(details)}; transit frac {frac:.0%}, "
             f"{family['wall']:.1f}s")


# ---------------------------------------------------------------------------
# 7. Determinism of the heavy runs


def test_criterion_7_determinism(scp_run, dc_battery, family, tmp_path):
    def dump(name, scn, traj, pw):
        path = tmp_path / name
        cli.write_trajectory_csv(path, scn, traj, pw)
        return path.read_bytes()

    same = True
    rerun2 = _run_scp_benchmark()
    same = same and (dump("a2.csv", scp_run["scn"], scp_run["traj"],
                          scp_run["pw"])
                     == dump("b2.csv", rerun2["scn"], rerun2["traj"],
                             rerun2["pw"]))

    rerun3 = _run_dc_battery()
    for n, (x, y) in enumerate(zip(dc_battery["runs"] + [dc_battery["toy"]],
                                   rerun3["runs"] + [rerun3["toy"]])):
        same = same and (dump(f"a3_{n}.csv", x["scn"], x["traj"], x["pw"])
                         == dump(f"b3_{n}.csv", y["scn"], y["traj"],
                                 y["pw"]))

    rerun6 = _run_family()
    for horizon in (40.0, 70.0, 100.0, 130.0):
        x, y = family[horizon], rerun6[horizon]
        same = same and (dump(f"a6_{horizon:g}.csv", x["scn"], x["traj"],
                              x["pw"])
                         == dump(f"b6_{horizon:g}.csv", y["scn"], y["traj"],
                                 y["pw"]))
    _verdict(7, "determinism", same, "criteria 2, 3, 6 re-run byte-compare")
