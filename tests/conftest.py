"""Shared helpers for the test suite."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from secrelay.model import (PowerAllocation, Scenario, Trajectory,
                            benchmark_scenario, equal_power_allocation,
                            restore_feasibility)
from secrelay.power_dc import build_dc_surrogate
from secrelay.trajectory_scp import (build_subproblem, initial_trajectory,
                                     make_iterate)


def small_scenario(**overrides) -> Scenario:
    """A hand-sized instance with positive secrecy potential."""
    base = dict(bob_xy=[400.0, 0.0], eve_xy=[200.0, 60.0],
                altitude_h=50.0, n_slots=6, slot_len=1.0, v_max=80.0,
                ref_snr=1e7, p_bar_s=0.01, p_bar_r=0.01)
    base.update(overrides)
    return Scenario(**base)


def random_scenario(rng: np.random.Generator, n_slots=None,
                    free_endpoints=True) -> Scenario:
    n = int(n_slots if n_slots is not None else rng.integers(4, 12))
    d = float(rng.uniform(200.0, 900.0))
    eve = [float(rng.uniform(0.2 * d, 0.8 * d)),
           float(rng.uniform(-0.3 * d, 0.3 * d))]
    kw = {}
    if not free_endpoints:
        kw = {"start_xy": [0.1 * d, 0.0], "end_xy": [0.9 * d, 0.0]}
    return Scenario(
        bob_xy=[d, 0.0], eve_xy=eve,
        altitude_h=float(rng.uniform(40.0, 150.0)),
        n_slots=n, slot_len=1.0,
        v_max=float(rng.uniform(0.3, 1.2)) * d / n * 3,
        ref_snr=float(10.0 ** rng.uniform(6.5, 8.5)),
        p_bar_s=float(10.0 ** rng.uniform(-3.0, -1.5)),
        p_bar_r=float(10.0 ** rng.uniform(-3.0, -1.5)),
        **kw)


def random_feasible_trajectory(rng: np.random.Generator,
                               scn: Scenario) -> Trajectory:
    """Random walk respecting the mobility constraints."""
    v = scn.slot_travel
    if scn.start_xy is not None:
        p = scn.start_xy + rng.uniform(-v, v, 2) / 2.0
    else:
        p = rng.uniform(0.0, 1.0, 2) * (scn.bob_xy - scn.alice_xy)
    pts = [p]
    for _ in range(scn.n_slots - 1):
        step = rng.uniform(-1.0, 1.0, 2)
        step *= rng.uniform(0.0, 0.95) * v / max(np.linalg.norm(step), 1e-12)
        pts.append(pts[-1] + step)
    return Trajectory(np.array(pts))


def random_power(rng: np.random.Generator, scn: Scenario) -> PowerAllocation:
    n = scn.n_slots
    p_s = rng.uniform(0.0, 2.0 * scn.p_bar_s, n)
    p_r = rng.uniform(0.0, 2.0 * scn.p_bar_r, n)
    p_s[-1] = 0.0
    p_r[0] = 0.0
    return PowerAllocation(p_s=p_s, p_r=p_r)


def stage_programs(n_slots):
    """Stage programs of the fixed-endpoint benchmark at N = n_slots
    (1 s slots): the power surrogate, the trajectory subproblem at half
    the causality-tight relay power, and at the tight power itself, whose
    base point is causal only to within the restoring tolerance (the
    causality edge)."""
    scn = benchmark_scenario(float(n_slots), 1.0, fixed_endpoints=True)
    traj = initial_trajectory(scn)
    pw = restore_feasibility(scn, traj, equal_power_allocation(scn))
    half = PowerAllocation(p_s=pw.p_s, p_r=0.5 * pw.p_r)
    return {"power": build_dc_surrogate(scn, traj, pw),
            "trajectory": build_subproblem(scn, half,
                                           make_iterate(scn, traj, half)),
            "trajectory causality edge": build_subproblem(
                scn, pw, make_iterate(scn, traj, pw))}


def assert_wall_times(report) -> None:
    """Iteration wall times count up from the stage start, within the
    stage's total time."""
    times = [r.wall_time for r in report.iterations]
    assert all(b >= a for a, b in zip(times, times[1:]))
    assert all(t > 0.0 for t in times[1:])
    assert times[-1] <= report.total_time


@pytest.fixture
def power_solves(monkeypatch) -> list:
    """Records one entry per subproblem solve of the power stage."""
    from secrelay import power_dc
    calls = []
    solve = power_dc.solve

    def counting_solve(prog, opts):
        calls.append(1)
        return solve(prog, opts)

    monkeypatch.setattr(power_dc, "solve", counting_solve)
    return calls


@pytest.fixture
def cache_fills(monkeypatch) -> list:
    """Records the bytes of the point of every ``PointCache`` fill, for
    the programs built after the fixture."""
    from secrelay import solver
    fills = []
    init = solver.PointCache.__init__

    def recording_init(self, terms):
        def recorded(z):
            fills.append(z.tobytes())
            return terms(z)
        init(self, recorded)

    monkeypatch.setattr(solver.PointCache, "__init__", recording_init)
    return fills


def _fail_solves(monkeypatch, stage, after: int) -> None:
    calls = []
    solve = stage.solve

    def failing_solve(prog, opts):
        calls.append(1)
        res = solve(prog, opts)
        if len(calls) <= after:
            return res
        return dataclasses.replace(res, status="numerical_failure")

    monkeypatch.setattr(stage, "solve", failing_solve)


def fail_power_solves(monkeypatch, after: int = 0) -> None:
    """Every power-stage subproblem solve after the first ``after`` ends
    ``numerical_failure`` (with the solution the solver found)."""
    from secrelay import power_dc
    _fail_solves(monkeypatch, power_dc, after)


def fail_trajectory_solves(monkeypatch, after: int = 0) -> None:
    """The same for the trajectory stage's subproblem solves."""
    from secrelay import trajectory_scp
    _fail_solves(monkeypatch, trajectory_scp, after)


def _reject_finish(monkeypatch, stage) -> list:
    finish, solve, inside = stage._finish, stage.solve, []

    def marked_finish(*args):
        inside.append(1)
        try:
            return finish(*args)
        finally:
            inside.pop()

    def failing_solve(prog, opts):
        res = solve(prog, opts)
        if not inside:
            return res
        return dataclasses.replace(res, status="numerical_failure")

    monkeypatch.setattr(stage, "_finish", marked_finish)
    monkeypatch.setattr(stage, "solve", failing_solve)
    return inside


def reject_power_finish(monkeypatch) -> list:
    """Every finish of the power stage (one solve of the true power
    problem) ends ``numerical_failure``, with the point the solver found,
    so each stage that tries one goes on with CCP.  Returns a list that
    is not empty while a finish runs."""
    from secrelay import power_dc
    return _reject_finish(monkeypatch, power_dc)


def reject_trajectory_finish(monkeypatch) -> list:
    """The same for the trajectory stage's finish (one solve of the true
    trajectory problem): it ends ``numerical_failure``, so the stage goes
    on with SCP."""
    from secrelay import trajectory_scp
    return _reject_finish(monkeypatch, trajectory_scp)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
