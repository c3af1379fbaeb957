"""Every stage program starts strictly inside, for every input its
builder accepts: the solver takes no other start."""
import dataclasses

import numpy as np
import pytest

from conftest import (power_program, random_feasible_trajectory,
                      random_scenario)
from secrelay import model, solver
from secrelay.model import PowerAllocation, Trajectory, restore_feasibility
from secrelay.power_dc import dc_allocate
from secrelay.solver import start_margin
from secrelay.trajectory_scp import (build_subproblem, initial_trajectory,
                                     make_iterate)


def _walk(rng, scn, hop: float) -> Trajectory:
    """A free-endpoint walk whose every hop is ``hop`` long."""
    angles = rng.uniform(0.0, 2.0 * np.pi, scn.n_slots - 1)
    hops = hop * np.stack([np.cos(angles), np.sin(angles)], 1)
    start = rng.uniform(0.0, 1.0, 2) * (scn.bob_xy - scn.alice_xy)
    return Trajectory(start + np.concatenate([[[0.0, 0.0]],
                                              np.cumsum(hops, axis=0)]))


def _walk_between(rng, scn) -> Trajectory:
    """A fixed-endpoint trajectory: the straight start with each point
    moved at random by less than half the room v_max leaves a hop."""
    xy = initial_trajectory(scn).xy
    room = scn.slot_travel - np.linalg.norm(xy[1] - xy[0])
    angles = rng.uniform(0.0, 2.0 * np.pi, scn.n_slots)
    radii = rng.uniform(0.0, 0.45 * room, scn.n_slots)
    return Trajectory(xy + radii[:, None] * np.stack(
        [np.cos(angles), np.sin(angles)], 1))


def _anchors_at_v_max(scn):
    """The fixed-endpoint scenario with its end moved to N + 1 hops of
    v_max from its start, and the straight flight between them, whose
    every hop and both anchor legs are v_max long."""
    legs = scn.slot_travel * np.arange(scn.n_slots + 2)[:, None] * [1.0, 0.0]
    xy = scn.start_xy + legs
    return dataclasses.replace(scn, end_xy=xy[-1]), Trajectory(xy[1:-1])


def _powers(rng, scn, traj) -> dict:
    """Equal power and random powers spending the whole budgets, each
    restored by bisection to just inside the causality tolerance."""
    n = scn.n_slots
    p_s = rng.uniform(0.0, 1.0, n)
    p_r = rng.uniform(0.0, 1.0, n)
    p_s[-1] = p_r[0] = 0.0
    spent = PowerAllocation(p_s=p_s * n * scn.p_bar_s / p_s.sum(),
                            p_r=p_r * n * scn.p_bar_r / p_r.sum())
    return {name: restore_feasibility(scn, traj, pw) for name, pw in (
        ("equal", model.equal_power_allocation(scn)), ("random", spent))}


def _inputs(seed: int, free_endpoints: bool):
    rng = np.random.default_rng(seed)
    scn = random_scenario(rng, free_endpoints=free_endpoints)
    if free_endpoints:
        # Hops of exactly v_max, and past it within the tolerance that
        # the stages accept a trajectory at.
        v = scn.slot_travel
        for kind, traj in (
                ("walk", random_feasible_trajectory(rng, scn)),
                ("v_max", _walk(rng, scn, v)),
                ("past v_max", _walk(rng, scn, np.sqrt(v * v + 0.9e-6)))):
            yield scn, kind, traj, _powers(rng, scn, traj)
        return
    traj = _walk_between(rng, scn)
    yield scn, "walk", traj, _powers(rng, scn, traj)
    scn, traj = _anchors_at_v_max(scn)
    yield scn, "v_max", traj, _powers(rng, scn, traj)


@pytest.mark.parametrize("free_endpoints", [True, False],
                         ids=["free", "fixed"])
def test_every_seed_strictly_feasible(free_endpoints):
    """Random scenarios and trajectories, hops of exactly v_max and a
    hair past it, and powers straight from ``restore_feasibility``: the
    power program on each trajectory and the trajectory step on each
    pair start strictly inside."""
    checked = 0
    for seed in range(100):
        for scn, kind, traj, powers in _inputs(seed, free_endpoints):
            assert model.check_mobility(scn, traj).feasible, (seed, kind)
            if kind == "v_max":
                hops = np.hypot(*np.diff(traj.xy, axis=0).T)
                np.testing.assert_allclose(hops, scn.slot_travel, rtol=1e-12)
            assert start_margin(power_program(scn, traj)) > 0.0, (seed, kind)
            for name, pw in powers.items():
                where = (seed, kind, name)
                it = make_iterate(scn, traj, pw)
                assert start_margin(build_subproblem(scn, pw, it)) > 0.0, \
                    where
                checked += 1
    assert checked == 100 * (3 if free_endpoints else 2) * 2


def test_dc_battery_ninth_scenario():
    """The ninth power run of the acceptance DC battery, where the last
    CCP linearization points left the CCP cold start (source power 0.9,
    relay power 1e-6) no interior.  The program starts strictly inside
    there, and the stage solves it once to a certified optimum."""
    rng = np.random.default_rng(20240903)
    for _ in range(9):
        scn = random_scenario(rng)
        traj = random_feasible_trajectory(rng, scn)
    assert start_margin(power_program(scn, traj)) > 0.0
    pw0 = restore_feasibility(scn, traj, model.equal_power_allocation(scn))
    _, report = dc_allocate(scn, traj, pw_0=pw0)
    assert report.status == "converged"
    assert report.extras["solves"] == 1
    assert report.iterations[-1].kkt_residual <= solver.KKT_TOL
