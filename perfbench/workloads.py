"""The three benchmark workloads: inputs from a seed, one call, one check.

Each workload is one public ``secrelay`` entry point on one scenario from
``secrelay.benchmark_scenario``. The seed only moves the eavesdropper,
and not on ``static-T130`` unless asked (``move_eve``): moved there,
``static_relay_best`` raises ``StageFailure`` on about half of the seeds
today. The unmoved benchmark instance (seed 0) must not score below the
recorded reference by more than ``REF_REL_TOL``.
"""
from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import secrelay

# Relative tolerance of the seed-0 objective against its reference.
REF_REL_TOL = 1e-4
# Feasibility tolerance of the output check (model.check_all).
FEAS_TOL = 1e-6
# Eve moves this far (metres), in a direction drawn from the seed != 0.
EVE_SHIFT_M = 10.0


@dataclass(frozen=True)
class Outcome:
    traj: secrelay.Trajectory
    pw: secrelay.PowerAllocation
    objective: float


@dataclass(frozen=True)
class Workload:
    name: str
    horizon_s: float
    slot_len_s: float
    fixed_endpoints: bool
    reference: float                 # seed-0 objective, bits/s/Hz x slots
    call: Callable[[secrelay.Scenario], Outcome]
    tiny_horizon_s: float            # smoke-test size
    # False where a moved Eve makes the call raise today (static-T130).
    seed_moves_eve: bool = True

    def moves_eve(self, seed: int, move_eve: bool = False) -> bool:
        return seed != 0 and (self.seed_moves_eve or move_eve)

    def scenario(self, seed: int, tiny: bool = False,
                 move_eve: bool = False) -> secrelay.Scenario:
        scn = secrelay.benchmark_scenario(
            self.tiny_horizon_s if tiny else self.horizon_s,
            self.slot_len_s, fixed_endpoints=self.fixed_endpoints)
        if not self.moves_eve(seed, move_eve):
            return scn
        return dataclasses.replace(scn, eve_xy=scn.eve_xy + eve_shift(seed))

    def check(self, scn: secrelay.Scenario, out: Outcome, at_reference: bool,
              tiny: bool = False) -> list[str]:
        """Return the reasons the outcome is wrong; empty when it is right."""
        problems = []
        if not math.isfinite(out.objective):
            problems.append(f"objective {out.objective} is not finite")
        for family, verdict in secrelay.check_all(scn, out.traj, out.pw,
                                                  FEAS_TOL).items():
            if not verdict.feasible:
                problems.append(f"{family} violated by {verdict.worst:.3e}")
        recomputed = secrelay.secrecy_sum(scn, out.traj, out.pw)
        if not (abs(recomputed - out.objective)
                <= 1e-9 * max(1.0, abs(recomputed))):
            problems.append(f"reported objective {out.objective!r} != "
                            f"re-evaluated {recomputed!r}")
        floor = self.reference * (1.0 - REF_REL_TOL)
        if at_reference and not tiny and not out.objective >= floor:
            problems.append(f"objective {out.objective:.6f} below reference "
                            f"{self.reference} by more than {REF_REL_TOL:g}")
        return problems


def eve_shift(seed: int) -> np.ndarray:
    """Deterministic displacement of Eve in metres; zero for seed 0."""
    if seed == 0:
        return np.zeros(2)
    angle = random.Random(seed).uniform(0.0, 2.0 * math.pi)
    return EVE_SHIFT_M * np.array([math.cos(angle), math.sin(angle)])


def _ao(scn: secrelay.Scenario) -> Outcome:
    traj, pw, report = secrelay.ao_optimize(scn)
    return Outcome(traj, pw, report.final_objective)


def _scp(scn: secrelay.Scenario) -> Outcome:
    traj0 = secrelay.initial_trajectory(scn)
    pw = secrelay.restore_feasibility(
        scn, traj0, secrelay.equal_power_allocation(scn))
    traj, report = secrelay.scp_optimize(scn, pw, traj0)
    return Outcome(traj, pw, report.final_objective)


def _static(scn: secrelay.Scenario) -> Outcome:
    res = secrelay.static_relay_best(scn)
    traj = secrelay.Trajectory(np.tile(res.location, (scn.n_slots, 1)))
    return Outcome(traj, res.pw, res.objective)


WORKLOADS = {w.name: w for w in (
    Workload("ao-free-T100", 100.0, 2.0, False, 112.7787, _ao,
             tiny_horizon_s=12.0),
    Workload("scp-fixed-T100", 100.0, 1.0, True, 159.7260, _scp,
             tiny_horizon_s=40.0),
    Workload("static-T130", 130.0, 2.0, False, 22.9502, _static,
             tiny_horizon_s=12.0, seed_moves_eve=False),
)}
