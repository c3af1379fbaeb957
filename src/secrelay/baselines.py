"""Benchmark schemes: static relaying and data ferrying.

Both ignore endpoint constraints (the relay is deployed wherever the
scheme wants it), matching how they are compared against the mobile
relay with free endpoints.

The static relay needs no power stage.  At a fixed location every
channel gain is constant, so the power problem has a closed-form
optimum (``_hover_bounds``), and the scan picks the location by it.  The
winner's powers are equal powers with the relay scaled back until
causality holds (``model.equal_power_start``), and they attain that
optimum up to the feasibility tolerance tol:

* at equal powers the relay receives r_in and forwards r_out to Bob in
  each of its N-1 slots, so causality prefix j has the gap
  (j-1) (r_out - r_in), largest at the last prefix, and Eve's rows are
  looser (Eve's gain is below Bob's wherever the optimum is positive);
* the restore therefore leaves r_out at min(r_in + tol/(N-1), the
  rate of the equal relay budget), up to the 2^-40 grid of the
  restored scale, which lies between the hover optimum's r* at
  tolerance 0 and at tol;
* the secrecy is increasing in r_out, so the powers score between the
  optimum at tolerance 0 and at tol, and no allocation that passes the
  checks at tol scores more.

The data ferry sweeps the loading-phase length n1 but restores only the
splits that can still win.  A plan loads for n1 slots above Alice, where
the gain to her is a, and unloads for u slots above Bob, where the gains
to Bob and to Eve are b and e, with b >= e.  Its relay power is
p = N p_bar_r / u before the restore, which only scales it down.  Two
closed forms cap what the restored plan scores, and each split is
capped by the smaller:

* the deliverable secrecy u (log2(1 + p b) - log2(1 + p e)): the
  per-slot secrecy does not fall as the power rises, since b >= e;
* the received bits n1 log2(1 + (N p_bar_s / n1) a) + tol: Bob's last
  causality prefix holds at tol after the restore, and Eve's rate is
  never negative.

The sweep restores the splits in decreasing order of cap (ties in
increasing n1), keeps the smallest n1 on a tied objective, and stops at
the first cap below the incumbent's objective, so it returns the split,
powers and objective of the full sweep.  The comparison allows 1e-9 of
Bob's gross rate u log2(1 + p b) for rounding: ``channel_state`` forms
ref/(sqrt h^2)^2, not ref/h^2, and the secrecy sum adds the per-slot
terms that the cap multiplies.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import model
from .model import PowerAllocation, Scenario, Trajectory


@dataclass
class StaticGrid:
    """Search grid for the fixed relay location."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int = 41
    ny: int = 21
    refine_halvings: int = 2

    @classmethod
    def default(cls, scn: Scenario) -> "StaticGrid":
        span = max(3.0 * abs(scn.eve_xy[1] - scn.alice_xy[1]),
                   scn.altitude_h)
        return cls(x_min=min(scn.alice_xy[0], scn.bob_xy[0]),
                   x_max=max(scn.alice_xy[0], scn.bob_xy[0]),
                   y_min=scn.alice_xy[1] - span, y_max=scn.alice_xy[1] + span)

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """Grid coordinates along x and along y."""
        return (np.linspace(self.x_min, self.x_max, self.nx),
                np.linspace(self.y_min, self.y_max, self.ny))


@dataclass(frozen=True)
class StaticResult:
    location: np.ndarray
    pw: PowerAllocation
    objective: float
    evaluated: int          # locations compared by hover optimum: the
                            # grid and the refinement neighbours, 8 per
                            # round (a neighbour compared again around a
                            # new incumbent counts once)


@dataclass(frozen=True)
class FerryResult:
    traj: Trajectory
    pw: PowerAllocation
    objective: float
    load_slots: int
    diagnostic: str = ""


def _free_endpoints(scn: Scenario) -> Scenario:
    if scn.start_xy is None and scn.end_xy is None:
        return scn
    return dataclasses.replace(scn, start_xy=None, end_xy=None)


def _constant_traj(scn: Scenario, xy) -> Trajectory:
    return Trajectory(np.tile(np.asarray(xy, dtype=float), (scn.n_slots, 1)))


def _hover_bounds(scn: Scenario, xy: np.ndarray, tol: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Two caps on the secrecy sum of a relay hovering at each row of
    ``xy``, from one pass over the channel gains a = g_ar, b = g_rd and
    e = g_re: the ranking bound and the hover optimum, both 0 where
    b <= e (every relay power then loses secrecy).

    The ranking bound is the smaller of two caps, each by concavity of
    the rate in the power: the deliverable secrecy with the relay budget
    split equally over the N-1 transmit slots, and what the relay can
    receive with the source budget split equally over the N-1 receive
    slots (causality forbids forwarding more than was received).

    The hover optimum is the exact optimum of the power problem at the
    location, with causality and both budgets loosened by ``tol``: the
    static scan picks its location by it at ``tol`` 0, and at a check
    tolerance it caps every allocation that passes.  Keep only
    Bob's last causality prefix and the budgets.  By Jensen the relay
    receives at most R = (N-1) log2(1 + a (N p_bar_s + tol)/(N-1)).  In
    r_i = log2(1 + b p_i) the per-slot secrecy
    r - log2(1 + (2^r - 1) e/b) is concave and increasing and the power
    (2^r - 1)/b convex, so the relaxed optimum has every r_i at
    r* = min((R + tol)/(N-1), log2(1 + b (N p_bar_r + tol)/(N-1))) and
    the value (N-1) (r* - log2(1 + (2^r* - 1) e/b)).  Equal powers
    attain it and keep Eve's rows, as e < b, so no power allocation that
    passes the checks at ``tol`` scores more.
    """
    h2 = scn.altitude_h ** 2
    a, b, e = (scn.ref_snr / (h2 + np.sum((xy - p) ** 2, axis=1))
               for p in (scn.alice_xy, scn.bob_xy, scn.eve_xy))
    n = scn.n_slots
    p_r = n * scn.p_bar_r / (n - 1)
    deliver = (n - 1) * (np.log2(1 + p_r * b) - np.log2(1 + p_r * e))
    p_s = n * scn.p_bar_s / (n - 1)
    receive = (n - 1) * np.log2(1 + p_s * a)
    inflow = (n - 1) * np.log2(1 + a * (n * scn.p_bar_s + tol) / (n - 1))
    r = np.minimum((inflow + tol) / (n - 1),
                   np.log2(1 + b * (n * scn.p_bar_r + tol) / (n - 1)))
    optimum = (n - 1) * (r - np.log2(1 + (2.0 ** r - 1) * (e / b)))
    wins = b > e
    return (np.where(wins, np.minimum(deliver, receive), 0.0),
            np.where(wins, optimum, 0.0))


def _ranked(scn: Scenario, grid: StaticGrid
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The grid's hover locations with their ranking bounds and exact
    hover optima (``_hover_bounds`` at tolerance 0), in decreasing order
    of the ranking bound (ties in grid order)."""
    xs, ys = grid.axes()
    cand = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    bounds, optima = _hover_bounds(scn, cand, 0.0)
    order = np.argsort(-bounds, kind="stable")
    return cand[order], bounds[order], optima[order]


def ranked_locations(scn: Scenario, grid: StaticGrid
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The grid's hover locations and their ranking bound
    (``_hover_bounds``), both in decreasing order of the bound (ties in
    grid order)."""
    cand, bounds, _ = _ranked(scn, grid)
    return cand, bounds


def static_relay_best(scn: Scenario,
                      grid: Optional[StaticGrid] = None,
                      feas_tol: float = model.DEFAULT_FEAS_TOL
                      ) -> StaticResult:
    """Best fixed relay location at altitude H with optimized powers.

    Picks the grid location with the largest exact hover optimum
    (``_hover_bounds`` at tolerance 0), the first in the order of
    ``ranked_locations`` on a tie, then refines locally with the grid
    step halved ``grid.refine_halvings`` times, moving to a neighbour
    only if its optimum is larger.  ``StaticResult.evaluated`` counts the
    locations compared: the grid and 8 refinement neighbours per round.

    The winner's powers are ``model.equal_power_start`` at ``feas_tol``,
    and they attain its optimum up to ``feas_tol`` (module docstring).
    If no location has a positive optimum, the relay stays silent at the
    top-ranked location.
    """
    scn = _free_endpoints(scn)
    grid = grid or StaticGrid.default(scn)
    cand, _, optima = _ranked(scn, grid)
    k = int(np.argmax(optima))
    best_xy, best_opt = cand[k], optima[k]
    evaluated = len(cand)

    # Local refinement around the incumbent, step halved each time.  A
    # round walks its neighbours in order and moves to each one that
    # beats the incumbent; the neighbours after a move lie around the new
    # incumbent.  One call scores every neighbour not yet walked, again
    # after each move.
    xs, ys = grid.axes()
    step_x = (xs[1] - xs[0]) if grid.nx > 1 else scn.altitude_h
    step_y = (ys[1] - ys[0]) if grid.ny > 1 else scn.altitude_h
    for _ in range(grid.refine_halvings):
        step_x *= 0.5
        step_y *= 0.5
        moves = np.array([(dx, dy) for dx in (-step_x, 0.0, step_x)
                          for dy in (-step_y, 0.0, step_y)
                          if dx != 0.0 or dy != 0.0])
        evaluated += len(moves)
        while len(moves):
            xy = best_xy + moves
            _, optima = _hover_bounds(scn, xy, 0.0)
            wins = np.flatnonzero(optima > best_opt)
            if not len(wins):
                break
            k = wins[0]
            best_opt, best_xy = optima[k], xy[k]
            moves = moves[k + 1:]

    # Every optimum is >= 0; if none is positive, best_xy is cand[0].
    traj = _constant_traj(scn, best_xy)
    pw = (model.equal_power_start(scn, traj, feas_tol)
          if best_opt > 0.0 else model.zero_power_allocation(scn))
    return StaticResult(location=np.asarray(best_xy, dtype=float), pw=pw,
                        objective=model.secrecy_sum(scn, traj, pw),
                        evaluated=evaluated)


def transit_slot_count(scn: Scenario) -> int:
    dist = float(np.linalg.norm(scn.bob_xy - scn.alice_xy))
    return int(math.ceil(dist / scn.slot_travel - 1e-12))


def ferry_plan(scn: Scenario, load_slots: int,
               feas_tol: float = model.DEFAULT_FEAS_TOL
               ) -> tuple[Trajectory, PowerAllocation]:
    """Three-phase plan: load above the source, fly silent, unload above
    the destination; equal power within each active phase, relay power
    capped to respect causality at ``feas_tol``."""
    n = scn.n_slots
    transit = transit_slot_count(scn)
    unload = n - load_slots - transit
    if load_slots < 1 or unload < 1:
        raise ValueError("horizon too short for the requested phase split")
    dist = float(np.linalg.norm(scn.bob_xy - scn.alice_xy))
    u = (scn.bob_xy - scn.alice_xy) / dist
    xy = np.empty((n, 2))
    xy[:load_slots] = scn.alice_xy
    for k in range(1, transit + 1):
        xy[load_slots + k - 1] = scn.alice_xy + min(k * scn.slot_travel,
                                                    dist) * u
    xy[load_slots + transit:] = scn.bob_xy
    traj = Trajectory(xy)

    p_s = np.zeros(n)
    p_s[:load_slots] = n * scn.p_bar_s / load_slots
    p_r = np.zeros(n)
    p_r[load_slots + transit:] = n * scn.p_bar_r / unload
    pw = PowerAllocation(p_s=p_s, p_r=p_r)
    return traj, model.restore_feasibility(scn, traj, pw, tol=feas_tol)


def _ferry_caps(scn: Scenario, n1s: np.ndarray, tol: float
                ) -> tuple[np.ndarray, np.ndarray]:
    """Caps on the secrecy sum of ``ferry_plan`` at each loading-phase
    length in ``n1s`` (module docstring), and the rounding slack to
    allow when comparing a cap with a computed secrecy sum: 1e-9 of the
    gross rate Bob receives at the unrestored powers."""
    n = scn.n_slots
    unload = n - n1s - transit_slot_count(scn)
    h2 = scn.altitude_h ** 2
    a = b = scn.ref_snr / h2
    e = scn.ref_snr / (h2 + float(np.sum((scn.bob_xy - scn.eve_xy) ** 2)))
    p = n * scn.p_bar_r / unload
    to_bob = unload * np.log2(1 + p * b)
    deliver = to_bob - unload * np.log2(1 + p * e)
    receive = n1s * np.log2(1 + (n * scn.p_bar_s / n1s) * a) + tol
    return np.minimum(deliver, receive), 1e-9 * to_bob


def data_ferry(scn: Scenario,
               feas_tol: float = model.DEFAULT_FEAS_TOL) -> FerryResult:
    """Best load/fly/unload split, swept over the loading-phase length,
    each plan's powers causal at ``feas_tol``.  Splits whose cap is below
    the best restored objective are not restored (module docstring)."""
    scn = _free_endpoints(scn)
    n = scn.n_slots
    transit = transit_slot_count(scn)
    max_load = n - transit - 1
    if max_load < 1:
        traj = _constant_traj(scn, scn.alice_xy)
        return FerryResult(
            traj=traj, pw=model.zero_power_allocation(scn), objective=0.0,
            load_slots=0,
            diagnostic=(f"transit needs {transit} of {n} slots; no time "
                        "left to load and unload"))
    n1s = np.arange(1, max_load + 1)
    caps, slack = _ferry_caps(scn, n1s, feas_tol)
    best: Optional[FerryResult] = None
    for k in np.argsort(-caps, kind="stable"):
        if best is not None and caps[k] + slack[k] < best.objective:
            break
        n1 = int(n1s[k])
        traj, pw = ferry_plan(scn, n1, feas_tol)
        obj = model.secrecy_sum(scn, traj, pw)
        if best is None or obj > best.objective or (
                obj == best.objective and n1 < best.load_slots):
            best = FerryResult(traj=traj, pw=pw, objective=obj, load_slots=n1)
    return best
