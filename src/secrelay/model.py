"""Problem instance, channel model, rates and feasibility checks.

All rates are in bits/s/Hz (base-2 logs), all powers in watts, all
distances in meters.  The channel is free-space path loss: the received
SNR on a link of length d with transmit power p is p * ref_snr / d**2,
where ref_snr is the linear SNR at 1 m reference distance with unit
transmit power.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

LN2 = float(np.log(2.0))
DEFAULT_FEAS_TOL = 1e-6
# Outer loops (SCP, AO) also stop once an iteration moves the secrecy sum
# by at most this many bits: the feasibility checks resolve causality
# only to DEFAULT_FEAS_TOL bits, so a smaller change is noise.  Without
# it, a run near zero secrecy keeps stepping, since the relative change
# of an objective near 0 stays large.
OBJ_ABS_TOL = 1e-6


def settled(old: float, new: float, rel_tol: float) -> bool:
    """The stop rule of the outer loops (SCP, AO): the objective moved
    from old to new by less than rel_tol relative to new, or by at most
    ``OBJ_ABS_TOL``."""
    change = abs(new - old)
    return change / max(abs(new), 1e-10) < rel_tol or change <= OBJ_ABS_TOL


def _as_xy(v, name: str) -> np.ndarray:
    a = np.asarray(v, dtype=float).reshape(-1)
    if a.shape != (2,):
        raise ValueError(f"{name} must be a 2-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    return a


@dataclass(frozen=True)
class Scenario:
    """Immutable problem instance.

    ``start_xy`` / ``end_xy`` set to None mean the corresponding endpoint
    is free (the relay's sole mission is communication, so its launch
    and/or landing points are optimized away).
    """

    bob_xy: np.ndarray
    eve_xy: np.ndarray
    altitude_h: float
    n_slots: int
    slot_len: float
    v_max: float
    ref_snr: float
    p_bar_s: float
    p_bar_r: float
    alice_xy: np.ndarray = field(default_factory=lambda: np.zeros(2))
    start_xy: Optional[np.ndarray] = None
    end_xy: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "alice_xy", _as_xy(self.alice_xy, "alice_xy"))
        object.__setattr__(self, "bob_xy", _as_xy(self.bob_xy, "bob_xy"))
        object.__setattr__(self, "eve_xy", _as_xy(self.eve_xy, "eve_xy"))
        if self.start_xy is not None:
            object.__setattr__(self, "start_xy", _as_xy(self.start_xy, "start_xy"))
        if self.end_xy is not None:
            object.__setattr__(self, "end_xy", _as_xy(self.end_xy, "end_xy"))
        n = self.n_slots
        if (not isinstance(n, (int, float, np.integer, np.floating))
                or not float(n).is_integer() or n < 2):
            raise ValueError("n_slots must be an integer >= 2")
        object.__setattr__(self, "n_slots", int(n))
        for name in ("slot_len", "altitude_h", "v_max", "ref_snr"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
            if not (getattr(self, name) > 0):
                raise ValueError(f"{name} must be > 0")
        if not (np.isfinite(self.p_bar_s) and np.isfinite(self.p_bar_r)):
            raise ValueError("average power limits must be finite")
        if self.p_bar_s < 0 or self.p_bar_r < 0:
            raise ValueError("average power limits must be >= 0")
        if np.allclose(self.bob_xy, self.alice_xy):
            raise ValueError("bob_xy must differ from alice_xy")

    @property
    def slot_travel(self) -> float:
        """Maximum distance coverable within one slot, meters."""
        return self.v_max * self.slot_len


@dataclass(frozen=True)
class Trajectory:
    """Per-slot horizontal UAV coordinates, shape (N, 2)."""

    xy: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.xy, dtype=float)
        if a.ndim != 2 or a.shape[1] != 2:
            raise ValueError(f"xy must have shape (N, 2), got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("trajectory coordinates must be finite")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "xy", a)

    def __len__(self) -> int:
        return self.xy.shape[0]

    @property
    def x(self) -> np.ndarray:
        return self.xy[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.xy[:, 1]


@dataclass(frozen=True)
class PowerAllocation:
    """Per-slot source and relay transmit powers, watts.

    Structurally, the source never transmits in the last slot and the
    relay never transmits in the first one (it has nothing to forward).
    """

    p_s: np.ndarray
    p_r: np.ndarray

    def __post_init__(self):
        ps = np.asarray(self.p_s, dtype=float).reshape(-1).copy()
        pr = np.asarray(self.p_r, dtype=float).reshape(-1).copy()
        if ps.shape != pr.shape:
            raise ValueError("p_s and p_r must have equal length")
        if not (np.all(np.isfinite(ps)) and np.all(np.isfinite(pr))):
            raise ValueError("powers must be finite")
        if np.any(ps < 0) or np.any(pr < 0):
            raise ValueError("powers must be nonnegative")
        if ps[-1] != 0.0:
            raise ValueError("source power in the last slot must be 0")
        if pr[0] != 0.0:
            raise ValueError("relay power in the first slot must be 0")
        ps.setflags(write=False)
        pr.setflags(write=False)
        object.__setattr__(self, "p_s", ps)
        object.__setattr__(self, "p_r", pr)

    def __len__(self) -> int:
        return self.p_s.shape[0]


def equal_power_allocation(scn: Scenario) -> PowerAllocation:
    """Spread the full budgets evenly over the active slots."""
    n = scn.n_slots
    p_s = np.full(n, n * scn.p_bar_s / (n - 1))
    p_s[-1] = 0.0
    p_r = np.full(n, n * scn.p_bar_r / (n - 1))
    p_r[0] = 0.0
    return PowerAllocation(p_s=p_s, p_r=p_r)


def zero_power_allocation(scn: Scenario) -> PowerAllocation:
    return PowerAllocation(p_s=np.zeros(scn.n_slots), p_r=np.zeros(scn.n_slots))


def benchmark_scenario(horizon_s: float = 100.0, slot_len_s: float = 1.0,
                       fixed_endpoints: bool = False) -> Scenario:
    """Standard benchmark instance: source at the origin, destination
    2000 m away, eavesdropper at (1000, 100), altitude 100 m, 50 m/s,
    80 dB reference SNR, 10 dBm average power budgets. With
    ``fixed_endpoints`` the relay must start at (200, -100) and end at
    (1800, -100)."""
    kw = {}
    if fixed_endpoints:
        kw = {"start_xy": [200.0, -100.0], "end_xy": [1800.0, -100.0]}
    return Scenario(bob_xy=[2000.0, 0.0], eve_xy=[1000.0, 100.0],
                    altitude_h=100.0, n_slots=round(horizon_s / slot_len_s),
                    slot_len=slot_len_s, v_max=50.0, ref_snr=1e8,
                    p_bar_s=0.01, p_bar_r=0.01, **kw)


@dataclass(frozen=True)
class ChannelState:
    """Per-slot linear SNR-per-watt gains ref_snr / d**2 of the links
    Alice->relay, relay->Bob and relay->Eve."""

    gamma_ar: np.ndarray
    gamma_rd: np.ndarray
    gamma_re: np.ndarray

    @cached_property
    def gamma_out(self) -> np.ndarray:
        """Relay->Bob and relay->Eve gains stacked, shape (2, N)."""
        return np.stack([self.gamma_rd, self.gamma_re])


@dataclass(frozen=True)
class RateProfile:
    """Per-slot rates (bits/s/Hz) and the aggregate secrecy rate."""

    r_relay: np.ndarray
    r_bob: np.ndarray
    r_eve: np.ndarray
    secrecy_sum: float
    secrecy_avg: float


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of one constraint-family check.

    ``slacks`` maps a constraint label to the signed slack array or
    scalar; the sign convention is per check (see the check functions).
    ``worst`` is the most violated quantity (negative slack or positive
    gap), useful for reporting.
    """

    feasible: bool
    slacks: dict
    worst: float


def _require_traj_slots(scn: Scenario, traj: Trajectory) -> None:
    if len(traj) != scn.n_slots:
        raise ValueError(
            f"trajectory has {len(traj)} slots, scenario wants {scn.n_slots}")


def _require_power_slots(scn: Scenario, pw: PowerAllocation) -> None:
    if len(pw) != scn.n_slots:
        raise ValueError(
            f"power allocation has {len(pw)} slots, scenario wants {scn.n_slots}")


def channel_state(scn: Scenario, traj: Trajectory) -> ChannelState:
    """Channel gains for every slot, each ref_snr / d**2 with d the
    slant distance sqrt(h**2 + |q - c|**2) (rounded as it is)."""
    _require_traj_slots(scn, traj)
    h2 = scn.altitude_h ** 2

    def gain(c: np.ndarray) -> np.ndarray:
        d = np.sqrt(h2 + np.sum((traj.xy - c) ** 2, axis=1))
        return scn.ref_snr / d ** 2

    return ChannelState(gamma_ar=gain(scn.alice_xy),
                        gamma_rd=gain(scn.bob_xy), gamma_re=gain(scn.eve_xy))


def rate_profile(scn: Scenario, traj: Trajectory,
                 pw: PowerAllocation) -> RateProfile:
    """Per-slot reception rates and the achieved secrecy sum."""
    _require_power_slots(scn, pw)
    ch = channel_state(scn, traj)
    r_relay = np.log2(1.0 + pw.p_s * ch.gamma_ar)
    r_bob = np.log2(1.0 + pw.p_r * ch.gamma_rd)
    r_eve = np.log2(1.0 + pw.p_r * ch.gamma_re)
    secrecy_sum = float(np.sum(r_bob[1:] - r_eve[1:]))
    return RateProfile(
        r_relay=r_relay, r_bob=r_bob, r_eve=r_eve,
        secrecy_sum=secrecy_sum,
        secrecy_avg=secrecy_sum / scn.n_slots,
    )


def secrecy_sum(scn: Scenario, traj: Trajectory, pw: PowerAllocation) -> float:
    return rate_profile(scn, traj, pw).secrecy_sum


def check_mobility(scn: Scenario, traj: Trajectory,
                   tol: float = DEFAULT_FEAS_TOL) -> FeasibilityVerdict:
    """Endpoint and per-slot travel constraints.

    Slacks are in meters squared: V^2 minus the squared hop length.
    Endpoint slacks are reported as None when the endpoint is free.
    """
    _require_traj_slots(scn, traj)
    v2 = scn.slot_travel ** 2
    steps = np.sum(np.diff(traj.xy, axis=0) ** 2, axis=1)
    step_slack = v2 - steps
    slacks = {"steps": step_slack}
    worst = float(np.min(step_slack)) if step_slack.size else 0.0
    for key, anchor, idx in (("start", scn.start_xy, 0),
                             ("end", scn.end_xy, -1)):
        if anchor is None:
            slacks[key] = None
            continue
        s = v2 - float(np.sum((traj.xy[idx] - anchor) ** 2))
        slacks[key] = s
        worst = min(worst, s)
    return FeasibilityVerdict(feasible=worst >= -tol, slacks=slacks, worst=worst)


def received_prefix(ch: ChannelState, p_s: np.ndarray) -> np.ndarray:
    """Bits the relay has received by the end of slots 1..N-1."""
    return np.cumsum(np.log2(1.0 + p_s * ch.gamma_ar))[:-1]


def causality_gaps(ch: ChannelState, p_r: np.ndarray,
                   received: np.ndarray) -> np.ndarray:
    """Information-causality prefix gaps, shape (2, N-1).

    Row 0 is Bob's and row 1 Eve's: entry n-2 (n = 2..N) is what the
    relay has forwarded by slot n, sum_{2<=i<=n} r[i], minus what it had
    received by slot n-1, ``received`` (from ``received_prefix``).  A
    positive gap is a violation.  A (K, N) stack of relay powers gives
    a (K, 2, N-1) stack of gaps.
    """
    sent = np.log2(1.0 + p_r[..., None, 1:] * ch.gamma_out[:, 1:])
    return sent.cumsum(axis=-1) - received


def check_causality(scn: Scenario, traj: Trajectory, pw: PowerAllocation,
                    tol: float = DEFAULT_FEAS_TOL) -> FeasibilityVerdict:
    """Information-causality prefix constraints.

    For each prefix n = 2..N the relay may only have forwarded what it
    already received.  Gaps are (forwarded - received); positive gap is
    a violation.
    """
    _require_power_slots(scn, pw)
    ch = channel_state(scn, traj)
    gaps = causality_gaps(ch, pw.p_r, received_prefix(ch, pw.p_s))
    worst = float(gaps.max(initial=0.0))
    return FeasibilityVerdict(
        feasible=worst <= tol,
        slacks={"bob_gaps": gaps[0], "eve_gaps": gaps[1]},
        worst=worst,
    )


def check_power_budget(scn: Scenario, pw: PowerAllocation,
                       tol: float = DEFAULT_FEAS_TOL) -> FeasibilityVerdict:
    """Average-power budgets: sum p <= N * p_bar (slack in watts)."""
    _require_power_slots(scn, pw)
    slack_s = scn.n_slots * scn.p_bar_s - float(np.sum(pw.p_s))
    slack_r = scn.n_slots * scn.p_bar_r - float(np.sum(pw.p_r))
    worst = min(slack_s, slack_r)
    return FeasibilityVerdict(
        feasible=worst >= -tol,
        slacks={"source": slack_s, "relay": slack_r},
        worst=worst,
    )


def check_all(scn: Scenario, traj: Trajectory, pw: PowerAllocation,
              tol: float = DEFAULT_FEAS_TOL) -> dict:
    """All feasibility families at once, keyed by name."""
    return {
        "mobility": check_mobility(scn, traj, tol),
        "causality": check_causality(scn, traj, pw, tol),
        "power_budget": check_power_budget(scn, pw, tol),
    }


def _scale_estimate(gains: np.ndarray, need: np.ndarray) -> float:
    """Estimate, from below, of the largest relay scale c at which every
    causality prefix holds.

    ``gains`` holds a_i = p_r,i g_i over slots 2..N, one row per
    receiver, shape (2, N-1), and ``need`` what prefix n may forward,
    received_n + tol.  Each prefix F_n(c) = sum_{i<=n} log2(1 + c a_i)
    - need_n is concave and increasing in c, and at most
    m_n log2(1 + c max_{i<=n} a_i), m_n counting its positive a_i, so
    c0 = min_n (2^(need_n/m_n) - 1) / max_{i<=n} a_i lies below every
    root, and is the root when all a_i are equal (a hover at equal
    power).  From below the root of a concave increasing function, a
    Newton step never passes it, so moving c by the smallest step of
    all 2(N-1) prefixes keeps it below the smallest root.  The steps
    stop once one moves c by less than 2^-30 of itself (the next would
    move it by about the square of that), or after 8.
    """
    top = np.maximum.accumulate(gains, axis=1)
    live = top > 0.0            # prefixes with a positive slope
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m = np.cumsum(gains > 0.0, axis=1)
        bound = np.expm1(need * LN2 / m) / top
        c = float(np.min(bound, where=live, initial=np.inf))
        for _ in range(8):
            rise = 1.0 + c * gains
            f = np.log2(rise).cumsum(axis=1) - need
            slope = (gains / rise).cumsum(axis=1) / LN2
            step = float(np.min(-f / slope, where=live, initial=np.inf))
            c += step
            if not step > 2.0 ** -30 * c:
                break
    return max(c, 0.0)


def restore_feasibility(scn: Scenario, traj: Trajectory,
                        pw: PowerAllocation,
                        tol: float = DEFAULT_FEAS_TOL) -> PowerAllocation:
    """Scale the relay powers down until causality holds.

    Returns the input unchanged when it is already feasible.  Otherwise
    it returns the relay scale that a 40-step bisection over [0, 1] on
    the predicate of ``check_causality`` finds, bit for bit: the largest
    feasible point of the 2^-40 grid, or 0.  Neither the channel gains
    nor what the relay receives depend on the scale, so
    ``channel_state`` and ``received_prefix`` run once per call.

    The call checks the 2^-40 cell [lo, lo + 2^-40] that holds the root
    estimate c (``_scale_estimate``), lo = (c // 2^-40) 2^-40 (exact for
    a power of two), both ends in one ``causality_gaps`` pass.  If lo is
    0 or feasible and lo + 2^-40 is not, lo is the answer: the predicate
    being monotone in the scale, the bisection from [0, 1] returns that
    same grid point.  A restore thus takes 2 passes, scale 1 and the
    cell.  If the check fails (the estimate sits within rounding of a
    cell boundary, or is wrong), the call bisects [0, 1] in 40 steps,
    one scale per pass.
    """
    ch = channel_state(scn, traj)
    received = received_prefix(ch, pw.p_s)

    def feasible(scales: list) -> np.ndarray:
        p_r = np.array(scales)[:, None] * pw.p_r
        return causality_gaps(ch, p_r, received).max(
            axis=(1, 2), initial=0.0) <= tol

    if feasible([1.0])[0]:
        return pw
    c = _scale_estimate(pw.p_r[1:] * ch.gamma_out[:, 1:], received + tol)
    w = 2.0 ** -40
    lo = min(c // w, 2.0 ** 40 - 1.0) * w
    ok = feasible([lo, lo + w])
    if not ((lo == 0.0 or ok[0]) and not ok[1]):
        lo, hi = 0.0, 1.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if feasible([mid])[0]:
                lo = mid
            else:
                hi = mid
    return PowerAllocation(p_s=pw.p_s, p_r=lo * pw.p_r)


def equal_power_start(scn: Scenario, traj: Trajectory,
                      tol: float = DEFAULT_FEAS_TOL) -> PowerAllocation:
    """Equal power with the relay scaled back until causality holds on
    traj at tol: the power start of AO, of the power stage and of the
    CLI, and the static relay's powers."""
    return restore_feasibility(scn, traj, equal_power_allocation(scn),
                               tol=tol)
