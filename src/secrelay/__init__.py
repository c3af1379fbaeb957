"""Secrecy-rate maximization for a mobile-relay link.

Joint optimization of the relay trajectory and the source/relay transmit
powers, alternating a power step, one convex program in Bob's rate, with a
sequential convex programming trajectory step, on top of an in-house
primal-dual interior-point solver for the smooth convex subproblems.
"""
from .ao import ao_optimize
from .baselines import (FerryResult, StaticGrid, StaticResult, data_ferry,
                        ferry_plan, static_relay_best)
from .model import (ChannelState, FeasibilityVerdict, PowerAllocation,
                    RateProfile, Scenario, Trajectory, benchmark_scenario,
                    channel_state, check_all, check_causality,
                    check_mobility, check_power_budget,
                    equal_power_allocation, equal_power_start,
                    rate_profile, restore_feasibility, secrecy_sum,
                    zero_power_allocation)
from .power_dc import dc_allocate
from .report import IterationRecord, RunReport
from .solver import (ConstraintBlock, SmoothConvexProgram, SolverOptions,
                     SolverResult, solve)
from .trajectory_scp import ScpOptions, initial_trajectory, scp_optimize

__all__ = [
    "ChannelState", "ConstraintBlock", "FeasibilityVerdict", "FerryResult",
    "IterationRecord", "PowerAllocation", "RateProfile", "RunReport",
    "Scenario", "ScpOptions", "SmoothConvexProgram", "SolverOptions",
    "SolverResult", "StaticGrid", "StaticResult", "Trajectory",
    "ao_optimize", "benchmark_scenario", "channel_state", "check_all",
    "check_causality", "check_mobility", "check_power_budget", "data_ferry",
    "dc_allocate", "equal_power_allocation", "equal_power_start",
    "ferry_plan", "initial_trajectory",
    "rate_profile", "restore_feasibility", "scp_optimize", "secrecy_sum",
    "solve", "static_relay_best", "zero_power_allocation",
]

__version__ = "0.1.0"
