"""Run bookkeeping: per-iteration records shared by all optimizers."""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# The solver work each stage sums in ``RunReport.extras`` (``count_solve``).
COUNTERS = ("solves", "newton_steps", "factorizations",
            "failed_factorizations")


def count_solve(extras: dict, res) -> None:
    """Add one solve's work (its ``solver.SolverResult``) to a stage's
    ``COUNTERS``."""
    extras["solves"] += 1
    extras["newton_steps"] += res.iterations
    extras["factorizations"] += res.factorizations
    extras["failed_factorizations"] += res.failed_factorizations


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


@dataclass
class IterationRecord:
    iteration: int
    objective: float
    kkt_residual: Optional[float] = None
    feasible: Optional[bool] = None
    wall_time: float = 0.0
    extras: dict = field(default_factory=dict)


@dataclass
class RunReport:
    """Objective trace, residuals and timing of one optimization run,
    timed from the report's construction (``add``, ``finish``)."""

    stage: str
    status: str = "running"
    iterations: list[IterationRecord] = field(default_factory=list)
    total_time: float = 0.0
    sub_reports: list["RunReport"] = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    _t0: float = field(default_factory=time.perf_counter, init=False,
                       repr=False, compare=False)

    def add(self, objective: float, kkt_residual: Optional[float] = None,
            feasible: Optional[bool] = None, **extras) -> None:
        self.iterations.append(IterationRecord(
            iteration=len(self.iterations), objective=float(objective),
            kkt_residual=kkt_residual, feasible=feasible,
            wall_time=time.perf_counter() - self._t0, extras=extras))

    def finish(self, status: Optional[str] = None) -> "RunReport":
        """Stop the clock (and set ``status``, when given); returns self."""
        if status is not None:
            self.status = status
        self.total_time = time.perf_counter() - self._t0
        return self

    @property
    def objectives(self) -> list[float]:
        return [r.objective for r in self.iterations]

    @property
    def final_objective(self) -> float:
        return self.iterations[-1].objective

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "status": self.status,
            "total_time": self.total_time,
            "iterations": [
                {
                    "iteration": r.iteration,
                    "objective": r.objective,
                    "kkt_residual": r.kkt_residual,
                    "feasible": r.feasible,
                    "wall_time": r.wall_time,
                    **_jsonable(r.extras),
                }
                for r in self.iterations
            ],
            "sub_reports": [s.to_dict() for s in self.sub_reports],
            "extras": _jsonable(self.extras),
        }
