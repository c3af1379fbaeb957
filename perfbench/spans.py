"""Spans around secrelay's public boundaries, recorded from outside it.

``Tracer.installed()`` replaces each boundary function, in every
``secrelay`` module that holds it (by-name imports included) and in
``scipy.linalg``, with a wrapper that records a span: name, start, end
and the enclosing span. Program callbacks are wrapped through the public
``SmoothConvexProgram``/``ConstraintBlock`` fields of each program passed
to ``solve``. Leaving the context restores every original.

A stage-only tracer (``full=False``) wraps just ``dc_allocate`` and
``scp_optimize``: it records a few dozen spans per workload call, enough
to count failed stage calls in the untraced timing runs.
"""
from __future__ import annotations

import contextlib
import dataclasses
import sys
from time import perf_counter

import numpy as np
import scipy.linalg

import secrelay

STAGES = ("power_dc", "trajectory_scp")
MODEL_FUNCS = ("rate_profile", "check_mobility", "check_causality",
               "check_power_budget", "check_all")
FACTOR_FUNCS = ("cho_factor", "cholesky_banded")
FACTOR_SOLVE_FUNCS = ("cho_solve", "cho_solve_banded")

# Span kinds: the layer (and, for the solver, the part) a span is charged to.
KINDS = ("ao", "baselines", "power_dc", "trajectory_scp", "solver",
         "solver.callback", "solver.factor", "solver.factor_solve", "model")


def _stage_outcome(out) -> tuple[str, int]:
    """(status, accepted steps) of a stage call's RunReport."""
    report = out[1]
    return report.status, len(report.iterations) - 1


def _stage_failed(outcome) -> bool:
    """A stage call fails when it raised or ended with a solver_* status."""
    return (not isinstance(outcome, tuple)
            or outcome[0].startswith("solver_"))


class Tracer:
    def __init__(self, full: bool = True):
        self.full = full
        self.kind: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.info: dict[int, object] = {}   # span index -> outcome
        self._stack = [-1]

    # -- recording ---------------------------------------------------------

    def _wrap(self, kind: str, fn, outcome=None):
        k = KINDS.index(kind)
        kinds, starts, ends, parents = (self.kind, self.start, self.end,
                                        self.parent)
        stack, info = self._stack, self.info

        def wrapper(*args, **kwargs):
            i = len(kinds)
            kinds.append(k)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                info[i] = exc
                raise
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if outcome is not None:
                info[i] = outcome(out)
            return out

        return wrapper

    def _wrap_program(self, prog):
        cb = lambda f: f if f is None else self._wrap("solver.callback", f)
        ineqs = [dataclasses.replace(b, value=cb(b.value),
                                     jacobian=cb(b.jacobian),
                                     hess_weighted=cb(b.hess_weighted))
                 for b in prog.ineqs]
        return dataclasses.replace(prog, objective=cb(prog.objective),
                                   gradient=cb(prog.gradient),
                                   hessian=cb(prog.hessian), ineqs=ineqs)

    def _replacements(self) -> dict:
        """Original boundary function -> its wrapper."""
        rep = {
            secrelay.power_dc.dc_allocate: self._wrap(
                "power_dc", secrelay.power_dc.dc_allocate, _stage_outcome),
            secrelay.trajectory_scp.scp_optimize: self._wrap(
                "trajectory_scp", secrelay.trajectory_scp.scp_optimize,
                _stage_outcome),
        }
        if not self.full:
            return rep
        rep[secrelay.ao.ao_optimize] = self._wrap(
            "ao", secrelay.ao.ao_optimize,
            outcome=lambda out: len(out[2].extras.get(
                "multistart_objectives", [None])))
        rep[secrelay.baselines.static_relay_best] = self._wrap(
            "baselines", secrelay.baselines.static_relay_best,
            outcome=lambda res: res.evaluated)
        solve = secrelay.solver.solve
        rep[solve] = self._wrap(
            "solver", lambda prog, *a, **kw: solve(self._wrap_program(prog),
                                                   *a, **kw),
            outcome=lambda res: res.status)
        for name in MODEL_FUNCS:
            fn = getattr(secrelay.model, name)
            rep[fn] = self._wrap("model", fn)
        for names, kind in ((FACTOR_FUNCS, "solver.factor"),
                            (FACTOR_SOLVE_FUNCS, "solver.factor_solve")):
            for name in names:
                fn = getattr(scipy.linalg, name)
                rep[fn] = self._wrap(kind, fn)
        return rep

    @contextlib.contextmanager
    def installed(self):
        rep = self._replacements()
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "secrelay"
                                         or n.startswith("secrelay."))]
        modules.append(scipy.linalg)
        by_id = {id(fn): wrapper for fn, wrapper in rep.items()}
        patched = []
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if id(val) in by_id:
                    patched.append((mod, attr, val))
                    setattr(mod, attr, by_id[id(val)])
        try:
            yield self
        finally:
            for mod, attr, val in patched:
                setattr(mod, attr, val)

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        kind = np.asarray(self.kind, dtype=np.int16)
        start = np.asarray(self.start)
        end = np.asarray(self.end)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return kind, start, parent, dur, dur - child

    def stage_calls(self) -> tuple[int, int]:
        """(attempted, failed) stage calls."""
        stage_kinds = {KINDS.index(s) for s in STAGES}
        outcomes = [self.info.get(i) for i, k in enumerate(self.kind)
                    if k in stage_kinds]
        return len(outcomes), sum(map(_stage_failed, outcomes))

    def save(self, path) -> None:
        kind, start, parent, dur, _ = self.arrays()
        t0 = start.min() if start.size else 0.0
        np.savez(path, kinds=np.array(KINDS), kind=kind, start=start - t0,
                 end=start - t0 + dur, parent=parent)

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer counts and self times of one traced workload call, as
        ``name -> (value, unit)``."""
        kind, _, parent, dur, self_s = self.arrays()
        idx = {k: np.flatnonzero(kind == i) for i, k in enumerate(KINDS)}
        secs = {k: float(self_s[v].sum()) for k, v in idx.items()}
        n = {k: int(v.size) for k, v in idx.items()}
        ok = {i: out for i, out in self.info.items()
              if not isinstance(out, BaseException)}

        def owner(i: int) -> str:
            """Kind of the nearest enclosing stage span, or ''."""
            i = parent[i]
            while i >= 0 and KINDS[kind[i]] not in STAGES:
                i = parent[i]
            return KINDS[kind[i]] if i >= 0 else ""

        solves = {s: 0 for s in STAGES}
        nonoptimal = 0
        for i in idx["solver"]:
            if i in ok:
                nonoptimal += ok[i] != "optimal"
            stage = owner(i)
            if stage:
                solves[stage] += 1
        accepted = {s: sum(ok[i][1] for i in idx[s] if i in ok)
                    for s in STAGES}
        ao_index = KINDS.index("ao")
        factor_s = secs["solver.factor"] + secs["solver.factor_solve"]
        retries = sum(isinstance(self.info.get(i), BaseException)
                      for i in idx["solver.factor"])
        # Every Newton step, of phase I or the main phase, ends in exactly
        # one factorization that did not raise.
        steps = n["solver.factor"] - retries
        return {
            "solver.factor_s": (factor_s, "s"),
            "solver.factor_calls": (n["solver.factor"], "count"),
            "solver.factor_retries": (retries, "count"),
            "solver.self_s": (secs["solver"], "s"),
            "solver.ms_per_newton_step": (
                1e3 * float(dur[idx["solver"]].sum()) / max(steps, 1), "ms"),
            "solver.callback_s": (secs["solver.callback"], "s"),
            "solver.callback_calls": (n["solver.callback"], "count"),
            "solver.solves": (n["solver"], "count"),
            "solver.newton_steps": (steps, "count"),
            "solver.nonoptimal": (nonoptimal, "count"),
            "power_dc.calls": (n["power_dc"], "count"),
            "power_dc.self_s": (secs["power_dc"], "s"),
            "power_dc.accepted_steps": (accepted["power_dc"], "count"),
            "power_dc.accept_ratio": (
                accepted["power_dc"] / max(solves["power_dc"], 1), "ratio"),
            "power_dc.stalled": (
                sum(ok.get(i, ("",))[0] == "stalled" for i in idx["power_dc"]),
                "count"),
            "trajectory_scp.calls": (n["trajectory_scp"], "count"),
            "trajectory_scp.self_s": (secs["trajectory_scp"], "s"),
            "trajectory_scp.accepted_steps": (
                accepted["trajectory_scp"], "count"),
            "trajectory_scp.accept_ratio": (
                accepted["trajectory_scp"]
                / max(solves["trajectory_scp"], 1), "ratio"),
            "trajectory_scp.failed": (
                sum(_stage_failed(self.info.get(i))
                    for i in idx["trajectory_scp"]), "count"),
            "ao.self_s": (secs["ao"], "s"),
            "ao.starts": (sum(ok.get(i, 0) for i in idx["ao"]), "count"),
            "ao.outer_iters": (
                sum(bool(parent[i] >= 0 and kind[parent[i]] == ao_index)
                    for i in idx["power_dc"]), "count"),
            "baselines.self_s": (secs["baselines"], "s"),
            "baselines.locations_evaluated": (
                sum(ok.get(i, 0) for i in idx["baselines"]), "count"),
            "model.calls": (n["model"], "count"),
            "model.self_s": (secs["model"], "s"),
            "trace.coverage": (sum(secs.values()) / wall_s, "ratio"),
        }
