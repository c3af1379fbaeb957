"""Workload process: times one secrelay workload in a closed loop.

Started by ``run.py`` with the BLAS thread count pinned in its
environment. Prints one JSON object on its last stdout line. With
``--probe`` it only measures set-up: importing numpy, scipy and secrelay
and building the scenario.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

SRC = Path(__file__).resolve().parent.parent / "src"


def _setup(args):
    """Import the stack and build the scenario; return (wl, scn, seconds)."""
    t0 = perf_counter()
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import secrelay
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    scn = wl.scenario(args.seed, args.tiny, args.move_eve)
    setup_s = perf_counter() - t0
    if SRC not in Path(secrelay.__file__).resolve().parents:
        raise SystemExit(f"secrelay imported from {secrelay.__file__}, "
                         f"not from {SRC}")
    return wl, scn, setup_s


def _environment() -> dict:
    import numpy
    import scipy
    env = {
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    for mod in (numpy, scipy):
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            env[f"{mod.__name__}_blas"] = f"{blas['name']} {blas['version']}"
        except (TypeError, KeyError):
            env[f"{mod.__name__}_blas"] = "unknown"
    return env


def _steal_s() -> float:
    """Machine-wide CPU time stolen by the hypervisor so far, in seconds
    (the ``steal`` column of ``/proc/stat``); 0 where it is not kept."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _call(wl, scn, tracer, args) -> dict:
    """One workload call under ``tracer``, then its output check."""
    with tracer.installed():
        steal0, cpu0, t0 = _steal_s(), process_time(), perf_counter()
        try:
            out, problems = wl.call(scn), []
        except Exception:  # a failed call is counted, the loop goes on
            out, problems = None, [traceback.format_exc(limit=3)]
        wall_s = perf_counter() - t0
        cpu_s, steal_s = process_time() - cpu0, _steal_s() - steal0
    if out is not None:
        problems = wl.check(
            scn, out, not wl.moves_eve(args.seed, args.move_eve), args.tiny)
    attempted, failed = tracer.stage_calls()
    return {"traced": tracer.full, "wall_s": wall_s, "cpu_s": cpu_s,
            "steal_s": steal_s,
            "objective": None if out is None else out.objective,
            "problems": problems, "stage_calls": attempted,
            "stage_failed": failed}


def run(args) -> dict:
    wl, scn, _ = _setup(args)
    import spans
    calls, layers = [], []
    t_begin = perf_counter()
    while True:
        calls.append(_call(wl, scn, spans.Tracer(full=False), args))
        if args.trace:
            tracer = spans.Tracer(full=True)
            calls.append(_call(wl, scn, tracer, args))
            layers.append(tracer.layer_metrics(calls[-1]["wall_s"]))
        if perf_counter() - t_begin >= args.seconds:
            break

    # Every call of a run must reproduce the first objective exactly,
    # traced or not.
    ref = calls[0]["objective"]
    for c in calls[1:]:
        if c["objective"] is not None and c["objective"] != ref:
            c["problems"].append(f"objective {c['objective']!r} differs from "
                                 f"the first call's {ref!r}")

    result = {"calls": calls, "env": _environment(),
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if args.trace:
        walls = {traced: statistics.median(c["wall_s"] for c in calls
                                           if c["traced"] == traced)
                 for traced in (False, True)}
        result["layers"] = {
            name: [statistics.median(sample[name][0] for sample in layers),
                   unit]
            for name, (_, unit) in layers[0].items()}
        result["layers"]["trace.overhead_s"] = [walls[True] - walls[False],
                                                "s"]
        if args.spans:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            tracer.save(args.spans)
    return result


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--move-eve", action="store_true")
    ap.add_argument("--probe", action="store_true",
                    help="measure set-up only")
    ap.add_argument("--spans", type=Path,
                    help="write the last traced call's spans here (.npz)")
    args = ap.parse_args(argv)
    if args.probe:
        print(json.dumps({"setup_s": _setup(args)[2]}))
        return
    print(json.dumps(run(args)))


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    main()
