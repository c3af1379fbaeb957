"""Benchmark one secrelay workload and print its metrics.

    python3 perfbench/run.py --workload static-T130 --seed 0 --seconds 10

Runs from the root of a source checkout. Set-up time is the median of
eight fresh processes that import the stack and build the scenario.
The workload itself runs in one more process (``worker.py``) with BLAS
pinned to one thread, in a closed loop: one call at a time, until
``--seconds`` have passed. ``--trace 1`` alternates untraced and traced
calls and reports per-layer metrics instead of the end-to-end ones.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. An operation is one workload
call with its output check; it fails when the call raises or the check
finds a wrong output. The full result, with the environment and every
call, goes to ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SETUP_PROBES = 4  # before the workload process, and again after it
TIME_LIMIT_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


def _worker(args, extra: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--tiny"] * args.tiny + ["--move-eve"] * args.move_eve
    proc = subprocess.run(cmd + extra, env={**os.environ, **PINNED},
                          capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _end_to_end(res: dict, setup_s: float) -> dict:
    timed = [c for c in res["calls"] if not c["traced"]]
    # Stage calls and output checks; a stage call fails when it raises or
    # ends with a solver_* status.
    ops = sum(c["stage_calls"] + 1 for c in timed)
    bad = sum(c["stage_failed"] + bool(c["problems"]) for c in timed)
    return {
        "wall_s": [statistics.median(c["wall_s"] for c in timed), "s"],
        # A call that raised delivered no plan: it scores 0.
        "objective": [statistics.median(c["objective"] or 0.0
                                        for c in timed), "bit/s/Hz.slot"],
        "ok_frac": [(ops - bad) / ops, "ratio"],
        "setup_s": [setup_s, "s"],
        "peak_rss_mb": [res["peak_rss_mb"], "MB"],
    }


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test size; no reference check")
    ap.add_argument("--move-eve", action="store_true",
                    help="let the seed move Eve on static-T130 too; today\n"
                         "about half of those seeds raise StageFailure")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    def probes() -> list[float]:
        return [_worker(args, ["--probe"], deadline)["setup_s"]
                for _ in range(SETUP_PROBES)]

    # Probes before and after the workload process sample the host's speed
    # at two moments; on a shared host it swings by up to 1.6x.
    setups = probes()
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}"
            + ("-tiny" if args.tiny else "")
            + ("-moved" if args.move_eve else ""))
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        extra += ["--spans", str(RESULTS / f"{stem}.spans.npz")]
    res = _worker(args, extra, deadline)
    setups += probes()

    setup_s = statistics.median(setups)
    metrics = (res["layers"] if args.trace else _end_to_end(res, setup_s))
    failed = sum(bool(c["problems"]) for c in res["calls"])
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{stem}.json").write_text(json.dumps(
        {"args": vars(args), "setup_samples_s": setups, "metrics": metrics,
         **res}, indent=1))

    print("env " + json.dumps(res["env"]))
    for c in res["calls"]:
        print(f"call {'traced' if c['traced'] else 'timed'}: "
              f"wall {c['wall_s']:.3f} s, cpu {c['cpu_s']:.3f} s, "
              f"steal {c['steal_s']:.2f} s (machine-wide)")
    for c in res["calls"]:
        for p in c["problems"]:
            print("check failed: " + p.strip().replace("\n", " | "))
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value if value is None else f'{value:.6g}'} "
              f"{unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(res["calls"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
