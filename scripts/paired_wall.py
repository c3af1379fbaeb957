#!/usr/bin/env python3
"""Paired benchmark runs of two source trees, parent and change.

Runs each tree's own ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` from that tree's root, K pairs, alternating which side runs
first.  Pair k runs seed k mod the number of ``--seeds`` (default: seed 0
alone); on the AO workload a change's gain can belong to one seed's
path, so a claim there should span several.  It prints each pair's
seed, ``wall_s`` and ratio, each side's median and quartiles, the
change's wins (ties count for neither side) and whether the gain rule
holds: the change wins at least nine tenths of the pairs, and the
parent's median exceeds the change's by more than the parent's
interquartile range.  It also prints each side's median of the other
end-to-end metrics (``objective``, ``ok_frac``, ``setup_s``,
``peak_rss_mb``) and whether every run's output check passed.

    python3 scripts/paired_wall.py ../parent . --workload ao-free-T100 \\
        --seeds 0,3,7 --pairs 12

Each run writes its result file into its own tree's ``perfbench/results``.
One pair takes about twice the run length plus the benchmark's set-up
probes (about 25 s at ``--seconds 10`` on a 2-vCPU x86-64 host).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("wall_s", "objective", "ok_frac", "setup_s", "peak_rss_mb")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its metrics by name and
    whether its output check passed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{tree}: perfbench/run.py exited "
                         f"{proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    vals = {k: out["metrics"][k]["value"] for k in METRICS}
    vals["correct"] = out["correct"]
    return vals


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def gain_holds(parent: list[float], change: list[float]) -> tuple[int, bool]:
    """The change's wins on ``wall_s``, and whether it wins at least nine
    tenths of the pairs with a median gap above the parent's IQR."""
    wins = sum(c < p for p, c in zip(parent, change))
    q1, med_p, q3 = quartiles(parent)
    gap = med_p - statistics.median(change)
    return wins, wins >= 0.9 * len(parent) and gap > q3 - q1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("parent", type=Path, help="root of the parent's tree")
    ap.add_argument("change", type=Path, help="root of the change's tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="0",
                    help="comma-separated seeds; pair k runs seed k mod "
                         "their number")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    seeds = [int(s) for s in args.seeds.split(",")]

    runs = {"parent": [], "change": []}
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    print(f"workload {args.workload}, seeds {seeds}, "
          f"{args.pairs} pairs of {args.seconds:g} s runs")
    for i in range(args.pairs):
        seed = seeds[i % len(seeds)]
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(trees[side], args.workload, seed,
                                       args.seconds))
        p, c = runs["parent"][-1]["wall_s"], runs["change"][-1]["wall_s"]
        print(f"pair {i + 1:2d} (seed {seed}, {order[0]} first): parent "
              f"{p:.4f} s, change {c:.4f} s, ratio {c / p:.3f}", flush=True)

    wall = {side: [r["wall_s"] for r in rs] for side, rs in runs.items()}
    for side in ("parent", "change"):
        q1, med, q3 = quartiles(wall[side])
        others = ", ".join(
            f"{k} {statistics.median(r[k] for r in runs[side])!r}"
            for k in METRICS[1:])
        print(f"{side}: wall_s median {med:.4f} s (quartiles {q1:.4f} - "
              f"{q3:.4f}); {others}; all correct "
              f"{all(r['correct'] for r in runs[side])}")
    wins, holds = gain_holds(wall["parent"], wall["change"])
    ratio = statistics.median(c / p for p, c in zip(wall["parent"],
                                                    wall["change"]))
    print(f"change wins {wins}/{args.pairs}; median per-pair ratio "
          f"{ratio:.3f}; gain rule holds: {'yes' if holds else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
