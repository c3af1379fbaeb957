#!/usr/bin/env python3
"""Trajectory optimization at fixed equal powers on the benchmark link.

Runs the sequential convex trajectory optimizer on the fixed-endpoint
benchmark scenario (2 km source-destination link, eavesdropper at
(1000, 100), 100 m altitude, 100 s horizon) and prints the per-iteration
secrecy objective, showing the monotone climb from the straight-line
start.  Writes trajectory.csv and report.json to --out-dir.
"""
import argparse
import time
from pathlib import Path

from secrelay import model
from secrelay.cli import benchmark_scenario, write_report_json, write_trajectory_csv
from secrelay.trajectory_scp import ScpOptions, initial_trajectory, scp_optimize


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--horizon-s", type=float, default=100.0)
    ap.add_argument("--slot-len-s", type=float, default=1.0)
    ap.add_argument("--out-dir", type=Path, default=Path("out/trajectory"))
    args = ap.parse_args()

    scn = benchmark_scenario(horizon_s=args.horizon_s,
                             slot_len_s=args.slot_len_s,
                             fixed_endpoints=True)
    traj0 = initial_trajectory(scn)
    pw = model.equal_power_start(scn, traj0)

    t0 = time.perf_counter()
    traj, report = scp_optimize(scn, pw, traj0, opts=ScpOptions(max_iter=50))
    wall = time.perf_counter() - t0

    print(f"{'iter':>4}  {'objective (bits/s/Hz x slots)':>30}  {'kkt':>9}")
    for rec in report.iterations:
        kkt = "" if rec.kkt_residual is None else f"{rec.kkt_residual:.2e}"
        print(f"{rec.iteration:>4}  {rec.objective:>30.6f}  {kkt:>9}")
    print(f"status={report.status} after {len(report.iterations) - 1} "
          f"iterations in {wall:.1f}s")
    print(f"average secrecy rate: "
          f"{report.final_objective / scn.n_slots:.4f} bits/s/Hz")

    args.out_dir.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(args.out_dir / "trajectory.csv", scn, traj, pw)
    write_report_json(args.out_dir / "report.json", scn, {}, report, traj,
                      pw, 1e-6, wall)
    print(f"artifacts in {args.out_dir}")


if __name__ == "__main__":
    main()
