#!/usr/bin/env python3
"""Joint optimization vs. static relaying vs. data ferrying.

Sweeps the free-endpoint benchmark scenario over a family of mission
horizons and prints the average secrecy rate achieved by the alternating
optimizer and by the two benchmark schemes, reproducing the qualitative
ordering: the mobile relay dominates everywhere, ferrying overtakes
static relaying once the horizon leaves enough time beyond the transit.
Writes a summary CSV to --out-dir.
"""
import argparse
import csv
import time
from pathlib import Path

from secrelay import benchmark_scenario
from secrelay.ao import ao_optimize
from secrelay.baselines import data_ferry, static_relay_best, transit_slot_count


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--horizons-s", type=float, nargs="+",
                    default=[40.0, 70.0, 100.0, 130.0])
    ap.add_argument("--slot-len-s", type=float, default=2.0)
    ap.add_argument("--out-dir", type=Path, default=Path("out/baselines"))
    args = ap.parse_args()

    rows = []
    print(f"{'T (s)':>6} {'AO':>8} {'static':>8} {'ferry':>8} "
          f"{'transit':>8} {'time':>7}")
    for horizon in args.horizons_s:
        scn = benchmark_scenario(horizon_s=horizon,
                                 slot_len_s=args.slot_len_s)
        t0 = time.perf_counter()
        _, _, report = ao_optimize(scn)
        st = static_relay_best(scn)
        fe = data_ferry(scn)
        wall = time.perf_counter() - t0
        n = scn.n_slots
        row = {
            "horizon_s": horizon,
            "ao_avg": report.final_objective / n,
            "static_avg": st.objective / n,
            "ferry_avg": fe.objective / n,
            "transit_fraction": transit_slot_count(scn) / n,
        }
        rows.append(row)
        print(f"{horizon:>6g} {row['ao_avg']:>8.4f} {row['static_avg']:>8.4f} "
              f"{row['ferry_avg']:>8.4f} {row['transit_fraction']:>7.0%} "
              f"{wall:>6.1f}s")

    args.out_dir.mkdir(parents=True, exist_ok=True)
    out = args.out_dir / "comparison.csv"
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"summary written to {out}")


if __name__ == "__main__":
    main()
