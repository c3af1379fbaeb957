#!/usr/bin/env python3
"""Digest of the CLI artifacts on the benchmark configurations.

Writes the five benchmark configurations (free endpoints at T = 40, 70,
100 and 130 s with 2 s slots; fixed endpoints at T = 100 s with 1 s
slots), runs ``ao``, ``trajectory``, ``power``, ``baseline static``,
``baseline ferry``, ``eval`` and ``check`` on each, and prints one line
per run: configuration, command, exit code, the SHA-256 of
``trajectory.csv`` plus ``report.json`` with the timing fields
(``wall_time``, ``wall_time_s``, ``total_time``) stripped, the run's
``objective`` from ``report.json`` (``repr``, all digits), its stage
statuses (the run's, then each sub-stage's, depth first) and its total
Newton steps (``newton_steps``: for ``ao`` the sum over every multistart
run, else over the stages of its report; ``-`` when the report counts
none, as for ``baseline``, ``eval`` and ``check``).

A refactor that keeps the artifacts prints the same lines.  Run it
against two source trees and diff the output::

    PYTHONPATH=src python3 scripts/artifact_digest.py > change.txt
    PYTHONPATH=/path/to/parent/src python3 scripts/artifact_digest.py > parent.txt
    diff parent.txt change.txt

A change that moves only the last bits (say, a new summation order)
changes digests; the objectives and statuses on the same lines let two
trees be compared at a tolerance.  Run at several ``OPENBLAS_NUM_THREADS``
values, identical lines also pin the step counts to the thread count.
"""
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import yaml

from secrelay import cli

TIMING_KEYS = {"wall_time", "wall_time_s", "total_time"}

_SCENARIO = {
    "bob_xy_m": [2000.0, 0.0], "eve_xy_m": [1000.0, 100.0],
    "altitude_m": 100.0, "v_max_mps": 50.0, "ref_snr_db": 80.0,
    "p_bar_s": "10 dBm", "p_bar_r": "10 dBm",
}

CONFIGS = {
    **{f"free-T{t}": {**_SCENARIO, "horizon_s": float(t), "slot_len_s": 2.0}
       for t in (40, 70, 100, 130)},
    "fixed-T100": {**_SCENARIO, "horizon_s": 100.0, "slot_len_s": 1.0,
                   "start_xy_m": [200.0, -100.0],
                   "end_xy_m": [1800.0, -100.0]},
}

COMMANDS = (["ao"], ["trajectory"], ["power"], ["baseline", "static"],
            ["baseline", "ferry"], ["eval"], ["check"])


def _strip_timing(doc):
    if isinstance(doc, dict):
        return {k: _strip_timing(v) for k, v in doc.items()
                if k not in TIMING_KEYS}
    if isinstance(doc, list):
        return [_strip_timing(v) for v in doc]
    return doc


def artifact_digest(out_dir: Path) -> str:
    """SHA-256 of the run's artifacts; a missing one hashes as its name."""
    h = hashlib.sha256()
    csv_path, report_path = out_dir / "trajectory.csv", out_dir / "report.json"
    h.update(csv_path.read_bytes() if csv_path.exists() else b"<no csv>")
    if report_path.exists():
        report = _strip_timing(json.loads(report_path.read_text()))
        h.update(json.dumps(report, sort_keys=True).encode())
    else:
        h.update(b"<no report>")
    return h.hexdigest()


def _statuses(report) -> list:
    """The report's status, then each sub-report's, depth first."""
    if not isinstance(report, dict):
        return []
    return [report.get("status")] + [
        s for sub in report.get("sub_reports", []) for s in _statuses(sub)]


def _newton_steps(report) -> list:
    """The ``newton_steps`` counts of the report: its multistart runs'
    when it has them, else its own and each sub-report's, depth first."""
    if not isinstance(report, dict):
        return []
    extras = report.get("extras", {})
    if "multistart_runs" in extras:
        return [r["newton_steps"] for r in extras["multistart_runs"]]
    own = [extras["newton_steps"]] if "newton_steps" in extras else []
    return own + [n for sub in report.get("sub_reports", [])
                  for n in _newton_steps(sub)]


def objective_fields(out_dir: Path) -> str:
    """The run's objective (``repr``), stage statuses and Newton steps."""
    report_path = out_dir / "report.json"
    if not report_path.exists():
        return "objective=<no report>"
    doc = json.loads(report_path.read_text())
    statuses = ",".join(map(str, _statuses(doc.get("report"))))
    steps = _newton_steps(doc.get("report"))
    return (f"objective={doc.get('objective')!r} statuses={statuses or '-'} "
            f"newton_steps={sum(steps) if steps else '-'}")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, scenario in CONFIGS.items():
            cfg = tmp / f"{name}.yaml"
            cfg.write_text(yaml.safe_dump({"scenario": scenario}))
            for cmd in COMMANDS:
                out_dir = tmp / name / "-".join(cmd)
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main([*cmd, str(cfg), "--out-dir",
                                     str(out_dir)])
                print(f"{name:<10} {' '.join(cmd):<15} exit={code} "
                      f"{artifact_digest(out_dir)} "
                      f"{objective_fields(out_dir)}", flush=True)


if __name__ == "__main__":
    main()
