"""Batch command-line front-end.

Reads a YAML scenario configuration, dispatches a pipeline stage and
writes machine-readable artifacts:

* ``trajectory.csv`` — one row per slot with positions, powers and rates;
* ``report.json`` — per-iteration objectives, KKT residuals, feasibility
  slacks, wall-clock time and the fully resolved configuration;
* optional ``trajectory_iter_<l>.csv`` snapshots of the trajectory after
  each outer iteration.

Exit codes: 0 success, 2 configuration error (a ``--trajectory`` file
with the wrong slot count or a value the model rejects included), 3 an
infeasible plan: a ``power`` or ``trajectory`` input, or a ``check``
plan, that fails ``model.check_all`` at ``feas_tol``, 4 numerical
failure in a stage (``report.json`` only).

Configuration format (YAML)::

    scenario:
      alice_xy_m: [0, 0]          # optional, default origin
      bob_xy_m: [2000, 0]
      eve_xy_m: [1000, 100]
      altitude_m: 100
      horizon_s: 100              # either horizon_s or n_slots
      slot_len_s: 1               # optional, default 1 s
      v_max_mps: 50
      ref_snr_db: 80              # or ref_snr_linear
      p_bar_s: 10 dBm             # unit suffix mandatory: dBm or W
      p_bar_r: 10 dBm
      start_xy_m: [200, -100]     # optional; omit for a free endpoint
      end_xy_m: [1800, -100]      # optional
    run:                          # all optional
      out_dir: out
      save_iterates: false        # trajectory only
      rel_tol: 1.0e-4             # ao and trajectory only
      max_iter: 100               # ao and trajectory only
      feas_tol: 1.0e-6

The keys present set the run's one ``ScpOptions``, each key one field.
Every command reads ``feas_tol``, the tolerance of all its feasibility
checks and stages.  ``ao`` and ``trajectory`` also read ``rel_tol``,
which stops each trajectory stage and AO's outer loop, and
``max_iter``, which caps each trajectory stage (AO's own cap is
``ao.MAX_ITER``).  ``power`` solves one convex program, and
``baseline``, ``eval`` and ``check`` run no optimizer, so they read
only ``feas_tol``.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from . import model
from .ao import ao_optimize
from .baselines import _free_endpoints, data_ferry, static_relay_best
from .model import PowerAllocation, Scenario, Trajectory
from .model import benchmark_scenario  # noqa: F401  (kept importable here)
from .power_dc import dc_allocate
from .report import RunReport
from .trajectory_scp import ScpOptions, initial_trajectory, scp_optimize

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

CSV_HEADER = "slot,x_m,y_m,p_s_w,p_r_w,r_relay,r_bob,r_eve"


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Configuration parsing


def parse_power(value) -> float:
    """Power value with a mandatory unit suffix: ``"10 dBm"`` or
    ``"0.01 W"``. Returns watts."""
    if not isinstance(value, str):
        raise ConfigError(
            f"power value {value!r} needs a unit suffix (dBm or W)")
    text = value.strip()
    for suffix, conv in (("dBm", lambda v: 10.0 ** (v / 10.0) * 1e-3),
                         ("W", float)):
        if text.endswith(suffix):
            num = text[: -len(suffix)].strip()
            try:
                return conv(float(num))
            except ValueError:
                raise ConfigError(f"cannot parse power value {value!r}")
            except OverflowError:
                raise ConfigError(f"power value {value!r} is out of range")
    raise ConfigError(
        f"power value {value!r} needs a unit suffix (dBm or W)")


def _number(value, key: str) -> float:
    """The value of the config key ``key`` as a float; a bool is not a
    number."""
    try:
        if not isinstance(value, bool):
            return float(value)
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{key} must be a number, got {value!r}")


def _xy(value, key: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (2,):
        raise ConfigError(f"{key} must be a pair of coordinates in metres")
    return arr


_SCN_KEYS = {"alice_xy_m", "bob_xy_m", "eve_xy_m", "altitude_m",
             "horizon_s", "n_slots", "slot_len_s", "v_max_mps",
             "ref_snr_db", "ref_snr_linear", "p_bar_s", "p_bar_r",
             "start_xy_m", "end_xy_m"}
_RUN_KEYS = {"out_dir", "save_iterates", "rel_tol", "max_iter", "feas_tol"}


def parse_scenario(doc: dict) -> Scenario:
    unknown = set(doc) - _SCN_KEYS
    if unknown:
        raise ConfigError(f"unknown scenario keys: {sorted(unknown)}")
    for key in ("bob_xy_m", "eve_xy_m", "v_max_mps", "altitude_m",
                "p_bar_s", "p_bar_r"):
        if key not in doc:
            raise ConfigError(f"missing scenario key: {key}")
    if ("ref_snr_db" in doc) == ("ref_snr_linear" in doc):
        raise ConfigError(
            "exactly one of ref_snr_db / ref_snr_linear is required")
    try:
        ref_snr = (10.0 ** (_number(doc["ref_snr_db"], "ref_snr_db") / 10.0)
                   if "ref_snr_db" in doc
                   else _number(doc["ref_snr_linear"], "ref_snr_linear"))
    except OverflowError:
        raise ConfigError(f"ref_snr_db {doc['ref_snr_db']!r} is out of range")
    slot_len = _number(doc.get("slot_len_s", 1.0), "slot_len_s")
    if "n_slots" in doc:
        if "horizon_s" in doc:
            raise ConfigError("give either n_slots or horizon_s, not both")
        n_slots = doc["n_slots"]    # ``Scenario`` checks it is an integer
    elif "horizon_s" in doc:
        horizon = _number(doc["horizon_s"], "horizon_s")
        if not 0 < slot_len < np.inf:
            raise ConfigError("slot_len_s must be finite and > 0")
        if not np.isfinite(horizon):
            raise ConfigError("horizon_s must be finite")
        n_slots = round(horizon / slot_len)
        if abs(n_slots * slot_len - horizon) > 1e-9 * max(1.0, horizon):
            raise ConfigError("horizon_s must be a multiple of slot_len_s")
    else:
        raise ConfigError("missing scenario key: horizon_s or n_slots")
    try:
        return Scenario(
            alice_xy=_xy(doc.get("alice_xy_m", [0.0, 0.0]), "alice_xy_m"),
            bob_xy=_xy(doc["bob_xy_m"], "bob_xy_m"),
            eve_xy=_xy(doc["eve_xy_m"], "eve_xy_m"),
            altitude_h=_number(doc["altitude_m"], "altitude_m"),
            n_slots=n_slots,
            slot_len=slot_len,
            v_max=_number(doc["v_max_mps"], "v_max_mps"),
            ref_snr=ref_snr,
            p_bar_s=parse_power(doc["p_bar_s"]),
            p_bar_r=parse_power(doc["p_bar_r"]),
            start_xy=(_xy(doc["start_xy_m"], "start_xy_m")
                      if doc.get("start_xy_m") is not None else None),
            end_xy=(_xy(doc["end_xy_m"], "end_xy_m")
                    if doc.get("end_xy_m") is not None else None),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))


def parse_config(path: Path) -> tuple[Scenario, dict]:
    try:
        doc = yaml.safe_load(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config must be a mapping")
    unknown = set(doc) - {"scenario", "run"}
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    scn_doc = doc.get("scenario")
    if not isinstance(scn_doc, dict):
        raise ConfigError("config must contain a 'scenario' mapping")
    run = doc.get("run")
    if run is None:             # absent, or ``run:`` with no value
        run = {}
    if not isinstance(run, dict):
        raise ConfigError("'run' must be a mapping")
    unknown = set(run) - _RUN_KEYS
    if unknown:
        raise ConfigError(f"unknown run keys: {sorted(unknown)}")
    return parse_scenario(scn_doc), run


def resolved_config(scn: Scenario, run: dict) -> dict:
    """Canonical configuration document that re-parses to an identical
    scenario (watts, linear reference SNR, explicit slot count)."""
    scenario = {
        "alice_xy_m": [float(v) for v in scn.alice_xy],
        "bob_xy_m": [float(v) for v in scn.bob_xy],
        "eve_xy_m": [float(v) for v in scn.eve_xy],
        "altitude_m": float(scn.altitude_h),
        "n_slots": int(scn.n_slots),
        "slot_len_s": float(scn.slot_len),
        "v_max_mps": float(scn.v_max),
        "ref_snr_linear": float(scn.ref_snr),
        "p_bar_s": f"{scn.p_bar_s!r} W",
        "p_bar_r": f"{scn.p_bar_r!r} W",
        "start_xy_m": (None if scn.start_xy is None
                       else [float(v) for v in scn.start_xy]),
        "end_xy_m": (None if scn.end_xy is None
                     else [float(v) for v in scn.end_xy]),
    }
    return {"scenario": scenario, "run": dict(run)}


# ---------------------------------------------------------------------------
# Artifacts


def _fmt(x: float) -> str:
    return f"{float(x):.15g}"


def write_trajectory_csv(path: Path, scn: Scenario, traj: Trajectory,
                         pw: PowerAllocation) -> None:
    rp = model.rate_profile(scn, traj, pw)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER.split(","))
        for n in range(scn.n_slots):
            writer.writerow([
                n + 1, _fmt(traj.xy[n, 0]), _fmt(traj.xy[n, 1]),
                _fmt(pw.p_s[n]), _fmt(pw.p_r[n]),
                _fmt(rp.r_relay[n]), _fmt(rp.r_bob[n]), _fmt(rp.r_eve[n]),
            ])


def read_trajectory_csv(path: Path) -> tuple[Trajectory, PowerAllocation]:
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    if not rows:
        raise ConfigError(f"{path}: empty trajectory file")
    try:
        xy = np.array([[float(r["x_m"]), float(r["y_m"])] for r in rows])
        p_s = np.array([float(r["p_s_w"]) for r in rows])
        p_r = np.array([float(r["p_r_w"]) for r in rows])
    except (KeyError, TypeError, ValueError):
        raise ConfigError(f"{path}: expected columns {CSV_HEADER}")
    try:
        return Trajectory(xy), PowerAllocation(p_s=p_s, p_r=p_r)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")


def write_report_json(path: Path, scn: Scenario, run: dict,
                      report: Optional[RunReport], traj: Trajectory,
                      pw: PowerAllocation, tol: float,
                      wall_time: float, extra: Optional[dict] = None) -> dict:
    """Writes ``report.json`` and returns the document: the plan's
    objective, and the verdict of ``model.check_all`` at tol."""
    rp = model.rate_profile(scn, traj, pw)
    doc = {
        "config": resolved_config(scn, run),
        "objective": float(rp.secrecy_sum),
        "secrecy_rate_avg": float(rp.secrecy_avg),
        "feasibility": {
            name: {"feasible": bool(v.feasible), "worst_slack": float(v.worst)}
            for name, v in model.check_all(scn, traj, pw, tol).items()},
        "wall_time_s": float(wall_time),
        "report": report.to_dict() if report is not None else None,
    }
    if extra:
        doc.update(extra)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def _iterate_snapshot_writer(scn: Scenario, pw: PowerAllocation,
                             out_dir: Path):
    """Returns a callback that dumps trajectory_iter_<l>.csv, with the
    powers ``pw``, after each outer iteration."""
    counter = {"l": 0}

    def cb(traj: Trajectory) -> None:
        counter["l"] += 1
        write_trajectory_csv(out_dir / f"trajectory_iter_{counter['l']}.csv",
                             scn, traj, pw)
    return cb


# ---------------------------------------------------------------------------
# Subcommands


def _options(run: dict) -> ScpOptions:
    """The run's options from the run keys present, each key one field:
    ``max_iter`` an integer >= 1, ``rel_tol`` and ``feas_tol`` finite
    and >= 0."""
    opts = {}
    for key in ("rel_tol", "feas_tol"):
        if key in run:
            opts[key] = value = _number(run[key], key)
            if not 0 <= value < np.inf:
                raise ConfigError(f"{key} must be finite and >= 0, "
                                  f"got {run[key]!r}")
    if "max_iter" in run:
        n = run["max_iter"]
        if (isinstance(n, bool) or not isinstance(n, (int, float))
                or not float(n).is_integer() or n < 1):
            raise ConfigError(f"max_iter must be an integer >= 1, got {n!r}")
        opts["max_iter"] = int(n)
    return ScpOptions(**opts)


def _load_traj(scn: Scenario, args,
               tol: float) -> tuple[Trajectory, PowerAllocation]:
    """Trajectory and powers from ``--trajectory``, which must have one
    row per slot of ``scn``; without it, the initial trajectory with
    ``model.equal_power_start``."""
    if getattr(args, "trajectory", None):
        traj, pw = read_trajectory_csv(Path(args.trajectory))
        if len(traj) != scn.n_slots:
            raise ConfigError(f"{args.trajectory}: {len(traj)} slots, "
                              f"the scenario has {scn.n_slots}")
        return traj, pw
    traj = initial_trajectory(scn)
    return traj, model.equal_power_start(scn, traj, tol)


def _require_feasible(scn: Scenario, traj: Trajectory, pw: PowerAllocation,
                      tol: float) -> None:
    """Raises ``ValueError`` naming the worst slack of every family of
    ``model.check_all`` that the input plan fails at tol."""
    worst = {name: v.worst for name, v in
             model.check_all(scn, traj, pw, tol).items() if not v.feasible}
    if worst:
        raise ValueError(f"input plan violates {worst}")


def _finish(out_dir: Path, scn: Scenario, run: dict, report, traj, pw,
            tol: float, t0: float, extra: Optional[dict] = None,
            strict: bool = False) -> int:
    """Writes ``report.json``; exits 4 if its stage, or AO's last (the
    failed one), ended ``solver_*``; else writes ``trajectory.csv``, and
    with ``strict`` exits 3 if the plan fails the report's verdict."""
    doc = write_report_json(out_dir / "report.json", scn, run, report, traj,
                            pw, tol, time.perf_counter() - t0, extra)
    failed = report
    if report is not None and report.status == "inner_stage_failure":
        failed = report.sub_reports[-1]
    if failed is not None and failed.status.startswith("solver_"):
        print(f"numerical failure in stage {failed.stage}: {failed.status}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    write_trajectory_csv(out_dir / "trajectory.csv", scn, traj, pw)
    worst = {name: f["worst_slack"] for name, f in doc["feasibility"].items()
             if not f["feasible"]}
    print(f"objective {doc['objective']:.6f} bits/s/Hz "
          f"(avg {doc['secrecy_rate_avg']:.6f}); feasible={not worst}; "
          f"artifacts in {out_dir}")
    if strict and worst:
        print(f"infeasible: {worst}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_ao(scn, run, out_dir, args) -> int:
    t0 = time.perf_counter()
    opts = _options(run)
    traj, pw, report = ao_optimize(scn, opts=opts)
    return _finish(out_dir, scn, run, report, traj, pw, opts.feas_tol, t0)


def cmd_trajectory(scn, run, out_dir, args) -> int:
    t0 = time.perf_counter()
    opts = _options(run)
    tol = opts.feas_tol
    traj0, pw = _load_traj(scn, args, tol)
    _require_feasible(scn, traj0, pw, tol)
    cb = None
    if run.get("save_iterates"):
        cb = _iterate_snapshot_writer(scn, pw, out_dir)
    traj, report = scp_optimize(scn, pw, traj0, opts=opts,
                                iteration_callback=cb)
    return _finish(out_dir, scn, run, report, traj, pw, tol, t0)


def cmd_power(scn, run, out_dir, args) -> int:
    """Exits 3 when the input plan fails any family of
    ``model.check_all`` at ``feas_tol``, as ``trajectory`` does, instead
    of optimizing powers on it."""
    t0 = time.perf_counter()
    tol = _options(run).feas_tol
    traj, pw0 = _load_traj(scn, args, tol)
    _require_feasible(scn, traj, pw0, tol)
    pw, report = dc_allocate(scn, traj, pw_0=pw0, feas_tol=tol)
    return _finish(out_dir, scn, run, report, traj, pw, tol, t0)


def cmd_baseline(scn, run, out_dir, args) -> int:
    t0 = time.perf_counter()
    tol = _options(run).feas_tol
    if args.scheme == "static":
        res = static_relay_best(scn, feas_tol=tol)
        traj = Trajectory(np.tile(res.location, (scn.n_slots, 1)))
        extra = {"scheme": "static",
                 "location_m": [float(v) for v in res.location],
                 "locations_evaluated": res.evaluated}
        pw = res.pw
    else:
        res = data_ferry(scn, feas_tol=tol)
        traj, pw = res.traj, res.pw
        extra = {"scheme": "ferry", "load_slots": res.load_slots}
        if res.diagnostic:
            extra["diagnostic"] = res.diagnostic
    return _finish(out_dir, _free_endpoints(scn), run, None, traj, pw, tol,
                   t0, extra)


def cmd_eval(scn, run, out_dir, args) -> int:
    """``eval`` and ``check``: re-evaluate a solution without optimizing;
    ``check`` also exits 3 when it is infeasible."""
    t0 = time.perf_counter()
    tol = _options(run).feas_tol
    traj, pw = _load_traj(scn, args, tol)
    return _finish(out_dir, scn, run, None, traj, pw, tol, t0,
                   strict=args.command == "check")


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secrelay",
        description="Secrecy-rate optimization for a mobile relay link.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, scheme=False, traj_in=True):
        p = sub.add_parser(name, help=help_text)
        if scheme:
            p.add_argument("scheme", choices=["static", "ferry"])
        p.add_argument("config", type=Path, help="YAML scenario config")
        p.add_argument("--out-dir", type=Path, default=None,
                       help="artifact directory (default: from config or .)")
        if traj_in:
            p.add_argument("--trajectory", type=Path, default=None,
                           help="trajectory.csv providing positions/powers")
        p.set_defaults(func=func)
        return p

    add("ao", cmd_ao, "joint trajectory and power optimization",
        traj_in=False)
    add("trajectory", cmd_trajectory,
        "trajectory optimization with fixed powers")
    add("power", cmd_power, "power allocation with a fixed trajectory")
    add("baseline", cmd_baseline, "static-relay or data-ferry benchmark",
        scheme=True, traj_in=False)
    add("eval", cmd_eval, "re-evaluate a solution without optimizing")
    add("check", cmd_eval, "feasibility check only")
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scn, run = parse_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = args.out_dir or Path(run.get("out_dir", "."))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create out_dir: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(scn, run, out_dir, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
