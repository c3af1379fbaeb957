"""Command-line front-end: parsing, artifacts, exit codes."""
import json

import numpy as np
import pytest
import yaml

from secrelay import cli
from secrelay.cli import (ConfigError, benchmark_scenario, parse_power,
                          parse_scenario, read_trajectory_csv,
                          resolved_config)

SMALL = {
    "scenario": {
        "bob_xy_m": [400.0, 0.0],
        "eve_xy_m": [200.0, 60.0],
        "altitude_m": 50.0,
        "n_slots": 6,
        "v_max_mps": 80.0,
        "ref_snr_linear": 1.0e7,
        "p_bar_s": "0.01 W",
        "p_bar_r": "0.01 W",
    },
}


def _scenario_yaml(drop=None, **changes):
    """SMALL's scenario with ``changes`` and without the key ``drop``."""
    scn = dict(SMALL["scenario"], **changes)
    scn.pop(drop, None)
    return yaml.safe_dump({"scenario": scn})


def _write(tmp_path, doc, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


class TestParsing:
    def test_power_units(self):
        assert parse_power("10 dBm") == pytest.approx(0.01)
        assert parse_power("0.01 W") == pytest.approx(0.01)
        assert parse_power("0dBm") == pytest.approx(1e-3)

    @pytest.mark.parametrize("bad", ["10", 10, "0.01 mW", "ten W", None])
    def test_power_without_unit_rejected(self, bad):
        with pytest.raises(ConfigError):
            parse_power(bad)

    def test_unknown_scenario_key(self):
        doc = dict(SMALL["scenario"], bandwidth_hz=1e6)
        with pytest.raises(ConfigError, match="unknown scenario"):
            parse_scenario(doc)

    def test_ref_snr_exactly_one(self):
        doc = dict(SMALL["scenario"], ref_snr_db=70.0)
        with pytest.raises(ConfigError, match="ref_snr"):
            parse_scenario(doc)
        doc = dict(SMALL["scenario"])
        del doc["ref_snr_linear"]
        with pytest.raises(ConfigError, match="ref_snr"):
            parse_scenario(doc)

    def test_horizon_slot_mismatch(self):
        doc = dict(SMALL["scenario"], slot_len_s=4.0, horizon_s=10.0)
        del doc["n_slots"]
        with pytest.raises(ConfigError, match="multiple"):
            parse_scenario(doc)

    def test_benchmark_equivalent_config(self):
        doc = {
            "bob_xy_m": [2000, 0], "eve_xy_m": [1000, 100],
            "altitude_m": 100, "horizon_s": 100, "v_max_mps": 50,
            "ref_snr_db": 80, "p_bar_s": "10 dBm", "p_bar_r": "10 dBm",
        }
        scn = parse_scenario(doc)
        ref = benchmark_scenario()
        assert scn.n_slots == ref.n_slots == 100
        assert scn.ref_snr == pytest.approx(ref.ref_snr)
        assert scn.p_bar_s == pytest.approx(0.01)
        np.testing.assert_allclose(scn.bob_xy, ref.bob_xy)

    def test_resolved_config_round_trip(self):
        scn = parse_scenario(dict(SMALL["scenario"],
                                  start_xy_m=[50.0, -20.0],
                                  end_xy_m=[350.0, -20.0]))
        scn2 = parse_scenario(resolved_config(scn, {})["scenario"])
        for name in ("alice_xy", "bob_xy", "eve_xy", "start_xy", "end_xy"):
            np.testing.assert_array_equal(getattr(scn, name),
                                          getattr(scn2, name))
        for name in ("altitude_h", "n_slots", "slot_len", "v_max",
                     "ref_snr", "p_bar_s", "p_bar_r"):
            assert getattr(scn, name) == getattr(scn2, name)


class TestExitCodes:
    def test_check_ok(self, tmp_path, capsys):
        cfg = _write(tmp_path, SMALL)
        rc = cli.main(["check", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 0
        assert "feasible=True" in capsys.readouterr().out

    def test_unitless_power_exit_2(self, tmp_path, capsys):
        doc = {"scenario": dict(SMALL["scenario"], p_bar_s="10")}
        cfg = _write(tmp_path, doc)
        rc = cli.main(["check", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_run_key_exit_2(self, tmp_path, capsys):
        doc = dict(SMALL, run={"threads": 4})
        cfg = _write(tmp_path, doc)
        rc = cli.main(["ao", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 2

    def test_run_with_no_value_loads(self, tmp_path, capsys):
        """``run:`` with no value is an empty run section, like no
        ``run`` at all."""
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump(SMALL) + "run:\n")
        assert cli.parse_config(cfg)[1] == {}
        rc = cli.main(["check", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 0

    def test_seed_run_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"unknown run keys: \['seed'\]"):
            cli.parse_config(_write(tmp_path, dict(SMALL, run={"seed": 0})))

    def test_infeasible_trajectory_exit_3(self, tmp_path, capsys):
        scn = parse_scenario(SMALL["scenario"])
        xy = np.zeros((6, 2))
        xy[3] = [5000.0, 0.0]  # far beyond one slot of travel
        from secrelay import model
        traj = model.Trajectory(xy)
        pw = model.equal_power_allocation(scn)
        tpath = tmp_path / "traj.csv"
        cli.write_trajectory_csv(tpath, scn, traj, pw)
        cfg = _write(tmp_path, SMALL)
        rc = cli.main(["check", str(cfg), "--trajectory", str(tpath),
                       "--out-dir", str(tmp_path / "o")])
        assert rc == 3
        assert "infeasible" in capsys.readouterr().err

    def test_overlong_hop_trajectory_exit_3(self, tmp_path, capsys):
        """``trajectory`` on a file with a hop longer than one slot of
        travel, at powers that hold causality there, exits 3 naming
        mobility and writes no artifacts."""
        from secrelay import model
        scn = parse_scenario(SMALL["scenario"])
        xy = np.tile([150.0, 30.0], (6, 1))
        xy[3:, 0] += scn.slot_travel + 1.0
        traj = model.Trajectory(xy)
        tpath = tmp_path / "traj.csv"
        cli.write_trajectory_csv(tpath, scn, traj,
                                 model.equal_power_start(scn, traj))
        out = tmp_path / "o"
        rc = cli.main(["trajectory", str(_write(tmp_path, SMALL)),
                       "--trajectory", str(tpath), "--out-dir", str(out)])
        assert rc == 3
        assert ("infeasible: input plan violates {'mobility': "
                in capsys.readouterr().err)
        assert not (out / "trajectory.csv").exists()
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("command, family", [
        ("power", "mobility"), ("trajectory", "power_budget")])
    def test_infeasible_input_plan_exit_3(self, tmp_path, capsys, command,
                                          family):
        """``power`` on a hover with one waypoint 500 m off course, and
        ``trajectory`` on three times the source power, each at powers
        that hold causality, exit 3 naming the one family the input plan
        fails, and write no artifacts."""
        from secrelay import model
        scn = parse_scenario(SMALL["scenario"])
        xy = np.tile([150.0, 30.0], (6, 1))
        if family == "mobility":
            xy[3, 1] += 500.0
        traj = model.Trajectory(xy)
        pw = model.equal_power_start(scn, traj)
        if family == "power_budget":
            pw = model.PowerAllocation(p_s=3.0 * pw.p_s, p_r=pw.p_r)
        checks = model.check_all(scn, traj, pw)
        assert [k for k, v in checks.items() if not v.feasible] == [family]
        tpath = tmp_path / "traj.csv"
        cli.write_trajectory_csv(tpath, scn, traj, pw)
        out = tmp_path / "o"
        rc = cli.main([command, str(_write(tmp_path, SMALL)),
                       "--trajectory", str(tpath), "--out-dir", str(out)])
        assert rc == 3
        assert (f"infeasible: input plan violates {{'{family}': "
                in capsys.readouterr().err)
        assert not (out / "trajectory.csv").exists()
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("command", ["power", "trajectory"])
    def test_trajectory_rejects_causality_violating_powers(self, tmp_path,
                                                           capsys, command):
        """Equal power on the T = 40 s hover start breaks information
        causality; ``power`` and ``trajectory`` exit 3 naming it, instead
        of optimizing other powers, and write no artifacts."""
        from secrelay import model
        from secrelay.trajectory_scp import initial_trajectory
        doc = {"scenario": {
            "bob_xy_m": [2000, 0], "eve_xy_m": [1000, 100],
            "altitude_m": 100, "horizon_s": 40, "slot_len_s": 2,
            "v_max_mps": 50, "ref_snr_db": 80, "p_bar_s": "10 dBm",
            "p_bar_r": "10 dBm"}}
        scn = parse_scenario(doc["scenario"])
        traj = initial_trajectory(scn)
        pw = model.equal_power_allocation(scn)
        assert not model.check_causality(scn, traj, pw).feasible
        tpath = tmp_path / "traj.csv"
        cli.write_trajectory_csv(tpath, scn, traj, pw)
        out = tmp_path / "o"
        rc = cli.main([command, str(_write(tmp_path, doc)),
                       "--trajectory", str(tpath), "--out-dir", str(out)])
        assert rc == 3
        assert "causality" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("command",
                             ["eval", "check", "power", "trajectory"])
    def test_wrong_slot_count_exit_2(self, tmp_path, capsys, command):
        """A ``--trajectory`` file with fewer rows than the scenario has
        slots is a configuration error naming both counts, not an
        infeasible problem."""
        from secrelay import model
        scn = parse_scenario(dict(SMALL["scenario"], n_slots=2))
        traj = model.Trajectory(np.array([[100.0, 0.0], [150.0, 0.0]]))
        tpath = tmp_path / "traj.csv"
        cli.write_trajectory_csv(tpath, scn, traj,
                                 model.equal_power_allocation(scn))
        cfg = _write(tmp_path, SMALL)
        rc = cli.main([command, str(cfg), "--trajectory", str(tpath),
                       "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "2 slots, the scenario has 6" in err

    @staticmethod
    def _stage_failure_exit_4(tmp_path, capsys, command, stage):
        """On a flight towards Bob each stage solves from causal input
        powers; its failed solve exits 4, names the stage and leaves
        ``report.json`` with the failed status and no ``trajectory.csv``."""
        from secrelay import model
        scn = parse_scenario(SMALL["scenario"])
        traj = model.Trajectory(np.stack([np.linspace(250.0, 390.0, 6),
                                          np.full(6, -50.0)], axis=1))
        tpath = tmp_path / "traj.csv"
        cli.write_trajectory_csv(tpath, scn, traj,
                                 model.equal_power_start(scn, traj))
        cfg = _write(tmp_path, SMALL)
        out = tmp_path / "o"
        rc = cli.main([command, str(cfg), "--trajectory", str(tpath),
                       "--out-dir", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert "solver_numerical_failure" in err
        assert f"numerical failure in stage {stage}: " in err
        report = json.loads((out / "report.json").read_text())["report"]
        assert report["stage"] == stage
        assert report["status"] == "solver_numerical_failure"
        assert not (out / "trajectory.csv").exists()

    def test_power_stage_failure_exit_4(self, tmp_path, capsys,
                                        monkeypatch):
        from conftest import fail_power_solves
        fail_power_solves(monkeypatch)
        self._stage_failure_exit_4(tmp_path, capsys, "power", "power_dc")

    def test_trajectory_stage_failure_exit_4(self, tmp_path, capsys,
                                             monkeypatch):
        from conftest import fail_trajectory_solves
        fail_trajectory_solves(monkeypatch)
        self._stage_failure_exit_4(tmp_path, capsys, "trajectory",
                                   "trajectory_scp")

    def test_ao_names_failed_trajectory_stage(self, tmp_path, capsys,
                                              monkeypatch):
        """An AO run that ends on a failed trajectory stage exits 4 and
        names that stage, not the power stage."""
        from conftest import fail_trajectory_solves
        fail_trajectory_solves(monkeypatch)
        cfg = _write(tmp_path, SMALL)
        out = tmp_path / "o"
        rc = cli.main(["ao", str(cfg), "--out-dir", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert "stage trajectory_scp: solver_numerical_failure" in err
        assert "power" not in err
        report = json.loads((out / "report.json").read_text())["report"]
        assert report["status"] == "inner_stage_failure"
        assert (report["sub_reports"][-1]["status"]
                == "solver_numerical_failure")
        assert not (out / "trajectory.csv").exists()

    @pytest.mark.parametrize("text, match", [
        (_scenario_yaml(eve_xy_m=[1.0, 2.0, 3.0]),
         "eve_xy_m must be a pair of coordinates"),
        (_scenario_yaml(drop="altitude_m"),
         "missing scenario key: altitude_m"),
        (_scenario_yaml(horizon_s=6.0),
         "give either n_slots or horizon_s, not both"),
        (_scenario_yaml(drop="n_slots"),
         "missing scenario key: horizon_s or n_slots"),
        (_scenario_yaml(altitude_m=0.0), "altitude_h must be > 0"),
        (None, "cannot read config"),
        ("scenario: [1, 2\n", "invalid YAML"),
        ("- 1\n- 2\n", "config must be a mapping"),
        (yaml.safe_dump(dict(SMALL, solver={})), "unknown top-level keys"),
        (yaml.safe_dump({"run": {"feas_tol": 1e-6}}),
         "config must contain a 'scenario' mapping"),
        (yaml.safe_dump(dict(SMALL, run=[1])), "'run' must be a mapping"),
        (yaml.safe_dump(dict(SMALL, run=[])), "'run' must be a mapping"),
        (yaml.safe_dump(dict(SMALL, run="")), "'run' must be a mapping"),
        (yaml.safe_dump(dict(SMALL, run=0)), "'run' must be a mapping"),
        (yaml.safe_dump(dict(SMALL, run=False)), "'run' must be a mapping"),
        (_scenario_yaml(n_slots="abc"), "n_slots must be an integer >= 2"),
        (_scenario_yaml(n_slots=10.5), "n_slots must be an integer >= 2"),
        (_scenario_yaml(slot_len_s="abc"),
         "slot_len_s must be a number, got 'abc'"),
        (_scenario_yaml(drop="n_slots", horizon_s="abc"),
         "horizon_s must be a number, got 'abc'"),
        (_scenario_yaml(drop="ref_snr_linear", ref_snr_db="abc"),
         "ref_snr_db must be a number, got 'abc'"),
        (_scenario_yaml(drop="n_slots", horizon_s=6.0, slot_len_s=0),
         "slot_len_s must be finite and > 0"),
        (_scenario_yaml(v_max_mps=float("inf")), "v_max must be finite"),
        (_scenario_yaml(p_bar_s="nan W"),
         "average power limits must be finite"),
        (yaml.safe_dump(dict(SMALL, run={"max_iter": "abc"})),
         "max_iter must be an integer >= 1, got 'abc'"),
        (yaml.safe_dump(dict(SMALL, run={"max_iter": 2.7})),
         "max_iter must be an integer >= 1, got 2.7"),
        (yaml.safe_dump(dict(SMALL, run={"max_iter": True})),
         "max_iter must be an integer >= 1, got True"),
        (yaml.safe_dump(dict(SMALL, run={"max_iter": -3})),
         "max_iter must be an integer >= 1, got -3"),
        (yaml.safe_dump(dict(SMALL, run={"feas_tol": "abc"})),
         "feas_tol must be a number, got 'abc'"),
        (yaml.safe_dump(dict(SMALL, run={"feas_tol": [1]})),
         "feas_tol must be a number, got [1]"),
        (yaml.safe_dump(dict(SMALL, run={"feas_tol": -1.0})),
         "feas_tol must be finite and >= 0, got -1.0"),
        (yaml.safe_dump(dict(SMALL, run={"rel_tol": float("nan")})),
         "rel_tol must be finite and >= 0, got nan"),
        (_scenario_yaml(altitude_m=True),
         "altitude_m must be a number, got True"),
        (_scenario_yaml(drop="ref_snr_linear", ref_snr_db=1.0e10),
         "ref_snr_db 10000000000.0 is out of range"),
        (_scenario_yaml(p_bar_s="1e10 dBm"),
         "power value '1e10 dBm' is out of range"),
        (_scenario_yaml(drop="n_slots", horizon_s=float("inf")),
         "horizon_s must be finite"),
    ], ids=["non-pair", "missing-key", "n_slots-and-horizon",
            "no-slot-count", "scenario-rejects", "unreadable",
            "invalid-yaml", "not-a-mapping", "unknown-top-level",
            "no-scenario", "run-not-a-mapping", "run-empty-list",
            "run-empty-string", "run-zero", "run-false",
            "n_slots-not-a-number", "n_slots-fractional",
            "slot_len-not-a-number", "horizon-not-a-number",
            "ref_snr_db-not-a-number", "slot_len-zero", "v_max-infinite",
            "p_bar_s-nan", "max_iter-not-a-number", "max_iter-fractional",
            "max_iter-bool", "max_iter-negative", "feas_tol-not-a-number",
            "feas_tol-list", "feas_tol-negative", "rel_tol-nan",
            "altitude-bool", "ref_snr_db-overflow", "p_bar_s-dBm-overflow",
            "horizon-infinite"])
    def test_bad_config_exit_2(self, tmp_path, capsys, text, match):
        """Each malformed configuration exits 2 with its own message."""
        cfg = tmp_path / "cfg.yaml"
        if text is not None:
            cfg.write_text(text)
        rc = cli.main(["check", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and match in err

    @pytest.mark.parametrize("csv_text, match", [
        ("", "empty trajectory file"),
        (cli.CSV_HEADER + "\n", "empty trajectory file"),
        ("slot,x,y\n1,0,0\n", "expected columns " + cli.CSV_HEADER),
        (cli.CSV_HEADER + "\n1,0,zero,0,0,0,0,0\n",
         "expected columns " + cli.CSV_HEADER),
        (cli.CSV_HEADER + "\n1,nan,0,1,0,0,0,0\n2,0,0,0,1,0,0,0\n",
         "trajectory coordinates must be finite"),
        (cli.CSV_HEADER + "\n1,0,0,-1,0,0,0,0\n2,0,0,0,1,0,0,0\n",
         "powers must be nonnegative"),
        (cli.CSV_HEADER + "\n1,0,0,1,0,0,0,0\n2,0,0,1,1,0,0,0\n",
         "source power in the last slot must be 0"),
    ], ids=["empty", "header-only", "wrong-columns", "not-a-number",
            "nan-coordinate", "negative-power", "last-slot-source-power"])
    def test_bad_trajectory_file_exit_2(self, tmp_path, capsys, csv_text,
                                        match):
        tpath = tmp_path / "traj.csv"
        tpath.write_text(csv_text)
        rc = cli.main(["check", str(_write(tmp_path, SMALL)),
                       "--trajectory", str(tpath),
                       "--out-dir", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error" in err and match in err

    def test_out_dir_is_a_file_exit_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        out.write_text("")
        rc = cli.main(["check", str(_write(tmp_path, SMALL)),
                       "--out-dir", str(out)])
        assert rc == 2
        assert ("config error: cannot create out_dir"
                in capsys.readouterr().err)


class TestArtifacts:
    def test_trajectory_run_artifacts(self, tmp_path, capsys):
        doc = dict(SMALL, run={"save_iterates": True, "max_iter": 8})
        cfg = _write(tmp_path, doc)
        out = tmp_path / "out"
        rc = cli.main(["trajectory", str(cfg), "--out-dir", str(out)])
        assert rc == 0
        csv_path = out / "trajectory.csv"
        assert csv_path.read_text().splitlines()[0] == cli.CSV_HEADER
        rep = json.loads((out / "report.json").read_text())
        objs = [it["objective"] for it in rep["report"]["iterations"]]
        assert all(b >= a - 1e-6 for a, b in zip(objs, objs[1:]))
        assert rep["objective"] == pytest.approx(objs[-1], abs=1e-9)
        snaps = sorted(out.glob("trajectory_iter_*.csv"))
        assert len(snaps) == len(objs) - 1
        # Resolved config re-parses to the same scenario.
        scn = parse_scenario(SMALL["scenario"])
        scn2 = parse_scenario(rep["config"]["scenario"])
        assert scn2.n_slots == scn.n_slots
        assert scn2.ref_snr == scn.ref_snr

    def test_csv_round_trip(self, tmp_path):
        scn = parse_scenario(SMALL["scenario"])
        rng = np.random.default_rng(7)
        from conftest import random_feasible_trajectory, random_power
        traj = random_feasible_trajectory(rng, scn)
        pw = random_power(rng, scn)
        path = tmp_path / "t.csv"
        cli.write_trajectory_csv(path, scn, traj, pw)
        traj2, pw2 = read_trajectory_csv(path)
        np.testing.assert_allclose(traj2.xy, traj.xy, rtol=1e-14)
        np.testing.assert_allclose(pw2.p_s, pw.p_s, rtol=1e-14)
        np.testing.assert_allclose(pw2.p_r, pw.p_r, rtol=1e-14)

    def test_determinism_byte_identical(self, tmp_path, capsys):
        cfg = _write(tmp_path, SMALL)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["ao", str(cfg), "--out-dir", str(out)]) == 0
            outs.append((out / "trajectory.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_report_shows_solver_counters(self, tmp_path, capsys):
        """``report.json`` of ``ao`` shows each stage's solver counters
        and, per multistart run, their sums over its stages."""
        cfg = _write(tmp_path, SMALL)
        out = tmp_path / "out"
        assert cli.main(["ao", str(cfg), "--out-dir", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())["report"]
        counters = ("solves", "newton_steps", "factorizations",
                    "failed_factorizations")
        assert rep["sub_reports"]
        for sub in rep["sub_reports"]:
            assert sub["extras"]["factorizations"] >= sub["extras"][
                "newton_steps"]
        runs = rep["extras"]["multistart_runs"]
        assert any(r["factorizations"] > 0 for r in runs)
        winner = max(runs, key=lambda r: r["objective"])
        for k in counters:
            assert winner[k] == sum(s["extras"][k]
                                    for s in rep["sub_reports"])

    def test_eval_matches_optimizer_output(self, tmp_path, capsys):
        cfg = _write(tmp_path, SMALL)
        out = tmp_path / "out"
        assert cli.main(["power", str(cfg), "--out-dir", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        out2 = tmp_path / "out2"
        rc = cli.main(["eval", str(cfg),
                       "--trajectory", str(out / "trajectory.csv"),
                       "--out-dir", str(out2)])
        assert rc == 0
        rep2 = json.loads((out2 / "report.json").read_text())
        assert rep2["objective"] == pytest.approx(rep["objective"],
                                                  rel=1e-12)

    def test_baseline_artifacts(self, tmp_path, capsys):
        cfg = _write(tmp_path, SMALL)
        out = tmp_path / "out"
        rc = cli.main(["baseline", "ferry", str(cfg), "--out-dir", str(out)])
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["scheme"] == "ferry"
        assert rep["objective"] >= 0.0
        assert all(v["feasible"]
                   for v in rep["feasibility"].values())


class TestBaselineOptions:
    def test_run_keys_reach_static_scan(self, monkeypatch, tmp_path, capsys):
        """``baseline static`` restores the winner's equal powers at the
        config's ``feas_tol`` (the one run key it reads), and reports the
        locations the scan scored: the 41 x 21 grid and 2 x 8 refinement
        neighbours."""
        from secrelay import model
        tols = []
        real = model.restore_feasibility

        def recording(scn, traj, pw, tol=model.DEFAULT_FEAS_TOL):
            tols.append(tol)
            return real(scn, traj, pw, tol=tol)

        monkeypatch.setattr(model, "restore_feasibility", recording)
        for run, tol in (({}, 1e-6), ({"feas_tol": 1e-7, "rel_tol": 1e-3,
                                       "max_iter": 1}, 1e-7)):
            tols.clear()
            cfg = _write(tmp_path, dict(SMALL, run=run))
            out = tmp_path / "o"
            rc = cli.main(["baseline", "static", str(cfg),
                           "--out-dir", str(out)])
            assert rc == 0
            assert tols == [tol]
            rep = json.loads((out / "report.json").read_text())
            assert rep["objective"] > 0.0
            assert rep["locations_evaluated"] == 41 * 21 + 16


    def test_ferry_plans_at_feas_tol(self, tmp_path, capsys):
        """``baseline ferry`` restores its plans at the config's
        ``feas_tol``: on the free-endpoint T = 100 s benchmark at 1e-9 its
        report is feasible and ``check`` accepts its trajectory."""
        doc = {"scenario": {
            "bob_xy_m": [2000.0, 0.0], "eve_xy_m": [1000.0, 100.0],
            "altitude_m": 100.0, "horizon_s": 100.0, "slot_len_s": 2.0,
            "v_max_mps": 50.0, "ref_snr_db": 80.0, "p_bar_s": "10 dBm",
            "p_bar_r": "10 dBm"}, "run": {"feas_tol": 1.0e-9}}
        cfg = _write(tmp_path, doc)
        out = tmp_path / "ferry"
        assert cli.main(["baseline", "ferry", str(cfg),
                         "--out-dir", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["objective"] > 0.0
        assert all(v["feasible"] for v in rep["feasibility"].values())
        assert cli.main(["check", str(cfg), "--trajectory",
                         str(out / "trajectory.csv"),
                         "--out-dir", str(tmp_path / "check")]) == 0


class TestRunOptions:
    RUN = {"feas_tol": 1e-4, "rel_tol": 1e-3, "max_iter": 7}

    @pytest.mark.parametrize("command, stages", [
        ("ao", {"dc_allocate", "scp_optimize"}),
        ("trajectory", {"scp_optimize"}), ("power", {"dc_allocate"})],
        ids=["ao", "trajectory", "power"])
    def test_run_keys_reach_every_stage(self, monkeypatch, tmp_path, capsys,
                                        command, stages):
        """``ao``, ``trajectory`` and ``power`` hand the run keys to every
        power and trajectory stage they call, each key in exactly one
        field: the power stage's ``feas_tol``, the trajectory stage's
        ``ScpOptions``."""
        import dataclasses
        import inspect

        from secrelay import ao
        calls = []

        def recording(fn):
            sig = inspect.signature(fn)

            def wrapper(*args, **kwargs):
                calls.append((fn.__name__,
                              sig.bind(*args, **kwargs).arguments))
                return fn(*args, **kwargs)
            return wrapper

        for mod in (ao, cli):
            for name in ("dc_allocate", "scp_optimize"):
                monkeypatch.setattr(mod, name, recording(getattr(mod, name)))
        cfg = _write(tmp_path, dict(SMALL, run=self.RUN))
        assert cli.main([command, str(cfg),
                         "--out-dir", str(tmp_path / "o")]) == 0
        assert {name for name, _ in calls} == stages
        for name, args in calls:
            if name == "dc_allocate":
                assert args["feas_tol"] == self.RUN["feas_tol"]
            else:
                assert dataclasses.asdict(args["opts"]) == self.RUN

    def test_absent_keys_keep_defaults(self):
        from secrelay.trajectory_scp import ScpOptions
        assert cli._options({}) == ScpOptions()
        assert cli._options({"rel_tol": 1e-3}) == ScpOptions(rel_tol=1e-3)


class TestPowerCommand:
    def test_silent_relay_exactly_zero(self, tmp_path, capsys):
        """On the free-endpoint T = 100 s benchmark the power command
        starts from the midway hover, where Eve's link beats Bob's in
        every slot: the relay stays silent and the objective is exactly
        0, with no solve."""
        doc = {"scenario": {
            "bob_xy_m": [2000.0, 0.0], "eve_xy_m": [1000.0, 100.0],
            "altitude_m": 100.0, "horizon_s": 100.0, "slot_len_s": 2.0,
            "v_max_mps": 50.0, "ref_snr_db": 80.0, "p_bar_s": "10 dBm",
            "p_bar_r": "10 dBm"}}
        cfg = _write(tmp_path, doc)
        out = tmp_path / "power"
        assert cli.main(["power", str(cfg), "--out-dir", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["objective"] == 0.0
        assert rep["report"]["status"] == "converged"
        assert rep["report"]["extras"]["solves"] == 0


class TestImportFootprint:
    def test_package_import_leaves_cli_and_yaml_out(self):
        """``import secrelay`` loads neither the CLI nor YAML, nor
        scipy.sparse."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import secrelay
        src = str(Path(secrelay.__file__).resolve().parent.parent)
        code = ("import sys, secrelay; "
                "print(sorted(m for m in ('yaml', 'secrelay.cli', "
                "'scipy.sparse') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], cwd=src,
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"
        assert secrelay.benchmark_scenario is cli.benchmark_scenario
