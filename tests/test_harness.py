"""Scenario files, the on-line generator, artifact outputs, CLI exit codes."""

import dataclasses
import json
import math
from array import array
from pathlib import Path

import pytest

from cgtc import baseline as baseline_mod
from cgtc import cells as cells_mod
from cgtc import cli as cli_mod
from cgtc import harness as harness_mod
from cgtc.cli import main as cli_main
from cgtc.dynamic_planner import plan_dynamic
from cgtc.errors import InsideObstacle, NonPositiveDt, ParseError, ValidationError
from cgtc.harness import compare_planners, run_batch, run_scenario, scenario_is_safe
from cgtc.scenario import Scenario, load_scenario, scenario_from_dict
from cgtc.ship import online_generate, trimmed_state
from cgtc.static_planner import Obstacle, PlanResult, plan_static

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


GOOD_SCENARIO = {
    "mode": "static",
    "start": {"x_m": 0.0, "y_m": 0.0, "heading_deg": 0.0},
    "destination": {"x_m": 0.0, "y_m": 5000.0},
    "circle_radius_m": 600.0,
    "obstacles": [{"x_m": 100.0, "y_m": 2500.0, "radius_m": 650.0}],
    "sim": {"max_steps": 40},
}


class TestOnlineGenerate:
    def test_zero_command_straight(self, params):
        out = online_generate(trimmed_state(params), params, 0.0, 30.0, 0.5)
        assert len(out) == 61
        assert all(s.x_m == 0.0 for s in out)
        assert out[-1].y_m == pytest.approx(30.0 * params.steady_speed_mps, rel=1e-12)

    def test_chaining_identity(self, params):
        st = trimmed_state(params)
        one = online_generate(st, params, 20.0, 40.0, 0.5)
        two = online_generate(one[-1], params, -10.0, 40.0, 0.5)
        chained = one + two[1:]
        whole = (online_generate(st, params, 20.0, 40.0, 0.5)
                 + online_generate(one[-1], params, -10.0, 40.0, 0.5)[1:])
        assert chained == whole
        # and a reference loop reproduces it sample for sample
        from cgtc.ship import step
        ref = [st]
        for k in range(160):
            cmd = 20.0 if k < 80 else -10.0
            ref.append(step(ref[-1], params, cmd, 0.5))
        assert ref == chained

    def test_rotation_equivariance(self, params):
        base = online_generate(trimmed_state(params), params, 15.0, 60.0, 0.5)
        rot = online_generate(trimmed_state(params, heading_deg=40.0), params, 15.0, 60.0, 0.5)
        c, s = math.cos(math.radians(40.0)), math.sin(math.radians(40.0))
        for a, b in zip(base, rot):
            assert b.x_m == pytest.approx(a.x_m * c + a.y_m * s, abs=1e-9)
            assert b.y_m == pytest.approx(-a.x_m * s + a.y_m * c, abs=1e-9)

    def test_bad_dt(self, params):
        with pytest.raises(NonPositiveDt):
            online_generate(trimmed_state(params), params, 0.0, 10.0, 0.0)


class TestScenarioFiles:
    def test_good_scenario_parses(self):
        sc = scenario_from_dict(GOOD_SCENARIO, name="good")
        assert sc.mode == "static"
        assert sc.radius_m == 600.0
        assert sc.reach_tolerance_m == 600.0
        assert len(sc.obstacles) == 1

    def test_malformed_json_is_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"mode": "static",')
        with pytest.raises(ParseError) as err:
            load_scenario(path)
        assert "broken.json:1" in str(err.value)

    def test_unknown_field_named_in_error(self):
        bad = dict(GOOD_SCENARIO)
        bad["obstacle"] = []
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(bad)
        assert "obstacle" in str(err.value)

    def test_missing_field_named(self):
        bad = {k: v for k, v in GOOD_SCENARIO.items() if k != "destination"}
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(bad)
        assert "destination" in str(err.value)

    def test_radius_required(self):
        bad = {k: v for k, v in GOOD_SCENARIO.items() if k != "circle_radius_m"}
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(bad)
        assert "circle_radius_m" in str(err.value)

    def test_mover_count_by_mode(self):
        bad = dict(GOOD_SCENARIO)
        bad["obstacles"] = [{"x_m": 0.0, "y_m": 2500.0, "radius_m": 650.0,
                             "speed_mps": 3.0, "course_deg": 90.0}]
        with pytest.raises(ValidationError):
            scenario_from_dict(bad)  # static mode cannot carry movers

    def test_free_mode_rejects_obstacles(self):
        bad = dict(GOOD_SCENARIO)
        bad["mode"] = "free"
        with pytest.raises(ValidationError):
            scenario_from_dict(bad)

    def test_explicit_radius_wins_over_factor(self):
        data = dict(GOOD_SCENARIO)
        data["domain_factor"] = 6.0
        sc = scenario_from_dict(data)
        assert sc.radius_m == 600.0  # explicit value, not 6 * 63.6
        del data["circle_radius_m"]
        sc = scenario_from_dict(data)
        assert sc.radius_m == pytest.approx(6.0 * 63.6)

    def test_ship_overrides(self):
        data = dict(GOOD_SCENARIO)
        data["ship"] = {"steady_speed_mps": 9.0}
        sc = scenario_from_dict(data)
        assert sc.ship.steady_speed_mps == 9.0
        data["ship"] = {"cruise": 9.0}
        with pytest.raises(ValidationError):
            scenario_from_dict(data)
        for not_a_number in ("10", True, None):
            data["ship"] = {"steady_speed_mps": not_a_number}
            with pytest.raises(ValidationError) as err:
                scenario_from_dict(data)
            assert "steady_speed_mps" in str(err.value)

    def test_non_finite_numbers_rejected(self, tmp_path):
        text = json.dumps(GOOD_SCENARIO)
        for constant in ("NaN", "Infinity", "-Infinity"):
            path = tmp_path / "nonfinite.json"
            path.write_text(text.replace('"x_m": 100.0', f'"x_m": {constant}'))
            with pytest.raises(ParseError) as err:
                load_scenario(path)
            assert constant in str(err.value)
            rc = cli_main(["plan", str(path), "--out-dir", str(tmp_path / "out")])
            assert rc == 2
        # an overflowing literal parses to inf without passing through NaN/Infinity
        path.write_text(text.replace('"x_m": 100.0', '"x_m": 1e999'))
        with pytest.raises(ValidationError):
            load_scenario(path)

    @pytest.mark.parametrize("change, field", [
        ({"sim": {"cell_resolution_deg": 7.0}}, "cell_resolution_deg"),  # 180/7 not whole
        ({"sim": {"cell_resolution_deg": 0.5}}, "cell_resolution_deg"),
        ({"sim": {"cell_resolution_deg": 16.0}}, "cell_resolution_deg"),
        ({"circle_radius_m": 100.0}, "radius"),  # below 2 x 63.6 m
        ({"sim": {"dt_s": 12.0}}, "dt_s"),
        ({"sim": {"dt_s": 4.0}}, "dt_s"),  # equal to the 4 s lags
        ({"ship": {"speed_recovery_s": 0.4}}, "dt_s"),  # 0.5 s default step
        ({"sim": {"cell_resolution_deg": 4.0}}, "cell_resolution_deg"),
        ({"sim": {"cell_resolution_deg": 12.0}}, "cell_resolution_deg"),
        ({"reach_tolerance_m": 0.0}, "reach_tolerance_m"),
        ({"reach_tolerance_m": -5.0}, "reach_tolerance_m"),
        # hull particulars the model does not read are unknown fields
        ({"ship": {"draft_m": 6.0}}, "unknown field(s) ['draft_m']"),
        ({"ship": {"beam_m": 16.4}}, "unknown field(s) ['beam_m']"),
        ({"ship": {"propeller_rpm": 180.0}}, "unknown field(s) ['propeller_rpm']"),
    ])
    def test_cell_arguments_rejected(self, tmp_path, change, field):
        data = {**GOOD_SCENARIO, **change}
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(data)
        assert field in str(err.value)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert cli_main(["plan", str(path), "--out-dir", str(tmp_path / "out")]) == 2

    def test_cell_arguments_at_their_limits_accepted(self):
        data = {**GOOD_SCENARIO, "circle_radius_m": 2 * 63.6,
                "sim": {"dt_s": 3.9, "cell_resolution_deg": 15.0}}
        sc = scenario_from_dict(data)
        assert (sc.radius_m, sc.dt_s, sc.cell_resolution_deg) == (127.2, 3.9, 15.0)

    def test_non_utf8_file_is_parse_error(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(GOOD_SCENARIO).encode("utf-16-le"))
        with pytest.raises(ParseError) as err:
            load_scenario(path)
        assert "utf16.json" in str(err.value)
        assert cli_main(["plan", str(path), "--out-dir", str(tmp_path / "out")]) == 2

    def test_shipped_scenarios_parse(self):
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            sc = load_scenario(path)
            assert sc.name == path.stem


class TestRunScenario:
    def test_artifacts_written(self, tmp_path):
        scenario, result = run_scenario(SCENARIO_DIR / "free_bearing37.json", tmp_path)
        assert result.reached
        assert (tmp_path / "trajectory.csv").exists()
        assert (tmp_path / "commands.csv").exists()
        assert (tmp_path / "metrics.json").exists()
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t_s,x_m,y_m,heading_deg,u_mps,v_mps,yaw_rate_degps,rudder_deg"
        header = (tmp_path / "commands.csv").read_text().splitlines()[0]
        assert header == "step,delta0_deg,heading_change_deg"

    def test_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_scenario(SCENARIO_DIR / "fig25_analog.json", a)
        run_scenario(SCENARIO_DIR / "fig25_analog.json", b)
        for name in ("trajectory.csv", "commands.csv", "metrics.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_dynamic_writes_separation_series(self, tmp_path):
        scenario, result = run_scenario(SCENARIO_DIR / "dynamic_sit3_must_steer.json",
                                        tmp_path)
        sep_file = tmp_path / "separation.csv"
        assert sep_file.exists()
        rows = sep_file.read_text().splitlines()
        assert rows[0] == "t_s,distance_m"
        assert len(rows) - 1 == len(result.trajectory)
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["min_separation_m"] > 1500.0

    def test_metrics_match_recomputation_from_csv(self, tmp_path):
        _, result = run_scenario(SCENARIO_DIR / "fig25_analog.json", tmp_path)
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
        pts = [tuple(map(float, r.split(",")[1:3])) for r in rows]
        length = sum(math.dist(a, b) for a, b in zip(pts, pts[1:]))
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["path_length_m"] == pytest.approx(length, rel=1e-6)
        commands = (tmp_path / "commands.csv").read_text().splitlines()[1:]
        steer = sum(1 for r in commands if abs(float(r.split(",")[1])) >= 1.0)
        assert metrics["steering_count"] == steer


class TestLazyTrajectory:
    """Planning and writing artifacts read the trajectory's columns only."""

    @pytest.mark.parametrize("name, run", [
        ("fig25_analog", "plan_static"),
        ("dynamic_sit3_must_steer", "plan_static"),
        ("dynamic_sit3_must_steer", "plan_dynamic"),
        ("fig25_analog", "run_scenario"),
        ("dynamic_sit3_must_steer", "run_scenario"),
    ])
    def test_no_state_is_built(self, tmp_path, name, run):
        path = SCENARIO_DIR / f"{name}.json"
        planners = {"plan_static": plan_static, "plan_dynamic": plan_dynamic}
        if run == "run_scenario":
            scenario, result = run_scenario(path, tmp_path)
        else:
            scenario = load_scenario(path)
            result = planners[run](scenario)
        assert len(result.trajectory) > 0
        assert "_states" not in vars(result.trajectory)

        mover = next((o for o in scenario.obstacles if o.moving), None)
        if run == "plan_static" or mover is None:
            assert result.separation_m == [] and result.min_separation_m is None
            return
        expected = [math.dist((s.x_m, s.y_m), mover.position_at(t))
                    for s, t in zip(result.trajectory, result.sample_times_s, strict=True)]
        assert array("d", result.separation_m).tobytes() == array("d", expected).tobytes()
        assert result.min_separation_m == min(expected)


class TestComparePlanners:
    def test_free_straight_ratio_one(self, params):
        sc = Scenario(mode="free", ship=params, start_x_m=0.0, start_y_m=0.0,
                      start_heading_deg=0.0, dest_x_m=0.0, dest_y_m=6000.0,
                      circle_radius_m=600.0, max_steps=40)
        rep = compare_planners(sc)
        assert rep.circle.reached and rep.grid.reached
        assert rep.length_ratio == pytest.approx(1.0, abs=0.05)

    def test_bearing_22_5_staircase(self, params):
        d = 6000.0
        sc = Scenario(mode="free", ship=params, start_x_m=0.0, start_y_m=0.0,
                      start_heading_deg=0.0,
                      dest_x_m=d * math.sin(math.radians(22.5)),
                      dest_y_m=d * math.cos(math.radians(22.5)),
                      circle_radius_m=600.0, max_steps=40, cell_resolution_deg=2.0)
        rep = compare_planners(sc)
        assert rep.circle.reached and rep.grid.reached
        assert rep.circle.steering_count == 1
        assert rep.grid.steering_count >= 2

    def test_no_grid_path_reported_per_side(self, params):
        # goal grid node unreachable for the baseline: its error is reported
        # while the circle side is caught by the inside-destination check
        from cgtc.baseline import astar_grid_path
        from cgtc.errors import NoGridPath
        blocker = Obstacle(center=(0.0, 1800.0), radius_m=700.0)
        with pytest.raises(NoGridPath):
            astar_grid_path((0.0, 0.0), (0.0, 1800.0), 600.0, [blocker])

    def test_one_side_error_still_reports_other(self, params):
        # destination inside the only obstacle: both planners fail cleanly,
        # but the report carries the error strings rather than raising
        sc = Scenario(mode="static", ship=params, start_x_m=0.0, start_y_m=0.0,
                      start_heading_deg=0.0, dest_x_m=0.0, dest_y_m=2500.0,
                      circle_radius_m=600.0, max_steps=40,
                      obstacles=[Obstacle(center=(0.0, 2500.0), radius_m=650.0)])
        rep = compare_planners(sc)
        assert rep.circle is None and rep.circle_error
        assert "DestinationInsideObstacle" in rep.circle_error


class TestCliExitCodes:
    def test_plan_success_exit_zero(self, tmp_path, capsys):
        rc = cli_main(["plan", str(SCENARIO_DIR / "free_bearing37.json"),
                       "--out-dir", str(tmp_path)])
        assert rc == 0

    def test_input_error_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        rc = cli_main(["plan", str(bad), "--out-dir", str(tmp_path / "out")])
        assert rc == 2

    def test_planning_failure_exit_one(self, tmp_path):
        stuck = dict(GOOD_SCENARIO)
        stuck["destination"] = {"x_m": 0.0, "y_m": 80000.0}
        stuck["sim"] = {"max_steps": 3}
        path = tmp_path / "stuck.json"
        path.write_text(json.dumps(stuck))
        rc = cli_main(["plan", str(path), "--out-dir", str(tmp_path / "out")])
        assert rc == 1

    def test_turn_test_and_gen_cells(self, tmp_path):
        rc = cli_main(["turn-test", "--duration", "600", "--out-dir",
                       str(tmp_path / "turn")])
        assert rc == 0
        report = json.loads((tmp_path / "turn" / "turn_report.json").read_text())
        assert report["port"]["fitted_radius_m"] > report["starboard"]["fitted_radius_m"]
        rc = cli_main(["gen-cells", "--resolution", "15", "--out-dir",
                       str(tmp_path / "cells")])
        assert rc == 0
        index = (tmp_path / "cells" / "index.csv").read_text().splitlines()
        assert len(index) - 1 == 13

    @pytest.mark.parametrize("args", [["--resolution", "7"], ["--resolution", "0.5"],
                                      ["--radius", "100"], ["--dt", "0"], ["--dt", "50"],
                                      ["--radius", "nan"], ["--radius", "inf"],
                                      ["--radius", "0"], ["--resolution", "4"],
                                      ["--resolution", "12"]])
    def test_gen_cells_bad_arguments_exit_two(self, tmp_path, capsys, args):
        rc = cli_main(["gen-cells", *args, "--out-dir", str(tmp_path / "cells")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("input error:")
        assert not (tmp_path / "cells").exists()

    @pytest.mark.parametrize("args", [["--dt", "0"], ["--dt", "50"], ["--duration", "1"],
                                      ["--duration", "-5"]])
    def test_turn_test_bad_arguments_exit_two(self, tmp_path, capsys, args):
        # a run too short for a full circle has no radius to fit
        rc = cli_main(["turn-test", *args, "--out-dir", str(tmp_path / "turn")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("input error:")
        assert not (tmp_path / "turn").exists()

    @pytest.mark.parametrize("content", [
        b"\xff\xfe1,2\n",                                      # not UTF-8
        b"rudder,heading\n" + b"".join(b"%d,%d\n" % (d, d) for d in range(8)) + b"nan,1\n",
        b"".join(b"%d,%d\n" % (d, d) for d in range(8)) + b"2,inf\n",
        b"1,2\n2,4\n3,6\n",                                    # InsufficientSamples
        b"1,2\n",                                                # LengthMismatch
        b"".join(b"%d,5\n" % d for d in range(8)),              # ZeroVariance
        b"".join(b"%d,%d\n" % (d, d - d ** 3) for d in range(-4, 5)),  # MonotonicityViolation
    ])
    def test_fit_relation_bad_input_exit_two(self, tmp_path, capsys, content):
        csv = tmp_path / "rel.csv"
        csv.write_bytes(content)
        rc = cli_main(["fit-relation", str(csv), "--out-dir", str(tmp_path / "fit")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("input error:")
        assert not (tmp_path / "fit").exists()

    def test_fit_relation(self, tmp_path):
        csv = tmp_path / "rel.csv"
        from conftest import RUDDER_HEADING_TABLE
        csv.write_text("rudder_deg,heading_deg\n"
                       + "\n".join(f"{d},{t}" for d, t in RUDDER_HEADING_TABLE) + "\n")
        rc = cli_main(["fit-relation", str(csv), "--out-dir", str(tmp_path / "fit")])
        assert rc == 0
        report = json.loads((tmp_path / "fit" / "relation.json").read_text())
        assert report["pearson_r"] == pytest.approx(0.9957, abs=0.0005)
        assert report["samples"] == 12

    def test_batch(self, tmp_path):
        src = tmp_path / "scenarios"
        src.mkdir()
        (src / "one.json").write_text(json.dumps({
            "mode": "free",
            "start": {"x_m": 0.0, "y_m": 0.0, "heading_deg": 0.0},
            "destination": {"x_m": 0.0, "y_m": 3000.0},
            "circle_radius_m": 600.0,
        }))
        rc = cli_main(["batch", str(src), "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["one"]["reached"] is True


    @pytest.mark.parametrize("command", ["plan", "compare", "gen-cells", "batch-file-out",
                                         "batch-missing", "batch-file", "batch-empty"])
    def test_unusable_paths_exit_two(self, tmp_path, capsys, command):
        a_file = tmp_path / "a_file"
        a_file.write_text("not a directory\n")
        empty = tmp_path / "empty"
        empty.mkdir()
        scenario = str(SCENARIO_DIR / "free_bearing37.json")
        out = ["--out-dir", str(tmp_path / "out")]
        argv = {
            "plan": ["plan", scenario, "--out-dir", str(a_file)],
            "compare": ["compare", scenario, "--out-dir", str(a_file)],
            "gen-cells": ["gen-cells", "--resolution", "15", "--out-dir", str(a_file)],
            "batch-file-out": ["batch", str(SCENARIO_DIR), "--out-dir", str(a_file)],
            "batch-missing": ["batch", str(tmp_path / "missing"), *out],
            "batch-file": ["batch", str(a_file), *out],
            "batch-empty": ["batch", str(empty), *out],
        }[command]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.parametrize("name", ["dynamic_sit1_own_first", "dynamic_sit2_obstacle_first",
                                      "dynamic_sit3_must_steer"])
    def test_compare_on_dynamic_scenario_exit_two(self, tmp_path, capsys, name):
        with pytest.raises(ValidationError):
            compare_planners(load_scenario(SCENARIO_DIR / f"{name}.json"))
        rc = cli_main(["compare", str(SCENARIO_DIR / f"{name}.json"),
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("input error:")


    @pytest.mark.parametrize("command", ["compare", "gen-cells"])
    def test_out_dir_checked_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the out dir was made")

        monkeypatch.setattr(cli_mod, "compare_planners", no_work)
        monkeypatch.setattr(cli_mod, "build_cell_set", no_work)
        a_file = tmp_path / "a_file"
        a_file.write_text("not a directory\n")
        argv = {
            "compare": ["compare", str(SCENARIO_DIR / "fig25_analog.json")],
            "gen-cells": ["gen-cells", "--resolution", "15"],
        }[command]
        assert cli_main([*argv, "--out-dir", str(a_file)]) == 2
        assert capsys.readouterr().err.startswith("input error:")

    def test_compare_success_writes_report(self, tmp_path, capsys):
        rc = cli_main(["compare", str(SCENARIO_DIR / "fig25_analog.json"),
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        written = json.loads((tmp_path / "comparison.json").read_text())
        report = compare_planners(load_scenario(SCENARIO_DIR / "fig25_analog.json"))
        assert written == {
            "circle": dataclasses.asdict(report.circle),
            "grid": dataclasses.asdict(report.grid),
            "length_ratio": report.length_ratio,
            "steering_ratio": report.steering_ratio,
        }
        assert written["length_ratio"] is not None and written["steering_ratio"] is not None

    def test_planning_error_exit_one(self, tmp_path, capsys, monkeypatch):
        def raising(scenario, cells=None):
            raise InsideObstacle("point (1.0, 2.0) is inside obstacle")

        monkeypatch.setattr(harness_mod, "plan_static", raising)
        rc = cli_main(["plan", str(SCENARIO_DIR / "fig25_analog.json"),
                       "--out-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("planning error: InsideObstacle:")

    def test_plan_entering_a_disc_is_unsafe(self, tmp_path, capsys, monkeypatch):
        real_plan = harness_mod.plan_static

        def entering(scenario, cells=None):
            return dataclasses.replace(real_plan(scenario), min_clearance_m=-1.0)

        monkeypatch.setattr(harness_mod, "plan_static", entering)
        rc = cli_main(["plan", str(SCENARIO_DIR / "fig25_analog.json"),
                       "--out-dir", str(tmp_path)])
        assert rc == 1
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["reached"] is True
        assert metrics["safe"] is False


def _verdict_result(min_clearance_m=None, min_separation_m=None):
    return PlanResult(nodes=[], trajectory=[], sample_times_s=[], rudder_commands=[],
                      heading_changes_deg=[], path_length_m=0.0, steering_count=0,
                      reached=True, min_clearance_m=min_clearance_m,
                      min_separation_m=min_separation_m)


class TestSafetyVerdict:
    @pytest.mark.parametrize("clearance, safe", [(-5.0, False), (-0.0, False), (0.0, False),
                                                 (1e-9, True), (0.5, True)])
    def test_clearance(self, clearance, safe):
        sc = load_scenario(SCENARIO_DIR / "fig25_analog.json")
        assert scenario_is_safe(sc, _verdict_result(min_clearance_m=clearance)) is safe

    def test_separation_at_the_domain_sum_is_unsafe(self):
        sc = load_scenario(SCENARIO_DIR / "dynamic_sit3_must_steer.json")
        required = sc.radius_m + sc.obstacles[0].radius_m
        assert not scenario_is_safe(sc, _verdict_result(min_separation_m=required))
        assert not scenario_is_safe(sc, _verdict_result(min_separation_m=required - 1.0))
        above = math.nextafter(required, math.inf)
        assert scenario_is_safe(sc, _verdict_result(min_separation_m=above))


class TestReachTolerance:
    FREE = {"mode": "free", "start": {"x_m": 0.0, "y_m": 0.0, "heading_deg": 0.0},
            "destination": {"x_m": 0.0, "y_m": 6300.0}, "circle_radius_m": 600.0}

    @pytest.mark.parametrize("extra, cells_run, short_m", [
        ({}, 10, 300.0),                             # default: the circle radius
        ({"reach_tolerance_m": 1500.0}, 9, 900.0),
    ])
    def test_run_stops_within_tolerance(self, extra, cells_run, short_m):
        sc = scenario_from_dict({**self.FREE, **extra})
        result = plan_static(sc)
        assert result.reached
        assert len(result.rudder_commands) == cells_run
        assert math.dist(result.nodes[-1].position, (0.0, 6300.0)) == pytest.approx(short_m,
                                                                                   abs=1e-6)


class TestCellLibraryReuse:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Arguments of every build_cell_set call, starting from an empty library."""
        monkeypatch.setattr(cells_mod, "_library_slot", None)
        calls = []
        real_build = cells_mod.build_cell_set

        def counting_build(*args, **kwargs):
            calls.append(args)
            return real_build(*args, **kwargs)

        monkeypatch.setattr(cells_mod, "build_cell_set", counting_build)
        return calls

    def test_batch_builds_each_distinct_key_once(self, tmp_path, builds):
        run_batch(SCENARIO_DIR, tmp_path)
        assert len(builds) == 3  # dynamic_sit1..3 share one key

    def test_compare_builds_once(self, builds):
        compare_planners(load_scenario(SCENARIO_DIR / "fig25_analog.json"))
        assert len(builds) == 1


class TestBaselineCells:
    @pytest.fixture
    def generated(self, monkeypatch):
        """Targets of every generate_cell call the baseline makes."""
        monkeypatch.setattr(cells_mod, "_library_slot", None)
        calls = []
        real_generate = baseline_mod.generate_cell

        def counting_generate(params, target, *args, **kwargs):
            calls.append(target)
            return real_generate(params, target, *args, **kwargs)

        monkeypatch.setattr(baseline_mod, "generate_cell", counting_generate)
        return calls

    @staticmethod
    def generating_every_cell(scn):
        """The library set as the baseline used it before: each change generated."""
        cells = cells_mod.cell_library(scn.ship, scn.radius_m, scn.cell_resolution_deg,
                                       dt=scn.dt_s)
        generating = dataclasses.replace(cells)
        object.__setattr__(generating, "nearest_cell", lambda change: cells_mod.generate_cell(
            scn.ship, change, scn.radius_m, dt=scn.dt_s))
        return generating

    @pytest.mark.parametrize("scene, expected_calls", [
        ({**GOOD_SCENARIO, "destination": {"x_m": -6000.0, "y_m": 6000.0},
          "obstacles": [{"x_m": -3000.0, "y_m": 2500.0, "radius_m": 500.0}]}, 0),
        (GOOD_SCENARIO, 3),  # heading drift leaves changes like 44.99 to generate
    ])
    def test_changes_held_by_the_set_are_not_generated(self, generated, scene,
                                                       expected_calls):
        scn = scenario_from_dict(scene)
        assert scn.cell_resolution_deg == 5.0
        report = compare_planners(scn)
        assert report.grid.reached
        assert len(generated) == expected_calls
        assert all(round(t / 5.0) * 5.0 != t for t in generated)

        new = baseline_mod.grid_baseline_plan(scn)
        assert any(abs(c) > 44.0 for c in new.heading_changes_deg)
        old = baseline_mod.grid_baseline_plan(scn, self.generating_every_cell(scn))
        for f in dataclasses.fields(PlanResult):
            assert getattr(new, f.name) == getattr(old, f.name), f.name
