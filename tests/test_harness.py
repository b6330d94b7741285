"""Scenario files, the on-line generator, artifact outputs, CLI exit codes."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from array import array
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cgtc import baseline as baseline_mod
from cgtc import cells as cells_mod
from cgtc import cli as cli_mod
from cgtc import harness as harness_mod
from cgtc import ship as ship_mod
from cgtc import static_planner as static_planner_mod
from cgtc.cells import build_cell_set
from cgtc.cli import main as cli_main
from cgtc.dynamic_planner import plan_dynamic
from cgtc.errors import InsideObstacle, NonPositiveDt, ParseError, ValidationError
from cgtc.harness import compare_planners, run_batch, run_scenario, scenario_is_safe
from cgtc.scenario import Scenario, load_scenario, scenario_from_dict
from cgtc.ship import ShipParams, online_generate, simulate_turn, trimmed_state
from cgtc.static_planner import Obstacle, PlanResult, plan_static
from conftest import segment_minimum

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


GOOD_SCENARIO = {
    "mode": "static",
    "start": {"x_m": 0.0, "y_m": 0.0, "heading_deg": 0.0},
    "destination": {"x_m": 0.0, "y_m": 5000.0},
    "circle_radius_m": 600.0,
    "obstacles": [{"x_m": 100.0, "y_m": 2500.0, "radius_m": 650.0}],
    "sim": {"max_steps": 40},
}


# perfbench/gen.py compare_scene(1, 3): both plans reach; the grid plan
# enters the fifth disc by about 226 m, the circle plan keeps 87 m
UNSAFE_GRID_SCENE = {
    "mode": "static",
    "start": {"x_m": 0.0, "y_m": 0.0, "heading_deg": 8.891},
    "destination": {"x_m": 1806.789, "y_m": 11550.403},
    "circle_radius_m": 600.0,
    "sim": {"max_steps": 100, "cell_resolution_deg": 5.0},
    "obstacles": [
        {"x_m": -699.087, "y_m": 1435.557, "radius_m": 537.669},
        {"x_m": -459.841, "y_m": 2719.546, "radius_m": 466.738},
        {"x_m": 1334.274, "y_m": 4281.788, "radius_m": 567.88},
        {"x_m": 468.387, "y_m": 5426.253, "radius_m": 461.947},
        {"x_m": 1401.169, "y_m": 6197.483, "radius_m": 522.069},
        {"x_m": 1839.962, "y_m": 7931.073, "radius_m": 549.209},
        {"x_m": -27.925, "y_m": 9102.838, "radius_m": 427.894},
        {"x_m": 573.575, "y_m": 10294.034, "radius_m": 694.524},
    ],
}

# perfbench/gen.py batch_scene(1, 18): plan_static reaches a node inside the
# fourth disc, where its tangent geometry raises InsideObstacle
INSIDE_OBSTACLE_SCENE = {
    "mode": "static",
    "start": {"x_m": 0.0, "y_m": 0.0, "heading_deg": 14.234},
    "destination": {"x_m": 985.881, "y_m": 3886.566},
    "circle_radius_m": 600.0,
    "sim": {"max_steps": 64, "cell_resolution_deg": 5.0},
    "obstacles": [
        {"x_m": -49.956, "y_m": 1118.115, "radius_m": 486.968},
        {"x_m": -25.232, "y_m": 1443.645, "radius_m": 404.741},
        {"x_m": 838.2, "y_m": 2613.472, "radius_m": 584.8},
        {"x_m": 1258.55, "y_m": 2675.862, "radius_m": 569.167},
    ],
}

# each object section of a scenario: (a valid object, a required field or
# None, a number field)
OBJECT_SECTIONS = {
    "ship": ({"steady_speed_mps": 9.0}, None, "steady_speed_mps"),
    "start": (GOOD_SCENARIO["start"], "x_m", "heading_deg"),
    "destination": (GOOD_SCENARIO["destination"], "y_m", "y_m"),
    "obstacles[0]": (GOOD_SCENARIO["obstacles"][0], "radius_m", "radius_m"),
    "sim": (GOOD_SCENARIO["sim"], None, "dt_s"),
}


def _section_faults():
    for section, (valid, required, number) in OBJECT_SECTIONS.items():
        yield section, [valid], "expected an object"
        yield section, "x_m", "expected an object"
        yield section, {**valid, "zzz": 1.0}, "unknown field(s) ['zzz']"
        if required is not None:
            missing = {k: v for k, v in valid.items() if k != required}
            yield section, missing, f"missing required field '{required}'"
        yield section, {**valid, number: "1"}, f"{number}: expected a number"


def _with_section(section, value):
    if section == "obstacles[0]":
        return {**GOOD_SCENARIO, "obstacles": [value]}
    return {**GOOD_SCENARIO, section: value}


def _csv_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()]


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
        # hulls whose step could not run
        ({"ship": {"rudder_rate_degps": 0.0}}, "rudder_rate_degps"),
        ({"ship": {"rudder_rate_degps": -1.0}}, "rudder_rate_degps"),
        ({"ship": {"rudder_limit_stbd_deg": 5e-324}}, "rudder_limit_stbd_deg"),
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

    @pytest.mark.parametrize("section, value, fault", list(_section_faults()))
    def test_object_section_faults_name_the_section(self, section, value, fault):
        assert scenario_from_dict(_with_section(section, OBJECT_SECTIONS[section][0]))
        with pytest.raises(ValidationError) as err:
            scenario_from_dict(_with_section(section, value))
        assert str(err.value).startswith(f"scenario.{section}")
        assert fault in str(err.value)

    @pytest.mark.parametrize("field, value", [
        ("obstacles[0].y_m", 1e300),
        ("obstacles[0].y_m", math.nextafter(1e9, math.inf)),
        ("obstacles[0].radius_m", 2e9),
        ("destination.x_m", -1e10),
        ("ship.steady_speed_mps", 1.5e9),
        ("destination.y_m", 10 ** 400),  # an int past any float
    ])
    def test_magnitudes_past_the_bound_rejected(self, tmp_path, capsys, field, value):
        data = json.loads((SCENARIO_DIR / "fig25_analog.json").read_text())
        data.setdefault("ship", {})
        section, key = field.rsplit(".", 1)
        obj = data[section] if "[" not in section else data["obstacles"][0]
        obj[key] = value
        with pytest.raises(ValidationError, match=re.escape(
                f"scenario.{field}: expected a finite number of magnitude at most 1e+09")):
            scenario_from_dict(data)
        path = tmp_path / "far.json"
        path.write_text(json.dumps(data))
        assert cli_main(["compare", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert "magnitude" in capsys.readouterr().err

    def test_magnitudes_at_the_bound_parse(self):
        data = {**GOOD_SCENARIO, "destination": {"x_m": -1e9, "y_m": 1e9},
                "obstacles": [{"x_m": 1e9, "y_m": -1e9, "radius_m": 1e9}]}
        sc = scenario_from_dict(data)
        assert (sc.dest_x_m, sc.obstacles[0].center, sc.obstacles[0].radius_m) == (
            -1e9, (1e9, -1e9), 1e9)

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

    def test_static_plan_after_a_dynamic_one_leaves_no_separation_series(self, tmp_path):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        run_scenario(SCENARIO_DIR / "dynamic_sit3_must_steer.json", out)
        assert (out / "separation.csv").exists()
        run_scenario(SCENARIO_DIR / "free_bearing37.json", out)
        run_scenario(SCENARIO_DIR / "free_bearing37.json", fresh)
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in fresh.iterdir())
        for p in fresh.iterdir():
            assert (out / p.name).read_bytes() == p.read_bytes()

    def test_planning_error_leaves_no_earlier_artifacts(self, tmp_path):
        out = tmp_path / "out"
        run_scenario(SCENARIO_DIR / "dynamic_sit3_must_steer.json", out)
        assert {p.name for p in out.iterdir()} == set(harness_mod.RUN_ARTIFACTS)
        (out / "notes.txt").write_text("not an artifact\n")
        failing = tmp_path / "inside.json"
        failing.write_text(json.dumps(INSIDE_OBSTACLE_SCENE))
        with pytest.raises(InsideObstacle):
            run_scenario(failing, out)
        assert [p.name for p in out.iterdir()] == ["notes.txt"]

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


class TestArtifactFormats:
    """Every CSV field is the documented format of the value the result holds."""

    @pytest.mark.parametrize("name", ["fig25_analog", "dynamic_sit3_must_steer"])
    def test_plan_files(self, tmp_path, name):
        _, result = run_scenario(SCENARIO_DIR / f"{name}.json", tmp_path)
        f6 = "{:.6f}".format
        times = result.sample_times_s
        assert _csv_rows(tmp_path / "trajectory.csv") == [
            ["t_s", "x_m", "y_m", "heading_deg", "u_mps", "v_mps", "yaw_rate_degps",
             "rudder_deg"],
            *([f6(t), *map(f6, dataclasses.astuple(s))]
              for t, s in zip(times, result.trajectory, strict=True))]
        assert _csv_rows(tmp_path / "commands.csv") == [
            ["step", "delta0_deg", "heading_change_deg"],
            *([str(i), f6(cmd), f6(change)] for i, (cmd, change)
              in enumerate(zip(result.rudder_commands, result.heading_changes_deg,
                               strict=True)))]
        if result.separation_m:
            assert _csv_rows(tmp_path / "separation.csv") == [
                ["t_s", "distance_m"],
                *([f6(t), f6(d)] for t, d in zip(times, result.separation_m, strict=True))]
        else:
            assert not (tmp_path / "separation.csv").exists()
        assert (name == "dynamic_sit3_must_steer") == bool(result.separation_m)

    def test_gen_cells_files(self, tmp_path):
        assert cli_main(["gen-cells", "--resolution", "15", "--out-dir", str(tmp_path)]) == 0
        params = ShipParams()
        cells = build_cell_set(params, 6.0 * params.length_m, 15.0)
        f4 = "{:.4f}".format
        assert _csv_rows(tmp_path / "index.csv") == [
            ["heading_change_deg", "delta0_deg", "duration_s", "arc_length_m"],
            *([f4(c.heading_change_deg), f4(c.delta0_deg), f4(c.duration_s),
               f4(c.arc_length_m)] for c in cells.cells)]
        assert len(list(tmp_path.glob("cell_*.csv"))) == len(cells.cells)
        for cell in cells.cells:
            tag = f"{cell.heading_change_deg:+07.2f}".replace("+", "p").replace("-", "m")
            assert _csv_rows(tmp_path / f"cell_{tag}.csv") == [
                ["t_s", "x_m", "y_m", "heading_deg", "u_mps", "v_mps", "rudder_deg"],
                *([f4(t), f4(s.x_m), f4(s.y_m), f4(s.heading_deg), f4(s.u_mps),
                   f4(s.v_mps), f4(s.rudder_deg)]
                  for t, s in zip(cell.sample_times_s, cell.samples, strict=True))]

    def test_turn_test_files(self, tmp_path):
        argv = ["turn-test", "--duration", "600", "--dt", "0.25", "--out-dir", str(tmp_path)]
        assert cli_main(argv) == 0
        params = ShipParams()
        for name, rudder in (("starboard", params.rudder_limit_stbd_deg),
                             ("port", params.rudder_limit_port_deg)):
            states = simulate_turn(params, rudder, 600.0, 0.25)
            assert _csv_rows(tmp_path / f"turn_{name}.csv") == [
                ["t_s", "x_m", "y_m", "heading_deg", "u_mps", "v_mps", "yaw_rate_degps",
                 "rudder_deg"],
                *(["{:.3f}".format(i * 0.25), *map("{:.4f}".format, dataclasses.astuple(s))]
                  for i, s in enumerate(states))]


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
        relative = [(s.x_m - mover.position_at(t)[0], s.y_m - mover.position_at(t)[1])
                    for s, t in zip(result.trajectory, result.sample_times_s)]
        assert result.min_separation_m == segment_minimum(relative, [((0.0, 0.0), 0.0)])


class TestComparePlanners:
    def test_free_straight_ratio_one(self, params):
        sc = Scenario(mode="free", ship=params, start_x_m=0.0, start_y_m=0.0,
                      start_heading_deg=0.0, dest_x_m=0.0, dest_y_m=6000.0,
                      circle_radius_m=600.0, max_steps=40)
        rep = compare_planners(sc)
        assert rep["circle"]["reached"] and rep["grid"]["reached"]
        assert rep["length_ratio"] == pytest.approx(1.0, abs=0.05)

    def test_bearing_22_5_staircase(self, params):
        d = 6000.0
        sc = Scenario(mode="free", ship=params, start_x_m=0.0, start_y_m=0.0,
                      start_heading_deg=0.0,
                      dest_x_m=d * math.sin(math.radians(22.5)),
                      dest_y_m=d * math.cos(math.radians(22.5)),
                      circle_radius_m=600.0, max_steps=40, cell_resolution_deg=2.0)
        rep = compare_planners(sc)
        assert rep["circle"]["reached"] and rep["grid"]["reached"]
        assert rep["circle"]["steering_count"] == 1
        assert rep["grid"]["steering_count"] >= 2

    # cgtc compare's report and exit code; each scene starts at (0, 0),
    # heading 0, with a 600 m circle, as GOOD_SCENARIO does
    @staticmethod
    def cli_compare(tmp_path, scene):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene))
        code = cli_main(["compare", str(path), "--out-dir", str(tmp_path / "out")])
        return json.loads((tmp_path / "out" / "comparison.json").read_text()), code

    def test_no_grid_path_reported_per_side(self, tmp_path, capsys):
        # no grid node path past the small disc: the grid side is its error,
        # the circle side is reported, and no ratio is filled
        scene = {**GOOD_SCENARIO, "destination": {"x_m": 0.0, "y_m": 2000.0},
                 "obstacles": [{"x_m": 0.0, "y_m": 1750.0, "radius_m": 100.0}]}
        written, code = self.cli_compare(tmp_path, scene)
        assert code == 1
        assert written["circle"]["reached"] and written["circle"]["safe"]
        assert written["circle"]["path_length_m"] == pytest.approx(1800.2, abs=0.05)
        assert written["circle"]["steering_count"] == 1
        assert written["grid"].startswith("NoGridPath: no 8-connected path from (0.0, 0.0) ")
        assert written["length_ratio"] is None and written["steering_ratio"] is None

    def test_grid_without_steering_leaves_no_steering_ratio(self, tmp_path, capsys):
        scene = {**GOOD_SCENARIO, "mode": "free", "destination": {"x_m": 0.0, "y_m": 6000.0},
                 "obstacles": []}
        written, code = self.cli_compare(tmp_path, scene)
        assert code == 0
        assert written["circle"]["steering_count"] == written["grid"]["steering_count"] == 0
        assert written["length_ratio"] == 1.0 and written["steering_ratio"] is None

    def test_unreached_side_leaves_no_ratios(self, tmp_path, capsys):
        scene = {**GOOD_SCENARIO, "mode": "free", "destination": {"x_m": 0.0, "y_m": 6000.0},
                 "obstacles": [], "sim": {"max_steps": 1}}
        written, code = self.cli_compare(tmp_path, scene)
        assert code == 1
        for side in ("circle", "grid"):
            assert not written[side]["reached"] and written[side]["safe"]
            assert written[side]["path_length_m"] == 600.0
        assert written["length_ratio"] is None and written["steering_ratio"] is None

    def test_one_side_error_still_reports_other(self, params):
        # destination inside the only obstacle: both planners fail cleanly,
        # but the report carries the error strings rather than raising
        sc = Scenario(mode="static", ship=params, start_x_m=0.0, start_y_m=0.0,
                      start_heading_deg=0.0, dest_x_m=0.0, dest_y_m=2500.0,
                      circle_radius_m=600.0, max_steps=40,
                      obstacles=[Obstacle(center=(0.0, 2500.0), radius_m=650.0)])
        rep = compare_planners(sc)
        assert isinstance(rep["circle"], str)
        assert "DestinationInsideObstacle" in rep["circle"]
        assert rep["grid"].startswith("NoGridPath: ")
        # the circle plan enters the fourth disc's tangent geometry; the grid
        # plan still comes through with its verdict, and no ratio is filled
        rep = compare_planners(scenario_from_dict(INSIDE_OBSTACLE_SCENE))
        assert rep["circle"].startswith("InsideObstacle: ")
        assert rep["grid"]["reached"] and rep["grid"]["safe"]
        assert rep["grid"]["steering_count"] > 0
        assert rep["length_ratio"] is None and rep["steering_ratio"] is None


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

    def test_dynamic_plan_without_cells_measures_the_mover_at_the_start(self, tmp_path):
        """A start within the reach tolerance runs no cell; the mover 300 m
        off still makes the plan unsafe (it needs 600 + 200 m)."""
        scn = {"mode": "dynamic",
               "start": {"x_m": 0.0, "y_m": 0.0, "heading_deg": 0.0},
               "destination": {"x_m": 0.0, "y_m": 100.0},
               "circle_radius_m": 600.0,
               "obstacles": [{"x_m": 0.0, "y_m": 300.0, "radius_m": 200.0,
                              "speed_mps": 5.0, "course_deg": 90.0}]}
        path = tmp_path / "beside_mover.json"
        path.write_text(json.dumps(scn))
        sc = load_scenario(path)
        result = plan_dynamic(sc)
        assert result.reached and not result.trajectory
        assert result.min_separation_m == 300.0 and result.separation_m == []
        assert not scenario_is_safe(sc, result)
        out = tmp_path / "out"
        assert cli_main(["plan", str(path), "--out-dir", str(out)]) == 1
        assert (out / "trajectory.csv").exists() and not (out / "separation.csv").exists()

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
                                      ["--duration", "-5"], ["--duration", "nan"],
                                      ["--duration", "inf"], ["--duration", "1e308"]])
    def test_turn_test_bad_arguments_exit_two(self, tmp_path, capsys, args):
        # a run too short for a full circle has no radius to fit
        rc = cli_main(["turn-test", *args, "--out-dir", str(tmp_path / "turn")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("input error:")
        assert not (tmp_path / "turn").exists()

    def test_turn_test_endless_duration_exits_two(self, tmp_path, capsys, monkeypatch):
        # 1e300 s is 2e300 steps at dt 0.5: rejected by the hull's bound, not run
        def forbidden(*args):
            raise AssertionError("stepped before the duration was checked")

        monkeypatch.setattr(ship_mod, "step", forbidden)
        rc = cli_main(["turn-test", "--duration", "1e300", "--out-dir", str(tmp_path / "turn")])
        assert rc == 2
        assert "horizon_s" in capsys.readouterr().err
        assert not (tmp_path / "turn").exists()

    @pytest.mark.parametrize("command", ["plan", "gen-cells", "turn-test"])
    def test_tiny_dt_exits_two_before_any_rollout(self, tmp_path, capsys, monkeypatch,
                                                  command):
        # past MAX_RUN_STEPS steps for the run each makes: at 1e-9 s they
        # would step for hours
        def forbidden(*args, **kwargs):
            raise AssertionError("rolled before dt was checked")

        for module, name in ((harness_mod, "plan_static"), (cli_mod, "build_cell_set"),
                             (ship_mod, "step"), (cells_mod, "_heading_changes")):
            monkeypatch.setattr(module, name, forbidden)
        scenario = tmp_path / "tiny_dt.json"
        scenario.write_text(json.dumps({**GOOD_SCENARIO, "sim": {"dt_s": 1e-9}}))
        argv = {"plan": ["plan", str(scenario)],
                "gen-cells": ["gen-cells", "--dt", "1e-9"],
                "turn-test": ["turn-test", "--dt", "1e-6"]}[command]
        assert cli_main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert {"plan": "dt must be at least 0.0155844 s",
                "gen-cells": "dt must be at least 0.00991169 s",
                "turn-test": "at most 1000000 steps of dt 1e-06 s"}[command] in err

    def test_slow_hull_plans_at_the_default_dt(self, tmp_path):
        # 60 s lags: the step bound, not the hull's lags, limits how fine dt may be
        scenario = tmp_path / "slow.json"
        scenario.write_text(json.dumps({**GOOD_SCENARIO, "ship": {"turn_lag_s": 60.0,
                                                                    "speed_recovery_s": 60.0}}))
        assert cli_main(["plan", str(scenario), "--out-dir", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("content", [
        b"\xff\xfe1,2\n",                                      # not UTF-8
        b"rudder,heading\n" + b"".join(b"%d,%d\n" % (d, d) for d in range(8)) + b"nan,1\n",
        b"".join(b"%d,%d\n" % (d, d) for d in range(8)) + b"2,inf\n",
        b"1,2\n2,4\n3,6\n",                                    # InsufficientSamples
        b"1,2\n",                                                # LengthMismatch
        b"".join(b"%d,5\n" % d for d in range(8)),              # ZeroVariance
        b"".join(b"%d,%d\n" % (d, d - d ** 3) for d in range(-4, 5)),  # MonotonicityViolation
        b"".join(b"%d,%d\n" % (d, d) for d in range(8)) + b"1,2,3\n",  # three columns
        # past scenario.MAX_MAGNITUDE: a power in the fit would overflow, in
        # its degree-5 loop and in the cubic
        b"".join(b"%de61,%d\n" % (d, d) for d in range(7)),
        b"0,0\n1,1\n2,2\n3,3\n1e103,4\n",
        b"".join(b"%de-160,%d\n" % (d, d ** 3 + d) for d in range(8)),  # the cube underflows
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

    def test_fit_relation_reports_the_degrees_its_rows_determine(self, tmp_path):
        # 5 rows fit the cubic and every degree up to 4, not 5
        from conftest import RUDDER_HEADING_TABLE
        csv = tmp_path / "rel.csv"
        csv.write_text("".join(f"{d},{t}\n" for d, t in RUDDER_HEADING_TABLE[::2][:5]))
        rc = cli_main(["fit-relation", str(csv), "--out-dir", str(tmp_path / "fit")])
        assert rc == 0
        report = json.loads((tmp_path / "fit" / "relation.json").read_text())
        assert report["samples"] == 5
        assert list(report["residual_stddev_by_degree"]) == ["1", "2", "3", "4"]

    def test_fit_relation_header_after_a_comment(self, tmp_path):
        from conftest import RUDDER_HEADING_TABLE
        rows = "".join(f"{d},{t}\n" for d, t in RUDDER_HEADING_TABLE)
        csv = tmp_path / "rel.csv"
        csv.write_text("# note\n\nrudder_deg,heading_deg\n" + rows)
        assert cli_main(["fit-relation", str(csv), "--out-dir", str(tmp_path / "fit")]) == 0
        report = json.loads((tmp_path / "fit" / "relation.json").read_text())
        assert report["samples"] == 12
        # only that first line may be a header
        csv.write_text("# note\nrudder_deg,heading_deg\nrudder_deg,heading_deg\n" + rows)
        assert cli_main(["fit-relation", str(csv), "--out-dir", str(tmp_path / "bad")]) == 2

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

    def test_batch_goes_on_after_a_planning_failure(self, tmp_path, capsys):
        src = tmp_path / "scenarios"
        src.mkdir()
        good = (SCENARIO_DIR / "free_bearing37.json").read_text()
        (src / "a.json").write_text(good)
        (src / "b.json").write_text(json.dumps(INSIDE_OBSTACLE_SCENE))
        (src / "c.json").write_text(good)
        rc = cli_main(["batch", str(src), "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert list(summary) == ["a", "b", "c"]
        assert summary["a"] == summary["c"] and summary["a"]["reached"] is True
        b = summary["b"]
        assert (b["reached"], b["safe"]) == (False, False)
        assert b["error"].startswith("InsideObstacle: ")
        assert "b: planning error: InsideObstacle: " in capsys.readouterr().out
        for name in ("a", "c"):
            assert (tmp_path / "out" / name / "metrics.json").exists()

    def test_batch_stops_at_an_input_error(self, tmp_path, capsys):
        src = tmp_path / "scenarios"
        src.mkdir()
        (src / "a.json").write_text((SCENARIO_DIR / "free_bearing37.json").read_text())
        (src / "b.json").write_text("{nope")
        rc = cli_main(["batch", str(src), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("input error:")
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_batch_input_error_leaves_no_earlier_summary(self, tmp_path, capsys):
        src = tmp_path / "scenarios"
        src.mkdir()
        (src / "a.json").write_text((SCENARIO_DIR / "free_bearing37.json").read_text())
        out = tmp_path / "out"
        assert cli_main(["batch", str(src), "--out-dir", str(out)]) == 0
        assert (out / "summary.json").exists()
        (src / "b.json").write_text("{nope")
        assert cli_main(["batch", str(src), "--out-dir", str(out)]) == 2
        assert not (out / "summary.json").exists()

    def test_parser_is_built_once_per_process(self, tmp_path, capsys, monkeypatch):
        built = []
        real_build = cli_mod.build_parser

        def counting_build():
            built.append(1)
            return real_build()

        monkeypatch.setattr(cli_mod, "build_parser", counting_build)
        cli_mod._parser.cache_clear()
        try:
            scenario = str(SCENARIO_DIR / "free_bearing37.json")
            for out in ("one", "two"):
                assert cli_main(["plan", scenario, "--out-dir", str(tmp_path / out)]) == 0
            assert built == [1]
            assert (tmp_path / "two" / "metrics.json").read_bytes() == \
                (tmp_path / "one" / "metrics.json").read_bytes()
            with pytest.raises(SystemExit) as usage:
                cli_main(["plan"])
            assert usage.value.code == 2
            assert built == [1]
        finally:
            cli_mod._parser.cache_clear()


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

    def test_failed_compare_leaves_no_earlier_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli_main(["compare", str(SCENARIO_DIR / "fig25_analog.json"),
                         "--out-dir", str(out)]) == 0
        assert (out / "comparison.json").exists()
        assert cli_main(["compare", str(SCENARIO_DIR / "dynamic_sit1_own_first.json"),
                         "--out-dir", str(out)]) == 2
        assert list(out.iterdir()) == []

    def test_plan_error_leaves_no_earlier_metrics(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli_main(["plan", str(SCENARIO_DIR / "free_bearing37.json"),
                         "--out-dir", str(out)]) == 0
        assert json.loads((out / "metrics.json").read_text())["reached"] is True
        failing = tmp_path / "inside.json"
        failing.write_text(json.dumps(INSIDE_OBSTACLE_SCENE))
        assert cli_main(["plan", str(failing), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("planning error: InsideObstacle:")
        assert list(out.iterdir()) == []

    def test_gen_cells_at_another_resolution_leaves_only_its_cells(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli_main(["gen-cells", "--resolution", "15", "--out-dir", str(out)]) == 0
        (out / "notes.txt").write_text("not a cell\n")
        assert cli_main(["gen-cells", "--resolution", "10", "--out-dir", str(out)]) == 0
        params = ShipParams()
        cells = build_cell_set(params, 6.0 * params.length_m, 10.0)
        tags = [f"{c.heading_change_deg:+07.2f}".replace("+", "p").replace("-", "m")
                for c in cells.cells]
        assert len(_csv_rows(out / "index.csv")) == 1 + 19
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["index.csv", "notes.txt", *(f"cell_{tag}.csv" for tag in tags)])

    def test_failed_gen_cells_leaves_no_earlier_cells(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli_main(["gen-cells", "--resolution", "15", "--out-dir", str(out)]) == 0
        assert cli_main(["gen-cells", "--resolution", "10", "--out-dir", str(out)]) == 0
        (out / "notes.txt").write_text("not a cell\n")
        assert cli_main(["gen-cells", "--radius", "128", "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("planning error: Unreachable:")
        assert [p.name for p in out.iterdir()] == ["notes.txt"]

    @pytest.mark.parametrize("command", ["plan", "compare", "gen-cells", "batch",
                                         "fit-relation", "turn-test"])
    def test_input_error_leaves_no_earlier_artifacts(self, tmp_path, capsys, command):
        # a successful run, then one that exits 2 on its input into the same
        # out dir: only the file that no command owns stays
        from conftest import RUDDER_HEADING_TABLE
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        scenarios = tmp_path / "scenarios"
        scenarios.mkdir()
        (scenarios / "a.json").write_text((SCENARIO_DIR / "free_bearing37.json").read_text())
        table, one_row = tmp_path / "table.csv", tmp_path / "one_row.csv"
        table.write_text("".join(f"{d},{t}\n" for d, t in RUDDER_HEADING_TABLE))
        one_row.write_text("1,2\n")
        scenario = str(SCENARIO_DIR / "fig25_analog.json")
        ok, failing = {
            "plan": (["plan", scenario], ["plan", str(bad)]),
            "compare": (["compare", scenario], ["compare", str(bad)]),
            "gen-cells": (["gen-cells", "--resolution", "15"], ["gen-cells", "--resolution", "7"]),
            "batch": (["batch", str(scenarios)], ["batch", str(tmp_path / "missing")]),
            "fit-relation": (["fit-relation", str(table)], ["fit-relation", str(one_row)]),
            "turn-test": (["turn-test"], ["turn-test", "--duration", "10"]),
        }[command]
        out = ["--out-dir", str(tmp_path / "out")]
        assert cli_main([*ok, *out]) == 0
        written = sorted(p.name for p in (tmp_path / "out").iterdir())
        (tmp_path / "out" / "notes.txt").write_text("not an artifact\n")
        capsys.readouterr()
        assert cli_main([*failing, *out]) == 2
        assert capsys.readouterr().err.startswith("input error:")
        # a batch owns its summary, not the subdirectories of its files
        kept = ["a", "notes.txt"] if command == "batch" else ["notes.txt"]
        assert written and sorted(p.name for p in (tmp_path / "out").iterdir()) == kept

    def test_batch_input_error_leaves_no_earlier_files_of_that_scenario(self, tmp_path, capsys):
        src, out = tmp_path / "scenarios", tmp_path / "out"
        src.mkdir()
        for name in ("a", "b"):
            (src / f"{name}.json").write_text((SCENARIO_DIR / "free_bearing37.json").read_text())
        assert cli_main(["batch", str(src), "--out-dir", str(out)]) == 0
        (src / "b.json").write_text("{nope")
        assert cli_main(["batch", str(src), "--out-dir", str(out)]) == 2
        assert sorted(p.name for p in out.iterdir()) == ["a", "b"]
        assert (out / "a" / "metrics.json").exists()
        assert list((out / "b").iterdir()) == []

    def test_batch_fails_on_an_unusable_summary_path_before_any_plan(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "summary.json").mkdir(parents=True)
        assert cli_main(["batch", str(SCENARIO_DIR), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("input error:")
        assert [p.name for p in out.iterdir()] == ["summary.json"]
        assert (out / "summary.json").is_dir()

    def test_rerun_replaces_its_files_and_writes_through_no_link(self, tmp_path, capsys):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        first, second = SCENARIO_DIR / "fig25_analog.json", SCENARIO_DIR / "free_bearing37.json"
        assert cli_main(["plan", str(first), "--out-dir", str(out)]) == 0
        old = (out / "trajectory.csv").read_bytes()
        os.link(out / "trajectory.csv", tmp_path / "hard_link.csv")
        outside = tmp_path / "outside.csv"
        outside.write_text("not the plan's\n")
        (out / "commands.csv").unlink()
        (out / "commands.csv").symlink_to(outside)
        assert cli_main(["plan", str(second), "--out-dir", str(out)]) == 0
        assert cli_main(["plan", str(second), "--out-dir", str(fresh)]) == 0
        assert (tmp_path / "hard_link.csv").read_bytes() == old
        assert outside.read_text() == "not the plan's\n"
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in fresh.iterdir())
        for p in fresh.iterdir():
            written = out / p.name
            assert written.is_file() and not written.is_symlink()
            assert written.read_bytes() == p.read_bytes()
        assert (out / "trajectory.csv").read_bytes() != old

    def test_batch_removes_the_runs_of_scenarios_gone_from_the_dir(self, tmp_path):
        src, out = tmp_path / "scenarios", tmp_path / "out"
        src.mkdir()
        for name in ("a", "b", "c"):
            (src / f"{name}.json").write_text((SCENARIO_DIR / "free_bearing37.json").read_text())
        assert cli_main(["batch", str(src), "--out-dir", str(out)]) == 0
        (out / "c" / "notes.txt").write_text("not an artifact\n")
        (out / "d").mkdir()  # no summary names it
        (out / "d" / "metrics.json").write_text("{}\n")
        (src / "b.json").unlink()
        (src / "c.json").unlink()
        assert cli_main(["batch", str(src), "--out-dir", str(out)]) == 0
        assert list(json.loads((out / "summary.json").read_text())) == ["a"]
        assert sorted(p.name for p in out.iterdir()) == ["a", "c", "d", "summary.json"]
        assert [p.name for p in (out / "c").iterdir()] == ["notes.txt"]
        assert [p.name for p in (out / "d").iterdir()] == ["metrics.json"]

    def test_batch_keeps_runs_beside_an_unreadable_summary(self, tmp_path):
        src, out = tmp_path / "scenarios", tmp_path / "out"
        src.mkdir()
        (src / "a.json").write_text((SCENARIO_DIR / "free_bearing37.json").read_text())
        (out / "b").mkdir(parents=True)
        (out / "b" / "metrics.json").write_text("{}\n")
        (out / "summary.json").write_text('{"b": ')
        assert cli_main(["batch", str(src), "--out-dir", str(out)]) == 0
        assert (out / "b" / "metrics.json").exists()

    def test_compare_success_writes_report(self, tmp_path, capsys):
        rc = cli_main(["compare", str(SCENARIO_DIR / "fig25_analog.json"),
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        written = json.loads((tmp_path / "comparison.json").read_text())
        report = compare_planners(load_scenario(SCENARIO_DIR / "fig25_analog.json"))
        assert written == report
        assert set(written["circle"]) == set(written["grid"]) == {
            "reached", "safe", "path_length_m", "steering_count", "min_clearance_m"}
        assert written["length_ratio"] is not None and written["steering_ratio"] is not None

    def test_compare_on_a_grid_past_the_node_limit_exits_one(self, tmp_path, capsys):
        data = json.loads((SCENARIO_DIR / "fig25_analog.json").read_text())
        data["destination"]["x_m"] = 1e9
        path = tmp_path / "far.json"
        path.write_text(json.dumps(data))
        assert cli_main(["compare", str(path), "--out-dir", str(tmp_path / "out")]) == 1
        written = json.loads((tmp_path / "out" / "comparison.json").read_text())
        assert written["grid"].startswith("GridTooLarge: a grid of ")
        assert not written["circle"]["reached"]

    def test_compare_exits_one_when_a_plan_is_unsafe(self, tmp_path, capsys):
        path = tmp_path / "unsafe_grid.json"
        path.write_text(json.dumps(UNSAFE_GRID_SCENE))
        assert cli_main(["compare", str(path), "--out-dir", str(tmp_path / "out")]) == 1
        written = json.loads((tmp_path / "out" / "comparison.json").read_text())
        assert written["circle"]["reached"] and written["circle"]["safe"]
        assert written["grid"]["reached"] and not written["grid"]["safe"]
        assert written["grid"]["min_clearance_m"] < -200.0
        # the ratios keep their rule: both sides reached
        assert written["length_ratio"] is not None

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
    return PlanResult(nodes=[], trajectory=[], rudder_commands=[],
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


class TestSampleBudget:
    """A plan stops before a cell that would take it past MAX_RUN_STEPS samples."""

    FREE = TestReachTolerance.FREE

    def test_plan_stops_unreached_before_the_cell_past_the_budget(self, monkeypatch):
        sc = scenario_from_dict(self.FREE)
        two, three = (plan_static(scenario_from_dict({**self.FREE, "sim": {"max_steps": k}}))
                      for k in (2, 3))
        budget = len(three.trajectory)  # the samples of the first three cells
        for limit, expected in ((budget, three), (budget - 1, two)):
            monkeypatch.setattr(static_planner_mod, "MAX_RUN_STEPS", limit)
            result = plan_static(sc)
            assert not result.reached and len(result.trajectory) <= limit
            assert result == expected

    def test_cli_plan_past_the_budget_exits_one(self, tmp_path, capsys, monkeypatch):
        scenario = tmp_path / "free.json"
        scenario.write_text(json.dumps(self.FREE))
        monkeypatch.setattr(static_planner_mod, "MAX_RUN_STEPS", 1000)
        assert cli_main(["plan", str(scenario), "--out-dir", str(tmp_path / "out")]) == 1
        metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert metrics["reached"] is False and metrics["steps"] < 10


class TestCellLibraryReuse:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Arguments of every build_cell_set call, starting from an empty library."""
        monkeypatch.setattr(cells_mod, "_library", {})
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

    def test_compare_builds_a_failing_key_once(self, builds):
        """Both sides plan on one key; its build raises once, and the grid
        side reads the error that cell_library remembered."""
        scenario = load_scenario(SCENARIO_DIR / "fig25_analog.json")
        weak = dataclasses.replace(scenario.ship, turn_gain=scenario.ship.turn_gain * 0.05)
        report = compare_planners(dataclasses.replace(scenario, ship=weak))
        assert len(builds) == 1
        assert report["circle"] == report["grid"]
        assert report["circle"].startswith("Unreachable: target -90.0 deg")

    def test_batch_passes_reuse_the_library(self, tmp_path, builds):
        passes = []
        for i in range(3):
            run_batch(SCENARIO_DIR, tmp_path / f"pass{i}")
            passes.append(len(builds))
            builds.clear()
        assert passes[0] == 3 and passes[2] == 0

    def test_second_batch_in_process_matches_a_fresh_process(self, tmp_path):
        for out in ("first", "second"):
            assert cli_main(["batch", str(SCENARIO_DIR), "--out-dir", str(tmp_path / out)]) == 0
        env = {**os.environ, "PYTHONPATH": str(Path(cells_mod.__file__).parent.parent)}
        subprocess.run([sys.executable, "-m", "cgtc.cli", "batch", str(SCENARIO_DIR),
                        "--out-dir", str(tmp_path / "fresh")],
                       check=True, env=env, capture_output=True)

        def files(root):
            return {p.relative_to(root): p.read_bytes()
                    for p in sorted(root.rglob("*")) if p.is_file()}

        fresh = files(tmp_path / "fresh")
        assert len(fresh) > 5 * 3
        assert files(tmp_path / "second") == fresh


class TestBaselineCells:
    @pytest.fixture
    def generated(self, monkeypatch):
        """Targets of every generate_cell call the baseline makes."""
        monkeypatch.setattr(cells_mod, "_library", {})
        calls = []
        real_generate = baseline_mod.generate_cell

        def counting_generate(params, target, *args, **kwargs):
            calls.append(target)
            return real_generate(params, target, *args, **kwargs)

        monkeypatch.setattr(baseline_mod, "generate_cell", counting_generate)
        return calls

    @pytest.fixture
    def held(self, monkeypatch):
        """(change, cell) of every CellSet.held_cell call that found a cell."""
        calls = []
        real_held = cells_mod.CellSet.held_cell

        def recording_held(cell_set, change):
            cell = real_held(cell_set, change)
            if cell is not None:
                calls.append((change, cell))
            return cell

        monkeypatch.setattr(cells_mod.CellSet, "held_cell", recording_held)
        return calls

    @staticmethod
    def generating_every_cell(scn):
        """The library set as the baseline once used it: each change generated."""
        cells = cells_mod.cell_library(scn.ship, scn.radius_m, scn.cell_resolution_deg,
                                       dt=scn.dt_s)
        generating = dataclasses.replace(cells)
        object.__setattr__(generating, "held_cell", lambda change: cells_mod.generate_cell(
            scn.ship, change, scn.radius_m, dt=scn.dt_s))
        return generating

    @pytest.mark.parametrize("scene, drifted", [
        ({**GOOD_SCENARIO, "destination": {"x_m": -6000.0, "y_m": 6000.0},
          "obstacles": [{"x_m": -3000.0, "y_m": 2500.0, "radius_m": 500.0}]}, 0),
        (GOOD_SCENARIO, 2),  # heading drift leaves changes like 44.99 and -0.01
    ])
    def test_changes_held_by_the_set_are_not_generated(self, generated, held, scene,
                                                       drifted):
        scn = scenario_from_dict(scene)
        assert scn.cell_resolution_deg == 5.0
        report = compare_planners(scn)
        assert report["grid"]["reached"]
        assert generated == []
        cells = cells_mod.cell_library(scn.ship, scn.radius_m, 5.0, dt=scn.dt_s)
        off_grid = set()
        for change, cell in held:
            assert cell in cells.cells
            if round(change / 5.0) * 5.0 != change:
                off_grid.add(change)
                # generate_cell's acceptance test: the set's cell meets the change
                assert abs(cell.heading_change_deg - change) <= cells_mod._SOLVE_TOL_DEG
        assert len(off_grid) == drifted

        new = baseline_mod.grid_baseline_plan(scn)
        assert any(abs(c) > 44.0 for c in new.heading_changes_deg)
        old = baseline_mod.grid_baseline_plan(scn, self.generating_every_cell(scn))
        if not drifted:  # every change a multiple: the same plan as generating each
            for f in dataclasses.fields(PlanResult):
                assert getattr(new, f.name) == getattr(old, f.name), f.name
        else:  # a set cell for a drifted change: the same route within a metre
            assert (new.reached, new.steering_count) == (old.reached, old.steering_count)
            assert new.path_length_m == pytest.approx(old.path_length_m, abs=1.0)


    def test_a_second_plan_on_the_set_generates_nothing(self, generated):
        """On the 2-degree fig25_analog set, +-45 degrees is no set cell: the
        first plan generates those cells and keeps them with the set, a
        second plan on the same set takes them from there."""
        scn = load_scenario(SCENARIO_DIR / "fig25_analog.json")
        first = baseline_mod.grid_baseline_plan(scn)
        cells = cells_mod.cell_library(scn.ship, scn.radius_m, scn.cell_resolution_deg,
                                       dt=scn.dt_s)
        assert {-45.0, 45.0} <= set(generated) == set(cells._kept)
        generated.clear()
        second = baseline_mod.grid_baseline_plan(scn)
        assert generated == []
        for f in dataclasses.fields(PlanResult):
            assert getattr(second, f.name) == getattr(first, f.name), f.name


@pytest.fixture(scope="module")
def sets_5_and_2(params):
    return [cells_mod.build_cell_set(params, 600.0, resolution) for resolution in (5.0, 2.0)]


@settings(max_examples=50, deadline=None)
@given(hundredths=st.integers(-9000, 9000), pick=st.integers(0, 1))
@example(hundredths=4499, pick=0)   # a drifted 45 on the 5-degree set
@example(hundredths=-1, pick=0)
@example(hundredths=4500, pick=1)   # 45 is no multiple of 2: generated
@example(hundredths=-9000, pick=1)
def test_baseline_cell_meets_its_key(sets_5_and_2, hundredths, pick):
    """Any change rounded to 0.01 deg: the baseline runs a cell within the
    cell contract, and a cell the set holds within the solve tolerance. A
    generated cell is kept with the set as its most recent cell; a held
    cell is the set's own and is not kept."""
    cells = sets_5_and_2[pick]
    key = round(hundredths / 100.0, 2)
    cell = baseline_mod._tracking_cell(cells, key)
    assert abs(cell.heading_change_deg - key) <= cells_mod.CELL_TARGET_TOL_DEG
    held = cells.held_cell(key)
    if held is None:
        assert round(key / cells.resolution_deg) * cells.resolution_deg != key
        assert list(cells._kept.items())[-1] == (key, cell)
        assert baseline_mod._tracking_cell(cells, key) is cell
    else:
        assert cell is held and cell in cells.cells and key not in cells._kept
        assert abs(cell.heading_change_deg - key) <= cells_mod._SOLVE_TOL_DEG
