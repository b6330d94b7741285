"""Scenario running and planner comparison.

run_scenario is the batch entry point: load a scenario file, dispatch on
its mode, write trajectory/command CSVs and a metrics report. Everything is
a deterministic function of the scenario file, so re-runs produce
byte-identical outputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .baseline import grid_baseline_plan
from .dynamic_planner import plan_dynamic
from .errors import CGTCError, ScenarioError, ValidationError
from .scenario import Scenario, load_scenario
from .static_planner import PlanResult, plan_static

TRAJECTORY_COLUMNS = ("t_s", "x_m", "y_m", "heading_deg", "u_mps", "v_mps",
                      "yaw_rate_degps", "rudder_deg")
TRAJECTORY_ROW = ",".join(["%.6f"] * len(TRAJECTORY_COLUMNS))
COMMAND_COLUMNS = ("step", "delta0_deg", "heading_change_deg")
COMMAND_ROW = "%d,%.6f,%.6f"
SEPARATION_COLUMNS = ("t_s", "distance_m")
SEPARATION_ROW = "%.6f,%.6f"
# every file run_scenario may write into its out dir
RUN_ARTIFACTS = ("trajectory.csv", "commands.csv", "separation.csv", "metrics.json")


@dataclass
class PlannerMetrics:
    path_length_m: float
    steering_count: int
    reached: bool
    safe: bool
    min_clearance_m: Optional[float]


@dataclass
class ComparisonReport:
    circle: Optional[PlannerMetrics] = None
    grid: Optional[PlannerMetrics] = None
    circle_error: Optional[str] = None
    grid_error: Optional[str] = None
    length_ratio: Optional[float] = None
    steering_ratio: Optional[float] = None


def _metrics_of(scenario: Scenario, result: PlanResult) -> PlannerMetrics:
    return PlannerMetrics(
        path_length_m=result.path_length_m,
        steering_count=result.steering_count,
        reached=result.reached,
        safe=scenario_is_safe(scenario, result),
        min_clearance_m=result.min_clearance_m,
    )


def compare_planners(scenario: Scenario) -> ComparisonReport:
    """Run circle-grid and grid-baseline planners on the same scenario.

    A failure on one side is reported as that side's error string while the
    other side's metrics, with their safety verdict, still come through.
    Ratios (circle over grid) are filled only when both planners reached
    the destination.
    """
    if scenario.obstacles and any(o.moving for o in scenario.obstacles):
        raise ValidationError("compare_planners handles static and free scenarios only")

    sides = {}
    for side, plan in (("circle", plan_static), ("grid", grid_baseline_plan)):
        try:
            sides[side] = _metrics_of(scenario, plan(scenario))
        except CGTCError as exc:
            sides[f"{side}_error"] = f"{type(exc).__name__}: {exc}"

    report = ComparisonReport(**sides)
    circle, grid = report.circle, report.grid
    if circle and grid and circle.reached and grid.reached:
        report.length_ratio = circle.path_length_m / grid.path_length_m
        if grid.steering_count > 0:
            report.steering_ratio = circle.steering_count / grid.steering_count
    return report


def write_csv(path: Path, columns, row_format: str, rows) -> None:
    """Write a header of column names, then `row_format % row` for each row tuple."""
    path.write_text("\n".join([",".join(columns), *map(row_format.__mod__, rows)]) + "\n")


def remove_artifacts(out: Path, names) -> None:
    """Unlink the named files from out where an earlier run left them.

    A command calls this for the artifacts it owns but does not write this
    time, so an out dir never shows an earlier run's file beside this run's
    error or beside files that no longer belong with it.
    """
    if out.is_dir():
        for name in names:
            (out / name).unlink(missing_ok=True)


def scenario_is_safe(scenario: Scenario, result: PlanResult) -> bool:
    """Hard safety: no static disc entered; moving-obstacle separation kept."""
    if result.min_clearance_m is not None and result.min_clearance_m <= 0.0:
        return False
    if result.min_separation_m is not None:
        movers = [o for o in scenario.obstacles if o.moving]
        required = scenario.radius_m + movers[0].radius_m
        if result.min_separation_m <= required:
            return False
    return True


def run_scenario(path: str | Path, out_dir: str | Path) -> tuple[Scenario, PlanResult]:
    """Load, plan, and write artifacts. Raises ScenarioError on bad input.

    Of RUN_ARTIFACTS, a plan that raises leaves none in out_dir, and a plan
    without a separation series leaves no separation.csv.
    """
    scenario = load_scenario(path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    try:
        if scenario.mode == "dynamic":
            result = plan_dynamic(scenario)
        else:
            result = plan_static(scenario)
    except CGTCError:
        remove_artifacts(out, RUN_ARTIFACTS)
        raise

    times = result.sample_times_s
    write_csv(out / "trajectory.csv", TRAJECTORY_COLUMNS, TRAJECTORY_ROW,
              zip(times, *result.trajectory.columns.tolist()))
    commands = result.rudder_commands
    write_csv(out / "commands.csv", COMMAND_COLUMNS, COMMAND_ROW,
              zip(range(len(commands)), commands, result.heading_changes_deg))
    if result.separation_m:
        write_csv(out / "separation.csv", SEPARATION_COLUMNS, SEPARATION_ROW,
                  zip(times, result.separation_m))
    else:
        (out / "separation.csv").unlink(missing_ok=True)

    metrics = {
        "scenario": scenario.name,
        "mode": scenario.mode,
        "reached": result.reached,
        "safe": scenario_is_safe(scenario, result),
        "steps": len(result.rudder_commands),
        "duration_s": result.sample_times_s[-1] if result.sample_times_s else 0.0,
        "path_length_m": result.path_length_m,
        "steering_count": result.steering_count,
        "min_clearance_m": result.min_clearance_m,
        "min_separation_m": result.min_separation_m,
    }
    (out / "metrics.json").write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    return scenario, result


def run_batch(scenario_dir: str | Path, out_dir: str | Path) -> dict[str, dict]:
    """Run every *.json scenario in a directory into per-scenario subfolders.

    A scenario whose planning raises a CGTCError gets the error string in its
    summary row, with reached and safe false, and the batch goes on; the
    summary is written once every file has been run. An input error (a
    ScenarioError) stops the batch and leaves no summary.json. Raises
    ValidationError unless scenario_dir is a directory holding *.json files.
    """
    scenario_dir = Path(scenario_dir)
    out_dir = Path(out_dir)
    paths = sorted(scenario_dir.glob("*.json")) if scenario_dir.is_dir() else []
    if not paths:
        raise ValidationError(f"{scenario_dir}: not a directory of *.json scenario files")
    summary = {}
    for path in paths:
        try:
            scenario, result = run_scenario(path, out_dir / path.stem)
        except ScenarioError:
            remove_artifacts(out_dir, ("summary.json",))
            raise
        except CGTCError as exc:
            summary[path.stem] = {"reached": False, "safe": False,
                                  "error": f"{type(exc).__name__}: {exc}"}
            continue
        summary[path.stem] = {
            "reached": result.reached,
            "safe": scenario_is_safe(scenario, result),
            "path_length_m": result.path_length_m,
            "steering_count": result.steering_count,
        }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary
