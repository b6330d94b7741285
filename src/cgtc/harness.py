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
from .errors import CGTCError, ValidationError
from .scenario import Scenario, load_scenario
from .static_planner import PlanResult, plan_static

TRAJECTORY_COLUMNS = ("t_s", "x_m", "y_m", "heading_deg", "u_mps", "v_mps",
                      "yaw_rate_degps", "rudder_deg")
COMMAND_COLUMNS = ("step", "delta0_deg", "heading_change_deg")


@dataclass
class PlannerMetrics:
    path_length_m: float
    steering_count: int
    reached: bool
    min_clearance_m: Optional[float]


@dataclass
class ComparisonReport:
    circle: Optional[PlannerMetrics]
    grid: Optional[PlannerMetrics]
    circle_error: Optional[str] = None
    grid_error: Optional[str] = None
    length_ratio: Optional[float] = None
    steering_ratio: Optional[float] = None


def _metrics_of(result: PlanResult) -> PlannerMetrics:
    return PlannerMetrics(
        path_length_m=result.path_length_m,
        steering_count=result.steering_count,
        reached=result.reached,
        min_clearance_m=result.min_clearance_m,
    )


def compare_planners(scenario: Scenario) -> ComparisonReport:
    """Run circle-grid and grid-baseline planners on the same scenario.

    A failure on one side is reported as that side's error string while the
    other side's metrics still come through. Ratios (circle over grid) are
    filled only when both planners reached the destination.
    """
    if scenario.obstacles and any(o.moving for o in scenario.obstacles):
        raise ValidationError("compare_planners handles static and free scenarios only")

    circle = grid = None
    circle_err = grid_err = None
    try:
        circle = _metrics_of(plan_static(scenario))
    except CGTCError as exc:
        circle_err = f"{type(exc).__name__}: {exc}"
    try:
        grid = _metrics_of(grid_baseline_plan(scenario))
    except CGTCError as exc:
        grid_err = f"{type(exc).__name__}: {exc}"

    report = ComparisonReport(circle=circle, grid=grid,
                              circle_error=circle_err, grid_error=grid_err)
    if circle and grid and circle.reached and grid.reached:
        report.length_ratio = circle.path_length_m / grid.path_length_m
        if grid.steering_count > 0:
            report.steering_ratio = circle.steering_count / grid.steering_count
    return report


def _write_trajectory_csv(path: Path, result: PlanResult):
    row = ",".join(["{:.6f}"] * len(TRAJECTORY_COLUMNS))
    lines = [",".join(TRAJECTORY_COLUMNS)]
    for values in zip(result.sample_times_s, *result.trajectory.columns.tolist()):
        lines.append(row.format(*values))
    path.write_text("\n".join(lines) + "\n")


def _write_commands_csv(path: Path, result: PlanResult):
    lines = [",".join(COMMAND_COLUMNS)]
    for i, (cmd, change) in enumerate(zip(result.rudder_commands,
                                          result.heading_changes_deg)):
        lines.append(f"{i},{cmd:.6f},{change:.6f}")
    path.write_text("\n".join(lines) + "\n")


def _write_separation_csv(path: Path, result: PlanResult):
    lines = ["t_s,distance_m"]
    for t, d in zip(result.sample_times_s, result.separation_m):
        lines.append(f"{t:.6f},{d:.6f}")
    path.write_text("\n".join(lines) + "\n")


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
    """Load, plan, and write artifacts. Raises ScenarioError on bad input."""
    scenario = load_scenario(path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if scenario.mode == "dynamic":
        result = plan_dynamic(scenario)
    else:
        result = plan_static(scenario)

    _write_trajectory_csv(out / "trajectory.csv", result)
    _write_commands_csv(out / "commands.csv", result)
    if result.separation_m:
        _write_separation_csv(out / "separation.csv", result)

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

    Raises ValidationError unless scenario_dir is a directory holding some.
    """
    scenario_dir = Path(scenario_dir)
    out_dir = Path(out_dir)
    paths = sorted(scenario_dir.glob("*.json")) if scenario_dir.is_dir() else []
    if not paths:
        raise ValidationError(f"{scenario_dir}: not a directory of *.json scenario files")
    summary = {}
    for path in paths:
        scenario, result = run_scenario(path, out_dir / path.stem)
        summary[path.stem] = {
            "reached": result.reached,
            "safe": scenario_is_safe(scenario, result),
            "path_length_m": result.path_length_m,
            "steering_count": result.steering_count,
        }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary
