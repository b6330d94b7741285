"""Scenario running and planner comparison.

run_scenario is the batch entry point: load a scenario file, dispatch on
its mode, write trajectory/command CSVs and a metrics report. Everything is
a deterministic function of the scenario file, so re-runs produce
byte-identical outputs.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
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


@contextmanager
def artifacts(out: Path, owned):
    """Yield put(name) -> out / name for the files a command writes into out.

    owned names the files the command may write there, or glob patterns of
    them. However the block ends, return or raise included, each owned file
    in out that put did not name is unlinked; other files stay.
    """
    written = set()

    def put(name: str) -> Path:
        written.add(name)
        return out / name

    try:
        yield put
    finally:
        if out.is_dir():
            for name in owned:
                for path in list(out.glob(name)) if "*" in name else [out / name]:
                    if path.name not in written:
                        path.unlink(missing_ok=True)


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

    Writes through artifacts(out_dir, RUN_ARTIFACTS): a run that raises
    leaves none of them in out_dir, and a plan without a separation series
    leaves no separation.csv.
    """
    out = Path(out_dir)
    with artifacts(out, RUN_ARTIFACTS) as put:
        scenario = load_scenario(path)
        out.mkdir(parents=True, exist_ok=True)
        result = (plan_dynamic if scenario.mode == "dynamic" else plan_static)(scenario)
        times = result.sample_times_s
        write_csv(put("trajectory.csv"), TRAJECTORY_COLUMNS, TRAJECTORY_ROW,
                  zip(times, *result.trajectory.columns.tolist()))
        commands = result.rudder_commands
        write_csv(put("commands.csv"), COMMAND_COLUMNS, COMMAND_ROW,
                  zip(range(len(commands)), commands, result.heading_changes_deg))
        if result.separation_m:
            write_csv(put("separation.csv"), SEPARATION_COLUMNS, SEPARATION_ROW,
                      zip(times, result.separation_m))

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
        put("metrics.json").write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    return scenario, result


def _remove_unrun(out_dir: Path, run: set[str]) -> None:
    """Empty the subdirectory of each scenario that out_dir's earlier
    summary.json lists and that is not in run, through the artifacts rule
    for RUN_ARTIFACTS, then remove it if nothing else is left in it.

    Nothing is removed when no earlier summary is there or it does not parse.
    """
    try:
        earlier = json.loads((out_dir / "summary.json").read_text())
    except (OSError, ValueError):
        return
    unrun = earlier.keys() - run if isinstance(earlier, dict) else ()
    for sub in out_dir.iterdir():
        if sub.name in unrun and sub.is_dir():
            with artifacts(sub, RUN_ARTIFACTS):
                pass
            if not any(sub.iterdir()):
                sub.rmdir()


def run_batch(scenario_dir: str | Path, out_dir: str | Path) -> dict[str, dict]:
    """Run every *.json scenario in a directory into per-scenario subfolders.

    A scenario whose planning raises a CGTCError gets the error string in its
    summary row, with reached and safe false, and the batch goes on; the
    summary is written once every file has been run. An input error (a
    ScenarioError) stops the batch and leaves no summary.json. Raises
    ValidationError unless scenario_dir is a directory holding *.json files.
    Before the first run, the subdirectories of the scenarios that an
    earlier summary.json in out_dir lists and this batch does not run lose
    their run artifacts (_remove_unrun).
    """
    scenario_dir = Path(scenario_dir)
    out_dir = Path(out_dir)
    summary = {}
    with artifacts(out_dir, ("summary.json",)) as put:
        paths = sorted(scenario_dir.glob("*.json")) if scenario_dir.is_dir() else []
        if not paths:
            raise ValidationError(f"{scenario_dir}: not a directory of *.json scenario files")
        _remove_unrun(out_dir, {path.stem for path in paths})
        for path in paths:
            try:
                scenario, result = run_scenario(path, out_dir / path.stem)
            except ScenarioError:
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
        put("summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary
