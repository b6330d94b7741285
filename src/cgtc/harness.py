"""Scenario running and planner comparison.

run_scenario is the batch entry point: load a scenario file, dispatch on
its mode, write trajectory/command CSVs and a metrics report. Everything is
a deterministic function of the scenario file, so re-runs produce
byte-identical outputs.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np

from .baseline import grid_baseline_plan
from .cells import fixed_rows, joined
from .dynamic_planner import plan_dynamic
from .errors import CGTCError, ScenarioError, ValidationError
from .scenario import Scenario, load_scenario
from .static_planner import PlanResult, plan_static

TRAJECTORY_COLUMNS = ("t_s", "x_m", "y_m", "heading_deg", "u_mps", "v_mps",
                      "yaw_rate_degps", "rudder_deg")
COMMAND_COLUMNS = ("step", "delta0_deg", "heading_change_deg")
COMMAND_ROW = "%d,%.6f,%.6f"
SEPARATION_COLUMNS = ("t_s", "distance_m")
# every file run_scenario may write into its out dir
RUN_ARTIFACTS = ("trajectory.csv", "commands.csv", "separation.csv", "metrics.json")


def _plan_summary(scenario: Scenario, result: PlanResult) -> dict:
    """The per-plan fields that every report shares: a comparison.json side
    as it is, metrics.json's with its run fields added, and a summary.json
    row less min_clearance_m."""
    return {
        "reached": result.reached,
        "safe": scenario_is_safe(scenario, result),
        "path_length_m": result.path_length_m,
        "steering_count": result.steering_count,
        "min_clearance_m": result.min_clearance_m,
    }


def compare_planners(scenario: Scenario) -> dict:
    """Run circle-grid and grid-baseline planners on the same scenario.

    Returns what comparison.json holds. "circle" and "grid" each give that
    side's _plan_summary, or the error string of the CGTCError it raised,
    while the other side still comes through. The ratios, circle over grid,
    are filled only when both planners reached the destination, and
    "steering_ratio" only when the grid plan steered; otherwise they are None.
    """
    if scenario.obstacles and any(o.moving for o in scenario.obstacles):
        raise ValidationError("compare_planners handles static and free scenarios only")

    report = {}
    for side, plan in (("circle", plan_static), ("grid", grid_baseline_plan)):
        try:
            report[side] = _plan_summary(scenario, plan(scenario))
        except CGTCError as exc:
            report[side] = f"{type(exc).__name__}: {exc}"
    circle, grid = report["circle"], report["grid"]
    both = all(isinstance(s, dict) and s["reached"] for s in (circle, grid))
    report["length_ratio"] = (circle["path_length_m"] / grid["path_length_m"]
                              if both else None)
    report["steering_ratio"] = (circle["steering_count"] / grid["steering_count"]
                                if both and grid["steering_count"] > 0 else None)
    return report


def write_csv(path: Path, columns, row_format: str, rows) -> None:
    """Write a header of column names, then `row_format % row` for each row tuple."""
    write_lines(path, columns, map(row_format.__mod__, rows))


def write_lines(path: Path, columns, lines) -> None:
    """Write a header of column names, then each line of text."""
    path.write_text("\n".join([",".join(columns), *lines]) + "\n")


@contextmanager
def artifacts(out: Path, owned):
    """Yield put(name) -> out / name for the files a command writes into out.

    put unlinks any file already at out / name, so the command writes a new
    file there instead of truncating the old one: a hard link to the old
    file keeps its bytes, and a symlink there is replaced, not written
    through. owned names the files the command may write there, or glob
    patterns of them. However the block ends, return or raise included, each
    owned file in out that put did not name is unlinked; other files stay.
    """
    written = set()

    def put(name: str) -> Path:
        written.add(name)
        path = out / name
        path.unlink(missing_ok=True)
        return path

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


def write_plan(put, result: PlanResult) -> None:
    """Write a plan's CSV artifacts to the paths put(name) gives.

    Each trajectory.csv row is its sample's time and pose, then the state
    text that its cell caches (TrajectoryCell._state_text; cells.joined
    gives each sample's cell), so a cell's state columns are formatted once
    for every plan that runs it. commands.csv has COMMAND_ROW of each step,
    and separation.csv, written only for a plan with a separation series,
    each sample's time and distance. The six-decimal rows, pose, state and
    separation, are formatted by cells.fixed_rows.
    """
    times = result._times
    poses = fixed_rows(np.vstack([times, result.trajectory.columns[:3]]))
    # each line is pose, ",", state, "\n": one join, not one per line
    parts = [","] * (4 * len(poses))
    parts[0::4], parts[3::4] = poses, ["\n"] * len(poses)
    parts[2::4] = chain.from_iterable(cell._state_text[first:]
                                      for cell, first in joined(result.executed_cells))
    put("trajectory.csv").write_text(",".join(TRAJECTORY_COLUMNS) + "\n" + "".join(parts))
    commands = result.rudder_commands
    write_csv(put("commands.csv"), COMMAND_COLUMNS, COMMAND_ROW,
              zip(range(len(commands)), commands, result.heading_changes_deg))
    if result.separation_m:
        write_lines(put("separation.csv"), SEPARATION_COLUMNS,
                    fixed_rows(np.array([times, result.separation_m])))


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
        write_plan(put, result)

        metrics = {
            "scenario": scenario.name,
            "mode": scenario.mode,
            **_plan_summary(scenario, result),
            "steps": len(result.rudder_commands),
            "duration_s": result.sample_times_s[-1] if result.sample_times_s else 0.0,
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
        # name the summary now, so an unusable summary path fails before any plan
        summary_path = put("summary.json")
        for path in paths:
            try:
                scenario, result = run_scenario(path, out_dir / path.stem)
            except ScenarioError:
                raise
            except CGTCError as exc:
                summary[path.stem] = {"reached": False, "safe": False,
                                      "error": f"{type(exc).__name__}: {exc}"}
                continue
            row = _plan_summary(scenario, result)
            del row["min_clearance_m"]
            summary[path.stem] = row
        summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary
