"""The text a plan's CSV artifacts are written from.

Each trajectory row takes its state columns from the text its cell caches
(TrajectoryCell._state_text); every line must still be the documented
format of the plan's own values, and a cell's text is formatted only once.
"""

import math
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from cgtc import cells as cells_mod
from cgtc import harness
from cgtc.dynamic_planner import plan_dynamic
from cgtc.errors import CGTCError
from cgtc.scenario import Scenario
from cgtc.ship import ShipParams
from cgtc.static_planner import Obstacle, plan_static


def _row(k: int) -> str:
    """The documented row format of k six-decimal columns."""
    return ",".join(["%.6f"] * k)


def _scene(mode, heading, bearing, distance, discs=(), mover=None, max_steps=12):
    obstacles = [Obstacle(center=(x, y), radius_m=r) for x, y, r in discs]
    if mover is not None:
        x, y, r, speed, course = mover
        obstacles.append(Obstacle(center=(x, y), radius_m=r, speed_mps=speed,
                                  course_deg=course))
    b = math.radians(bearing)
    return Scenario(mode=mode, ship=ShipParams(), start_x_m=0.0, start_y_m=0.0,
                    start_heading_deg=heading, dest_x_m=distance * math.sin(b),
                    dest_y_m=distance * math.cos(b), obstacles=obstacles,
                    circle_radius_m=600.0, cell_resolution_deg=5.0, max_steps=max_steps)


def _plan(scenario, cells):
    return (plan_dynamic if scenario.mode == "dynamic" else plan_static)(scenario, cells)


def _write(result, out: Path) -> dict[str, str]:
    """Write a plan's CSVs into out through the artifacts rule; their text by name."""
    out.mkdir(exist_ok=True)
    with harness.artifacts(out, harness.RUN_ARTIFACTS) as put:
        harness.write_plan(put, result)
    return {p.name: p.read_text() for p in out.iterdir()}


def _check_lines(result, files: dict[str, str]) -> None:
    """Every line is its header or the documented row format of the plan's values."""
    times = result.sample_times_s
    trajectory = files["trajectory.csv"].splitlines()
    assert trajectory[0] == ",".join(harness.TRAJECTORY_COLUMNS)
    # the time, then the seven ShipState columns
    assert len(harness.TRAJECTORY_COLUMNS) == 1 + len(result.trajectory.columns) == 8
    assert trajectory[1:] == [_row(8) % row for row in
                              zip(times, *result.trajectory.columns.tolist(), strict=True)]
    if result.separation_m:
        separation = files["separation.csv"].splitlines()
        assert separation[0] == ",".join(harness.SEPARATION_COLUMNS)
        assert separation[1:] == [_row(2) % row for row in
                                  zip(times, result.separation_m, strict=True)]
    else:
        assert "separation.csv" not in files


_angle = st.integers(0, 359).map(float)
_disc = st.tuples(st.floats(-4000.0, 4000.0), st.floats(-2000.0, 6000.0),
                  st.floats(50.0, 400.0))
_mover = st.tuples(st.floats(-5000.0, 5000.0), st.floats(-1000.0, 6000.0),
                   st.floats(100.0, 600.0), st.floats(2.0, 10.0), _angle)


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(["static", "dynamic"]), heading=_angle, bearing=_angle,
       distance=st.floats(0.0, 6000.0), discs=st.lists(_disc, max_size=3),
       mover=_mover, max_steps=st.integers(1, 12))
@example(mode="static", heading=0.0, bearing=270.0, distance=5000.0, discs=[],
         mover=(0.0, 0.0, 100.0, 2.0, 0.0), max_steps=12)   # turns to port
@example(mode="dynamic", heading=0.0, bearing=0.0, distance=100.0, discs=[],
         mover=(3000.0, 3000.0, 500.0, 5.0, 270.0), max_steps=12)   # runs no cell
def test_lines_are_the_row_formats_of_the_plan(cells600, mode, heading, bearing, distance,
                                               discs, mover, max_steps):
    scenario = _scene(mode, heading, bearing, distance, discs,
                      mover if mode == "dynamic" else None, max_steps)
    try:
        result = _plan(scenario, cells600)
    except CGTCError:
        reject()
    with tempfile.TemporaryDirectory() as tmp:
        files = _write(result, Path(tmp) / "out")
    _check_lines(result, files)
    if not result.executed_cells:
        assert files["trajectory.csv"] == ",".join(harness.TRAJECTORY_COLUMNS) + "\n"

    # a second plan on the set writes the same bytes from the same cached
    # text objects: fixed_rows formats its pose block (and its separation
    # block) and no cell's state columns again
    cached = [(cell, vars(cell)["_state_text"]) for cell in result.executed_cells]
    blocks, real_fixed_rows = [], cells_mod.fixed_rows

    def counting(columns):
        blocks.append(columns.shape[0])
        return real_fixed_rows(columns)

    with mock.patch.object(cells_mod, "fixed_rows", counting), \
            mock.patch.object(harness, "fixed_rows", counting), \
            tempfile.TemporaryDirectory() as tmp:
        again = _plan(scenario, cells600)
        assert _write(again, Path(tmp) / "out") == files
    assert blocks == ([4, 2] if result.separation_m else [4])
    for (cell, text), cell_again in zip(cached, again.executed_cells, strict=True):
        assert cell_again is cell and vars(cell)["_state_text"] is text


def test_state_text_prints_negative_zero_as_the_row_format_does(cells600):
    # port-turn cells hold sway values that print as -0.000000
    result = plan_static(_scene("static", 0.0, 270.0, 5000.0), cells600)
    with tempfile.TemporaryDirectory() as tmp:
        files = _write(result, Path(tmp) / "out")
    _check_lines(result, files)
    states = [line.split(",", 4)[4] for line in files["trajectory.csv"].splitlines()[1:]]
    assert any("-0.000000" in state for state in states)


@pytest.mark.parametrize("mode", ["static", "dynamic"])
def test_a_plan_that_runs_no_cell_writes_only_the_headers(cells600, mode):
    mover = (3000.0, 3000.0, 500.0, 5.0, 270.0) if mode == "dynamic" else None
    result = _plan(_scene(mode, 0.0, 0.0, 100.0, mover=mover), cells600)
    assert result.executed_cells == [] and result.reached
    with tempfile.TemporaryDirectory() as tmp:
        files = _write(result, Path(tmp) / "out")
    assert files == {"trajectory.csv": ",".join(harness.TRAJECTORY_COLUMNS) + "\n",
                     "commands.csv": ",".join(harness.COMMAND_COLUMNS) + "\n"}


def test_state_text_is_cached_per_cell(cells600):
    cell = cells600.cells[3]
    text = cell._state_text
    assert cell._state_text is text and "_state_text" in vars(cell)
    assert text == [_row(4) % row
                    for row in zip(*cell.samples.columns[3:].tolist(), strict=True)]


_LIMIT = cells_mod._FIXED_LIMIT
_EDGE_VALUES = [-0.0, -4e-7, 0.0078125, 5e-324, math.nan, math.inf, -math.inf, 1e300,
                math.nextafter(_LIMIT, 0.0), _LIMIT, math.nextafter(_LIMIT, math.inf),
                -math.nextafter(_LIMIT, 0.0), -_LIMIT]
_any_float = (st.floats(width=64)
              | st.integers(0, 2 ** 64 - 1).map(lambda b: struct.unpack("<d", b.to_bytes(8, "little"))[0])
              | st.sampled_from(_EDGE_VALUES)
              | st.integers(-2 * 10 ** 15, 2 * 10 ** 15).map(lambda i: (i + 0.5) / 1e6))


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 4), values=st.lists(_any_float, max_size=60),
       chunk=st.integers(1, 5) | st.just(cells_mod._FIXED_CHUNK))
@example(k=1, values=_EDGE_VALUES, chunk=cells_mod._FIXED_CHUNK)
@example(k=4, values=_EDGE_VALUES[:12], chunk=2)
@example(k=3, values=[], chunk=cells_mod._FIXED_CHUNK)
def test_fixed_rows_are_the_row_format(k, values, chunk):
    """fixed_rows gives `%` of each row of any float64 block, byte for byte,
    however many rows it formats at a time."""
    values = values[:len(values) // k * k]
    block = np.array(values, dtype=np.float64).reshape(-1, k).T
    with mock.patch.object(cells_mod, "_FIXED_CHUNK", chunk):
        assert cells_mod.fixed_rows(block) == [_row(k) % tuple(row)
                                               for row in block.T.tolist()]
