"""The benchmark's span recorder still finds every function it traces."""

import importlib.util
from collections import Counter
from pathlib import Path

import cgtc

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
SCENARIOS = ROOT / "scenarios"


def _recorder():
    """A new span Recorder from the benchmark's spans.py."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.Recorder()


def test_every_trace_target_exists():
    recorder = _recorder()
    recorder.install(cgtc)
    try:
        assert recorder.missing == []
    finally:
        recorder.uninstall()
    assert cgtc.static_planner.decide_heading.__module__ == "cgtc.static_planner"
    assert not hasattr(cgtc.static_planner.decide_heading, "__wrapped__")


def test_planning_goes_through_the_traced_functions():
    """A plan records calls to the placement and decision the benchmark times."""
    recorder = _recorder()
    recorder.install(cgtc)
    try:
        cgtc.static_planner.plan_static(cgtc.load_scenario(SCENARIOS / "fig25_analog.json"))
    finally:
        recorder.uninstall()
    called = Counter(recorder.name_id)
    for name in ("cells.transform_cell", "static_planner.decide_heading"):
        assert called[recorder._name_ids[name]] >= 1, name


def test_baseline_rollouts_go_through_the_traced_functions(monkeypatch):
    """The grid baseline's generated cells record their scalar rollouts, which
    roll float tuples and so record no ship.step: on the 2-degree
    fig25_analog set, +-45 degrees is no set cell and is generated. A fresh
    library, so no earlier plan has kept those cells with the set."""
    monkeypatch.setattr(cgtc.cells, "_library", {})
    recorder = _recorder()
    recorder.install(cgtc)
    try:
        cgtc.harness.compare_planners(cgtc.load_scenario(SCENARIOS / "fig25_analog.json"))
    finally:
        recorder.uninstall()
    called = Counter(recorder.name_id)
    for name in ("cells._roll_until_crossing", "cells.generate_cell"):
        assert called[recorder._name_ids[name]] >= 1, name
    assert called[recorder._name_ids["ship.step"]] == 0


def test_traced_build_key_drops_the_fourth_argument():
    """perfbench keys a traced build by build_cell_set's five bound arguments
    and drops the fourth by position; the rest must be the set's own key."""
    recorder = _recorder()
    recorder.install(cgtc)
    try:
        built = cgtc.cells.build_cell_set(cgtc.ShipParams(), 600.0, 15.0)
    finally:
        recorder.uninstall()
    [key] = recorder.build_keys
    assert len(key) == 5
    assert key[:3] + key[4:] == built.key
