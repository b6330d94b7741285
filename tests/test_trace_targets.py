"""The benchmark's span recorder still finds every function it traces."""

import importlib.util
from pathlib import Path

import cgtc

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_trace_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    recorder = spans.Recorder()
    recorder.install(cgtc)
    try:
        assert recorder.missing == []
    finally:
        recorder.uninstall()
    assert cgtc.static_planner.decide_heading.__module__ == "cgtc.static_planner"
    assert not hasattr(cgtc.static_planner.decide_heading, "__wrapped__")
