"""Print one digest line per benchmark plan, to show that a change is bit for bit.

Plans the replan scenes of seeds 1-2 (plan_static, or plan_dynamic for a
dynamic scene) and the first 60 compare scenes of seed 1 (plan_static and
grid_baseline_plan), with scenes from perfbench/gen.py. Each line reads

    <family>-<seed>-<index> <planner> <sha256> <path_length_m> <min_clearance_m> <min_separation_m>

where the hash covers every other PlanResult field (float bits, not
reprs), the trajectory's column bytes, the node count and every node's
(x, y, heading_deg), and the three measures follow as float.hex() ("-"
for None). So a change to how a plan is measured shows as a moved column
beside unchanged hashes. A plan that raises prints its error class and
message instead. Run it on two checkouts and diff the outputs; the first
differing line names the first plan that moved:

    PYTHONPATH=src python tools/plan_digest.py > after.txt

A checkout whose GridNode still holds a CompassAngle (`node.heading`) has
no `heading_deg`: there, run a copy of this script that reads
`node.heading.degrees` in its place. Its lines compare with this script's.
Earlier versions of this script also hashed each node's cell index and
depth, or hashed path_length_m, so their lines do not.
"""

from __future__ import annotations

import hashlib
import importlib.util
import struct
import sys
from pathlib import Path

import numpy as np

from cgtc.baseline import grid_baseline_plan
from cgtc.dynamic_planner import plan_dynamic
from cgtc.scenario import scenario_from_dict
from cgtc.static_planner import PlanResult, plan_static

ROOT = Path(__file__).resolve().parent.parent


def _load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def _floats(h, values) -> None:
    values = list(values)
    h.update(struct.pack(f"<q{len(values)}d", len(values), *values))


def digest(result: PlanResult) -> str:
    h = hashlib.sha256()
    h.update(struct.pack("<q", len(result.nodes)))
    for node in result.nodes:
        _floats(h, (*node.position, node.heading_deg))
    h.update(repr(result.trajectory.columns.shape).encode())
    h.update(np.ascontiguousarray(result.trajectory.columns).tobytes())
    for series in (result.sample_times_s, result.rudder_commands,
                   result.heading_changes_deg, result.separation_m):
        _floats(h, series)
    h.update(repr((result.steering_count, result.reached)).encode())
    measures = ("-" if value is None else value.hex()
                for value in (result.path_length_m, result.min_clearance_m,
                              result.min_separation_m))
    return " ".join((h.hexdigest(), *measures))


def _line(label: str, name: str, plan, scenario) -> str:
    try:
        outcome = digest(plan(scenario))
    except Exception as exc:  # a failure is an outcome to compare too
        outcome = f"{type(exc).__name__}: {exc}"
    return f"{label} {name} {outcome}"


def plan_lines():
    gen = _load_gen()
    for seed in (1, 2):
        for i in range(gen.REPLAN_POOL):
            scenario = scenario_from_dict(gen.replan_scene(seed, i))
            if scenario.mode == "dynamic":
                yield _line(f"replan-{seed}-{i}", "plan_dynamic", plan_dynamic, scenario)
            else:
                yield _line(f"replan-{seed}-{i}", "plan_static", plan_static, scenario)
    for i in range(60):
        scenario = scenario_from_dict(gen.compare_scene(1, i))
        yield _line(f"compare-1-{i}", "plan_static", plan_static, scenario)
        yield _line(f"compare-1-{i}", "grid_baseline_plan", grid_baseline_plan, scenario)


def main() -> int:
    for line in plan_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
