"""Every input plans or fails with a CGTCError: a property over mutated scenarios."""

import copy
import json
from dataclasses import fields
from datetime import timedelta
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cgtc.baseline import grid_baseline_plan
from cgtc.dynamic_planner import plan_dynamic
from cgtc.errors import CGTCError
from cgtc.scenario import scenario_from_dict
from cgtc.ship import ShipParams
from cgtc.static_planner import plan_static

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SCENARIOS = {path.stem: json.loads(path.read_text())
             for path in sorted(SCENARIO_DIR.glob("*.json"))}

# extremes of each kind: zero, unit, subnormal and tiny, the magnitude bound
# and just past it, an int a float cannot hold, and values of other types
VALUES = [0, 1, -1, 5e-324, 1e-300, 1e9, -1e9, 1e9 + 1, 2**53 + 1, True, None, "x"]

# fields a scenario may leave out, so that its parser takes their defaults
ABSENT = ([("ship", f.name) for f in fields(ShipParams)]
          + [("sim", key) for key in ("dt_s", "max_steps", "cell_resolution_deg")]
          + [("reach_tolerance_m",)])


def _paths(obj, path=()):
    """The path of every value inside a JSON object, sections and lists too."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _put(data, path, value):
    """Set the value at path, making a missing section; a path through a
    value that is no longer a section (an earlier mutation replaced it) is
    left alone."""
    for key in path[:-1]:
        if isinstance(data, dict):
            data = data.setdefault(key, {})
        elif isinstance(data, list):
            data = data[key]
        else:
            return
    if isinstance(data, (dict, list)):
        data[path[-1]] = value


def mutated(name, *changes):
    """A copy of a shipped scenario with each (path, value) change put in."""
    data = copy.deepcopy(SCENARIOS[name])
    for path, value in changes:
        _put(data, path, value)
    return name, data


@st.composite
def mutated_scenarios(draw):
    name = draw(st.sampled_from(sorted(SCENARIOS)))
    paths = sorted({*_paths(SCENARIOS[name]), *ABSENT}, key=repr)
    changed = draw(st.lists(st.sampled_from(paths), min_size=1, max_size=2, unique=True))
    return mutated(name, *((path, draw(st.sampled_from(VALUES))) for path in changed))


# The slowest of these examples takes under 4 s: a hull whose rudder limit
# is 1e9 deg builds its cells in several long lockstep passes. A run away,
# such as a negative rudder rate's bisection (10 s a cell build, which a
# failed build repeats for the baseline), exceeds the deadline.
@settings(max_examples=1000, deadline=timedelta(seconds=15), derandomize=True)
@given(mutated_scenarios())
@example(mutated("fig25_analog", (("ship", "rudder_rate_degps"), -1)))
@example(mutated("free_bearing37", (("ship", "rudder_limit_stbd_deg"), 5e-324)))
def test_mutated_scenario_plans_or_fails(case):
    """Parsing, planning and, for a scene without a mover, the grid baseline
    each end in a result or a CGTCError; a warning is an error here too."""
    name, data = case
    try:
        scenario = scenario_from_dict(data, name)
    except CGTCError:
        return
    planners = ((plan_dynamic,) if scenario.mode == "dynamic"
                else (plan_static, grid_baseline_plan))
    for plan in planners:
        try:
            plan(scenario)
        except CGTCError:
            pass
