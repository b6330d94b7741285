"""Every planner's step is a pure function of (pose, t, state).

execute_cells is wrapped in each planner module so that every step call is
recorded with its result. After the plan, the step is called again on each
recorded input, last first: a step that kept or changed hidden state would
give another cell, command or next state.
"""

from pathlib import Path

import pytest

from cgtc import baseline as baseline_mod
from cgtc import dynamic_planner as dynamic_mod
from cgtc import static_planner as static_mod
from cgtc.errors import NoFeasibleRadius
from cgtc.harness import compare_planners
from cgtc.scenario import load_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def recorded_steps(monkeypatch):
    """(step, (pose, t, state), (cell, command, next state)) per call."""
    calls = []
    real = static_mod.execute_cells

    def recording(scenario, step, state, obstacles):
        def recorded(pose, t, state):
            result = step(pose, t, state)
            calls.append((step, (pose, t, state), result))
            return result
        return real(scenario, recorded, state, obstacles)

    for mod in (static_mod, dynamic_mod, baseline_mod):
        monkeypatch.setattr(mod, "execute_cells", recording)
    return calls


def assert_steps_replay(calls):
    assert calls
    for step, args, (cell, command, state) in reversed(calls):
        cell2, command2, state2 = step(*args)
        assert cell2 is cell
        assert (command2.hex(), state2) == (command.hex(), state)


def test_static_and_baseline_steps_are_pure(recorded_steps):
    report = compare_planners(load_scenario(SCENARIO_DIR / "fig25_analog.json"))
    assert isinstance(report["circle"], dict) and isinstance(report["grid"], dict)
    steps = {step for step, _, _ in recorded_steps}
    assert len(steps) == 2  # one plan_static step, one grid_baseline_plan step
    assert any(state.side is not None for _, (_, _, state), _ in recorded_steps
               if isinstance(state, static_mod.Engagement))
    assert_steps_replay(recorded_steps)


def test_dynamic_step_is_pure_as_the_virtual_disc_comes_and_goes(recorded_steps):
    dynamic_mod.plan_dynamic(load_scenario(SCENARIO_DIR / "dynamic_sit3_must_steer.json"))
    states = [result[2] for _, _, result in recorded_steps]
    assert any(s.virtual is not None for s in states)
    assert states[-1].virtual is None and states[-1].virtual_done
    assert_steps_replay(recorded_steps)


def test_forced_starboard_step_is_pure(recorded_steps, monkeypatch):
    def infeasible(enc):
        raise NoFeasibleRadius("no virtual radius resolves the encounter")

    monkeypatch.setattr(dynamic_mod, "virtual_obstacle_radius", infeasible)
    res = dynamic_mod.plan_dynamic(load_scenario(SCENARIO_DIR / "dynamic_sit3_must_steer.json"))
    assert res.heading_changes_deg[0] == pytest.approx(90.0, abs=0.1)
    assert_steps_replay(recorded_steps)
