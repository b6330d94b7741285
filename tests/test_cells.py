"""Trajectory cell generation: rules, solving, splicing, relation fit."""

import copy
import functools
import math
import pickle
import random
import weakref
from array import array
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cgtc import cells as cells_mod
from cgtc.baseline import grid_baseline_plan
from cgtc.cells import (
    CellSet,
    TrajectoryCell,
    _check_target,
    _count_steerings,
    _heading_changes,
    _lane_cells,
    _roll_until_crossing,
    _stabilize_lanes,
    _step_lanes,
    build_cell_set,
    check_radius,
    cell_library,
    generate_cell,
    transform_cell,
    validate_rules,
)
from cgtc.dynamic_planner import plan_dynamic
from cgtc.errors import NonConvergence, Unreachable
from cgtc.grid import GridNode, wrap_degrees
from cgtc.relation import RelationSample, fit_poly, pearson
from cgtc.scenario import load_scenario
from cgtc.ship import ShipParams, ShipState, Trajectory, step, trimmed_state
from cgtc.static_planner import PlanResult, plan_static

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def test_straight_cell(params, cells_factor6):
    cell = cells_factor6.cells[cells_factor6.nearest_index(0.0)]
    r = cells_factor6.radius_m
    assert cell.delta0_deg == 0.0
    assert cell.heading_change_deg == 0.0
    assert cell.end_offset[0] == pytest.approx(0.0, abs=1e-9)
    assert cell.end_offset[1] == pytest.approx(r, rel=1e-9)
    assert cell.duration_s == pytest.approx(r / params.steady_speed_mps, rel=1e-9)
    assert cell.central_angle_deg == pytest.approx(0.0, abs=1e-9)


def test_port_needs_more_rudder_than_starboard(cells_factor6):
    stbd = cells_factor6.cells[cells_factor6.nearest_index(90.0)]
    port = cells_factor6.cells[cells_factor6.nearest_index(-90.0)]
    assert abs(port.delta0_deg) > abs(stbd.delta0_deg)


def test_delta0_matches_dense_scan_oracle(params):
    """Independent solve: walk the starboard rudder range in 0.01 deg steps."""
    radius = 6.0 * params.length_m
    target = 45.0
    delta = 0.01
    found = None
    while delta <= params.rudder_limit_stbd_deg:
        hc = _roll_until_crossing(params, delta, radius, 0.5).heading_change_deg
        if hc >= target:
            found = delta
            break
        delta = round(delta + 0.01, 6)
    cell = generate_cell(params, target, radius)
    assert found is not None
    assert abs(cell.delta0_deg - found) < 0.05


def _cell_bytes(cell):
    """A cell's samples (all seven rows) and times as float bytes, with its
    other fields: tells -0.0 from 0.0, which == does not."""
    return (cell.samples.columns.tobytes(), array("d", cell.sample_times_s).tobytes(),
            repr([getattr(cell, f.name) for f in fields(TrajectoryCell)
                  if f.name not in ("samples", "sample_times_s")]))


def test_lane_kernel_matches_scalar_rollout():
    hull = ShipParams(steady_speed_mps=9.1, turn_gain=0.15, asymmetry_factor=1.2,
                      rudder_rate_degps=4.0, kick_gain=0.13, speed_loss_gain=0.03,
                      rudder_limit_port_deg=-33.0)
    port, stbd = hull.rudder_limit_port_deg, hull.rudder_limit_stbd_deg
    rng = random.Random(20220209)
    lanes = [0.0, 1e-6, -1e-6, port, stbd, 0.01, -0.01]
    lanes += [rng.uniform(port, stbd) for _ in range(40)]
    for radius, dt in ((520.0, 0.5), (2.5 * hull.length_m, 0.7)):
        scalar = [_roll_until_crossing(hull, d, radius, dt).cell() for d in lanes]
        assert (_heading_changes(hull, lanes, radius, dt).tolist()
                == [c.heading_change_deg for c in scalar])
        from_lanes = _lane_cells(hull, lanes, radius, dt)
        assert [_cell_bytes(c) for c in from_lanes] == [_cell_bytes(c) for c in scalar]
        for cell in from_lanes:
            assert cell.samples.columns.base is None  # owns its array
            assert not cell.samples.columns.flags.writeable


@pytest.mark.parametrize("resolution", [5.0, 2.0])
def test_cold_build_solves_in_two_passes_and_records_once(params, monkeypatch, resolution):
    real = cells_mod._heading_changes
    passes = []

    def counting(p, delta0s, *args):
        passes.append(list(delta0s))
        return real(p, delta0s, *args)

    monkeypatch.setattr(cells_mod, "_heading_changes", counting)
    build_cell_set(params, 600.0, resolution)
    assert len(passes) == 3
    # full rudder each way, and each side's 8-level subtree of [0, 35]
    tree = [35.0 * k / 256 for k in range(1, 256)]
    first = passes[0]
    assert len(first) == len(set(first)) == 512
    assert set(first) == {35.0, -35.0, *tree, *(-d for d in tree)}


def _lane_states(lanes):
    """A (7, n) state array from per-lane (x, y, heading, u, v, r) tuples, rudder +0.0."""
    st_ = np.zeros((7, len(lanes)))
    st_[:6] = np.array(lanes, dtype=np.float64).T
    return st_


_signed_zero = st.sampled_from([0.0, -0.0])
_lane = st.tuples(st.floats(-2000.0, 2000.0), st.floats(-2000.0, 2000.0),
                  st.floats(0.0, 360.0, exclude_max=True), st.floats(0.0, 12.0),
                  _signed_zero | st.floats(-3.0, 3.0), _signed_zero | st.floats(-4.0, 4.0))


@settings(max_examples=200, deadline=None)
@given(speed=st.floats(2.0, 12.0), gain=st.floats(0.02, 0.3), lag=st.floats(0.5, 60.0),
       recovery=st.floats(0.5, 60.0), asym=st.floats(1.0, 1.5), kick=st.floats(0.0, 0.2),
       loss=st.floats(0.0, 0.2), rate=st.floats(0.5, 8.0), dt=st.floats(0.01, 1.0),
       lanes=st.lists(_lane, min_size=1, max_size=8))
@example(speed=7.7, gain=0.126, lag=4.0, recovery=4.0, asym=1.13, kick=0.1, loss=0.05,
         rate=3.0, dt=0.5, lanes=[(0.0, 0.0, 0.0, 7.7, -0.0, -0.0),
                                  (1.0, 2.0, 359.9, 7.0, 0.0, 0.0),
                                  (-5.0, 3.0, 180.0, 6.5, -0.0, 0.0),
                                  (0.0, 0.0, 0.0, 0.0, 0.0, -0.0)])
def test_rest_step_equals_the_full_step(speed, gain, lag, recovery, asym, kick, loss, rate, dt,
                                        lanes):
    hull = ShipParams(steady_speed_mps=speed, turn_gain=gain, turn_lag_s=lag,
                      speed_recovery_s=recovery, asymmetry_factor=asym, kick_gain=kick,
                      speed_loss_gain=loss, rudder_rate_degps=rate)
    states = _lane_states(lanes)
    full = _step_lanes(hull, states, 0.0, dt)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cells_mod, "_step_lanes", None)  # the rest step must not call it
        rest = _stabilize_lanes(hull, states, dt)
    assert rest.tobytes() == full.tobytes()


def test_a_negative_zero_rudder_takes_the_full_step(params, monkeypatch):
    states = _lane_states([(0.0, 0.0, 0.0, 7.7, 0.0, 0.0), (10.0, 20.0, 30.0, 7.5, 0.01, -0.2)])
    states[6, 1] = -0.0
    full_steps = []

    def full_step(*args):
        full_steps.append(args)
        return _step_lanes(*args)

    monkeypatch.setattr(cells_mod, "_step_lanes", full_step)
    stepped = _stabilize_lanes(params, states, 0.5)
    assert len(full_steps) == 1 and full_steps[0][2] == 0.0
    assert stepped.tobytes() == _step_lanes(params, states, 0.0, 0.5).tobytes()


def _rollout_from_states(params, delta0, radius, dt):
    """The reference rollout: the scalar rollout's loop on ship.step, one
    ShipState per sample."""
    s = 1.0 if delta0 >= 0.0 else -1.0
    if delta0 >= 0.0:
        yaw_steady = params.turn_gain * delta0
    else:
        yaw_steady = params.turn_gain * delta0 / params.asymmetry_factor
    yaw_thresh = (1.0 - cells_mod.YAW_SETTLE_FRAC) * yaw_steady
    adjusting = delta0 != 0.0
    st = trimmed_state(params)
    samples, times = [st], [0.0]
    hc = t = arc = d_prev = 0.0
    while True:
        if adjusting:
            trial = step(st, params, delta0, dt)
            if trial.rudder_deg == delta0 and s * trial.yaw_rate_degps >= s * yaw_thresh:
                adjusting = False
                denom = trial.yaw_rate_degps - st.yaw_rate_degps
                w = (yaw_thresh - st.yaw_rate_degps) / denom if denom != 0.0 else 0.0
                if not 0.0 < w < 1.0:
                    continue
                step_dt = w * dt
                new = step(st, params, delta0, step_dt)
            else:
                new, step_dt = trial, dt
        else:
            new, step_dt = step(st, params, 0.0, dt), dt
        d = math.hypot(new.x_m, new.y_m)
        if d >= radius:
            w = 1.0 if d == d_prev else (radius - d_prev) / (d - d_prev)
            hc_end = hc + w * step_dt * st.yaw_rate_degps
            rows = [astuple(x) for x in samples]
            end = [a + w * (b - a) for a, b in zip(astuple(st), astuple(new))]
            end[2] = wrap_degrees(wrap_degrees(hc_end))
            rows.append(tuple(end))
            arc += math.hypot(end[0] - st.x_m, end[1] - st.y_m)
            times.append(t + w * step_dt)
            return cells_mod._cell(np.array(rows).T.copy(), times, delta0, hc_end, arc, radius)
        hc += step_dt * st.yaw_rate_degps
        t += step_dt
        arc += math.hypot(new.x_m - st.x_m, new.y_m - st.y_m)
        st = new
        samples.append(st)
        times.append(t)
        d_prev = d


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0.0, 1.0), kick=st.floats(0.05, 0.15), loss=st.floats(0.02, 0.08),
       jitter=st.floats(-0.1, 0.1), dt=st.sampled_from([0.25, 0.5]),
       rudder=st.sampled_from(["zero", "port", "stbd"]) | st.floats(-1.0, 1.0))
@example(a=0.5, kick=0.1, loss=0.05, jitter=0.0, dt=0.5, rudder="zero")
@example(a=0.0, kick=0.05, loss=0.02, jitter=-0.1, dt=0.25, rudder="port")
@example(a=1.0, kick=0.15, loss=0.08, jitter=0.1, dt=0.5, rudder="stbd")
def test_float_rollout_equals_the_states_rollout(a, kick, loss, jitter, dt, rudder):
    # the hull and circle space of the benchmark's cold scenes
    hull = ShipParams(steady_speed_mps=6.0 + 4.0 * a, kick_gain=kick, speed_loss_gain=loss)
    radius = 500.0 + 250.0 * min(1.0, max(0.0, a + jitter))
    port, stbd = hull.rudder_limit_port_deg, hull.rudder_limit_stbd_deg
    delta0 = {"zero": 0.0, "port": port, "stbd": stbd}.get(rudder)
    if delta0 is None:  # a share of the way to full rudder on the side of its sign
        delta0 = rudder * (stbd if rudder >= 0.0 else -port)
    rolled = _roll_until_crossing(hull, delta0, radius, dt)
    assert _cell_bytes(rolled.cell()) == _cell_bytes(_rollout_from_states(hull, delta0, radius, dt))


def _cell_set_from_generate_cell(params, radius, resolution):
    """The reference set: one scalar generate_cell solve per target."""
    half = int(round(90.0 / resolution))
    cells = tuple(generate_cell(params, k * resolution, radius)
                  for k in range(-half, half + 1))
    relation, _ = fit_poly([RelationSample(c.delta0_deg, c.heading_change_deg)
                            for c in cells], 3)
    return CellSet(radius_m=radius, cells=cells, resolution_deg=resolution,
                   relation=relation, params=params, dt_s=0.5)


@pytest.mark.parametrize("resolution", [5.0, 2.0])
def test_cell_set_equals_per_target_generate_cell(params, resolution):
    expected = _cell_set_from_generate_cell(params, 600.0, resolution)
    assert build_cell_set(params, 600.0, resolution) == expected


@settings(max_examples=15, deadline=None)
@given(a=st.floats(0.0, 1.0), kick=st.floats(0.05, 0.15), loss=st.floats(0.02, 0.08),
       jitter=st.floats(-0.1, 0.1))
def test_cold_hull_set_equals_per_target_generate_cell(a, kick, loss, jitter):
    # the hull and circle space of the benchmark's cold scenes
    hull = ShipParams(steady_speed_mps=6.0 + 4.0 * a, kick_gain=kick, speed_loss_gain=loss)
    radius = 500.0 + 250.0 * min(1.0, max(0.0, a + jitter))
    built = build_cell_set(hull, radius, 15.0)
    expected = _cell_set_from_generate_cell(hull, radius, 15.0)
    assert built == expected and hash(built) == hash(expected)
    assert [_cell_bytes(c) for c in built.cells] == [_cell_bytes(c) for c in expected.cells]


def test_cold_build_rolls_no_scalar_states(params, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a cold build took the scalar path")

    expected = _cell_set_from_generate_cell(params, 600.0, 15.0)
    monkeypatch.setattr(ShipState, "__post_init__", forbidden)
    monkeypatch.setattr(cells_mod, "step_floats", forbidden)
    monkeypatch.setattr(cells_mod, "_roll_until_crossing", forbidden)
    built = build_cell_set(params, 600.0, 15.0)
    monkeypatch.undo()
    assert built == expected


def _scalar_no_crossing(params, radius, monkeypatch):
    """The scalar rollout's error, from a run whose steps never leave the origin."""
    with monkeypatch.context() as m:
        m.setattr(cells_mod, "step_floats", lambda state, *args: state)
        with pytest.raises(NonConvergence) as err:
            _roll_until_crossing(params, 10.0, radius, 0.5)
    return str(err.value)


def _forbid_scalar_rollouts(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a set build took the scalar path")

    monkeypatch.setattr(cells_mod, "step_floats", forbidden)
    monkeypatch.setattr(cells_mod, "_roll_until_crossing", forbidden)


@pytest.mark.parametrize("timed_out", [lambda d: d == 35.0, lambda d: 0.0 < d < 35.0],
                         ids=["full_rudder", "probes"])
def test_timed_out_solve_lane_raises_for_its_target(params, monkeypatch, timed_out):
    real = cells_mod._heading_changes
    message = _scalar_no_crossing(params, 600.0, monkeypatch)

    def starboard_lanes_time_out(p, delta0s, *args):
        hc = real(p, delta0s, *args)
        if len(args) == 2:  # a solve pass, not the recorded one
            hc[[timed_out(d) for d in delta0s]] = math.nan
        return hc

    monkeypatch.setattr(cells_mod, "_heading_changes", starboard_lanes_time_out)
    _forbid_scalar_rollouts(monkeypatch)
    with pytest.raises(NonConvergence) as err:
        build_cell_set(params, 600.0, 15.0)
    assert str(err.value) == f"target +15.0 deg: {message}"


def test_timed_out_sample_lane_names_its_target(params, monkeypatch):
    real = cells_mod._heading_changes
    message = _scalar_no_crossing(params, 600.0, monkeypatch)

    def recorded_lanes_time_out(*args):
        hc = real(*args)
        if len(args) == 5:  # the recorded pass
            hc[5:] = math.nan
        return hc

    monkeypatch.setattr(cells_mod, "_heading_changes", recorded_lanes_time_out)
    _forbid_scalar_rollouts(monkeypatch)
    with pytest.raises(NonConvergence) as err:
        build_cell_set(params, 600.0, 15.0)
    assert str(err.value) == f"target -15.0 deg: {message}"


@pytest.mark.parametrize("limit_s", [78.0, 80.0, 90.0])
def test_lockstep_time_out_matches_the_scalar_rollout(params, monkeypatch, limit_s):
    # a 600 m cell takes 77.9 s straight ahead and 98.1 s at full starboard
    # rudder, so a shorter time limit times out only the harder turns
    monkeypatch.setattr(cells_mod, "_time_limit", lambda p, radius_m: limit_s)
    lanes = [0.0, 1e-6, -1e-6, *(k / 4.0 for k in range(-140, 141, 7))]
    expected = []
    for delta0 in lanes:
        try:
            expected.append(_roll_until_crossing(params, delta0, 600.0, 0.5).heading_change_deg)
        except NonConvergence:
            expected.append(None)
    assert None in expected and any(hc is not None for hc in expected)
    got = _heading_changes(params, lanes, 600.0, 0.5).tolist()
    assert [None if math.isnan(hc) else hc for hc in got] == expected
    assert [c is None for c in _lane_cells(params, lanes, 600.0, 0.5)] == \
        [hc is None for hc in expected]


def test_exhausted_budget_returns_the_best_probe(params, monkeypatch):
    monkeypatch.setattr(cells_mod, "_MAX_BISECTIONS", 10)
    real = cells_mod._roll_until_crossing
    rolled = []

    def roll(p, delta0, *args):
        rolled.append(delta0)
        return real(p, delta0, *args)

    monkeypatch.setattr(cells_mod, "_roll_until_crossing", roll)
    cell = generate_cell(params, 45.0, 600.0)
    monkeypatch.setattr(cells_mod, "_roll_until_crossing", real)
    # full rudder, then probes 0-9: the budget ran out, and probe 8 was closest
    assert len(rolled) == 11
    assert cell.delta0_deg == rolled[9] != rolled[-1]
    assert round(abs(cell.heading_change_deg - 45.0), 3) == 0.042
    assert cell == _roll_until_crossing(params, cell.delta0_deg, 600.0, 0.5).cell()
    fifteen_deg = build_cell_set(params, 600.0, 15.0)
    assert fifteen_deg.cells[fifteen_deg.nearest_index(45.0)] == cell


def test_set_errors_name_their_target(params, monkeypatch):
    weak = ShipParams(turn_gain=0.02)
    with pytest.raises(Unreachable) as err:
        build_cell_set(weak, 6.0 * weak.length_m, 15.0)
    with pytest.raises(Unreachable) as alone:
        generate_cell(weak, -90.0, 6.0 * weak.length_m)
    assert str(err.value) == f"target -90.0 deg: {alone.value}"

    monkeypatch.setattr(cells_mod, "_MAX_BISECTIONS", 2)
    with pytest.raises(NonConvergence) as err:
        build_cell_set(params, 600.0, 15.0)
    with pytest.raises(NonConvergence) as alone:
        generate_cell(params, -90.0, 600.0)
    assert str(err.value) == f"target -90.0 deg: {alone.value}"


def test_cell_count_and_coverage(cells_factor6):
    assert len(cells_factor6.cells) == 37
    changes = [c.heading_change_deg for c in cells_factor6.cells]
    assert changes[0] == pytest.approx(-90.0, abs=0.2)
    assert changes[-1] == pytest.approx(90.0, abs=0.2)
    assert any(abs(c) < 1e-9 for c in changes)


def test_generated_pairs_strongly_correlated(cells_factor6):
    r = pearson([c.delta0_deg for c in cells_factor6.cells],
                [c.heading_change_deg for c in cells_factor6.cells])
    assert r > 0.99


def test_all_cells_pass_rules(params, cells_factor6):
    for cell in cells_factor6.cells:
        report = validate_rules(cell, params)
        assert report.all_ok, (cell.heading_change_deg, report)


def test_rules_hold_at_experiment_radius(params, cells600):
    for cell in cells600.cells:
        assert validate_rules(cell, params).all_ok


def test_delta0_strictly_increasing(cells_factor6):
    deltas = [c.delta0_deg for c in cells_factor6.cells]
    assert all(b > a for a, b in zip(deltas, deltas[1:]))


def test_central_angle_bounded_by_heading_change(cells_factor6):
    from cgtc.grid import signed_degrees
    for cell in cells_factor6.cells:
        central = signed_degrees(cell.central_angle_deg)
        if abs(cell.heading_change_deg) < 1e-9:
            assert abs(central) < 1e-9
            continue
        assert math.copysign(1, central) == math.copysign(1, cell.heading_change_deg)
        assert abs(central) <= abs(cell.heading_change_deg)


def test_splice_continuity(params, cells_factor6):
    a = cells_factor6.cells[cells_factor6.nearest_index(45.0)]
    b = cells_factor6.cells[cells_factor6.nearest_index(-30.0)]
    end = a.samples[-1]
    placed = transform_cell([b], [GridNode(a.end_offset, a.heading_change_deg)])
    u0 = params.steady_speed_mps
    assert abs(end.u_mps - placed[0].u_mps) <= 0.001 * u0
    heading_jump = (placed[0].heading_deg - end.heading_deg) % 360.0
    heading_jump = min(heading_jump, 360.0 - heading_jump)
    assert heading_jump <= 0.2


def _transform_cell_scalar(cell, origin_x, origin_y, origin_heading_deg):
    """transform_cell one sample at a time: the reference for the columnar one."""
    h = math.radians(origin_heading_deg)
    ch, sh = math.cos(h), math.sin(h)
    out = []
    for s in cell.samples:
        wx = s.x_m * ch + s.y_m * sh
        wy = -s.x_m * sh + s.y_m * ch
        out.append(ShipState(
            x_m=origin_x + wx,
            y_m=origin_y + wy,
            heading_deg=wrap_degrees(s.heading_deg + origin_heading_deg),
            u_mps=s.u_mps,
            v_mps=s.v_mps,
            yaw_rate_degps=s.yaw_rate_degps,
            rudder_deg=s.rudder_deg,
        ))
    return out


def _state_bytes(states):
    """Every field of every state as float bytes (tells -0.0 from 0.0)."""
    return array("d", [getattr(s, f.name) for s in states
                       for f in fields(ShipState)]).tobytes()


ODD_HULL = ShipParams(steady_speed_mps=9.1, turn_gain=0.15, asymmetry_factor=1.2,
                      rudder_rate_degps=4.0, kick_gain=0.13, speed_loss_gain=0.03,
                      rudder_limit_port_deg=-33.0)


@functools.cache
def _placement_sets():
    """The default hull's 600 m, 5 deg set and the odd hull's 520 m, 15 deg set.

    Built once per session here rather than taken as fixtures: Hypothesis
    pretty-prints a test's fixture arguments, every sample of every cell,
    once per explicit example.
    """
    return build_cell_set(ShipParams(), 600.0, 5.0), build_cell_set(ODD_HULL, 520.0, 15.0)


finite = st.floats(allow_nan=False, allow_infinity=False)
edge_headings = st.sampled_from([0.0, -0.0, -1e-13, 1e-13, 359.99999999999994,
                                 360.0, 720.0, -720.0, 90.0, -270.0])


@settings(max_examples=150, deadline=None)
@given(origin_x=finite | st.floats(-1e4, 1e4), origin_y=finite | st.floats(-1e4, 1e4),
       heading=finite | edge_headings, pick=st.integers(0, 36),
       odd_hull=st.booleans())
@example(origin_x=0.0, origin_y=-0.0, heading=-1e-13, pick=0, odd_hull=False)
@example(origin_x=-0.0, origin_y=0.0, heading=359.99999999999994, pick=36, odd_hull=False)
@example(origin_x=1e6, origin_y=-1e6, heading=360.0, pick=18, odd_hull=True)
@example(origin_x=0.0, origin_y=0.0, heading=-720.0, pick=5, odd_hull=True)
@example(origin_x=0.0, origin_y=0.0, heading=720.0, pick=30, odd_hull=False)
def test_transform_cell_matches_scalar_placement(origin_x, origin_y, heading, pick,
                                                 odd_hull):
    cells = _placement_sets()[odd_hull].cells
    cell = cells[pick % len(cells)]
    placed = transform_cell([cell], [GridNode((origin_x, origin_y), heading)])
    expected = _transform_cell_scalar(cell, origin_x, origin_y, heading)
    assert _state_bytes(placed) == _state_bytes(expected)


poses = st.tuples(finite | st.floats(-1e4, 1e4), finite | st.floats(-1e4, 1e4),
                  finite | edge_headings)


@settings(max_examples=100, deadline=None)
@given(picks=st.lists(st.integers(0, 36), min_size=1, max_size=6),
       at=st.lists(poses, min_size=6, max_size=6), odd_hull=st.booleans())
@example(picks=[18, 0, 36], at=[(0.0, -0.0, -1e-13)] + [(1e3, -2e3, 90.0)] * 5,
         odd_hull=False)
@example(picks=[18, 3, 33, 0, 36, 7], at=[(-0.0, 0.0, -1e-20), (5.0, 7.0, 359.99999999999994),
                                         (0.0, 0.0, -720.0), (1e6, -1e6, 360.0),
                                         (0.0, 0.0, -1e-13), (3.0, 4.0, 720.0)],
         odd_hull=True)
def test_sequence_placement_joins_the_one_cell_placements(picks, at, odd_hull):
    """Cells placed end to end equal each cell placed alone by the scalar
    reference, every later cell without its first sample, bit for bit."""
    cells = _placement_sets()[odd_hull].cells
    run = [cells[pick % len(cells)] for pick in picks]
    nodes = [GridNode((x, y), heading) for x, y, heading in at[:len(run)]]
    placed = transform_cell(run, nodes)
    expected = [state for i, (cell, node) in enumerate(zip(run, nodes))
                for state in _transform_cell_scalar(cell, *node.position,
                                                    node.heading_deg)[1 if i else 0:]]
    # the columns as placed, before a ShipState would wrap a heading once more
    expected_bytes = array("d", [getattr(s, f.name) for f in fields(ShipState)
                                 for s in expected]).tobytes()
    # x and y are placed at once, and read without filling the other rows
    assert placed.xy.tobytes() == expected_bytes[:2 * 8 * len(expected)]
    assert len(placed) == len(expected) and "columns" not in vars(placed)
    assert placed.columns.tobytes() == expected_bytes
    assert placed.xy.tobytes() == placed.columns[:2].tobytes()
    assert not placed.columns.flags.writeable and not placed.xy.flags.writeable


def test_no_cells_place_to_an_empty_trajectory():
    assert transform_cell([], []).columns.shape == (7, 0)


def test_a_placed_trajectory_pickles_and_copies_as_its_columns():
    cells = _placement_sets()[0].cells
    placed = transform_cell(cells[3:6], [GridNode((1.0, 2.0), 30.0)] * 3)
    for again in (pickle.loads(pickle.dumps(placed)), copy.deepcopy(placed)):
        assert again.columns.tobytes() == placed.columns.tobytes()
        assert not again.columns.flags.writeable and again == placed


def _plan_with_reference(plan, name):
    """A plan of a shipped scenario, with its cells placed one sample at a
    time at its nodes and its sample times added one at a time: the eager
    reference for the rows and times the plan computes on first read."""
    result = plan(load_scenario(SCENARIO_DIR / name))
    run = result.executed_cells
    states = [state for i, (cell, node) in enumerate(zip(run, result.nodes))
              for state in _transform_cell_scalar(cell, *node.position,
                                                  node.heading_deg)[1 if i else 0:]]
    columns = array("d", [getattr(s, f.name) for f in fields(ShipState) for s in states])
    times = array("d", [start + t for i, (cell, start) in enumerate(zip(run, result.cell_starts_s))
                        for t in cell.sample_times_s[1 if i else 0:]])
    return result, columns.tobytes(), times.tobytes()


@pytest.mark.parametrize("plan, name", [(plan_static, "fig25_analog.json"),
                                        (plan_dynamic, "dynamic_sit3_must_steer.json"),
                                        (grid_baseline_plan, "free_bearing37.json")])
@pytest.mark.parametrize("order", ["columns_first", "times_first", "replaced"])
def test_plan_rows_read_later_are_the_eager_placement(plan, name, order):
    """A plan leaves its heading and state rows and its sample times to the
    first read; read in either order, or on a dataclasses.replace copy, they
    are the eager reference's bytes."""
    result, columns, times = _plan_with_reference(plan, name)
    assert "columns" not in vars(result.trajectory) and "sample_times_s" not in vars(result)
    if order == "replaced":
        first_times = array("d", result.sample_times_s).tobytes()
        result = replace(result, min_clearance_m=-1.0)
        assert "sample_times_s" not in vars(result) and first_times == times
    if order == "columns_first":
        assert result.trajectory.columns.tobytes() == columns
    assert array("d", result.sample_times_s).tobytes() == times
    assert result._times.tobytes() == times
    assert result.trajectory.columns.tobytes() == columns
    assert result.trajectory.xy.tobytes() == columns[:len(columns) * 2 // 7]


@settings(max_examples=150, deadline=None)
@given(origin_x=finite | st.floats(-1e4, 1e4), origin_y=finite | st.floats(-1e4, 1e4),
       heading=finite | edge_headings, pick=st.integers(0, 36),
       odd_hull=st.booleans())
@example(origin_x=0.0, origin_y=-0.0, heading=-1e-13, pick=0, odd_hull=False)
@example(origin_x=-0.0, origin_y=0.0, heading=359.99999999999994, pick=36, odd_hull=False)
@example(origin_x=0.0, origin_y=0.0, heading=-720.0, pick=5, odd_hull=True)
@example(origin_x=0.0, origin_y=0.0, heading=-1e-20, pick=18, odd_hull=False)
def test_placed_columns_are_the_states(origin_x, origin_y, heading, pick, odd_hull):
    cells = _placement_sets()[odd_hull].cells
    cell = cells[pick % len(cells)]
    placed = transform_cell([cell], [GridNode((origin_x, origin_y), heading)])
    assert "_states" not in vars(placed) and not placed.columns.flags.writeable
    assert len(placed) == placed.columns.shape[1] == len(cell.samples)

    states = list(placed)
    for row, f in zip(placed.columns.tolist(), fields(ShipState), strict=True):
        assert array("d", row).tobytes() == array("d", [getattr(s, f.name)
                                                       for s in states]).tobytes(), f.name
    assert [placed[i] for i in range(len(placed))] == states
    assert placed[-1] is states[-1] and placed[1:3] == states[1:3]

    assert placed == transform_cell([cell], [GridNode((origin_x, origin_y), heading)])
    assert placed == states and placed != states[:-1] and placed != tuple(states)
    other = placed.columns.copy()
    other[3, -1] += 1.0  # u of the last sample
    assert placed != Trajectory(other) and placed != Trajectory(placed.columns[:, :-1])


def test_cached_columns_leave_identity_unchanged():
    fresh = build_cell_set(ODD_HULL, 520.0, 15.0)
    twin = build_cell_set(ODD_HULL, 520.0, 15.0)
    before = (hash(fresh), repr(fresh), [(hash(c), repr(c)) for c in fresh.cells])
    for cell in fresh.cells:
        transform_cell([cell], [GridNode((10.0, -20.0), 33.0)])
        cell._times, cell.samples[0]  # fill the times and states caches
        assert "_times" in vars(cell) and "_states" in vars(cell.samples)
    assert (hash(fresh), repr(fresh), [(hash(c), repr(c)) for c in fresh.cells]) == before
    assert fresh == twin and twin == fresh and hash(fresh) == hash(twin)
    assert all(a == b and hash(a) == hash(b) for a, b in zip(fresh.cells, twin.cells))
    assert len({fresh, twin}) == 1


def test_target_tolerance(cells600):
    for cell in cells600.cells:
        nearest_target = round(cell.heading_change_deg / 5.0) * 5.0
        assert abs(cell.heading_change_deg - nearest_target) <= 0.2


def test_hand_built_double_steering_fails_rule2(params, cells_factor6):
    base = cells_factor6.cells[cells_factor6.nearest_index(30.0)]
    # splice a second plateau into the tail; the last sample keeps zero rudder
    doctored = base.samples.columns.copy()
    doctored[6, -20:] = 10.0
    doctored[6, -1] = 0.0
    cell = TrajectoryCell(samples=Trajectory(doctored), sample_times_s=base.sample_times_s,
                          delta0_deg=base.delta0_deg,
                          heading_change_deg=base.heading_change_deg,
                          end_offset=base.end_offset,
                          central_angle_deg=base.central_angle_deg,
                          arc_length_m=base.arc_length_m, duration_s=base.duration_s,
                          radius_m=base.radius_m)
    report = validate_rules(cell, params)
    assert not report.rule2_ok
    assert report.steering_count == 2


@pytest.mark.parametrize("series, steerings", [
    ([0.0, 5.0, 10.0, 10.0, 5.0, 0.0], 1),
    ([0.0, -5.0, -10.0, -5.0, 0.0, 0.0, 4.0, 8.0, 0.0], 2),   # two runs
    ([0.0, 5.0, 10.0, 6.0, 3.0, 7.0, 10.0, 4.0, 0.0], 2),     # a second crest in one run
    ([0.0, -5.0, -10.0, -6.0, -8.0, -3.0, -9.0, 0.0], 3),
])
def test_count_steerings(series, steerings):
    assert _count_steerings(series) == steerings


def test_hand_built_short_cell_fails_rule3(params, cells_factor6):
    base = cells_factor6.cells[cells_factor6.nearest_index(0.0)]
    cell = TrajectoryCell(samples=Trajectory(base.samples.columns.copy()),
                          sample_times_s=base.sample_times_s,
                          delta0_deg=base.delta0_deg,
                          heading_change_deg=base.heading_change_deg,
                          end_offset=(0.0, 0.9 * base.radius_m),
                          central_angle_deg=base.central_angle_deg,
                          arc_length_m=base.arc_length_m, duration_s=base.duration_s,
                          radius_m=base.radius_m)
    report = validate_rules(cell, params)
    assert not report.rule3_ok
    assert report.radius_error_frac == pytest.approx(0.10, abs=1e-9)


def test_unreachable_for_weak_rudder():
    weak = ShipParams(turn_gain=0.02)
    with pytest.raises(Unreachable):
        generate_cell(weak, 90.0, 6.0 * weak.length_m)


def test_precondition_validation(params):
    with pytest.raises(ValueError):
        generate_cell(params, 95.0, 600.0)
    with pytest.raises(ValueError):
        generate_cell(params, 30.0, 1.5 * params.length_m)
    with pytest.raises(ValueError):
        build_cell_set(params, 600.0, 0.5)
    with pytest.raises(ValueError):
        build_cell_set(params, 600.0, 7.0)  # does not divide 180 evenly


@pytest.mark.parametrize("dt", [0.0, -0.5, 4.0, 5.0, math.nan])
def test_unusable_dt_rejected_before_any_rollout(params, dt):
    # 4 s is the default hull's shortest lag; a NaN step would never cross
    # the circle nor reach the rollout's time bound
    with pytest.raises(ValueError, match="dt must be positive and below"):
        generate_cell(params, 30.0, 600.0, dt=dt)
    with pytest.raises(ValueError, match="dt must be positive and below"):
        build_cell_set(params, 600.0, 15.0, dt=dt)


@pytest.mark.parametrize("dt", [1e-9, 0.0155])
def test_dt_past_the_step_bound_rejected_before_any_rollout(params, dt, monkeypatch):
    # a rollout on a 600 m circle may run 15 584 s, which at most 1e6 steps
    # cover at dt >= 0.0156 s; at 1e-9 s a lane that never crosses never ends
    def forbidden(*args, **kwargs):
        raise AssertionError("rolled before dt was checked")

    monkeypatch.setattr(cells_mod, "_roll_until_crossing", forbidden)
    monkeypatch.setattr(cells_mod, "_heading_changes", forbidden)
    with pytest.raises(ValueError, match="dt must be at least 0.0155844 s to run 15584 s"):
        generate_cell(params, 30.0, 600.0, dt=dt)
    with pytest.raises(ValueError, match="dt must be at least 0.0155844 s to run 15584 s"):
        build_cell_set(params, 600.0, 15.0, dt=dt)


def test_slow_hull_builds_its_cells_at_the_default_dt():
    slow = ShipParams(turn_lag_s=60.0, speed_recovery_s=60.0)
    assert len(build_cell_set(slow, 600.0, 15.0).cells) == 13


@pytest.mark.parametrize("theta_m", [45.0, 60.0, 180.0])
def test_cell_family_width_is_fixed(params, theta_m):
    with pytest.raises(ValueError, match="spans"):
        build_cell_set(params, 600.0, 15.0, max_heading_change_deg=theta_m)
    with pytest.raises(ValueError, match="spans"):
        build_cell_set(params, 600.0, 15.0, theta_m)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_radius_and_target_rejected(params, value):
    # a non-finite radius must fail before any rollout: the scalar rollout
    # would never cross the circle nor reach its time bound
    with pytest.raises(ValueError):
        check_radius(params, value)
    with pytest.raises(ValueError):
        _check_target(value)
    with pytest.raises(ValueError):
        generate_cell(params, value, 600.0)
    with pytest.raises(ValueError):
        generate_cell(params, 30.0, value)
    with pytest.raises(ValueError):
        build_cell_set(params, value, 5.0)


def test_cell_set_lookup(cells_factor6):
    assert cells_factor6.nearest_index(0.0) == 18
    assert cells_factor6.nearest_index(2.4) == 18
    assert cells_factor6.nearest_index(2.6) == 19
    assert cells_factor6.nearest_index(500.0) == 36
    assert cells_factor6.nearest_index(-500.0) == 0


@pytest.fixture(scope="module")
def cells_2_and_5(params):
    """The 600 m sets at 2 deg (odd half-count, 45) and 5 deg (even, 18)."""
    return [build_cell_set(params, 600.0, res) for res in (2.0, 5.0)]


@settings(max_examples=300, deadline=None)
@given(change=st.floats(allow_nan=False, allow_infinity=False),
       side=st.sampled_from([-1, 0, 1]))
def test_nearest_index_rounds_by_side(cells_2_and_5, change, side):
    for cells in cells_2_and_5:
        res = cells.resolution_deg
        wanted = max(-90.0, min(90.0, change))
        idx = cells.nearest_index(change, side)
        assert 0 <= idx <= len(cells.cells) - 1
        target = (idx - len(cells.cells) // 2) * res
        tol = 1e-9 * res + 1e-12
        if side > 0:
            assert target >= wanted - tol
        elif side < 0:
            assert target <= wanted + tol
        else:
            assert abs(target - wanted) <= res / 2 + tol


def test_nearest_index_rounds_a_tie_to_the_even_step(cells_2_and_5):
    two_deg = cells_2_and_5[0]
    assert two_deg.cells[two_deg.nearest_index(1.0)].delta0_deg == 0.0
    assert two_deg.nearest_index(1.0) == 45
    assert two_deg.nearest_index(45.0) == 45 + 22  # the 44-deg cell
    assert two_deg.nearest_index(-91.0, side=1) == 0


def test_command_for_monotone(cells_factor6):
    changes = [-85.0, -40.0, -5.0, 0.0, 5.0, 40.0, 85.0]
    cmds = [cells_factor6.command_for(c) for c in changes]
    assert all(b > a for a, b in zip(cmds, cmds[1:]))
    assert cells_factor6.command_for(0.0) == pytest.approx(0.0, abs=1.0)


@pytest.fixture
def empty_library(monkeypatch):
    """Start with an empty library; the previous one is restored afterwards."""
    monkeypatch.setattr(cells_mod, "_library", {})


def test_cell_library_reuses_set_for_repeated_key(params, empty_library):
    first = cell_library(params, 600.0, 15.0)
    assert cell_library(params, 600.0, 15.0) is first
    assert cell_library(ShipParams(), 600.0, 15.0, dt=0.5) is first
    assert cell_library(params, 650.0, 15.0) is not first


def test_cell_library_releases_old_set_before_building(params, empty_library,
                                                       monkeypatch):
    ref = weakref.ref(cell_library(params, 600.0, 15.0))
    alive_during_build = []
    real_build = cells_mod.build_cell_set

    def build(*args, **kwargs):
        alive_during_build.append(ref() is not None)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(cells_mod, "build_cell_set", build)
    cell_library(params, 650.0, 15.0)
    assert alive_during_build == [False]
    assert ref() is None


class LibraryAsks:
    """Asks the library for 15-degree sets of one hull by radius and records,
    at each build, the radii whose last returned set was still alive."""

    def __init__(self, params, monkeypatch):
        self.params = params
        self.refs = {}
        self.builds = []
        real_build = cells_mod.build_cell_set

        def build(params, radius_m, *args, **kwargs):
            self.builds.append((radius_m, self.alive()))
            return real_build(params, radius_m, *args, **kwargs)

        monkeypatch.setattr(cells_mod, "build_cell_set", build)

    def alive(self) -> list[float]:
        return sorted(r for r, ref in self.refs.items() if ref() is not None)

    def ask(self, *radii: float) -> None:
        for radius in radii:
            self.refs[radius] = weakref.ref(cell_library(self.params, radius, 15.0))


@pytest.fixture
def asks(params, empty_library, monkeypatch):
    return LibraryAsks(params, monkeypatch)


def test_cell_library_builds_a_repeated_key_once(asks):
    asks.ask(600.0, 600.0, 650.0, 600.0)
    assert asks.builds == [(600.0, []), (650.0, [600.0])]


def test_cell_library_releases_only_sets_never_reused(asks):
    asks.ask(600.0, 600.0, 650.0, 700.0)
    assert asks.builds[-1] == (700.0, [600.0])
    assert asks.alive() == [600.0, 700.0]


def test_cell_library_counts_a_released_key_asked_again_as_reused(asks):
    asks.ask(600.0, 650.0, 600.0, 700.0)
    assert [r for r, _ in asks.builds] == [600.0, 650.0, 600.0, 700.0]
    assert asks.builds[-1] == (700.0, [600.0])


def test_cell_library_keeps_at_most_its_bound_of_reused_sets(asks):
    radii = [600.0, 650.0, 700.0, 750.0, 800.0]
    for radius in radii:
        asks.ask(radius, radius)
    assert all(len(alive) < cells_mod._LIBRARY_SETS for _, alive in asks.builds)
    assert asks.alive() == radii[1:]
    assert sum(entry is not None for entry in cells_mod._library.values()) == 4


def test_cell_library_holds_one_set_of_a_distinct_key_stream(asks):
    radii = [600.0 + 50.0 * i for i in range(7)]
    asks.ask(*radii)
    assert asks.builds == [(radius, []) for radius in radii]
    assert len(cells_mod._library) <= cells_mod._LIBRARY_SETS + 1


def test_plan_from_library_equals_plan_from_explicit_cells(empty_library):
    scn = load_scenario(SCENARIO_DIR / "free_bearing37.json")
    explicit = build_cell_set(scn.ship, scn.radius_m, scn.cell_resolution_deg,
                              dt=scn.dt_s)
    from_library = plan_static(scn)
    from_explicit = plan_static(scn, explicit)
    for f in fields(PlanResult):
        assert getattr(from_library, f.name) == getattr(from_explicit, f.name), f.name


def test_kept_cells_are_the_cells_generate_cell_makes():
    """The grid baseline keeps the cells it generates with the set: each is
    byte for byte what generate_cell makes for its key at the set's key."""
    scn = load_scenario(SCENARIO_DIR / "fig25_analog.json")
    cells = build_cell_set(scn.ship, scn.radius_m, scn.cell_resolution_deg, dt=scn.dt_s)
    grid_baseline_plan(scn, cells)
    assert {-45.0, 45.0} <= set(cells._kept)  # no multiples of 2 degrees
    for key, cell in cells._kept.items():
        fresh = generate_cell(scn.ship, key, scn.radius_m, dt=scn.dt_s)
        assert _cell_bytes(cell) == _cell_bytes(fresh), key


def test_kept_cells_stay_within_the_bound_least_recently_used_out(cells600):
    cells = replace(cells600)
    made = []

    def keep(key):
        return cells.kept_cell(key, lambda: made.append(key) or object())

    bound = cells_mod._KEPT_CELLS
    first = keep(0.01)
    for i in range(2, bound + 1):
        keep(i / 100.0)
    assert len(cells._kept) == bound and len(made) == bound
    assert keep(0.01) is first and len(made) == bound  # a hit generates nothing
    for i in range(bound + 1, 2 * bound):
        keep(i / 100.0)
        assert len(cells._kept) == bound
    # 0.01 was used after 0.02 to 0.64, so it outlived them
    assert list(cells._kept) == [0.01] + [i / 100.0 for i in range(bound + 1, 2 * bound)]
    keep(9.99)
    assert 0.01 not in cells._kept and len(cells._kept) == bound


def test_a_failed_generation_keeps_nothing(cells600):
    cells = replace(cells600)

    def failing():
        raise NonConvergence("no cell")

    with pytest.raises(NonConvergence):
        cells.kept_cell(12.34, failing)
    assert cells._kept == {}


def test_new_sets_and_copies_start_with_an_empty_store(params, cells600):
    cells = replace(cells600)
    before = (hash(cells), repr(cells))
    cell = cells.kept_cell(12.34, lambda: cells600.cells[0])
    assert cells._kept == {12.34: cell}
    assert (hash(cells), repr(cells)) == before and cells == cells600
    assert replace(cells)._kept == {}
    assert build_cell_set(params, 600.0, 15.0)._kept == {}
