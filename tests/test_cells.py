"""Trajectory cell generation: rules, solving, splicing, relation fit."""

import functools
import math
import random
import weakref
from array import array
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cgtc import cells as cells_mod
from cgtc.cells import (
    CellSet,
    TrajectoryCell,
    _check_target,
    _heading_changes,
    _roll_until_crossing,
    build_cell_set,
    check_radius,
    cell_library,
    generate_cell,
    transform_cell,
    validate_rules,
)
from cgtc.errors import NonConvergence, Unreachable
from cgtc.grid import wrap_degrees
from cgtc.relation import RelationSample, fit_poly, pearson
from cgtc.scenario import load_scenario
from cgtc.ship import ShipParams, ShipState, Trajectory
from cgtc.static_planner import PlanResult, plan_static

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def test_straight_cell(params, cells_factor6):
    cell = cells_factor6.nearest_cell(0.0)
    r = cells_factor6.radius_m
    assert cell.delta0_deg == 0.0
    assert cell.heading_change_deg == 0.0
    assert cell.end_offset[0] == pytest.approx(0.0, abs=1e-9)
    assert cell.end_offset[1] == pytest.approx(r, rel=1e-9)
    assert cell.duration_s == pytest.approx(r / params.steady_speed_mps, rel=1e-9)
    assert cell.central_angle_deg == pytest.approx(0.0, abs=1e-9)


def test_port_needs_more_rudder_than_starboard(cells_factor6):
    stbd = cells_factor6.nearest_cell(90.0)
    port = cells_factor6.nearest_cell(-90.0)
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


def test_lane_kernel_matches_scalar_rollout():
    hull = ShipParams(steady_speed_mps=9.1, turn_gain=0.15, asymmetry_factor=1.2,
                      rudder_rate_degps=4.0, kick_gain=0.13, speed_loss_gain=0.03,
                      rudder_limit_port_deg=-33.0)
    port, stbd = hull.rudder_limit_port_deg, hull.rudder_limit_stbd_deg
    rng = random.Random(20220209)
    lanes = [0.0, 1e-6, -1e-6, port, stbd, 0.01, -0.01]
    lanes += [rng.uniform(port, stbd) for _ in range(40)]
    for radius, dt in ((520.0, 0.5), (2.5 * hull.length_m, 0.7)):
        scalar = [_roll_until_crossing(hull, d, radius, dt).heading_change_deg
                  for d in lanes]
        assert _heading_changes(hull, lanes, radius, dt).tolist() == scalar


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


def test_timed_out_lanes_fall_back_to_scalar_rollouts(params, cells_factor6,
                                                     monkeypatch):
    real = cells_mod._heading_changes

    def nan_lanes(*args):
        hc = real(*args)
        hc[::2] = math.nan  # as if these lanes had not crossed by max_t
        return hc

    monkeypatch.setattr(cells_mod, "_heading_changes", nan_lanes)
    assert build_cell_set(params, 6.0 * params.length_m, 5.0) == cells_factor6


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
    a = cells_factor6.nearest_cell(45.0)
    b = cells_factor6.nearest_cell(-30.0)
    end = a.samples[-1]
    placed = transform_cell(b, a.end_offset[0], a.end_offset[1], a.heading_change_deg)
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
    placed = transform_cell(cell, origin_x, origin_y, heading)
    expected = _transform_cell_scalar(cell, origin_x, origin_y, heading)
    assert _state_bytes(placed) == _state_bytes(expected)


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
    placed = transform_cell(cell, origin_x, origin_y, heading)
    assert "_states" not in vars(placed) and not placed.columns.flags.writeable
    assert len(placed) == placed.columns.shape[1] == len(cell.samples)

    states = list(placed)
    for row, f in zip(placed.columns.tolist(), fields(ShipState), strict=True):
        assert array("d", row).tobytes() == array("d", [getattr(s, f.name)
                                                       for s in states]).tobytes(), f.name
    assert [placed[i] for i in range(len(placed))] == states
    assert placed[-1] is states[-1] and placed[1:3] == states[1:3]

    assert placed == transform_cell(cell, origin_x, origin_y, heading)
    assert placed == states and placed != states[:-1] and placed != tuple(states)
    other = placed.columns.copy()
    other[3, -1] += 1.0  # u of the last sample
    assert placed != Trajectory(other) and placed != Trajectory(placed.columns[:, :-1])


def test_cached_columns_leave_identity_unchanged():
    fresh = build_cell_set(ODD_HULL, 520.0, 15.0)
    twin = build_cell_set(ODD_HULL, 520.0, 15.0)
    before = (hash(fresh), repr(fresh), [(hash(c), repr(c)) for c in fresh.cells])
    for cell in fresh.cells:
        transform_cell(cell, 10.0, -20.0, 33.0)
        assert "_columns" in vars(cell)
    assert (hash(fresh), repr(fresh), [(hash(c), repr(c)) for c in fresh.cells]) == before
    assert fresh == twin and twin == fresh
    assert all(a == b for a, b in zip(fresh.cells, twin.cells))


def test_target_tolerance(cells600):
    for cell in cells600.cells:
        nearest_target = round(cell.heading_change_deg / 5.0) * 5.0
        assert abs(cell.heading_change_deg - nearest_target) <= 0.2


def test_hand_built_double_steering_fails_rule2(params, cells_factor6):
    base = cells_factor6.nearest_cell(30.0)
    rud = [s.rudder_deg for s in base.samples]
    # splice a second plateau into the tail
    doctored = []
    n = len(base.samples)
    for i, s in enumerate(base.samples):
        r = rud[i] if i < n - 20 else 10.0
        doctored.append(ShipState(s.x_m, s.y_m, s.heading_deg, s.u_mps,
                                  s.v_mps, s.yaw_rate_degps, r))
    doctored[-1] = ShipState(*[getattr(doctored[-1], f) for f in
                               ("x_m", "y_m", "heading_deg", "u_mps", "v_mps",
                                "yaw_rate_degps")], 0.0)
    cell = TrajectoryCell(samples=tuple(doctored), sample_times_s=base.sample_times_s,
                          delta0_deg=base.delta0_deg,
                          heading_change_deg=base.heading_change_deg,
                          end_offset=base.end_offset,
                          central_angle_deg=base.central_angle_deg,
                          arc_length_m=base.arc_length_m, duration_s=base.duration_s,
                          radius_m=base.radius_m)
    report = validate_rules(cell, params)
    assert not report.rule2_ok
    assert report.steering_count == 2


def test_hand_built_short_cell_fails_rule3(params, cells_factor6):
    base = cells_factor6.nearest_cell(0.0)
    cell = TrajectoryCell(samples=base.samples, sample_times_s=base.sample_times_s,
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
    """Start with no library set kept; the previous slot is restored afterwards."""
    monkeypatch.setattr(cells_mod, "_library_slot", None)


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


def test_plan_from_library_equals_plan_from_explicit_cells(empty_library):
    scn = load_scenario(SCENARIO_DIR / "free_bearing37.json")
    explicit = build_cell_set(scn.ship, scn.radius_m, scn.cell_resolution_deg,
                              dt=scn.dt_s)
    from_library = plan_static(scn)
    from_explicit = plan_static(scn, explicit)
    for f in fields(PlanResult):
        assert getattr(from_library, f.name) == getattr(from_explicit, f.name), f.name
