"""Tangency geometry and the static planning loop."""

import dataclasses
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cgtc import static_planner as static_mod
from cgtc.baseline import grid_baseline_plan
from cgtc.cells import build_cell_set
from cgtc.dynamic_planner import plan_dynamic
from cgtc.errors import (
    DestinationInsideObstacle,
    InsideObstacle,
    NoGridPath,
    StartInsideObstacle,
    ValidationError,
)
from cgtc.grid import GridNode, compass_bearing, signed_degrees, wrap_degrees
from cgtc.harness import scenario_is_safe
from cgtc.scenario import Scenario, load_scenario
from cgtc.ship import ShipParams
from cgtc.static_planner import (
    STEERING_THRESHOLD_DEG,
    Engagement,
    HeadingDecision,
    Obstacle,
    _polyline_gap,
    _screen,
    clearance,
    decide_heading,
    plan_static,
)
from conftest import mirror_scenario, segment_minimum, sequential_path_length


SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def brute_force_tangents(point, obstacle, step_deg=0.01):
    """Extreme bearings of obstacle-boundary points seen from `point`."""
    cx, cy = obstacle.center
    center_bearing = compass_bearing(point, obstacle.center)
    lo = hi = 0.0
    a = -180.0
    while a <= 180.0:
        px = cx + obstacle.radius_m * math.sin(math.radians(a))
        py = cy + obstacle.radius_m * math.cos(math.radians(a))
        diff = signed_degrees(compass_bearing(point, (px, py)) - center_bearing)
        lo = min(lo, diff)
        hi = max(hi, diff)
        a += step_deg
    return wrap_degrees(center_bearing + lo), wrap_degrees(center_bearing + hi)


def tangent_pair(point, obstacle):
    """_screen's tangent pair: heading and destination bearing both at the
    obstacle's centre, so the obstacle always blocks."""
    c = compass_bearing(point, obstacle.center)
    return _screen(point, obstacle, c, c)


class TestTangentAngles:
    def test_obstacle_due_north(self):
        left, right = tangent_pair((0.0, 0.0), Obstacle(center=(0.0, 1000.0), radius_m=500.0))
        assert left == pytest.approx(330.0, abs=1e-9)
        assert right == pytest.approx(30.0, abs=1e-9)

    def test_obstacle_due_east(self):
        left, right = tangent_pair((0.0, 0.0), Obstacle(center=(1000.0, 0.0), radius_m=500.0))
        assert left == pytest.approx(60.0, abs=1e-9)
        assert right == pytest.approx(120.0, abs=1e-9)

    def test_matches_brute_force_scan(self):
        obstacle = Obstacle(center=(800.0, 600.0), radius_m=250.0)
        left, right = tangent_pair((0.0, 0.0), obstacle)
        bf_left, bf_right = brute_force_tangents((0.0, 0.0), obstacle, step_deg=0.01)
        assert abs(signed_degrees(left - bf_left)) < 0.02
        assert abs(signed_degrees(right - bf_right)) < 0.02

    def test_inside_obstacle_raises(self):
        with pytest.raises(InsideObstacle):
            tangent_pair((0.0, 0.0), Obstacle(center=(10.0, 0.0), radius_m=50.0))


class TestSelectHeadingFree:
    def test_straight_ahead(self):
        pose = GridNode(position=(0.0, 0.0), heading_deg=0.0)
        d = decide_heading(pose, (0.0, 5000.0), [], Engagement())[0]
        assert d.heading_change_deg == pytest.approx(0.0, abs=1e-12)

    def test_one_step_at_37(self):
        pose = GridNode(position=(0.0, 0.0), heading_deg=0.0)
        target = (5000.0 * math.sin(math.radians(37)), 5000.0 * math.cos(math.radians(37)))
        d = decide_heading(pose, target, [], Engagement())[0]
        assert d.heading_change_deg == pytest.approx(37.0, abs=1e-9)

    def test_two_step_beyond_max(self):
        pose = GridNode(position=(0.0, 0.0), heading_deg=0.0)
        target = (5000.0 * math.sin(math.radians(135)), 5000.0 * math.cos(math.radians(135)))
        d = decide_heading(pose, target, [], Engagement())[0]
        assert d.heading_change_deg == pytest.approx(90.0)


class TestSelectHeadingStatic:
    def test_reduces_to_free_without_obstacles(self):
        """With nothing blocking, the decision aims at the destination, with
        no side, and the engagement ends."""
        pose = GridNode(position=(0.0, 0.0), heading_deg=10.0)
        dest = (3000.0, 4000.0)
        free = HeadingDecision(signed_degrees(compass_bearing(pose.position, dest) - 10.0))
        astern = Obstacle(center=(0.0, -2000.0), radius_m=500.0)
        for tracked in ([], [(0, astern)]):
            assert decide_heading(pose, dest, tracked, Engagement(+1, frozenset({0}))) == \
                (free, Engagement())

    def test_symmetric_obstacle_tie_breaks_starboard(self):
        pose = GridNode(position=(0.0, 0.0), heading_deg=0.0)
        obstacle = Obstacle(center=(0.0, 2000.0), radius_m=500.0)
        d = decide_heading(pose, (0.0, 4000.0), [(0, obstacle)], Engagement())[0]
        expect = math.degrees(math.asin(500.0 / 2000.0))
        assert d.heading_change_deg == pytest.approx(expect, abs=1e-6)
        assert d.avoid_side == +1

    def test_multi_obstacle_start_matches_brute_force(self):
        """Every tangent bearing of every blocking obstacle is a candidate;
        the planner must pick the extreme one nearest the destination bearing."""
        pose = GridNode(position=(0.0, 0.0), heading_deg=0.0)
        dest = (400.0, 6400.0)
        obstacles = [Obstacle(center=(-500.0, 1700.0), radius_m=650.0),
                     Obstacle(center=(450.0, 2300.0), radius_m=700.0),
                     Obstacle(center=(450.0, 4600.0), radius_m=650.0)]
        dest_bearing = compass_bearing(pose.position, dest)
        diffs = []
        for o in obstacles:
            for tangent in brute_force_tangents(pose.position, o, step_deg=0.05):
                diffs.append(signed_degrees(tangent - dest_bearing))
        port_most, stbd_most = min(diffs), max(diffs)
        expected = port_most if abs(port_most) < abs(stbd_most) else stbd_most
        d = decide_heading(pose, dest, list(enumerate(obstacles)), Engagement())[0]
        chosen_diff = signed_degrees(pose.heading_deg + d.heading_change_deg - dest_bearing)
        assert chosen_diff == pytest.approx(expected, abs=0.1)

    def test_each_obstacle_screened_once_per_decision(self, monkeypatch):
        screened = []
        real_screen = static_mod._screen

        def counting(current, obstacle, *args):
            screened.append(obstacle)
            return real_screen(current, obstacle, *args)

        monkeypatch.setattr(static_mod, "_screen", counting)
        obstacles = [Obstacle(center=(-500.0, 1700.0), radius_m=650.0),
                     Obstacle(center=(450.0, 2300.0), radius_m=700.0),
                     Obstacle(center=(3000.0, -2000.0), radius_m=300.0)]  # astern
        tracked = list(enumerate(obstacles))
        engagement = Engagement()
        pose = GridNode(position=(0.0, 0.0), heading_deg=0.0)
        for _ in range(2):  # a fresh episode, then the committed side
            _, engagement = decide_heading(pose, (400.0, 6400.0), tracked, engagement)
            assert screened == obstacles
            screened.clear()
        assert engagement.ids == frozenset({0, 1})

    def test_pose_inside_second_disc_names_it(self):
        """The first tracked disc holding the pose raises, with its own center
        and radius, though the first disc blocks and is screened before it."""
        ahead = Obstacle(center=(0.0, 2000.0), radius_m=500.0)
        around = Obstacle(center=(30.0, -40.0), radius_m=100.0)
        pose = GridNode(position=(0.0, 0.0), heading_deg=0.0)
        with pytest.raises(InsideObstacle) as err:
            decide_heading(pose, (0.0, 5000.0), [(0, ahead), (1, around)], Engagement())
        assert str(err.value) == "point (0.0, 0.0) is inside obstacle at (30.0, -40.0) (r=100.0)"


def bypassed(pose, obstacle, destination):
    """_screen's verdict at a pose: None is an obstacle no longer tracked."""
    dest_bearing = compass_bearing(pose.position, destination)
    return _screen(pose.position, obstacle, pose.heading_deg, dest_bearing) is None


class TestIsBypassed:
    def test_obstacle_astern(self):
        pose = GridNode(position=(0.0, 0.0), heading_deg=0.0)
        assert bypassed(pose, Obstacle(center=(0.0, -2000.0), radius_m=500.0), (0.0, 5000.0))

    def test_obstacle_dead_ahead(self):
        pose = GridNode(position=(0.0, 0.0), heading_deg=0.0)
        assert not bypassed(pose, Obstacle(center=(0.0, 2000.0), radius_m=500.0),
                            (0.0, 5000.0))

    def test_cone_cleared(self):
        pose = GridNode(position=(0.0, 0.0), heading_deg=0.0)
        # obstacle well off to the side of the destination bearing
        assert bypassed(pose, Obstacle(center=(3000.0, 500.0), radius_m=400.0), (0.0, 5000.0))


def fig20_scenario(params):
    return Scenario(
        mode="static", ship=params,
        start_x_m=0.0, start_y_m=0.0, start_heading_deg=0.0,
        dest_x_m=400.0, dest_y_m=6400.0,
        circle_radius_m=600.0, max_steps=60,
        obstacles=[Obstacle(center=(-500.0, 1700.0), radius_m=650.0),
                   Obstacle(center=(450.0, 2300.0), radius_m=700.0),
                   Obstacle(center=(450.0, 4600.0), radius_m=650.0)],
    )


class TestPlanStatic:
    def test_free_water_straight(self, params, cells600):
        sc = Scenario(mode="free", ship=params, start_x_m=0.0, start_y_m=0.0,
                      start_heading_deg=0.0, dest_x_m=0.0, dest_y_m=6000.0,
                      circle_radius_m=600.0, max_steps=40)
        res = plan_static(sc, cells=cells600)
        assert res.reached
        assert res.steering_count == 0
        assert len(res.rudder_commands) == 10
        assert all(abs(c) < 1e-6 for c in res.heading_changes_deg)

    def test_multi_obstacle_clearance_positive(self, params):
        res = plan_static(fig20_scenario(params))
        assert res.reached
        assert res.min_clearance_m > 0.0

    def test_second_obstacle_bypassed_en_route(self, params, cells600):
        sc = fig20_scenario(params)
        res = plan_static(sc, cells=cells600)
        o2 = sc.obstacles[1]
        dest = (sc.dest_x_m, sc.dest_y_m)
        flags = [bypassed(n, o2, dest) for n in res.nodes]
        assert not flags[0]
        assert any(flags)
        # once the obstacle is passed it stays passed
        first = flags.index(True)
        assert all(flags[first:])

    def test_reduction_to_free_water(self, params, cells600):
        kwargs = dict(ship=params, start_x_m=0.0, start_y_m=0.0, start_heading_deg=10.0,
                      dest_x_m=2500.0, dest_y_m=5500.0, circle_radius_m=600.0, max_steps=40)
        free = plan_static(Scenario(mode="free", **kwargs), cells=cells600)
        static = plan_static(Scenario(mode="static", obstacles=[], **kwargs), cells=cells600)
        assert free.rudder_commands == static.rudder_commands
        assert [n.position for n in free.nodes] == [n.position for n in static.nodes]

    def test_mirror_symmetry(self, cells600):
        params = ShipParams(asymmetry_factor=1.0)
        sc = Scenario(mode="static", ship=params, start_x_m=0.0, start_y_m=0.0,
                      start_heading_deg=0.0, dest_x_m=1500.0, dest_y_m=5200.0,
                      circle_radius_m=600.0, max_steps=40,
                      obstacles=[Obstacle(center=(600.0, 2500.0), radius_m=550.0)])
        fwd = plan_static(sc)
        rev = plan_static(mirror_scenario(sc))
        assert len(fwd.nodes) == len(rev.nodes)
        for a, b in zip(fwd.nodes, rev.nodes):
            assert a.position[0] == pytest.approx(-b.position[0], abs=1e-6)
            assert a.position[1] == pytest.approx(b.position[1], abs=1e-6)
        for ca, cb in zip(fwd.rudder_commands, rev.rudder_commands):
            assert ca == pytest.approx(-cb, abs=1e-6)

    def test_tangency_tracking_converges(self, params, cells600):
        """Distance from each new node to the previously chosen tangent ray
        must not grow while a single obstacle is being tracked."""
        sc = Scenario(mode="static", ship=params, start_x_m=0.0, start_y_m=0.0,
                      start_heading_deg=0.0, dest_x_m=0.0, dest_y_m=6000.0,
                      circle_radius_m=600.0, max_steps=40,
                      obstacles=[Obstacle(center=(0.0, 3000.0), radius_m=700.0)])
        res = plan_static(sc, cells=cells600)
        assert res.reached and res.min_clearance_m > 0.0

        from cgtc.static_planner import Engagement, decide_heading
        engagement = Engagement()
        tracked = list(enumerate(sc.obstacles))
        dest = (sc.dest_x_m, sc.dest_y_m)
        dists = []
        for node, nxt in zip(res.nodes, res.nodes[1:]):
            decision, engagement = decide_heading(node, dest, tracked, engagement)
            if engagement.side is None:
                break  # obstacle bypassed: tracking episode over
            ray = math.radians(node.heading_deg + decision.heading_change_deg)
            dx, dy = math.sin(ray), math.cos(ray)
            px = nxt.position[0] - node.position[0]
            py = nxt.position[1] - node.position[1]
            dists.append(abs(px * dy - py * dx))
        assert len(dists) >= 2
        assert all(b <= a + 1e-6 for a, b in zip(dists[1:], dists[2:]))

    def test_start_or_destination_inside_obstacle(self, params, cells600):
        base = dict(ship=params, start_heading_deg=0.0, circle_radius_m=600.0,
                    max_steps=10, obstacles=[Obstacle(center=(0.0, 0.0), radius_m=500.0)])
        with pytest.raises(StartInsideObstacle):
            plan_static(Scenario(mode="static", start_x_m=0.0, start_y_m=100.0,
                                 dest_x_m=0.0, dest_y_m=5000.0, **base), cells=cells600)
        with pytest.raises(DestinationInsideObstacle):
            plan_static(Scenario(mode="static", start_x_m=0.0, start_y_m=-3000.0,
                                 dest_x_m=100.0, dest_y_m=0.0, **base), cells=cells600)

    def test_step_budget_exhaustion_is_partial_result(self, params, cells600):
        sc = Scenario(mode="free", ship=params, start_x_m=0.0, start_y_m=0.0,
                      start_heading_deg=0.0, dest_x_m=0.0, dest_y_m=60000.0,
                      circle_radius_m=600.0, max_steps=5)
        res = plan_static(sc, cells=cells600)
        assert not res.reached
        assert len(res.rudder_commands) == 5
        assert len(res.nodes) == 6


def test_safety_over_random_two_obstacle_scenes(params, cells600):
    """Every trajectory sample stays outside every inflated disc."""
    rng = random.Random(2024)
    produced = 0
    while produced < 6:
        ox = rng.uniform(-700, 700)
        oy = rng.uniform(2000, 3500)
        r = rng.uniform(500, 700)
        o2x = rng.uniform(-700, 700)
        o2y = oy + rng.uniform(1800, 2600)
        obstacles = [Obstacle(center=(ox, oy), radius_m=r),
                     Obstacle(center=(o2x, o2y), radius_m=rng.uniform(500, 700))]
        dest = (rng.uniform(-400, 400), 7500.0)
        if any(math.dist((0, 0), o.center) <= o.radius_m + 150 for o in obstacles):
            continue
        if any(math.dist(dest, o.center) <= o.radius_m + 150 for o in obstacles):
            continue
        sc = Scenario(mode="static", ship=params, start_x_m=0.0, start_y_m=0.0,
                      start_heading_deg=0.0, dest_x_m=dest[0], dest_y_m=dest[1],
                      circle_radius_m=600.0, max_steps=60, obstacles=obstacles)
        res = plan_static(sc, cells=cells600)
        produced += 1
        for s in res.trajectory:
            for o in obstacles:
                assert math.dist((s.x_m, s.y_m), o.center) > o.radius_m


def arc_sum(result) -> float:
    """math.fsum of the executed cells' arc_length_m, 0.0 when none ran."""
    return math.fsum(c.arc_length_m for c in result.executed_cells)


@pytest.mark.parametrize("planner", [plan_static, plan_dynamic, grid_baseline_plan])
def test_start_within_reach_tolerance(planner):
    """Already at the destination: no cell runs, clearance is the start's."""
    static = Obstacle(center=(2000.0, 2000.0), radius_m=500.0)
    mover = Obstacle(center=(-3000.0, 3000.0), radius_m=600.0,
                     speed_mps=5.0, course_deg=90.0)
    dynamic = planner is plan_dynamic
    sc = Scenario(mode="dynamic" if dynamic else "static", ship=ShipParams(),
                  start_x_m=0.0, start_y_m=0.0, start_heading_deg=0.0,
                  dest_x_m=0.0, dest_y_m=100.0, circle_radius_m=600.0,
                  obstacles=[static, mover] if dynamic else [static])
    result = planner(sc)
    assert result.reached
    assert result.trajectory == []
    assert result.path_length_m == 0.0
    assert result.min_clearance_m == pytest.approx(math.dist((0.0, 0.0), static.center)
                                                   - static.radius_m)


@pytest.mark.parametrize("planner, name", [
    (planner, path.stem)
    for path in sorted(SCENARIO_DIR.glob("*.json"))
    for planner in ((plan_dynamic,) if path.stem.startswith("dynamic")
                    else (plan_static, grid_baseline_plan))
])
def test_executor_contract(planner, name):
    """Every planner's result is consistent with its own trajectory and commands."""
    result = planner(load_scenario(SCENARIO_DIR / f"{name}.json"))
    times = result.sample_times_s
    assert result.trajectory and len(times) == len(result.trajectory)
    assert all(a < b for a, b in zip(times, times[1:]))
    assert (len(result.nodes) == len(result.rudder_commands) + 1
            == len(result.heading_changes_deg) + 1)
    pts = [(s.x_m, s.y_m) for s in result.trajectory]
    length = sum(math.dist(a, b) for a, b in zip(pts, pts[1:]))
    assert result.path_length_m == pytest.approx(length, rel=1e-12)
    assert result.path_length_m == pytest.approx(
        sequential_path_length(result.trajectory, pts[0]), rel=1e-12)
    assert result.path_length_m.hex() == arc_sum(result).hex()
    assert result.steering_count == sum(
        1 for c in result.rudder_commands if abs(c) >= STEERING_THRESHOLD_DEG)


@pytest.mark.parametrize("planner", [plan_static, plan_dynamic, grid_baseline_plan])
@pytest.mark.parametrize("dest_y_m, cells_run", [(100.0, 0), (700.0, 1), (2500.0, None)])
def test_path_length_is_the_sequential_sum(planner, dest_y_m, cells_run):
    """path_length_m is the correctly rounded sum of the executed cells'
    arcs, bit for bit, and conftest.sequential_path_length's loop over the
    samples to within rounding, for a plan that runs no cell, one cell or
    several."""
    static = Obstacle(center=(1500.0, 1200.0), radius_m=300.0)
    mover = Obstacle(center=(-3000.0, 3000.0), radius_m=600.0,
                     speed_mps=5.0, course_deg=90.0)
    dynamic = planner is plan_dynamic
    sc = Scenario(mode="dynamic" if dynamic else "static", ship=ShipParams(),
                  start_x_m=10.0, start_y_m=-20.0, start_heading_deg=40.0,
                  dest_x_m=10.0, dest_y_m=dest_y_m, circle_radius_m=600.0,
                  obstacles=[static, mover] if dynamic else [static])
    result = planner(sc)
    assert cells_run is None or len(result.executed_cells) == cells_run
    assert result.path_length_m.hex() == arc_sum(result).hex()
    assert result.path_length_m == pytest.approx(
        sequential_path_length(result.trajectory, (10.0, -20.0)), rel=1e-12)


@pytest.mark.parametrize("planner", [plan_static, plan_dynamic, grid_baseline_plan])
@pytest.mark.parametrize("radius_m, resolution_deg", [(650.0, 5.0), (600.0, 2.0)])
def test_cell_set_of_another_grid_rejected(planner, radius_m, resolution_deg, cells600):
    mover = Obstacle(center=(-3000.0, 3000.0), radius_m=600.0,
                     speed_mps=5.0, course_deg=90.0)
    dynamic = planner is plan_dynamic
    sc = Scenario(mode="dynamic" if dynamic else "free", ship=ShipParams(),
                  start_x_m=0.0, start_y_m=0.0, start_heading_deg=0.0,
                  dest_x_m=0.0, dest_y_m=3000.0, circle_radius_m=radius_m,
                  cell_resolution_deg=resolution_deg,
                  obstacles=[mover] if dynamic else [])
    with pytest.raises(ValidationError) as err:
        planner(sc, cells600)
    assert "cell set" in str(err.value)
    # the scenario's own grid plans
    planner(dataclasses.replace(sc, circle_radius_m=600.0, cell_resolution_deg=5.0),
            cells600)


@st.composite
def clouds_and_discs(draw):
    """Sample points and discs around an origin at 0 or near +-1e6 m.

    Some coordinates are whole metres, so that a disc mirrored about a
    sample's x coordinate ties with the original exactly.
    """
    base = draw(st.sampled_from([0.0, 1e6, -1e6 + 0.25, 987654.321]))
    coord = st.floats(-3000.0, 3000.0) | st.integers(-3000, 3000).map(float)
    points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=60))
    discs = draw(st.lists(st.tuples(coord, coord, st.floats(0.5, 2500.0)),
                          min_size=1, max_size=8))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(points) - 1))
        px, py = round(points[i][0]), round(points[i][1])
        cx, cy, r = round(discs[0][0]), round(discs[0][1]), discs[0][2]
        points[i] = (float(px), float(py))
        discs[0] = (float(cx), float(cy), r)
        discs.append((float(2 * px - cx), float(cy), r))
    return ([(base + x, base + y) for x, y in points],
            [Obstacle(center=(base + x, base + y), radius_m=r) for x, y, r in discs])


@settings(max_examples=300, deadline=None)
@given(clouds_and_discs())
@example(([(1e6, 1e6)], [Obstacle(center=(1e6 + 3.0, 1e6), radius_m=1.0),
                         Obstacle(center=(1e6 - 3.0, 1e6), radius_m=1.0)]))
# np.hypot and math.dist differ by one ulp on both samples here: the
# screened minimum is not the exact one, and it sits at the other sample
@example(([(1235.0779794678037, 2519.1772667617715), (12820.602570464249, 2934.1077506941883)],
          [Obstacle(center=(0.0, 0.0), radius_m=1.0),
           Obstacle(center=(10000.0, 0.0), radius_m=1265.3361734019675)]))
@example(([(0.0, 0.0), (0.0, 1.0)], [Obstacle(center=(0.0, 5.0), radius_m=2.0),
                                     Obstacle(center=(0.0, -4.0), radius_m=2.0)]))
def test_min_clearance_equals_segment_minimum(case):
    """The numpy screen finds the segment-by-segment minimum exactly, and it
    is never above the point-by-point minimum by more than rounding."""
    points, obstacles = case
    discs = [(o.center, o.radius_m) for o in obstacles]
    expected = segment_minimum(points, discs)
    got = _polyline_gap(np.array(points, dtype=np.float64).T, discs)
    assert got.hex() == expected.hex()
    scale = max(max(map(abs, p)) for p in [*points, *(o.center for o in obstacles)])
    slack = 16 * math.ulp(scale + max(o.radius_m for o in obstacles))
    assert got <= min(clearance(p, obstacles) for p in points) + slack


@pytest.mark.parametrize("planner", [plan_static, grid_baseline_plan])
def test_chord_through_a_disc_between_clear_samples(planner):
    """A 1 m disc 2.5 m ahead of the start sits between the first two
    samples, 3.85 m apart: both clear it by 0.44 m, but the straight run
    between them passes 0.5 m inside it, so the plan is unsafe."""
    disc = Obstacle(center=(0.5, 2.5), radius_m=1.0)
    sc = Scenario(mode="static", ship=ShipParams(), start_x_m=0.0, start_y_m=0.0,
                  start_heading_deg=0.0, dest_x_m=0.0, dest_y_m=3000.0,
                  circle_radius_m=600.0, obstacles=[disc])
    result = planner(sc)
    assert result.reached
    assert min(clearance((s.x_m, s.y_m), [disc]) for s in result.trajectory) > 0.0
    assert result.min_clearance_m == -0.5
    assert not scenario_is_safe(sc, result)


@pytest.mark.parametrize("bad", [{"center": (math.nan, 0.0)}, {"center": (0.0, math.inf)},
                                 {"radius_m": math.nan}, {"radius_m": math.inf},
                                 {"speed_mps": math.nan}, {"course_deg": -math.inf}])
def test_obstacle_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        Obstacle(**{"center": (0.0, 0.0), "radius_m": 100.0, **bad})


@pytest.mark.parametrize("bad, message", [({"radius_m": 0.0}, "radius must be positive"),
                                          ({"radius_m": -100.0}, "radius must be positive"),
                                          ({"speed_mps": -1.0}, "speed must be non-negative")])
def test_obstacle_rejects_out_of_range(bad, message):
    with pytest.raises(ValueError, match=message):
        Obstacle(**{"center": (0.0, 0.0), "radius_m": 100.0, **bad})


def scenario_fields(sc):
    return {f.name: getattr(sc, f.name) for f in dataclasses.fields(Scenario)}


@pytest.fixture(scope="module")
def sets_of_other_builds():
    """15-deg, 600 m sets: the default build, another hull, another dt."""
    return {"own": build_cell_set(ShipParams(), 600.0, 15.0),
            "hull": build_cell_set(ShipParams(steady_speed_mps=10.0), 600.0, 15.0),
            "dt": build_cell_set(ShipParams(), 600.0, 15.0, dt=0.25)}


@pytest.mark.parametrize("planner", [plan_static, plan_dynamic, grid_baseline_plan])
@pytest.mark.parametrize("other", ["hull", "dt"])
def test_cell_set_of_another_hull_or_dt_rejected(planner, other, sets_of_other_builds):
    mover = Obstacle(center=(-3000.0, 3000.0), radius_m=600.0,
                     speed_mps=5.0, course_deg=90.0)
    dynamic = planner is plan_dynamic
    sc = Scenario(mode="dynamic" if dynamic else "free", ship=ShipParams(),
                  start_x_m=0.0, start_y_m=0.0, start_heading_deg=0.0,
                  dest_x_m=0.0, dest_y_m=3000.0, circle_radius_m=600.0,
                  cell_resolution_deg=15.0, obstacles=[mover] if dynamic else [])
    with pytest.raises(ValidationError) as err:
        planner(sc, sets_of_other_builds[other])
    assert "cell set" in str(err.value)
    planner(sc, sets_of_other_builds["own"])


def test_baseline_checks_its_cell_set_before_searching(sets_of_other_builds):
    walled_in = Obstacle(center=(0.0, 3000.0), radius_m=900.0)  # covers the goal node
    sc = Scenario(mode="static", ship=ShipParams(), start_x_m=0.0, start_y_m=0.0,
                  start_heading_deg=0.0, dest_x_m=0.0, dest_y_m=3000.0,
                  circle_radius_m=600.0, cell_resolution_deg=15.0, obstacles=[walled_in])
    with pytest.raises(ValidationError):
        grid_baseline_plan(sc, sets_of_other_builds["hull"])
    with pytest.raises(NoGridPath):
        grid_baseline_plan(sc, sets_of_other_builds["own"])


def test_mirror_twice_restores_fractional_angles():
    mover = Obstacle(center=(-3000.0, 3000.0), radius_m=600.0,
                     speed_mps=5.0, course_deg=0.1)
    sc = Scenario(mode="dynamic", ship=ShipParams(), start_x_m=10.0, start_y_m=0.0,
                  start_heading_deg=0.1, dest_x_m=0.0, dest_y_m=3000.0,
                  circle_radius_m=600.0, obstacles=[mover])
    twice = mirror_scenario(mirror_scenario(sc))
    assert twice.start_heading_deg == 0.1
    assert twice.obstacles[0].course_deg == 0.1


@st.composite
def scenarios(draw):
    """Scenarios with moving obstacles, a domain factor and a reach override.

    Angles are whole degrees in [0, 360); the mirror negates them, so
    mirroring twice restores every bit.
    """
    coord = st.floats(-1e5, 1e5, allow_nan=False)
    angle = st.integers(0, 359).map(float)
    obstacles = draw(st.lists(st.builds(
        Obstacle, center=st.tuples(coord, coord), radius_m=st.floats(1.0, 5000.0),
        speed_mps=st.sampled_from([0.0, 3.5]), course_deg=angle), max_size=4))
    return Scenario(
        mode=draw(st.sampled_from(["static", "dynamic", "free"])),
        ship=ShipParams(asymmetry_factor=draw(st.floats(1.0, 1.5))),
        start_x_m=draw(coord), start_y_m=draw(coord), start_heading_deg=draw(angle),
        dest_x_m=draw(coord), dest_y_m=draw(coord), obstacles=obstacles,
        circle_radius_m=draw(st.none() | st.floats(200.0, 900.0)),
        domain_factor=draw(st.none() | st.floats(4.0, 8.0)),
        reach_tolerance_override_m=draw(st.none() | st.floats(1.0, 900.0)),
        dt_s=draw(st.sampled_from([0.25, 0.5, 1.0])),
        max_steps=draw(st.integers(1, 200)),
        cell_resolution_deg=draw(st.sampled_from([2.0, 5.0, 15.0])),
        name=draw(st.sampled_from(["", "scene"])),
    )


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_mirror_twice_restores_scenario(sc):
    once = mirror_scenario(sc)
    twice = mirror_scenario(once)
    assert once.name == (sc.name + "-mirrored" if sc.name else "")
    assert {**scenario_fields(twice), "name": sc.name} == scenario_fields(sc)
    reflected = {"start_x_m", "start_heading_deg", "dest_x_m", "obstacles", "name"}
    for name, value in scenario_fields(sc).items():
        if name not in reflected:
            assert getattr(once, name) is value, name
    for o, m in zip(sc.obstacles, once.obstacles, strict=True):
        assert (m.center[1], m.radius_m, m.speed_mps) == (o.center[1], o.radius_m, o.speed_mps)


def test_min_clearance_at_start_when_no_cell_runs():
    obstacles = [Obstacle(center=(1e6 + 2000.0, 1e6 + 2000.0), radius_m=500.0),
                 Obstacle(center=(1e6 - 2000.0, 1e6 + 2000.0), radius_m=500.0)]
    sc = Scenario(mode="static", ship=ShipParams(), start_x_m=1e6, start_y_m=1e6,
                  start_heading_deg=0.0, dest_x_m=1e6, dest_y_m=1e6 + 100.0,
                  circle_radius_m=600.0, obstacles=obstacles)
    result = plan_static(sc)
    assert result.trajectory == []
    assert result.min_clearance_m.hex() == clearance((1e6, 1e6), obstacles).hex()
