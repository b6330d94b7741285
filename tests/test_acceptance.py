"""Acceptance suite: one test per shipped criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines.
"""

import functools
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from cgtc.cells import build_cell_set, transform_cell, validate_rules
from cgtc.dynamic_planner import (
    classify_encounter,
    heading_intersection,
    make_encounter,
    plan_dynamic,
    separation_at_critical,
    virtual_obstacle_radius,
)
from cgtc.grid import GridNode, compass_bearing, polar_to_world, signed_degrees, wrap_degrees
from cgtc.harness import compare_planners
from cgtc.relation import RelationSample, fit_poly, pearson
from cgtc.scenario import Scenario, load_scenario
from cgtc.ship import fitted_turn_radius, simulate_turn
from cgtc.static_planner import Obstacle, plan_static, tangent_angles

from conftest import RUDDER_HEADING_TABLE

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {label}")
                raise
            print(f"[PASS] {label}")
        return run
    return wrap


@criterion("criterion 1: correlation of the 12-row table = 0.9957 +/- 0.0005, < 1 ms")
def test_c1_correlation_reproduction():
    xs = [d for d, _ in RUDDER_HEADING_TABLE]
    ys = [t for _, t in RUDDER_HEADING_TABLE]
    pearson(xs, ys)  # warm any lazy setup before timing
    t0 = time.perf_counter()
    r = pearson(xs, ys)
    elapsed = time.perf_counter() - t0
    assert r == pytest.approx(0.9957, abs=0.0005)
    assert elapsed < 1e-3


@criterion("criterion 2: cubic-fit residual stabilization over degrees 1-5, < 10 ms")
def test_c2_cubic_fit_stabilization():
    samples = [RelationSample(d, t) for d, t in RUDDER_HEADING_TABLE]
    fit_poly(samples, 3)
    t0 = time.perf_counter()
    resid = [fit_poly(samples, deg)[1] for deg in range(1, 6)]
    elapsed = time.perf_counter() - t0
    assert all(b <= a + 1e-12 for a, b in zip(resid, resid[1:]))
    assert (resid[2] - resid[3]) < 0.2 * (resid[1] - resid[2])
    assert elapsed < 10e-3


@criterion("criterion 3: default cell set passes Rules 1-3 and splices, < 5 s")
def test_c3_rule_conformance(params):
    t0 = time.perf_counter()
    cells = build_cell_set(params, 6.0 * params.length_m, 5.0)
    assert len(cells.cells) == 37
    for cell in cells.cells:
        report = validate_rules(cell, params)
        assert report.rule1_ok, (cell.heading_change_deg, report)
        assert report.rule2_ok, (cell.heading_change_deg, report)
        assert report.rule3_ok, (cell.heading_change_deg, report)
    u0 = params.steady_speed_mps
    for changes in ((40.0, -25.0), (-90.0, 90.0), (5.0, 0.0)):
        a, b = (cells.cells[cells.nearest_index(change)] for change in changes)
        end = a.samples[-1]
        placed = transform_cell([b], [GridNode(a.end_offset, a.heading_change_deg)])
        jump = (placed[0].heading_deg - end.heading_deg) % 360.0
        assert min(jump, 360.0 - jump) < 0.2
        assert abs(placed[0].u_mps - end.u_mps) < 0.001 * u0
    assert time.perf_counter() - t0 < 5.0


@criterion("criterion 4: port radius exceeds starboard at +/-35, kick is adverse")
def test_c4_asymmetry_and_kick(params):
    stbd = simulate_turn(params, 35.0, 800.0, 0.5)
    port = simulate_turn(params, -35.0, 800.0, 0.5)
    assert fitted_turn_radius(port) > fitted_turn_radius(stbd)
    assert min(s.x_m for s in stbd[:120]) < 0.0


@criterion("criterion 5: multi-obstacle comparison, steering <= 0.6x and length <= 1.0x grid, < 30 s")
def test_c5_comparison_analog():
    t0 = time.perf_counter()
    scenario = load_scenario(SCENARIO_DIR / "fig25_analog.json")
    report = compare_planners(scenario)
    assert report.circle is not None and report.circle.reached
    assert report.grid is not None and report.grid.reached
    assert report.circle.min_clearance_m > 0.0
    assert report.grid.min_clearance_m > 0.0
    assert report.steering_ratio is not None and report.steering_ratio <= 0.6
    assert report.length_ratio is not None and report.length_ratio <= 1.0
    assert time.perf_counter() - t0 < 30.0


@criterion("criterion 6: command sign pattern for bearing-37 run and headings 40-90")
def test_c6_command_sign_pattern(params, cells600):
    dist = 8 * 600.0
    dest = (dist * math.sin(math.radians(37.0)), dist * math.cos(math.radians(37.0)))
    sc = Scenario(mode="free", ship=params, start_x_m=0.0, start_y_m=0.0,
                  start_heading_deg=0.0, dest_x_m=dest[0], dest_y_m=dest[1],
                  circle_radius_m=600.0, max_steps=40)
    res = plan_static(sc, cells=cells600)
    cmds = res.rudder_commands
    assert cmds[0] > 0.0
    first_negative = next(i for i, c in enumerate(cmds) if c < 0.0)
    prefix = cmds[:first_negative + 1]
    assert all(b < a for a, b in zip(prefix, prefix[1:]))

    for heading in range(40, 100, 10):
        sc_h = Scenario(mode="free", ship=params, start_x_m=0.0, start_y_m=0.0,
                        start_heading_deg=float(heading), dest_x_m=dest[0],
                        dest_y_m=dest[1], circle_radius_m=600.0, max_steps=40)
        res_h = plan_static(sc_h, cells=cells600)
        assert res_h.rudder_commands[0] < 0.0, heading


@criterion("criterion 7: dynamic situations 1-3 keep separation > 1500 m, < 60 s")
def test_c7_dynamic_situations():
    t0 = time.perf_counter()
    for name in ("dynamic_sit1_own_first", "dynamic_sit2_obstacle_first"):
        sc = load_scenario(SCENARIO_DIR / f"{name}.json")
        res = plan_dynamic(sc)
        assert res.reached, name
        assert res.steering_count == 0, name
        assert res.min_separation_m > 1500.0, (name, res.min_separation_m)

    sc = load_scenario(SCENARIO_DIR / "dynamic_sit3_must_steer.json")
    res = plan_dynamic(sc)
    assert res.reached
    assert res.min_separation_m > 1500.0
    own0 = GridNode(position=(sc.start_x_m, sc.start_y_m), heading_deg=sc.start_heading_deg)
    meeting = heading_intersection(own0, sc.obstacles[0])
    first_steer = next(i for i, c in enumerate(res.rudder_commands) if abs(c) >= 1.0)
    assert res.nodes[first_steer].position[1] < meeting[1]
    assert time.perf_counter() - t0 < 60.0


@criterion("criterion 8: maintain-speed bound is sharp on the crossing geometry")
def test_c8_speed_bound_sharpness():
    # own north at 10 m/s from origin; obstacle east-bound through (−1700, 2000)
    vs = 10.0
    sep = 600.0 + 900.0
    own0 = GridNode(position=(0.0, 0.0), heading_deg=0.0)

    def min_sep(vo, dt=0.05, horizon=900.0):
        best = math.inf
        t = 0.0
        while t <= horizon:
            own = (0.0, vs * t)
            obs = (-1700.0 + vo * t, 2000.0)
            best = min(best, math.dist(own, obs))
            t += dt
        return best

    enc = make_encounter(own0, vs,
                         Obstacle(center=(-1700.0, 2000.0), radius_m=900.0,
                                  speed_mps=1.0, course_deg=90.0), 600.0, 900.0)
    v_lo = classify_encounter(enc).v_lo_mps
    assert v_lo == pytest.approx(1.0)
    at_bound = min_sep(v_lo)
    below = min_sep(0.9 * v_lo)
    above = min_sep(1.1 * v_lo)
    assert abs(at_bound - sep) < 0.01 * sep
    assert below > at_bound
    assert above < at_bound


@criterion("criterion 9: virtual radius active and matching a 1 m dense scan, 20 encounters")
def test_c9_virtual_radius_activeness():
    rng = random.Random(17)
    own0 = GridNode(position=(0.0, 0.0), heading_deg=0.0)
    checked = 0
    while checked < 20:
        vs = rng.uniform(8.0, 12.0)
        cm = rng.uniform(2200.0, 3800.0)
        om = rng.uniform(0.85, 1.25) * cm
        cross = rng.uniform(70.0, 110.0)
        course = rng.choice([cross, 360.0 - cross])
        h = math.radians(course)
        obs_xy = (-om * math.sin(h), cm - om * math.cos(h))
        v_lo = vs * (om - 1500.0) / cm
        v_hi = vs * om / (cm - 1500.0)
        if v_lo <= 0:
            continue
        vo = rng.uniform(v_lo + 0.35 * (v_hi - v_lo), v_lo + 0.8 * (v_hi - v_lo))
        obstacle = Obstacle(center=obs_xy, radius_m=900.0, speed_mps=vo,
                            course_deg=course)
        enc = make_encounter(own0, vs, obstacle, 600.0, 900.0)
        if separation_at_critical(enc, 0.0) >= 0.0:
            continue  # no disc needed: activeness is not defined for these
        v = virtual_obstacle_radius(enc)
        assert abs(separation_at_critical(enc, v.radius_m)) < 1.0

        rx = 1.0
        scan = None
        while rx < cm:
            if separation_at_critical(enc, rx) >= 0.0:
                scan = rx
                break
            rx += 1.0
        assert scan is not None
        assert abs(v.radius_m - scan) <= 2.0
        checked += 1


@criterion("criterion 10: tangent bearings match brute force; polar/bearing round trip")
def test_c10_geometry_oracles():
    rng = random.Random(5)
    for _ in range(100):
        cx, cy = rng.uniform(-5000, 5000), rng.uniform(-5000, 5000)
        r = rng.uniform(50.0, 1500.0)
        d = rng.uniform(r * 1.05, r * 8.0)
        theta = rng.uniform(0.0, 360.0)
        px = cx - d * math.sin(math.radians(theta))
        py = cy - d * math.cos(math.radians(theta))
        obstacle = Obstacle(center=(cx, cy), radius_m=r)
        left, right = tangent_angles((px, py), obstacle)

        center_bearing = compass_bearing((px, py), (cx, cy))
        # the boundary at 0.01 deg steps, seen from the point: each bearing
        # wrapped to [0, 360), then signed from the centre bearing
        a = np.radians(-180.0 + 0.01 * np.arange(36001))
        bearing = np.degrees(np.arctan2(cx + r * np.sin(a) - px,
                                        cy + r * np.cos(a) - py)) % 360.0
        diff = (bearing - center_bearing) % 360.0
        diff = np.where(diff > 180.0, diff - 360.0, diff)
        lo, hi = min(0.0, float(diff.min())), max(0.0, float(diff.max()))
        assert abs(signed_degrees(left - wrap_degrees(center_bearing + lo))) < 0.02
        assert abs(signed_degrees(right - wrap_degrees(center_bearing + hi))) < 0.02

    for _ in range(500):
        c = (rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4))
        radius = rng.uniform(1e-2, 1e5)
        alpha = rng.uniform(0.0, 360.0)
        p = polar_to_world(c, radius, alpha)
        assert abs(signed_degrees(compass_bearing(c, p) - alpha)) < 1e-9
