"""Moving-obstacle encounter analysis and the two-stage dynamic plan."""

import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgtc import dynamic_planner as dynamic_mod
from cgtc.cells import cell_library
from cgtc.dynamic_planner import (
    EncounterClass,
    VirtualObstacle,
    classify_encounter,
    heading_intersection,
    make_encounter,
    min_separation,
    plan_dynamic,
    separation_at_critical,
    virtual_obstacle_radius,
)
from cgtc.errors import (
    LengthMismatch,
    NoFeasibleRadius,
    NoForwardIntersection,
    ParallelCourses,
    ValidationError,
)
from cgtc.grid import GridNode
from cgtc.scenario import Scenario, load_scenario
from cgtc.static_planner import Obstacle
from conftest import segment_minimum

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def own_at(x=0.0, y=0.0, heading=0.0):
    return GridNode(position=(x, y), heading_deg=heading)


def kinematic_min_separation(own_xy, vs, own_heading_deg, obs_xy, vo, course_deg,
                             horizon_s, dt):
    """Constant-velocity sampler used as the independent oracle."""
    hs = math.radians(own_heading_deg)
    ho = math.radians(course_deg)
    best = math.inf
    t = 0.0
    while t <= horizon_s:
        sx = own_xy[0] + vs * t * math.sin(hs)
        sy = own_xy[1] + vs * t * math.cos(hs)
        ox = obs_xy[0] + vo * t * math.sin(ho)
        oy = obs_xy[1] + vo * t * math.cos(ho)
        best = min(best, math.hypot(ox - sx, oy - sy))
        t += dt
    return best


class TestHeadingIntersection:
    def test_perpendicular_crossing(self):
        obstacle = Obstacle(center=(-2000.0, 2000.0), radius_m=900.0,
                            speed_mps=5.0, course_deg=90.0)
        m = heading_intersection(own_at(), obstacle)
        assert m[0] == pytest.approx(0.0, abs=1e-9)
        assert m[1] == pytest.approx(2000.0, abs=1e-9)

    def test_parallel_courses(self):
        obstacle = Obstacle(center=(-2000.0, 2000.0), radius_m=900.0,
                            speed_mps=5.0, course_deg=0.0)
        with pytest.raises(ParallelCourses):
            heading_intersection(own_at(), obstacle)

    def test_no_forward_intersection(self):
        # obstacle heading away: intersection lies behind it
        obstacle = Obstacle(center=(-2000.0, 2000.0), radius_m=900.0,
                            speed_mps=5.0, course_deg=270.0)
        with pytest.raises(NoForwardIntersection):
            heading_intersection(own_at(), obstacle)

    def test_random_rays_satisfy_both_equations(self):
        rng = random.Random(8)
        for _ in range(50):
            h_own = rng.uniform(0, 360)
            h_obs = rng.uniform(0, 360)
            if abs(math.sin(math.radians(h_own - h_obs))) < 1e-3:
                continue
            own = own_at(rng.uniform(-500, 500), rng.uniform(-500, 500), h_own)
            t_own = rng.uniform(500, 4000)
            m_true = (own.position[0] + t_own * math.sin(math.radians(h_own)),
                      own.position[1] + t_own * math.cos(math.radians(h_own)))
            t_obs = rng.uniform(500, 4000)
            obs_pos = (m_true[0] - t_obs * math.sin(math.radians(h_obs)),
                       m_true[1] - t_obs * math.cos(math.radians(h_obs)))
            obstacle = Obstacle(center=obs_pos, radius_m=100.0, speed_mps=3.0,
                                course_deg=h_obs)
            m = heading_intersection(own, obstacle)
            assert m[0] == pytest.approx(m_true[0], abs=1e-6)
            assert m[1] == pytest.approx(m_true[1], abs=1e-6)


class TestClassifyEncounter:
    def encounter(self, vo):
        obstacle = Obstacle(center=(-2000.0, 2000.0), radius_m=900.0,
                            speed_mps=vo, course_deg=90.0)
        return make_encounter(own_at(), 10.0, obstacle, 600.0, 900.0)

    def test_bounds_on_reference_geometry(self):
        cls = classify_encounter(self.encounter(2.0))
        assert cls.v_lo_mps == pytest.approx(2.5)
        assert cls.v_hi_mps == pytest.approx(40.0)

    def test_slow_obstacle_own_first(self):
        assert classify_encounter(self.encounter(2.0)).kind is EncounterClass.MAINTAIN_OWN_FIRST

    def test_fast_obstacle_first(self):
        assert classify_encounter(self.encounter(50.0)).kind is EncounterClass.MAINTAIN_OBSTACLE_FIRST

    def test_between_bounds_must_steer(self):
        assert classify_encounter(self.encounter(10.0)).kind is EncounterClass.MUST_STEER

    def test_degenerate_geometry_flagged(self):
        obstacle = Obstacle(center=(-1200.0, 1200.0), radius_m=900.0,
                            speed_mps=5.0, course_deg=90.0)
        enc = make_encounter(own_at(), 10.0, obstacle, 600.0, 900.0)
        cls = classify_encounter(enc)
        assert cls.kind is EncounterClass.MUST_STEER
        assert cls.degenerate


class TestVirtualObstacleRadius:
    def must_steer_encounter(self, vo=8.0):
        obstacle = Obstacle(center=(-2400.0, 2400.0), radius_m=900.0,
                            speed_mps=vo, course_deg=90.0)
        return make_encounter(own_at(), 10.0, obstacle, 600.0, 900.0)

    def test_constraint_active_at_solution(self):
        enc = self.must_steer_encounter()
        v = virtual_obstacle_radius(enc)
        assert abs(separation_at_critical(enc, v.radius_m)) < 1.0

    def test_matches_dense_scan(self):
        enc = self.must_steer_encounter()
        v = virtual_obstacle_radius(enc)
        cm = math.dist(enc.own_pose.position, enc.meeting_point)
        rx = 1.0
        while rx < cm:
            if separation_at_critical(enc, rx) >= 0.0:
                break
            rx += 1.0
        assert abs(v.radius_m - rx) <= 2.0

    def test_monotone_in_obstacle_speed(self):
        prev = 0.0
        for vo in (6.5, 7.5, 8.5, 9.5, 10.5):
            v = virtual_obstacle_radius(self.must_steer_encounter(vo))
            assert v.radius_m >= prev - 1e-9
            prev = v.radius_m

    def test_planner_disc_is_the_avoid_radius(self):
        v = virtual_obstacle_radius(self.must_steer_encounter())
        assert v.radius_m < v.avoid_radius_m
        assert v.as_obstacle() == Obstacle(center=v.center, radius_m=v.avoid_radius_m)
        with pytest.raises(TypeError):
            VirtualObstacle(center=v.center, radius_m=v.radius_m)

    def test_transit_length_identity(self):
        """The angle and length constructions must agree: the critical own
        position placed via the two tangency angles at run length
        l_s = sqrt(|CM|^2 - R_x^2 + R^2) sits exactly where the own domain
        circle is externally tangent to the virtual disc (|MC_x| = R + R_x)."""
        from cgtc.grid import compass_bearing
        enc = self.must_steer_encounter()
        v = virtual_obstacle_radius(enc)
        c = enc.own_pose.position
        m = enc.meeting_point
        cm = math.dist(c, m)
        l_s = math.sqrt(cm**2 - v.radius_m**2 + enc.R_m**2)
        ang = math.radians(compass_bearing(c, m)
                           + math.degrees(math.asin(v.radius_m / cm))
                           + math.degrees(math.asin(enc.R_m / l_s)))
        c_x = (c[0] + l_s * math.sin(ang), c[1] + l_s * math.cos(ang))
        assert math.dist(c, c_x) == pytest.approx(l_s, rel=1e-9)
        assert math.dist(m, c_x) == pytest.approx(enc.R_m + v.radius_m, rel=1e-6)


def xy_rows(points):
    """A (2, n) own track from (x, y) points."""
    return np.array(points, dtype=np.float64).reshape(-1, 2).T


class TestMinSeparation:
    def test_constant_distance(self):
        own = xy_rows([(0.0, 0.0)] * 10)
        track = [(100.0, 0.0)] * 10
        series, mn = min_separation(own, track)
        assert mn == 100.0
        assert all(d == 100.0 for d in series)

    def test_matches_cpa_closed_form(self):
        # perpendicular constant-velocity crossing
        vs, vo = 10.0, 6.0
        dt = 0.5
        own = xy_rows([(0.0, vs * k * dt) for k in range(600)])
        track = [(-2000.0 + vo * k * dt, 2000.0) for k in range(600)]
        _, mn = min_separation(own, track)
        # closed form: minimize |(vo t - 2000, 2000 - vs t)|
        t_star = (2000.0 * vo + 2000.0 * vs) / (vo**2 + vs**2)
        cpa = math.hypot(vo * t_star - 2000.0, 2000.0 - vs * t_star)
        assert abs(mn - cpa) <= (vs + vo) * dt
        # both tracks are straight, so the segment minimum is the closed form
        assert mn == pytest.approx(cpa, rel=1e-12)

    def test_chord_through_the_domain_between_clear_samples(self):
        """Own ship runs north and the mover west, 10 s apart: both samples
        are 70.7 m off, but the straight runs between them meet at the same
        instant, so the separation along the segment is zero."""
        own = xy_rows([(0.0, 0.0), (0.0, 100.0)])
        track = [(50.0, 50.0), (-50.0, 50.0)]
        series, mn = min_separation(own, track)
        required = 60.0
        assert min(series) == math.hypot(50.0, 50.0) > required
        assert mn == 0.0 < required

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(*[st.floats(-5000.0, 5000.0)] * 4), min_size=1, max_size=40))
    def test_minimum_is_the_segment_minimum(self, rows):
        track = [(x, y) for _, _, x, y in rows]
        series, mn = min_separation(xy_rows([(x, y) for x, y, _, _ in rows]), track)
        relative = [(x - tx, y - ty) for x, y, tx, ty in rows]
        assert mn.hex() == segment_minimum(relative, [((0.0, 0.0), 0.0)]).hex()
        assert mn <= min(series) + 16 * math.ulp(max(max(map(abs, r)) for r in rows))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            min_separation(xy_rows([(0.0, 0.0)] * 3), [(0.0, 0.0)] * 4)


class TestClassificationConsistency:
    """Within the studied crossing envelope, a Maintain classification implies
    the straight-line tracks keep at least the domain-sum separation."""

    def geometries(self):
        rng = random.Random(99)
        sep = 1500.0
        out = []
        while len(out) < 12:
            vs = rng.uniform(9.0, 11.0)
            cm = rng.uniform(2000.0, 3500.0)
            om = rng.uniform(0.85, 1.25) * cm
            if om <= sep + 300.0:
                continue
            cross = rng.uniform(75.0, 105.0)
            course = rng.choice([cross, 360.0 - cross])
            h = math.radians(course)
            obs = (-om * math.sin(h), cm - om * math.cos(h))
            out.append((vs, cm, om, course, obs))
        return out

    def test_own_first_consistency(self):
        sep = 1500.0
        for vs, cm, om, course, obs in self.geometries():
            v_lo = vs * (om - sep) / cm
            vo = 0.6 * v_lo
            obstacle = Obstacle(center=obs, radius_m=900.0, speed_mps=vo, course_deg=course)
            enc = make_encounter(own_at(), vs, obstacle, 600.0, 900.0)
            assert classify_encounter(enc).kind is EncounterClass.MAINTAIN_OWN_FIRST
            mn = kinematic_min_separation((0, 0), vs, 0.0, obs, vo, course,
                                          3.0 * (cm + om) / vs, 0.25)
            assert mn >= sep

    def test_obstacle_first_consistency(self):
        sep = 1500.0
        for vs, cm, om, course, obs in self.geometries():
            v_hi = vs * om / (cm - sep)
            vo = 1.5 * v_hi
            obstacle = Obstacle(center=obs, radius_m=900.0, speed_mps=vo, course_deg=course)
            enc = make_encounter(own_at(), vs, obstacle, 600.0, 900.0)
            assert classify_encounter(enc).kind is EncounterClass.MAINTAIN_OBSTACLE_FIRST
            mn = kinematic_min_separation((0, 0), vs, 0.0, obs, vo, course,
                                          3.0 * (cm + om) / vs, 0.25)
            assert mn >= sep


class TestPlanDynamic:
    def test_maintain_scenarios_no_steering(self):
        for name in ("dynamic_sit1_own_first", "dynamic_sit2_obstacle_first"):
            sc = load_scenario(SCENARIO_DIR / f"{name}.json")
            res = plan_dynamic(sc)
            assert res.reached, name
            assert res.steering_count == 0, name
            assert res.min_separation_m > 1500.0, name

    def test_must_steer_scenario(self):
        sc = load_scenario(SCENARIO_DIR / "dynamic_sit3_must_steer.json")
        res = plan_dynamic(sc)
        assert res.reached
        assert res.min_separation_m > 1500.0
        # at least one steering issued before own ship reaches the meeting point
        mover = sc.obstacles[0]
        m = heading_intersection(own_at(sc.start_x_m, sc.start_y_m,
                                        sc.start_heading_deg), mover)
        first_big = next(i for i, c in enumerate(res.rudder_commands) if abs(c) >= 1.0)
        node_at_cmd = res.nodes[first_big]
        assert node_at_cmd.position[1] < m[1]

    def test_stage_one_never_enters_obstacle_disc(self):
        sc = load_scenario(SCENARIO_DIR / "dynamic_sit3_must_steer.json")
        res = plan_dynamic(sc)
        mover = sc.obstacles[0]
        for s, t in zip(res.trajectory, res.sample_times_s):
            assert math.dist((s.x_m, s.y_m), mover.position_at(t)) > mover.radius_m

    def test_no_feasible_radius_turns_full_starboard(self, monkeypatch):
        def infeasible(enc):
            raise NoFeasibleRadius("no virtual radius resolves the encounter")

        monkeypatch.setattr(dynamic_mod, "virtual_obstacle_radius", infeasible)
        sc = load_scenario(SCENARIO_DIR / "dynamic_sit3_must_steer.json")
        cells = cell_library(sc.ship, sc.radius_m, sc.cell_resolution_deg, dt=sc.dt_s)
        res = plan_dynamic(sc)
        assert res.heading_changes_deg[0] == cells.cells[-1].heading_change_deg
        assert cells.cells[-1].heading_change_deg == pytest.approx(90.0, abs=0.1)
        assert res.rudder_commands[0] == cells.command_for(90.0)

    def test_separation_series_shape(self):
        sc = load_scenario(SCENARIO_DIR / "dynamic_sit1_own_first.json")
        res = plan_dynamic(sc)
        assert len(res.separation_m) == len(res.trajectory) == len(res.sample_times_s)
        mover = sc.obstacles[0]
        relative = [(s.x_m - mover.position_at(t)[0], s.y_m - mover.position_at(t)[1])
                    for s, t in zip(res.trajectory, res.sample_times_s)]
        assert res.min_separation_m == segment_minimum(relative, [((0.0, 0.0), 0.0)])
        assert res.min_separation_m <= min(res.separation_m)

    @pytest.mark.parametrize("name", ["dynamic_sit1_own_first",
                                      "dynamic_sit2_obstacle_first",
                                      "dynamic_sit3_must_steer"])
    def test_separation_equals_per_sample_distance(self, name):
        """The mover's track at all sample times equals position_at(t), bit for bit."""
        sc = load_scenario(SCENARIO_DIR / f"{name}.json")
        res = plan_dynamic(sc)
        mover = sc.obstacles[0]
        expected = [math.dist((s.x_m, s.y_m), mover.position_at(t))
                    for s, t in zip(res.trajectory, res.sample_times_s)]
        assert [d.hex() for d in res.separation_m] == [d.hex() for d in expected]

    def test_multiple_movers_rejected(self, params):
        sc = Scenario(mode="dynamic", ship=params, start_x_m=0.0, start_y_m=0.0,
                      start_heading_deg=0.0, dest_x_m=0.0, dest_y_m=6000.0,
                      circle_radius_m=600.0,
                      obstacles=[Obstacle(center=(-2000.0, 2000.0), radius_m=900.0,
                                          speed_mps=2.0, course_deg=90.0),
                                 Obstacle(center=(2000.0, 2000.0), radius_m=900.0,
                                          speed_mps=3.0, course_deg=270.0)])
        with pytest.raises(ValidationError):
            plan_dynamic(sc)

    def test_parallel_mover_treated_risk_free(self, params, cells600):
        sc = Scenario(mode="dynamic", ship=params, start_x_m=0.0, start_y_m=0.0,
                      start_heading_deg=0.0, dest_x_m=0.0, dest_y_m=6000.0,
                      circle_radius_m=600.0, max_steps=40,
                      obstacles=[Obstacle(center=(-3000.0, 0.0), radius_m=900.0,
                                          speed_mps=4.0, course_deg=0.0)])
        res = plan_dynamic(sc, cells=cells600)
        assert res.reached
        assert res.steering_count == 0
        assert res.min_separation_m > 1500.0
