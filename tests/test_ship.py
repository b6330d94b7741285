"""Ship response-model tests: trim, symmetry, convergence, turn geometry."""

import math
from dataclasses import astuple, fields

import numpy as np
import pytest

from cgtc import ship as ship_mod
from cgtc.errors import CGTCError, NonPositiveDt
from cgtc.ship import (
    ShipParams,
    ShipState,
    Trajectory,
    clamp_rudder,
    fitted_turn_radius,
    online_generate,
    simulate_turn,
    step,
    trimmed_state,
)
from conftest import steady_turn_radius


def test_zero_rudder_straight_line(params):
    st = step(trimmed_state(params), params, 0.0, 1.0)
    assert st.x_m == 0.0
    assert st.y_m == pytest.approx(7.7, abs=1e-12)
    assert st.heading_deg == 0.0
    assert st.u_mps == params.steady_speed_mps


def test_trim_is_exact_fixed_point(params):
    st = trimmed_state(params)
    for _ in range(1000):
        st = step(st, params, 0.0, 0.5)
    assert st.heading_deg == 0.0
    assert abs(st.u_mps - params.steady_speed_mps) < 1e-9
    assert st.v_mps == 0.0 and st.yaw_rate_degps == 0.0


def test_determinism(params):
    st = ShipState(x_m=3.0, y_m=-2.0, heading_deg=17.0, u_mps=6.1,
                   v_mps=-0.2, yaw_rate_degps=0.8, rudder_deg=4.0)
    a = step(st, params, 12.0, 0.5)
    b = step(st, params, 12.0, 0.5)
    assert a == b


def test_step_wraps_the_heading_once(params):
    # a heading sum just below zero wraps to 360.0 as ShipState wraps it;
    # wrapped once more it would be 0.0
    st = ShipState(u_mps=params.steady_speed_mps, yaw_rate_degps=-1e-20)
    assert ship_mod.step_floats(astuple(st), params, 0.0, 0.5)[2] == -5e-21
    assert step(st, params, 0.0, 0.5).heading_deg == 360.0


def test_non_positive_dt_rejected(params):
    with pytest.raises(NonPositiveDt):
        step(trimmed_state(params), params, 0.0, 0.0)
    with pytest.raises(NonPositiveDt):
        simulate_turn(params, 10.0, 100.0, -0.5)


@pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
def test_non_finite_dt_rejected(params, dt):
    assert issubclass(NonPositiveDt, CGTCError)
    with pytest.raises(NonPositiveDt):
        step(trimmed_state(params), params, 10.0, dt)
    with pytest.raises(NonPositiveDt):
        online_generate(trimmed_state(params), params, 10.0, 100.0, dt)
    with pytest.raises(NonPositiveDt):
        simulate_turn(params, 10.0, 100.0, dt)


@pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf, -5.0, -0.1, 1e308])
def test_unusable_horizon_rejected_before_any_step(params, horizon, monkeypatch):
    # 1e308 s is finite, but its step count at dt 0.5 overflows to inf
    def forbidden(*args):
        raise AssertionError("stepped before the horizon was checked")

    monkeypatch.setattr(ship_mod, "step", forbidden)
    with pytest.raises(ValueError, match="horizon_s"):
        online_generate(trimmed_state(params), params, 10.0, horizon, 0.5)
    with pytest.raises(ValueError, match="horizon_s"):
        simulate_turn(params, 10.0, horizon, 0.5)


def test_horizon_beyond_the_hulls_turning_circles_rejected(params, monkeypatch):
    # 1e300 s has a finite step count at dt 0.5, 2e300 steps, which never end
    limit = ship_mod._max_horizon_s(params)
    port_degps = params.turn_gain * -params.rudder_limit_port_deg / params.asymmetry_factor
    assert limit == pytest.approx(100 * 360.0 / port_degps, rel=1e-12)  # slower side
    assert 800.0 < limit  # cgtc turn-test's default duration

    def forbidden(*args):
        raise AssertionError("stepped before the horizon was checked")

    with monkeypatch.context() as m:
        m.setattr(ship_mod, "step", forbidden)
        for horizon in (1e300, math.nextafter(limit, math.inf)):
            with pytest.raises(ValueError, match="horizon_s"):
                online_generate(trimmed_state(params), params, 10.0, horizon, 0.5)
            with pytest.raises(ValueError, match="horizon_s"):
                simulate_turn(params, 35.0, horizon, 0.5)
    assert len(simulate_turn(params, 35.0, limit, 2.0)) == round(limit / 2.0) + 1
    # a hull that turns twice as fast settles its circles in half the time
    quick = ShipParams(turn_gain=2.0 * params.turn_gain)
    assert ship_mod._max_horizon_s(quick) == pytest.approx(limit / 2.0, rel=1e-12)


@pytest.mark.parametrize("dt", [1e-9, 1e-6, math.nextafter(8e-4, 0.0)])
def test_run_past_the_step_bound_rejected_before_any_step(params, dt, monkeypatch):
    # 800 s in at most MAX_RUN_STEPS (1e6) steps needs dt >= 0.0008 s;
    # at 1e-9 s the run would take 8e11 steps
    def forbidden(*args):
        raise AssertionError("stepped before the step count was checked")

    monkeypatch.setattr(ship_mod, "step", forbidden)
    with pytest.raises(ValueError, match="horizon_s must .* at most 1000000 steps"):
        online_generate(trimmed_state(params), params, 10.0, 800.0, dt)
    with pytest.raises(ValueError, match="horizon_s must .* at most 1000000 steps"):
        simulate_turn(params, 10.0, 800.0, dt)
    with pytest.raises(ValueError, match="dt must be at least 0.0008 s to run 800 s"):
        ship_mod.check_dt(params, dt, 800.0)
    ship_mod.check_dt(params, 8e-4, 800.0)  # exactly MAX_RUN_STEPS steps


def test_step_bound_does_not_depend_on_the_lags(params):
    # a hull whose lags are 60 s takes the default 0.5 s step, and a dt at
    # or above a lag is check_dt's to reject, not online_generate's
    slow = ShipParams(turn_lag_s=60.0, speed_recovery_s=60.0)
    ship_mod.check_dt(slow, 0.5)
    assert len(simulate_turn(slow, 35.0, 800.0, 0.5)) == 1601
    with pytest.raises(ValueError, match="dt must be positive and below"):
        ship_mod.check_dt(params, 5.0)
    assert len(simulate_turn(params, 35.0, 40.0, 5.0)) == 9


def test_zero_horizon_returns_the_start_state(params):
    start = trimmed_state(params, x_m=4.0, heading_deg=30.0)
    assert online_generate(start, params, 10.0, 0.0, 0.5) == [start]
    assert simulate_turn(params, 10.0, 0.0, 0.5) == [trimmed_state(params)]


def test_trajectory_hash_follows_equality():
    columns = np.arange(14.0).reshape(7, 2)
    signed = columns.copy()
    signed[0, 0] = -0.0  # compares equal to the 0.0 it replaces
    a, b = Trajectory(columns), Trajectory(signed)
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash(Trajectory(columns.copy()))
    other = columns.copy()
    other[3, 1] += 1.0
    assert a != Trajectory(other)
    assert len({a, b, Trajectory(other)}) == 2


def test_command_clamping_reported(params):
    assert clamp_rudder(params, 50.0) == params.rudder_limit_stbd_deg
    assert clamp_rudder(params, -50.0) == params.rudder_limit_port_deg
    assert clamp_rudder(params, 10.0) == 10.0
    assert math.copysign(1.0, clamp_rudder(params, -0.0)) == -1.0
    assert math.isnan(clamp_rudder(params, math.nan))
    # step accepts an out-of-range command without raising
    st = step(trimmed_state(params), params, 90.0, 1.0)
    assert st.rudder_deg <= params.rudder_limit_stbd_deg


def test_rudder_rate_limit(params):
    st = step(trimmed_state(params), params, 35.0, 1.0)
    assert st.rudder_deg == pytest.approx(params.rudder_rate_degps, abs=1e-12)


def test_mirror_symmetry_exact_when_unbiased():
    p = ShipParams(asymmetry_factor=1.0)
    port = simulate_turn(p, -25.0, 150.0, 0.5)
    stbd = simulate_turn(p, 25.0, 150.0, 0.5)
    for a, b in zip(stbd, port):
        assert abs(a.x_m + b.x_m) < 1e-9
        assert abs(a.y_m - b.y_m) < 1e-9
        assert abs(a.v_mps + b.v_mps) < 1e-9
        assert abs((a.heading_deg % 360.0) - ((-b.heading_deg) % 360.0)) % 360.0 < 1e-9


def test_port_turning_radius_larger_than_starboard(params):
    stbd = simulate_turn(params, params.rudder_limit_stbd_deg, 800.0, 0.5)
    port = simulate_turn(params, params.rudder_limit_port_deg, 800.0, 0.5)
    r_s = fitted_turn_radius(stbd)
    r_p = fitted_turn_radius(port)
    assert r_p > r_s
    assert r_s == pytest.approx(steady_turn_radius(params, params.rudder_limit_stbd_deg), rel=0.02)
    assert r_p == pytest.approx(steady_turn_radius(params, params.rudder_limit_port_deg), rel=0.02)


def test_kick_adverse_initial_displacement(params):
    states = simulate_turn(params, params.rudder_limit_stbd_deg, 60.0, 0.5)
    assert min(s.x_m for s in states) < 0.0  # dips to port before the turn develops


def test_zero_rudder_turn_is_straight(params):
    states = simulate_turn(params, 0.0, 60.0, 0.5)
    assert all(s.heading_deg == 0.0 for s in states)
    assert all(s.x_m == 0.0 for s in states)


def test_steady_radius_matches_fine_step_oracle(params):
    # independent oracle: integrate at dt/10 and read the settled u/omega
    fine = simulate_turn(params, 20.0, 600.0, 0.05)
    u_ss = fine[-1].u_mps
    om_ss = math.radians(fine[-1].yaw_rate_degps)
    oracle_radius = u_ss / om_ss
    coarse = simulate_turn(params, 20.0, 600.0, 0.5)
    fitted = fitted_turn_radius(coarse)
    assert abs(fitted - oracle_radius) / oracle_radius < 0.005


def test_euler_convergence_first_order(params):
    def end_state(dt):
        st = trimmed_state(params)
        for _ in range(int(round(60.0 / dt))):
            st = step(st, params, 20.0, dt)
        return st

    e1, e2, e3 = end_state(0.5), end_state(0.25), end_state(0.125)

    def max_diff(a, b):
        return max(abs(a.x_m - b.x_m), abs(a.y_m - b.y_m),
                   abs(a.u_mps - b.u_mps), abs(a.v_mps - b.v_mps),
                   abs(a.yaw_rate_degps - b.yaw_rate_degps))

    ratio = max_diff(e1, e2) / max_diff(e2, e3)
    assert 1.5 <= ratio <= 2.5


def test_speed_recovery_within_five_time_constants(params):
    st = trimmed_state(params)
    for _ in range(120):
        st = step(st, params, params.rudder_limit_stbd_deg, 0.5)
    while st.rudder_deg != 0.0:
        st = step(st, params, 0.0, 0.5)
    for _ in range(int(5.0 * params.speed_recovery_s / 0.5)):
        st = step(st, params, 0.0, 0.5)
    assert abs(st.u_mps - params.steady_speed_mps) < 0.001 * params.steady_speed_mps


def test_heading_stays_normalized(params):
    st = trimmed_state(params)
    for _ in range(2000):
        st = step(st, params, 30.0, 0.5)
        assert 0.0 <= st.heading_deg < 360.0


def test_params_validation():
    with pytest.raises(ValueError):
        ShipParams(rudder_limit_port_deg=5.0)
    with pytest.raises(ValueError):
        ShipParams(steady_speed_mps=0.0)
    with pytest.raises(ValueError):
        ShipParams(asymmetry_factor=0.9)
    with pytest.raises(ValueError):
        ShipParams(speed_loss_gain=1.0)
    with pytest.raises(ValueError):
        ShipParams(length_m=0.0)
    with pytest.raises(ValueError):
        ShipParams(length_m=-63.6)
    with pytest.raises(ValueError):
        ShipParams(turn_gain=0.0)
    with pytest.raises(ValueError):
        ShipParams(turn_gain=-0.126)


@pytest.mark.parametrize("bad, message", [({"turn_lag_s": 0.0}, "time constants"),
                                          ({"speed_recovery_s": -4.0}, "time constants"),
                                          ({"kick_gain": -0.1}, "kick_gain")])
def test_params_reject_out_of_range(bad, message):
    with pytest.raises(ValueError, match=message):
        ShipParams(**bad)


def test_params_reject_non_finite():
    for f in fields(ShipParams):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f.name):
                ShipParams(**{f.name: value})
