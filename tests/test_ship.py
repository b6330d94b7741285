"""Ship response-model tests: trim, symmetry, convergence, turn geometry."""

import math
from dataclasses import fields

import pytest

from cgtc.errors import NonPositiveDt
from cgtc.ship import (
    ShipParams,
    ShipState,
    clamp_rudder,
    fitted_turn_radius,
    simulate_turn,
    steady_turn_radius,
    step,
    trimmed_state,
)


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


def test_non_positive_dt_rejected(params):
    with pytest.raises(NonPositiveDt):
        step(trimmed_state(params), params, 0.0, 0.0)
    with pytest.raises(NonPositiveDt):
        simulate_turn(params, 10.0, 100.0, -0.5)


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


def test_params_reject_non_finite():
    for f in fields(ShipParams):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f.name):
                ShipParams(**{f.name: value})
