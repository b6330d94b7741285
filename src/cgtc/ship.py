"""Deterministic 3-DOF (surge, sway, yaw) maneuvering model.

The model is a response-type surrogate: first-order yaw response to rudder
with port/starboard asymmetry, rudder-induced speed loss, and an adverse
sway transient at steering onset (the "kick"). It is control-oriented, not
a hydrodynamic prediction tool; its free parameters live in ShipParams and
can be overridden from scenario files by users with identified coefficients.

Frames and units: world x east, world y north, heading in compass degrees
(0 = north, clockwise positive), rudder positive to starboard, body u
forward and v to starboard in m/s, yaw rate in deg/s. Integration is
fixed-step explicit Euler; the dynamics are non-stiff by construction.

All functions are pure: they never mutate their inputs and are safe to call
concurrently.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Sequence
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import NonPositiveDt
from .grid import signed_degrees, wrap_degrees


@dataclass(frozen=True)
class ShipParams:
    """Hull, rudder, and response-model parameters of the vehicle.

    Every field enters the response model or the grid; the defaults describe
    the paper's 63.6 m vessel, whose 16.4 m beam, 6.22 m draft and 180 rpm
    propeller the model does not use. turn_gain is the steady yaw rate per
    degree of starboard rudder (1/s); port turns divide it by
    asymmetry_factor, so the port turning radius is never smaller than
    starboard. kick_gain scales the adverse sway transient driven by the
    rudder's rate of change. speed_loss_gain is the fraction of steady speed
    lost at full starboard rudder.
    """

    length_m: float = 63.6
    steady_speed_mps: float = 7.7
    rudder_limit_port_deg: float = -35.0
    rudder_limit_stbd_deg: float = 35.0
    rudder_rate_degps: float = 3.0
    turn_gain: float = 0.126
    turn_lag_s: float = 4.0
    asymmetry_factor: float = 1.13
    kick_gain: float = 0.1
    speed_loss_gain: float = 0.05
    speed_recovery_s: float = 4.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if not self.length_m > 0:
            raise ValueError("length_m must be positive")
        if not (self.rudder_limit_port_deg < 0.0 < self.rudder_limit_stbd_deg):
            raise ValueError("rudder limits must straddle zero (port < 0 < starboard)")
        if not self.rudder_rate_degps > 0:
            raise ValueError("rudder_rate_degps must be positive")
        if not self.steady_speed_mps > 0:
            raise ValueError("steady_speed_mps must be positive")
        if not self.turn_gain > 0:
            raise ValueError("turn_gain must be positive")
        if not (self.turn_lag_s > 0 and self.speed_recovery_s > 0):
            raise ValueError("time constants must be positive")
        if not self.asymmetry_factor >= 1.0:
            raise ValueError("asymmetry_factor must be >= 1")
        if not self.kick_gain >= 0.0:
            raise ValueError("kick_gain must be >= 0")
        if not (0.0 <= self.speed_loss_gain < 1.0):
            raise ValueError("speed_loss_gain must be in [0, 1)")
        # the step divides by the starboard limit: the kick per degree of
        # rudder travel and the speed loss at the larger limit, computed as
        # the step computes them, must stay finite
        stbd, widest = self.rudder_limit_stbd_deg, max(self.rudder_limit_stbd_deg,
                                                       -self.rudder_limit_port_deg)
        if not (math.isfinite(self.kick_gain * self.steady_speed_mps / stbd)
                and math.isfinite(self.speed_loss_gain * widest / stbd)):
            raise ValueError(f"rudder_limit_stbd_deg {stbd} leaves the step's coefficients "
                             "kick_gain * steady_speed_mps / rudder_limit_stbd_deg and "
                             "speed_loss_gain * max(rudder_limit_stbd_deg, "
                             "-rudder_limit_port_deg) / rudder_limit_stbd_deg not finite")


@dataclass(frozen=True, init=False)
class ShipState:
    """Planar pose, body velocities, yaw rate, and actual rudder angle.

    heading_deg is wrapped once on construction (grid.wrap_degrees), into
    [0, 360]. A Trajectory builds its states on each read and keeps none.
    """

    x_m: float = 0.0
    y_m: float = 0.0
    heading_deg: float = 0.0
    u_mps: float = 0.0
    v_mps: float = 0.0
    yaw_rate_degps: float = 0.0
    rudder_deg: float = 0.0

    def __init__(self, x_m: float = 0.0, y_m: float = 0.0, heading_deg: float = 0.0,
                 u_mps: float = 0.0, v_mps: float = 0.0, yaw_rate_degps: float = 0.0,
                 rudder_deg: float = 0.0):
        # the fields in one update, as the generated __init__ and a
        # __post_init__ wrapping the heading would leave them
        self.__dict__.update(x_m=x_m, y_m=y_m, heading_deg=wrap_degrees(heading_deg),
                             u_mps=u_mps, v_mps=v_mps, yaw_rate_degps=yaw_rate_degps,
                             rudder_deg=rudder_deg)


class Trajectory(Sequence):
    """A read-only sequence of ShipState over one (7, n) float64 array.

    `columns` holds the samples field by field, one row per ShipState field
    in field order (x, y, heading, u, v, yaw rate, rudder); each heading
    must already be wrapped as ShipState stores it. The array is made
    read-only, and the states are built from it on each index or iteration
    and not kept: each is ShipState(*row) of its sample's column values, so
    it always agrees with the array, and callers that need only numbers
    should read `columns`. A Trajectory equals another with equal column
    values, and equals a list as its list of states would. Its hash is taken
    from the values too, so -0.0 and 0.0 hash alike, as they compare.

    `xy` is the x and y rows. A trajectory made by `placed` knows only
    those rows until `columns` is first read; `xy` and len() never make it
    compute the rest, so a caller that reads only the path (a comparison of
    planners, or a candidate plan it discards) never pays for the others.
    """

    def __init__(self, columns: np.ndarray):
        columns.flags.writeable = False
        self.columns = columns

    @classmethod
    def placed(cls, xy: np.ndarray, fill: Callable[[], np.ndarray]) -> Trajectory:
        """A trajectory of the (2, n) x and y rows xy, whose (7, n) columns
        fill() returns on the first read of `columns`; fill is called once
        and then dropped."""
        trajectory = cls.__new__(cls)
        xy.flags.writeable = False
        trajectory.xy = xy
        trajectory._fill = fill
        return trajectory

    @cached_property
    def columns(self) -> np.ndarray:
        columns = self.__dict__.pop("_fill")()
        columns.flags.writeable = False
        return columns

    @cached_property
    def xy(self) -> np.ndarray:
        return self.columns[:2]

    def __len__(self) -> int:
        return self.xy.shape[1]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(ShipState, *self.columns[:, index].tolist()))
        return ShipState(*self.columns[:, operator.index(index)].tolist())

    def __iter__(self):
        return map(ShipState, *self.columns.tolist())

    def __eq__(self, other):
        if isinstance(other, Trajectory):
            return np.array_equal(self.columns, other.columns)
        if isinstance(other, list):
            return len(self) == len(other) and list(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.columns.shape, *self.columns.ravel().tolist()))

    def __repr__(self) -> str:
        return f"Trajectory(columns={self.columns!r})"

    def __reduce__(self):
        """Pickle and copy as Trajectory(columns): fill is a closure."""
        return Trajectory, (self.columns,)


def trimmed_state(params: ShipParams, x_m: float = 0.0, y_m: float = 0.0,
                  heading_deg: float = 0.0) -> ShipState:
    """Steady straight-ahead state: u at trim speed, everything else zero."""
    return ShipState(x_m=x_m, y_m=y_m, heading_deg=heading_deg,
                     u_mps=params.steady_speed_mps)


def clamp_rudder(params: ShipParams, rudder_command_deg: float) -> float:
    """Clamp a rudder command to the actuator limits."""
    return min(max(rudder_command_deg, params.rudder_limit_port_deg),
               params.rudder_limit_stbd_deg)


def step_floats(state: tuple, params: ShipParams, rudder_command_deg: float,
                dt: float) -> tuple:
    """The arithmetic of one Euler step, on plain floats.

    state is (x, y, heading, u, v, yaw rate, rudder) in ShipState field
    order, and so is the tuple returned. The command must already lie within
    the rudder limits and dt must be positive and finite: step checks both.
    The returned heading is not wrapped; ShipState wraps it on construction,
    and a caller that rolls tuples wraps it once with wrap_degrees, as
    ShipState does, before the next step.
    """
    x, y, heading, u, v, yaw_rate, rudder = state

    # rate-limited rudder tracking; delta_move is the exact travel this step
    max_travel = params.rudder_rate_degps * dt
    delta_move = rudder_command_deg - rudder
    if delta_move > max_travel:
        delta_move = max_travel
    elif delta_move < -max_travel:
        delta_move = -max_travel
    rudder_new = rudder + delta_move

    if rudder_new >= 0.0:
        yaw_rate_target = params.turn_gain * rudder_new
    else:
        yaw_rate_target = params.turn_gain * rudder_new / params.asymmetry_factor
    u_target = params.steady_speed_mps * (
        1.0 - params.speed_loss_gain * abs(rudder_new) / params.rudder_limit_stbd_deg
    )
    kick_coeff = params.kick_gain * params.steady_speed_mps / params.rudder_limit_stbd_deg

    h = math.radians(heading)
    sh, ch = math.sin(h), math.cos(h)
    return (x + dt * (u * sh + v * ch),
            y + dt * (u * ch - v * sh),
            heading + dt * yaw_rate,
            u + dt * (u_target - u) / params.speed_recovery_s,
            v - dt * v / params.turn_lag_s - kick_coeff * delta_move,
            yaw_rate + dt * (yaw_rate_target - yaw_rate) / params.turn_lag_s,
            rudder_new)


def step(state: ShipState, params: ShipParams, rudder_command_deg: float,
         dt: float) -> ShipState:
    """Advance the state by one Euler step of dt seconds.

    The actual rudder tracks the (clamped) command at no more than
    rudder_rate_degps. Yaw rate relaxes toward turn_gain * rudder (divided
    by asymmetry_factor on port rudder) with time constant turn_lag_s; u
    relaxes toward the speed-loss target with time constant
    speed_recovery_s; v decays with the yaw lag while receiving the adverse
    kick forcing; position integrates the world-frame velocity of the old
    state. The arithmetic is step_floats'.
    """
    if not 0.0 < dt < math.inf:
        raise NonPositiveDt(f"dt must be positive and finite, got {dt}")
    cmd = clamp_rudder(params, rudder_command_deg)
    row = (state.x_m, state.y_m, state.heading_deg, state.u_mps, state.v_mps,
           state.yaw_rate_degps, state.rudder_deg)
    # positional: keywords cost a sixth of the step
    return ShipState(*step_floats(row, params, cmd, dt))


# A run may take at most this many Euler steps: a dt that would take it
# further is refused before the first step instead of stepping for hours.
MAX_RUN_STEPS = 1_000_000


def check_dt(params: ShipParams, dt: float, run_s: float = 0.0) -> None:
    """Raise ValueError unless dt is a usable Euler step for this hull on a
    run of up to run_s seconds: explicit Euler on the yaw and speed lags
    stops being monotone once a step reaches their time constant, and the
    run may take at most MAX_RUN_STEPS steps."""
    lag = min(params.turn_lag_s, params.speed_recovery_s)
    if not 0.0 < dt < lag:
        raise ValueError(f"dt must be positive and below the ship's shortest time "
                         f"constant ({lag} s), got {dt}")
    if run_s / dt > MAX_RUN_STEPS:
        raise ValueError(f"dt must be at least {run_s / MAX_RUN_STEPS:g} s to run "
                         f"{run_s:.0f} s in at most {MAX_RUN_STEPS} steps, got {dt}")


# A held command runs for at most this many steady full-rudder turning
# circles of the hull; a longer run only repeats the settled circle.
_HORIZON_CIRCLES = 100


def _max_horizon_s(params: ShipParams) -> float:
    """The longest horizon online_generate takes for this hull, in seconds:
    _HORIZON_CIRCLES steady full-rudder circles on its slower-turning side,
    or math.inf where that side's yaw rate underflows to 0."""
    slowest_degps = params.turn_gain * min(params.rudder_limit_stbd_deg,
                                           -params.rudder_limit_port_deg
                                           / params.asymmetry_factor)
    return _HORIZON_CIRCLES * 360.0 / slowest_degps if slowest_degps > 0.0 else math.inf


def online_generate(state: ShipState, params: ShipParams, rudder_command_deg: float,
                    horizon_s: float, dt: float) -> list[ShipState]:
    """Forward-simulate a held command; first element is the input state.

    The iterative contract: the last state of one call is a valid first
    state for the next, so chained calls reproduce a single longer call
    sample for sample. It takes round(horizon_s / dt) steps, which must be
    a non-negative count of at most MAX_RUN_STEPS (zero returns the input
    state alone), and horizon_s may not exceed _max_horizon_s(params); both
    are checked before any step.
    """
    if not 0.0 < dt < math.inf:
        raise NonPositiveDt(f"dt must be positive and finite, got {dt}")
    steps = horizon_s / dt
    if not 0.0 <= steps <= MAX_RUN_STEPS:
        raise ValueError(f"horizon_s must be non-negative and take at most "
                         f"{MAX_RUN_STEPS} steps of dt {dt} s, got {horizon_s}")
    limit = _max_horizon_s(params)
    if horizon_s > limit:
        raise ValueError(f"horizon_s {horizon_s} s exceeds {_HORIZON_CIRCLES} full-rudder "
                         f"turning circles of this hull ({limit:.0f} s)")
    out = [state]
    for _ in range(round(steps)):
        out.append(step(out[-1], params, rudder_command_deg, dt))
    return out


def simulate_turn(params: ShipParams, rudder_deg: float, duration_s: float,
                  dt: float) -> list[ShipState]:
    """Turning-circle run: constant rudder command from the trimmed state.

    Returns the sampled trajectory including the initial state. The caller
    chooses a duration long enough for at least one full circle when a
    steady-radius fit is wanted; duration_s is online_generate's horizon_s.
    """
    return online_generate(trimmed_state(params), params, rudder_deg, duration_s, dt)


def fitted_turn_radius(states: list[ShipState]) -> float:
    """Steady turning radius fitted from the last full loop of a turn run.

    Walks back from the end until a full 360 degrees of heading change is
    covered, then averages the x and y extents of that loop. The run must
    contain at least one settled full circle.
    """
    total = 0.0
    start = 0
    for i in range(len(states) - 1, 0, -1):
        total += abs(signed_degrees(states[i].heading_deg - states[i - 1].heading_deg))
        if total >= 360.0:
            start = i - 1
            break
    else:
        raise ValueError("run too short: no full circle in the trajectory")
    xs = [s.x_m for s in states[start:]]
    ys = [s.y_m for s in states[start:]]
    return 0.25 * ((max(xs) - min(xs)) + (max(ys) - min(ys)))
