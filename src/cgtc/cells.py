"""Trajectory cells: standardized two-stage maneuvers ending on a circle.

A cell is one Posture Adjustment / Posture Stabilization maneuver: hold a
single rudder command delta0 until steady steering is established (the yaw
rate reaches its settled value), then return the rudder to zero and run
until the path crosses the circle of the grid radius. Cells satisfy the
three standardization rules:

  Rule 1  start and end states are trimmed: rudder zero, speed at u0;
  Rule 2  at most one steering per cell;
  Rule 3  every cell ends at the same distance R from its start.

With the settle-based stage switch the delivered heading change is a strict
monotone function of delta0 alone, so delta0 is solved by bracketed
bisection against the heading change measured at the circle crossing. The
switch instant is located inside an integration step (split step) to keep
that function continuous in delta0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonConvergence, Unreachable
from .grid import compass_bearing, wrap_degrees
from .relation import CubicRelation, RelationSample, fit_poly, invert_relation
from .ship import ShipParams, ShipState, step, trimmed_state

MAX_HEADING_CHANGE_DEG = 90.0
DEFAULT_RESOLUTION_DEG = 5.0
DEFAULT_DT_S = 0.5

# Posture Adjustment ends once the yaw rate has closed to within this
# fraction of its steady value for the held rudder. Target-independent, so
# each delta0 delivers one well-defined heading change.
YAW_SETTLE_FRAC = 0.01

# Achieved-vs-target tolerance contract for a generated cell (degrees), and
# the tighter tolerance the bisection actually aims for.
CELL_TARGET_TOL_DEG = 0.2
_SOLVE_TOL_DEG = 0.02

_RULE1_SPEED_FRAC = 0.001
_RULE3_RADIUS_FRAC = 0.005
_RUDDER_EPS_DEG = 1e-9


@dataclass(frozen=True)
class TrajectoryCell:
    """One standardized maneuver in the ship frame (start at origin, heading 0)."""

    samples: tuple[ShipState, ...]
    sample_times_s: tuple[float, ...]
    delta0_deg: float
    heading_change_deg: float
    end_offset: tuple[float, float]
    central_angle_deg: float  # compass bearing of end_offset from the origin
    arc_length_m: float
    duration_s: float
    radius_m: float


@dataclass(frozen=True)
class RuleReport:
    rule1_ok: bool
    rule2_ok: bool
    rule3_ok: bool
    end_rudder_deg: float
    speed_error_frac: float
    steering_count: int
    radius_error_frac: float

    @property
    def all_ok(self) -> bool:
        return self.rule1_ok and self.rule2_ok and self.rule3_ok


@dataclass(frozen=True)
class CellSet:
    """Cells covering heading changes [-theta_m, +theta_m] at one resolution.

    The cubic relation is fit on the generated (delta0, heading change)
    pairs and provides continuous rudder commands between cells.
    """

    radius_m: float
    cells: tuple[TrajectoryCell, ...]  # ascending heading change
    max_heading_change_deg: float
    resolution_deg: float
    relation: CubicRelation

    def nearest_index(self, heading_change_deg: float) -> int:
        """Index of the cell whose heading change is nearest the request."""
        theta = max(-self.max_heading_change_deg,
                    min(self.max_heading_change_deg, heading_change_deg))
        return int(round((theta + self.max_heading_change_deg) / self.resolution_deg))

    def nearest_cell(self, heading_change_deg: float) -> TrajectoryCell:
        return self.cells[self.nearest_index(heading_change_deg)]

    def command_for(self, heading_change_deg: float) -> float:
        """Continuous rudder command for a heading change, via the relation.

        Requests outside the fitted range are clamped to its ends; the cell
        geometry (not this command) is what the planner actually advances
        on, so clamping only trims the reported command.
        """
        lo = self.relation.range_lo_deg
        hi = self.relation.range_hi_deg
        span = hi - lo
        target = max(lo + 1e-9 * span, min(hi - 1e-9 * span, heading_change_deg))
        return invert_relation(self.relation, target)


@dataclass(frozen=True)
class _Rollout:
    samples: list
    times: list
    heading_change_deg: float
    arc_length_m: float


def _roll_until_crossing(params: ShipParams, delta0: float, radius_m: float,
                         dt: float) -> _Rollout:
    """Simulate the two-stage maneuver until the path crosses the circle.

    Posture Adjustment holds delta0 until the yaw rate settles; the switch
    instant is located inside a step by linear interpolation of the yaw
    rate, keeping the delivered heading change continuous in delta0. The
    final sample is interpolated onto the circle.
    """
    s = 1.0 if delta0 >= 0.0 else -1.0
    if delta0 >= 0.0:
        yaw_steady = params.turn_gain * delta0
    else:
        yaw_steady = params.turn_gain * delta0 / params.asymmetry_factor
    yaw_thresh = (1.0 - YAW_SETTLE_FRAC) * yaw_steady
    adjusting = delta0 != 0.0

    st = trimmed_state(params)
    samples = [st]
    times = [0.0]
    hc = 0.0
    t = 0.0
    arc = 0.0
    d_prev = 0.0
    max_t = 200.0 * radius_m / params.steady_speed_mps

    while True:
        if adjusting:
            trial = step(st, params, delta0, dt)
            if trial.rudder_deg == delta0 and s * trial.yaw_rate_degps >= s * yaw_thresh:
                adjusting = False
                denom = trial.yaw_rate_degps - st.yaw_rate_degps
                w = (yaw_thresh - st.yaw_rate_degps) / denom if denom != 0.0 else 0.0
                if not 0.0 < w < 1.0:
                    continue  # already settled: switch without a partial step
                # settle mid-step: integrate only up to the threshold crossing
                step_dt = w * dt
                new = step(st, params, delta0, step_dt)
            else:
                new = trial
                step_dt = dt
        else:
            new = step(st, params, 0.0, dt)
            step_dt = dt

        d = math.hypot(new.x_m, new.y_m)
        if d >= radius_m:
            w = 1.0 if d == d_prev else (radius_m - d_prev) / (d - d_prev)
            hc_end = hc + w * step_dt * st.yaw_rate_degps
            end = ShipState(
                x_m=st.x_m + w * (new.x_m - st.x_m),
                y_m=st.y_m + w * (new.y_m - st.y_m),
                heading_deg=wrap_degrees(hc_end),
                u_mps=st.u_mps + w * (new.u_mps - st.u_mps),
                v_mps=st.v_mps + w * (new.v_mps - st.v_mps),
                yaw_rate_degps=st.yaw_rate_degps + w * (new.yaw_rate_degps - st.yaw_rate_degps),
                rudder_deg=st.rudder_deg + w * (new.rudder_deg - st.rudder_deg),
            )
            arc += math.hypot(end.x_m - st.x_m, end.y_m - st.y_m)
            samples.append(end)
            times.append(t + w * step_dt)
            return _Rollout(samples, times, hc_end, arc)

        hc += step_dt * st.yaw_rate_degps
        t += step_dt
        arc += math.hypot(new.x_m - st.x_m, new.y_m - st.y_m)
        st = new
        samples.append(st)
        times.append(t)
        d_prev = d
        if t > max_t:
            raise NonConvergence(
                f"maneuver did not cross radius {radius_m} within {max_t:.0f} s"
            )


def _cell_from_rollout(roll: _Rollout, delta0: float, radius_m: float) -> TrajectoryCell:
    end = roll.samples[-1]
    offset = (end.x_m, end.y_m)
    return TrajectoryCell(
        samples=tuple(roll.samples),
        sample_times_s=tuple(roll.times),
        delta0_deg=delta0,
        heading_change_deg=roll.heading_change_deg,
        end_offset=offset,
        central_angle_deg=compass_bearing((0.0, 0.0), offset).degrees,
        arc_length_m=roll.arc_length_m,
        duration_s=roll.times[-1],
        radius_m=radius_m,
    )


def generate_cell(params: ShipParams, target_heading_change_deg: float,
                  radius_m: float, dt: float = DEFAULT_DT_S) -> TrajectoryCell:
    """Solve delta0 so the heading change at the circle crossing hits the target.

    Raises Unreachable when no rudder within the actuator limits turns the
    vehicle far enough before it crosses the circle (radius too small for
    this hull), and NonConvergence if the bisection budget runs out.
    """
    target = target_heading_change_deg
    if abs(target) > MAX_HEADING_CHANGE_DEG + 1e-9:
        raise ValueError(f"|target| must be <= {MAX_HEADING_CHANGE_DEG}, got {target}")
    if radius_m < 2.0 * params.length_m:
        raise ValueError(
            f"radius {radius_m} m below twice the hull length ({2 * params.length_m} m)"
        )

    if target == 0.0:
        roll = _roll_until_crossing(params, 0.0, radius_m, dt)
        return _cell_from_rollout(roll, 0.0, radius_m)

    s = 1.0 if target > 0.0 else -1.0
    limit = params.rudder_limit_stbd_deg if target > 0.0 else -params.rudder_limit_port_deg

    roll_hi = _roll_until_crossing(params, s * limit, radius_m, dt)
    if s * roll_hi.heading_change_deg < s * target - CELL_TARGET_TOL_DEG:
        raise Unreachable(
            f"target {target:+.1f} deg unreachable at radius {radius_m} m: "
            f"full rudder reaches {roll_hi.heading_change_deg:+.2f} deg at the crossing"
        )

    lo, hi = 0.0, limit
    best_roll, best_mag = roll_hi, limit
    best_err = abs(roll_hi.heading_change_deg - target)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        roll = _roll_until_crossing(params, s * mid, radius_m, dt)
        err = roll.heading_change_deg - target
        if abs(err) < best_err:
            best_roll, best_mag, best_err = roll, mid, abs(err)
        if abs(err) <= _SOLVE_TOL_DEG:
            return _cell_from_rollout(roll, s * mid, radius_m)
        if s * err < 0.0:
            lo = mid
        else:
            hi = mid
    if best_err <= CELL_TARGET_TOL_DEG:
        return _cell_from_rollout(best_roll, s * best_mag, radius_m)
    raise NonConvergence(
        f"bisection on delta0 left a {best_err:.3f} deg error for target {target:+.1f}"
    )


def build_cell_set(params: ShipParams, radius_m: float,
                   resolution_deg: float = DEFAULT_RESOLUTION_DEG,
                   max_heading_change_deg: float = MAX_HEADING_CHANGE_DEG,
                   dt: float = DEFAULT_DT_S) -> CellSet:
    """Generate the full cell family and fit its rudder/heading relation."""
    if not 1.0 <= resolution_deg <= 15.0:
        raise ValueError(f"resolution must be in [1, 15] deg, got {resolution_deg}")
    n_steps = 2.0 * max_heading_change_deg / resolution_deg
    if abs(n_steps - round(n_steps)) > 1e-9:
        raise ValueError(
            f"resolution {resolution_deg} must divide {2 * max_heading_change_deg} evenly"
        )

    cells = []
    half = int(round(max_heading_change_deg / resolution_deg))
    for k in range(-half, half + 1):
        target = k * resolution_deg
        try:
            cells.append(generate_cell(params, target, radius_m, dt))
        except (Unreachable, NonConvergence) as exc:
            raise type(exc)(f"target {target:+.1f} deg: {exc}") from exc

    pairs = [RelationSample(c.delta0_deg, c.heading_change_deg) for c in cells]
    relation, _ = fit_poly(pairs, 3)

    deltas = [c.delta0_deg for c in cells]
    if any(b <= a for a, b in zip(deltas, deltas[1:])):
        raise NonConvergence("generated delta0 sequence is not strictly increasing")

    return CellSet(
        radius_m=radius_m,
        cells=tuple(cells),
        max_heading_change_deg=max_heading_change_deg,
        resolution_deg=resolution_deg,
        relation=relation,
    )


# The one library set kept for reuse, as (key, CellSet), or None. It is read
# and replaced as one tuple, so a concurrent caller never pairs a key with a
# set built for another key.
_library_slot: tuple[tuple, CellSet] | None = None


def cell_library(params: ShipParams, radius_m: float,
                 resolution_deg: float = DEFAULT_RESOLUTION_DEG,
                 dt: float = DEFAULT_DT_S) -> CellSet:
    """The cell set for (params, radius, resolution, dt), built once and reused.

    The planners take their cells here when none are passed, so a process
    that plans many scenarios on one hull and grid builds the library once.
    One slot only: on a miss the kept set is released before the new one is
    built, so the process never holds two library sets at once.
    build_cell_set stays the uncached way to generate a set.
    """
    global _library_slot
    key = (params, radius_m, resolution_deg, dt)
    slot = _library_slot
    if slot is not None and slot[0] == key:
        return slot[1]
    # drop both references to the kept set before building the next one
    slot = _library_slot = None
    cells = build_cell_set(params, radius_m, resolution_deg, dt=dt)
    _library_slot = (key, cells)
    return cells


def validate_rules(cell: TrajectoryCell, params: ShipParams) -> RuleReport:
    """Measure a cell against the three standardization rules."""
    first, last = cell.samples[0], cell.samples[-1]
    u0 = params.steady_speed_mps
    speed_err = abs(last.u_mps - u0) / u0
    rule1 = (
        abs(first.rudder_deg) <= _RUDDER_EPS_DEG
        and abs(last.rudder_deg) <= _RUDDER_EPS_DEG
        and abs(first.u_mps - u0) / u0 <= _RULE1_SPEED_FRAC
        and speed_err <= _RULE1_SPEED_FRAC
    )

    steering = _count_steerings([s.rudder_deg for s in cell.samples])
    rule2 = steering <= 1

    dist = math.hypot(*cell.end_offset)
    radius_err = abs(dist - cell.radius_m) / cell.radius_m
    rule3 = radius_err <= _RULE3_RADIUS_FRAC

    return RuleReport(
        rule1_ok=rule1, rule2_ok=rule2, rule3_ok=rule3,
        end_rudder_deg=last.rudder_deg,
        speed_error_frac=speed_err,
        steering_count=steering,
        radius_error_frac=radius_err,
    )


def _count_steerings(rudder_series: list[float]) -> int:
    """Number of distinct steering actions in an actual-rudder time series.

    One steering = one maximal nonzero run whose magnitude rises to a single
    crest and falls back (the ramp up / hold / ramp down shape). A run that
    dips and rises again counts as two.
    """
    count = 0
    in_run = False
    rising = True
    prev = 0.0
    for r in rudder_series:
        mag = abs(r)
        if mag > _RUDDER_EPS_DEG:
            if not in_run:
                in_run = True
                rising = True
                count += 1
            else:
                if mag > prev + _RUDDER_EPS_DEG and not rising:
                    count += 1  # second crest inside the same run
                    rising = True
                elif mag < prev - _RUDDER_EPS_DEG:
                    rising = False
            prev = mag
        else:
            in_run = False
            prev = 0.0
    return count


def transform_cell(cell: TrajectoryCell, origin_x: float, origin_y: float,
                   origin_heading_deg: float) -> list[ShipState]:
    """Place a ship-frame cell at a world pose (rotate by heading, translate)."""
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
