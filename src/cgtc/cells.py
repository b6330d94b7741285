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
that function continuous in delta0. A cell set solves all of its targets
together: the bisection probes of every target are rolled in lockstep as
numpy lanes, with the same arithmetic as the scalar rollout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from operator import attrgetter

import numpy as np

from .errors import NonConvergence, Unreachable
from .grid import compass_bearing, wrap_degrees
from .relation import CubicRelation, RelationSample, fit_poly, invert_relation
from .ship import ShipParams, ShipState, Trajectory, step, trimmed_state

# one ShipState's fields in constructor order
_STATE_FIELDS = attrgetter(*(f.name for f in fields(ShipState)))

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
_MAX_BISECTIONS = 80

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

    @cached_property
    def _columns(self) -> np.ndarray:
        """The samples as a (7, n) float64 array, one row per ShipState field.

        Cached on the instance, not a dataclass field, so ==, hash and repr
        are unchanged.
        """
        return np.array(list(zip(*map(_STATE_FIELDS, self.samples))), dtype=np.float64)

    @cached_property
    def _times(self) -> np.ndarray:
        """sample_times_s as a float64 array, cached like _columns."""
        return np.array(self.sample_times_s, dtype=np.float64)


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
    """Cells covering heading changes of +-MAX_HEADING_CHANGE_DEG at one resolution.

    The family is fixed, so the key (hull, radius, resolution, dt) describes
    the whole set. The cubic relation is fit on the generated (delta0,
    heading change) pairs and provides continuous rudder commands between
    cells.
    """

    radius_m: float
    cells: tuple[TrajectoryCell, ...]  # ascending heading change
    resolution_deg: float
    relation: CubicRelation
    params: ShipParams
    dt_s: float

    @property
    def key(self) -> tuple:
        """What the set was built for: (params, radius_m, resolution_deg, dt_s)."""
        return (self.params, self.radius_m, self.resolution_deg, self.dt_s)

    def nearest_index(self, heading_change_deg: float, side: int = 0) -> int:
        """Index of the cell for a heading change clamped to the family: side 0
        rounds to the nearest cell, side > 0 rounds up and side < 0 down."""
        theta_m = MAX_HEADING_CHANGE_DEG
        x = max(-theta_m, min(theta_m, heading_change_deg)) / self.resolution_deg
        if side > 0:
            k = math.ceil(x - 1e-9)
        elif side < 0:
            k = math.floor(x + 1e-9)
        else:
            k = round(x)
        half = len(self.cells) // 2
        return max(-half, min(half, k)) + half

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


def _roll_until_crossing(params: ShipParams, delta0: float, radius_m: float,
                         dt: float) -> TrajectoryCell:
    """Simulate the two-stage maneuver until the path crosses the circle.

    Posture Adjustment holds delta0 until the yaw rate settles; the switch
    instant is located inside a step by linear interpolation of the yaw
    rate, keeping the delivered heading change continuous in delta0. The
    final sample is interpolated onto the circle, and the run is returned
    as the cell of delta0.
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
            offset = (end.x_m, end.y_m)
            return TrajectoryCell(
                samples=tuple(samples),
                sample_times_s=tuple(times),
                delta0_deg=delta0,
                heading_change_deg=hc_end,
                end_offset=offset,
                central_angle_deg=compass_bearing((0.0, 0.0), offset).degrees,
                arc_length_m=arc,
                duration_s=times[-1],
                radius_m=radius_m,
            )

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


# Row layouts of the lane arrays rolled by _heading_changes: the ship state
# in ShipState field order, and each lane's bookkeeping (heading change and
# time so far, delta0, turn sign, settle threshold, Posture Adjustment flag,
# index in the caller's delta0 list).
_X, _Y, _HDG, _U, _V, _R, _RUD = range(7)
_HC, _T, _D0, _SIGN, _THRESH, _ADJ, _LANE = range(7)


def _step_lanes(params: ShipParams, st: np.ndarray, cmd, dt) -> np.ndarray:
    """ship.step on a (7, n) array of states, operation for operation.

    cmd and dt may be scalars or per-lane arrays; cmd must lie within the
    rudder limits (clamping would leave it unchanged). The heading is
    wrapped as ShipState does on construction.
    """
    x, y, hdg, u, v, r, rud = st
    max_travel = params.rudder_rate_degps * dt
    delta_move = np.minimum(np.maximum(cmd - rud, -max_travel), max_travel)
    rudder_new = rud + delta_move

    yaw_rate_target = np.where(rudder_new >= 0.0, params.turn_gain * rudder_new,
                               params.turn_gain * rudder_new / params.asymmetry_factor)
    u_target = params.steady_speed_mps * (
        1.0 - params.speed_loss_gain * np.abs(rudder_new) / params.rudder_limit_stbd_deg
    )
    kick_coeff = params.kick_gain * params.steady_speed_mps / params.rudder_limit_stbd_deg

    h = np.radians(hdg)
    sh, ch = np.sin(h), np.cos(h)
    new = np.empty_like(st)
    new[_X] = x + dt * (u * sh + v * ch)
    new[_Y] = y + dt * (u * ch - v * sh)
    new[_HDG] = np.remainder(hdg + dt * r, 360.0)
    new[_U] = u + dt * (u_target - u) / params.speed_recovery_s
    new[_V] = v - dt * v / params.turn_lag_s - kick_coeff * delta_move
    new[_R] = r + dt * (yaw_rate_target - r) / params.turn_lag_s
    new[_RUD] = rudder_new
    return new


def _heading_changes(params: ShipParams, delta0s, radius_m: float,
                     dt: float) -> np.ndarray:
    """Heading change at the circle crossing for each delta0, rolled in lockstep.

    Lane i repeats _roll_until_crossing(params, delta0s[i], radius_m, dt)
    in the same order of operations (rate-limited rudder, split step at the
    settle instant, interpolation onto the circle) and returns its
    heading_change_deg bit for bit. A lane still inside the circle after
    max_t gives NaN, where the scalar rollout raises NonConvergence. Each
    delta0 must lie within the rudder limits.
    """
    d0 = np.asarray(delta0s, dtype=float)
    out = np.full(d0.size, np.nan)
    st = np.zeros((_RUD + 1, d0.size))
    st[_U] = params.steady_speed_mps
    aux = np.zeros((_LANE + 1, d0.size))
    aux[_D0] = d0
    aux[_SIGN] = np.where(d0 >= 0.0, 1.0, -1.0)
    yaw_steady = np.where(d0 >= 0.0, params.turn_gain * d0,
                          params.turn_gain * d0 / params.asymmetry_factor)
    aux[_THRESH] = (1.0 - YAW_SETTLE_FRAC) * yaw_steady
    aux[_ADJ] = d0 != 0.0
    aux[_LANE] = np.arange(d0.size)
    n_adjusting = int(np.count_nonzero(aux[_ADJ]))
    max_t = 200.0 * radius_m / params.steady_speed_mps
    t_bound = 0.0  # no lane's elapsed time exceeds this
    # np.hypot may differ from math.hypot in the last bit, so it only
    # preselects the lanes whose crossing math.hypot then decides
    near = radius_m * (1.0 - 1e-9)

    while st.shape[1]:
        step_dt = dt
        if n_adjusting:
            adjusting = aux[_ADJ] != 0.0
            new = _step_lanes(params, st, np.where(adjusting, aux[_D0], 0.0), dt)
            sign = aux[_SIGN]
            settled = (adjusting & (new[_RUD] == aux[_D0])
                       & (sign * new[_R] >= sign * aux[_THRESH]))
            if settled.any():
                i = np.flatnonzero(settled)
                denom = new[_R, i] - st[_R, i]
                with np.errstate(divide="ignore", invalid="ignore"):
                    w = np.where(denom != 0.0, (aux[_THRESH, i] - st[_R, i]) / denom, 0.0)
                # settle mid-step: integrate only up to the threshold
                # crossing; already settled: a full step with zero rudder
                partial = (0.0 < w) & (w < 1.0)
                sub_dt = np.where(partial, w * dt, dt)
                new[:, i] = _step_lanes(params, st[:, i],
                                        np.where(partial, aux[_D0, i], 0.0), sub_dt)
                step_dt = np.full(st.shape[1], dt)
                step_dt[i] = sub_dt
                aux[_ADJ, i] = 0.0
                n_adjusting -= i.size
        else:
            new = _step_lanes(params, st, 0.0, dt)

        done = np.hypot(new[_X], new[_Y]) >= near
        if done.any():
            for i in np.flatnonzero(done).tolist():
                d = math.hypot(new[_X, i], new[_Y, i])
                if d < radius_m:
                    done[i] = False
                    continue
                d_prev = math.hypot(st[_X, i], st[_Y, i])
                w = 1.0 if d == d_prev else (radius_m - d_prev) / (d - d_prev)
                lane_dt = step_dt if np.isscalar(step_dt) else float(step_dt[i])
                out[int(aux[_LANE, i])] = float(aux[_HC, i]) + w * lane_dt * float(st[_R, i])

        aux[_HC] += step_dt * st[_R]
        aux[_T] += step_dt
        st = new
        t_bound += dt
        if t_bound > max_t:
            done |= aux[_T] > max_t
        if done.any():
            st, aux = st[:, ~done], aux[:, ~done]
            n_adjusting = int(np.count_nonzero(aux[_ADJ]))
    return out


def check_radius(params: ShipParams, radius_m: float) -> None:
    """Raise ValueError unless the circle is finite and can hold a cell of this hull."""
    if not (math.isfinite(radius_m) and radius_m >= 2.0 * params.length_m):
        raise ValueError(f"radius {radius_m} m must be finite and at least twice "
                         f"the hull length ({2 * params.length_m} m)")


def check_resolution(resolution_deg: float) -> None:
    """Raise ValueError unless the resolution divides the maximum heading change."""
    if not 1.0 <= resolution_deg <= 15.0:
        raise ValueError(f"resolution must be in [1, 15] deg, got {resolution_deg}")
    n_steps = MAX_HEADING_CHANGE_DEG / resolution_deg
    if abs(n_steps - round(n_steps)) > 1e-9:
        raise ValueError(
            f"resolution {resolution_deg} must divide {MAX_HEADING_CHANGE_DEG} evenly"
        )


def check_dt(params: ShipParams, dt: float) -> None:
    """Raise ValueError unless dt is a usable Euler step for this hull.

    Explicit Euler on the first-order yaw and speed lags stops being
    monotone once a step reaches their time constant.
    """
    lag = min(params.turn_lag_s, params.speed_recovery_s)
    if not 0.0 < dt < lag:
        raise ValueError(f"dt must be positive and below the ship's shortest time "
                         f"constant ({lag} s), got {dt}")


def _check_target(target: float) -> None:
    if not abs(target) <= MAX_HEADING_CHANGE_DEG + 1e-9:
        raise ValueError(f"|target| must be <= {MAX_HEADING_CHANGE_DEG}, got {target}")


class _Bisection:
    """Bracketed bisection on |delta0| for one nonzero target heading change.

    It holds the bracket, the best probe so far and the iteration budget;
    the caller rolls full rudder for start(), then each probe, one at a
    time (generate_cell) or for many targets in lockstep (build_cell_set),
    and hands the measured heading change to record(). Once solved,
    `result` is the chosen (|delta0|, cell), the cell being whatever the
    caller passed with that probe.
    """

    def __init__(self, params: ShipParams, target: float, radius_m: float):
        self.target = target
        self.radius_m = radius_m
        self.sign = 1.0 if target > 0.0 else -1.0
        # delta0 of full rudder toward the target's side
        self.full_rudder = (params.rudder_limit_stbd_deg if target > 0.0
                            else params.rudder_limit_port_deg)
        self.lo, self.hi = 0.0, self.sign * self.full_rudder
        self.best: tuple[float, float, TrajectoryCell | None] | None = None
        self.iterations = 0
        self.result: tuple[float, TrajectoryCell | None] | None = None

    def start(self, full_heading_change: float,
              full_cell: TrajectoryCell | None = None) -> None:
        """Take the full-rudder heading change: the reach check and first best."""
        s = self.sign
        if s * full_heading_change < s * self.target - CELL_TARGET_TOL_DEG:
            raise Unreachable(
                f"target {self.target:+.1f} deg unreachable at radius {self.radius_m} m: "
                f"full rudder reaches {full_heading_change:+.2f} deg at the crossing"
            )
        self.best = (abs(full_heading_change - self.target), self.hi, full_cell)

    def probe(self) -> float:
        """The next |delta0| to roll."""
        return 0.5 * (self.lo + self.hi)

    def next_two_levels(self) -> tuple[float, float, float]:
        """This level's probe and both candidates for the level after it."""
        mid = self.probe()
        return mid, 0.5 * (self.lo + mid), 0.5 * (mid + self.hi)

    def record(self, mag: float, heading_change: float,
               cell: TrajectoryCell | None = None) -> None:
        """Take the heading change rolled for the probe `mag`."""
        err = heading_change - self.target
        if abs(err) < self.best[0]:
            self.best = (abs(err), mag, cell)
        self.iterations += 1
        if abs(err) <= _SOLVE_TOL_DEG:
            self.result = (mag, cell)
            return
        if self.sign * err < 0.0:
            self.lo = mag
        else:
            self.hi = mag
        if self.iterations == _MAX_BISECTIONS:
            best_err, best_mag, best_cell = self.best
            if best_err > CELL_TARGET_TOL_DEG:
                raise NonConvergence(f"bisection on delta0 left a {best_err:.3f} deg "
                                     f"error for target {self.target:+.1f}")
            self.result = (best_mag, best_cell)


def generate_cell(params: ShipParams, target_heading_change_deg: float,
                  radius_m: float, dt: float = DEFAULT_DT_S) -> TrajectoryCell:
    """Solve delta0 so the heading change at the circle crossing hits the target.

    Raises Unreachable when no rudder within the actuator limits turns the
    vehicle far enough before it crosses the circle (radius too small for
    this hull), and NonConvergence if the bisection budget runs out.
    """
    target = target_heading_change_deg
    _check_target(target)
    check_radius(params, radius_m)
    check_dt(params, dt)

    if target == 0.0:
        return _roll_until_crossing(params, 0.0, radius_m, dt)

    solve = _Bisection(params, target, radius_m)
    full = _roll_until_crossing(params, solve.full_rudder, radius_m, dt)
    solve.start(full.heading_change_deg, full)
    while solve.result is None:
        mag = solve.probe()
        cell = _roll_until_crossing(params, solve.sign * mag, radius_m, dt)
        solve.record(mag, cell.heading_change_deg, cell)
    return solve.result[1]


def _target_error(target: float, exc: Exception) -> Exception:
    return type(exc)(f"target {target:+.1f} deg: {exc}")


def _solve_delta0s(params: ShipParams, targets: list[float], radius_m: float,
                   dt: float) -> list[float]:
    """delta0 of every target, all bisections advancing together.

    Each pass rolls, for every unsolved target, this level's probe and both
    candidates for the next one, and advances each bisection by two levels;
    equal probes of different targets share a lane, and the full-rudder
    rollout of each side rides along the first pass. The probe sequence of
    each target is therefore exactly generate_cell's. Raises the error of
    the lowest failing target, as a target-by-target loop would.
    """
    def measured(delta0: float, hc: float) -> float:
        if math.isnan(hc):  # lane did not cross in time: the scalar rollout raises
            hc = _roll_until_crossing(params, delta0, radius_m, dt).heading_change_deg
        return hc

    solves = [_Bisection(params, t, radius_m) for t in targets if t != 0.0]
    full_rudder = [b.full_rudder for b in solves]
    errors: dict[float, Exception] = {}
    active = solves
    while active:
        lanes = list(dict.fromkeys([*full_rudder, *(b.sign * mag for b in active
                                                   for mag in b.next_two_levels())]))
        hc = dict(zip(lanes, _heading_changes(params, lanes, radius_m, dt).tolist()))
        if full_rudder:
            for n, solve in enumerate(active):
                try:
                    solve.start(measured(solve.full_rudder, hc[solve.full_rudder]))
                except (Unreachable, NonConvergence) as exc:
                    errors[solve.target] = exc
                    active = active[:n]  # targets above this one cannot fail first
                    break
            full_rudder = []
        for solve in active:
            try:
                for _ in range(2):
                    mag = solve.probe()
                    solve.record(mag, measured(solve.sign * mag, hc[solve.sign * mag]))
                    if solve.result is not None:
                        break
            except NonConvergence as exc:
                errors[solve.target] = exc
        active = [b for b in active if b.result is None and b.target not in errors]

    if errors:
        target = min(errors)
        raise _target_error(target, errors[target]) from errors[target]
    delta0 = {b.target: b.sign * b.result[0] for b in solves}
    return [delta0.get(t, 0.0) for t in targets]


def build_cell_set(params: ShipParams, radius_m: float,
                   resolution_deg: float = DEFAULT_RESOLUTION_DEG,
                   max_heading_change_deg: float = MAX_HEADING_CHANGE_DEG,
                   dt: float = DEFAULT_DT_S) -> CellSet:
    """Generate the full cell family and fit its rudder/heading relation.

    delta0 is solved for all targets together (_solve_delta0s); each cell
    is then rolled once by _roll_until_crossing, so the set equals one built
    target by target with generate_cell.

    The family always spans +-MAX_HEADING_CHANGE_DEG, so the set is fixed
    by its key (params, radius_m, resolution_deg, dt). max_heading_change_deg
    is not a setting: any other value raises ValueError. It keeps its place
    in the signature because perfbench's span recorder keys each build by
    these bound arguments and drops the fourth by position.
    """
    if max_heading_change_deg != MAX_HEADING_CHANGE_DEG:
        raise ValueError(f"the cell family spans +-{MAX_HEADING_CHANGE_DEG} deg, "
                         f"got {max_heading_change_deg}")
    check_resolution(resolution_deg)
    check_radius(params, radius_m)
    check_dt(params, dt)
    half = int(round(MAX_HEADING_CHANGE_DEG / resolution_deg))
    targets = [k * resolution_deg for k in range(-half, half + 1)]

    cells = []
    for target, delta0 in zip(targets, _solve_delta0s(params, targets, radius_m, dt)):
        try:
            cells.append(_roll_until_crossing(params, delta0, radius_m, dt))
        except NonConvergence as exc:
            raise _target_error(target, exc) from exc

    pairs = [RelationSample(c.delta0_deg, c.heading_change_deg) for c in cells]
    relation, _ = fit_poly(pairs, 3)

    deltas = [c.delta0_deg for c in cells]
    if any(b <= a for a, b in zip(deltas, deltas[1:])):
        raise NonConvergence("generated delta0 sequence is not strictly increasing")

    return CellSet(
        radius_m=radius_m,
        cells=tuple(cells),
        resolution_deg=resolution_deg,
        relation=relation,
        params=params,
        dt_s=dt,
    )


# The one library set kept for reuse, or None; the set carries its own key.
_library_slot: CellSet | None = None


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
    slot = _library_slot
    if slot is not None and slot.key == (params, radius_m, resolution_deg, dt):
        return slot
    # drop both references to the kept set before building the next one
    slot = _library_slot = None
    slot = _library_slot = build_cell_set(params, radius_m, resolution_deg, dt=dt)
    return slot


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
                   origin_heading_deg: float) -> Trajectory:
    """Place a ship-frame cell at a world pose (rotate by heading, translate).

    The placement runs on the cell's cached columns as whole-array
    expressions with the per-sample arithmetic in the same order, so every
    sample is bit-equal to placing the samples one at a time. The heading
    is wrapped twice, as ShipState wraps a wrapped sum once more: a sum just
    below zero wraps to 360.0, and only then to 0.0.
    """
    h = math.radians(origin_heading_deg)
    ch, sh = math.cos(h), math.sin(h)
    local = cell._columns
    x, y, heading = local[_X], local[_Y], local[_HDG]
    world = np.empty_like(local)
    world[_X] = origin_x + (x * ch + y * sh)
    world[_Y] = origin_y + (-x * sh + y * ch)
    world[_HDG] = wrap_degrees(wrap_degrees(heading + origin_heading_deg))
    world[_U:] = local[_U:]
    return Trajectory(world)
