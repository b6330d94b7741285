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
numpy lanes, with the same arithmetic as the scalar rollout, several
bisection levels per pass, so a set is solved in two passes. Once every
lane's rudder is at rest, a lockstep step leaves out the terms that are
then exact zeros and ones. The solved delta0s are then rolled once more in
one recorded lockstep pass, which gives each cell its samples: a cell keeps
them as a ship.Trajectory over its own (7, n) array, never as ShipStates.
A lane that never crosses raises, where the build reads it, the scalar
rollout's own NonConvergence; that rollout serves generate_cell alone. It
rolls ship.step_floats tuples, keeps each probe as plain rows, and only the
cell that generate_cell returns becomes a (7, n) array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import NonConvergence, Unreachable
from .grid import GridNode, compass_bearing, wrap_degrees
from .relation import CubicRelation, RelationSample, fit_poly, invert_relation
from .ship import ShipParams, Trajectory, check_dt, step_floats

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
# Bisection levels that the first _solve_delta0s pass rolls ahead, and each
# later pass. A pass costs mostly numpy call overhead, not lanes. Every
# target on a side starts from the same bracket, so the first pass rolls one
# subtree per side (255 probes at 8 levels); after it the brackets part, and
# a pass rolls 15 probes per target at 4 levels. 8 then 4 levels solve the
# default hull's sets at 600 m in 2 passes, where 4 levels a pass took 3,
# and the second pass is the largest, as the third was.
_FIRST_PASS_LEVELS = 8
_LEVELS_PER_PASS = 4

# A CellSet keeps at most this many cells generated for changes it holds no
# cell for (CellSet.kept_cell), about 1 MB at 600 m and 0.5 s.
_KEPT_CELLS = 64

_RULE1_SPEED_FRAC = 0.001
_RULE3_RADIUS_FRAC = 0.005
_RUDDER_EPS_DEG = 1e-9

# Rows of a (7, n) state array (ship.Trajectory.columns and the lanes rolled
# by _heading_changes), in ShipState field order.
_X, _Y, _HDG, _U, _V, _R, _RUD = range(7)

# The artifact text of a sample's state columns, u, v, yaw rate and rudder:
# transform_cell leaves them as the cell has them (TrajectoryCell._state_text).
STATE_ROW = ",".join(["%.6f"] * 4)


@dataclass(frozen=True)
class TrajectoryCell:
    """One standardized maneuver in the ship frame (start at origin, heading 0).

    samples is a Trajectory over the cell's own read-only (7, n) array, so
    a cell holds no ShipState; one is built only when a caller indexes or
    iterates the samples.
    """

    samples: Trajectory
    sample_times_s: tuple[float, ...]
    delta0_deg: float
    heading_change_deg: float
    end_offset: tuple[float, float]
    central_angle_deg: float  # compass bearing of end_offset from the origin
    arc_length_m: float
    duration_s: float
    radius_m: float

    @cached_property
    def _times(self) -> np.ndarray:
        """sample_times_s as a float64 array.

        Cached on the instance, not a dataclass field, so ==, hash and repr
        are unchanged.
        """
        return np.array(self.sample_times_s, dtype=np.float64)

    @cached_property
    def _state_text(self) -> list[str]:
        """STATE_ROW of each sample's (u, v, yaw rate, rudder).

        Placing the cell leaves these columns unchanged, so every plan that
        runs the cell writes this text; it is formatted once, on first read,
        and cached as _times is.
        """
        return list(map(STATE_ROW.__mod__, zip(*self.samples.columns[_U:].tolist())))


def _cell(columns: np.ndarray, times: list[float], delta0: float,
          heading_change: float, arc: float, radius_m: float) -> TrajectoryCell:
    """The cell of one rollout: its sample columns and times, ending on the circle."""
    offset = (float(columns[_X, -1]), float(columns[_Y, -1]))
    return TrajectoryCell(
        samples=Trajectory(columns),
        sample_times_s=tuple(times),
        delta0_deg=delta0,
        heading_change_deg=heading_change,
        end_offset=offset,
        central_angle_deg=compass_bearing((0.0, 0.0), offset),
        arc_length_m=arc,
        duration_s=times[-1],
        radius_m=radius_m,
    )


def _time_limit(params: ShipParams, radius_m: float) -> float:
    """Seconds a rollout may run before it counts as not crossing the circle."""
    return 200.0 * radius_m / params.steady_speed_mps


def _no_crossing(params: ShipParams, radius_m: float) -> NonConvergence:
    """The error of a rollout still inside the circle after the time limit."""
    return NonConvergence(f"maneuver did not cross radius {radius_m} within "
                          f"{_time_limit(params, radius_m):.0f} s")


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

    def held_cell(self, heading_change_deg: float) -> TrajectoryCell | None:
        """The set's cell for a heading change, or None when the set holds none.

        A change the set was built for (a multiple of the resolution within
        the family) is that cell, the same solve; so is any change that the
        nearest cell's achieved heading change meets within _SOLVE_TOL_DEG,
        the tolerance generate_cell accepts a probe at.
        """
        index = self.nearest_index(heading_change_deg)
        cell = self.cells[index]
        built_for = (index - len(self.cells) // 2) * self.resolution_deg
        if (built_for == heading_change_deg
                or abs(cell.heading_change_deg - heading_change_deg) <= _SOLVE_TOL_DEG):
            return cell
        return None

    @cached_property
    def _kept(self) -> dict[float, TrajectoryCell]:
        """Cells kept by kept_cell, by heading change, least recently used first.

        Cached on the instance, not a dataclass field, so ==, hash and repr
        are unchanged, and a new set or a dataclasses.replace copy starts
        with an empty store.
        """
        return {}

    def kept_cell(self, heading_change_deg: float,
                  generate: Callable[[], TrajectoryCell]) -> TrajectoryCell:
        """The cell kept with the set for a heading change, generate() on a miss.

        For changes the set holds no cell for: the caller generates the cell
        for exactly this change at the set's key, so a kept cell is the one
        generate() would make again. The set keeps the _KEPT_CELLS most
        recently used cells and drops the least recently used.
        """
        kept = self._kept
        cell = kept.pop(heading_change_deg, None)
        if cell is None:
            cell = generate()
            if len(kept) >= _KEPT_CELLS:
                del kept[next(iter(kept))]
        kept[heading_change_deg] = cell
        return cell

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


class _Rollout(NamedTuple):
    """One scalar rollout as plain rows, one (x, y, heading, u, v, yaw rate,
    rudder) tuple per sample; cell() turns it into its TrajectoryCell."""

    rows: list[tuple]
    times: list[float]
    delta0_deg: float
    heading_change_deg: float
    arc_length_m: float
    radius_m: float

    def cell(self) -> TrajectoryCell:
        return _cell(np.array(self.rows, dtype=np.float64).T.copy(), self.times,
                     self.delta0_deg, self.heading_change_deg, self.arc_length_m,
                     self.radius_m)


def _roll_until_crossing(params: ShipParams, delta0: float, radius_m: float,
                         dt: float) -> _Rollout:
    """Simulate the two-stage maneuver until the path crosses the circle.

    Posture Adjustment holds delta0 until the yaw rate settles; the switch
    instant is located inside a step by linear interpolation of the yaw
    rate, keeping the delivered heading change continuous in delta0. The
    final sample is interpolated onto the circle. The states are
    ship.step_floats tuples, each heading wrapped once as a ShipState wraps
    it, so every row equals the ShipState that ship.step would give.
    """
    s = 1.0 if delta0 >= 0.0 else -1.0
    if delta0 >= 0.0:
        yaw_steady = params.turn_gain * delta0
    else:
        yaw_steady = params.turn_gain * delta0 / params.asymmetry_factor
    yaw_thresh = (1.0 - YAW_SETTLE_FRAC) * yaw_steady
    adjusting = delta0 != 0.0

    st = (0.0, 0.0, 0.0, params.steady_speed_mps, 0.0, 0.0, 0.0)  # the trimmed state
    rows = [st]
    times = [0.0]
    hc = 0.0
    t = 0.0
    arc = 0.0
    d_prev = 0.0
    max_t = _time_limit(params, radius_m)

    while True:
        if adjusting:
            trial = step_floats(st, params, delta0, dt)
            if trial[_RUD] == delta0 and s * trial[_R] >= s * yaw_thresh:
                adjusting = False
                denom = trial[_R] - st[_R]
                w = (yaw_thresh - st[_R]) / denom if denom != 0.0 else 0.0
                if not 0.0 < w < 1.0:
                    continue  # already settled: switch without a partial step
                # settle mid-step: integrate only up to the threshold crossing
                step_dt = w * dt
                new = step_floats(st, params, delta0, step_dt)
            else:
                new = trial
                step_dt = dt
        else:
            new = step_floats(st, params, 0.0, dt)
            step_dt = dt
        x, y, heading, u, v, yaw_rate, rudder = new

        d = math.hypot(x, y)
        if d >= radius_m:
            w = 1.0 if d == d_prev else (radius_m - d_prev) / (d - d_prev)
            hc_end = hc + w * step_dt * st[_R]
            # the end sample, its heading wrapped twice as a ShipState of it would be
            end = (st[_X] + w * (x - st[_X]),
                   st[_Y] + w * (y - st[_Y]),
                   wrap_degrees(wrap_degrees(hc_end)),
                   st[_U] + w * (u - st[_U]),
                   st[_V] + w * (v - st[_V]),
                   st[_R] + w * (yaw_rate - st[_R]),
                   st[_RUD] + w * (rudder - st[_RUD]))
            rows.append(end)
            arc += math.hypot(end[_X] - st[_X], end[_Y] - st[_Y])
            times.append(t + w * step_dt)
            return _Rollout(rows, times, delta0, hc_end, arc, radius_m)

        hc += step_dt * st[_R]
        t += step_dt
        arc += math.hypot(x - st[_X], y - st[_Y])
        st = (x, y, wrap_degrees(heading), u, v, yaw_rate, rudder)
        rows.append(st)
        times.append(t)
        d_prev = d
        if t > max_t:
            raise _no_crossing(params, radius_m)


# Rows of each lane's bookkeeping in _heading_changes: heading change and
# time so far, delta0, turn sign, settle threshold, Posture Adjustment flag,
# index in the caller's delta0 list.
_HC, _T, _D0, _SIGN, _THRESH, _ADJ, _LANE = range(7)


def _step_lanes(params: ShipParams, st: np.ndarray, cmd, dt) -> np.ndarray:
    """ship.step_floats on a (7, n) array of states, operation for operation.

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


def _stabilize_lanes(params: ShipParams, st: np.ndarray, dt: float) -> np.ndarray:
    """_step_lanes(params, st, 0.0, dt) bit for bit: the Posture Stabilization step.

    Once every rudder is exactly +0.0 it stays +0.0, and the full step's
    yaw-rate target (turn_gain * 0.0), speed target (U * (1.0 - 0.0)) and
    kick term (kick_coeff * 0.0) are exact 0.0, U and 0.0; z - 0.0 == z for
    every float z, -0.0 included. So this step computes only the terms left.
    A rudder of -0.0 or any other value takes the full step.
    """
    if st[_RUD].view(np.uint64).any():  # a bit set: the rudder is not +0.0
        return _step_lanes(params, st, 0.0, dt)
    x, y, hdg, u, v, r, _ = st
    h = np.radians(hdg)
    sh, ch = np.sin(h), np.cos(h)
    new = np.empty_like(st)
    new[_X] = x + dt * (u * sh + v * ch)
    new[_Y] = y + dt * (u * ch - v * sh)
    new[_HDG] = np.remainder(hdg + dt * r, 360.0)
    new[_U] = u + dt * (params.steady_speed_mps - u) / params.speed_recovery_s
    new[_V] = v - dt * v / params.turn_lag_s
    new[_R] = r + dt * (0.0 - r) / params.turn_lag_s
    new[_RUD] = 0.0
    return new


class _Recording:
    """The samples a recorded _heading_changes pass keeps.

    After each step, the states of the lanes still inside the circle with
    their times and lane indices; at each lane's crossing, its end sample
    interpolated onto the circle and the time of that sample.
    """

    def __init__(self, n_lanes: int):
        self.steps: list[tuple[np.ndarray, np.ndarray]] = []  # (states, [times; lanes])
        self.end = np.empty((_RUD + 1, n_lanes))
        self.end_t = np.empty(n_lanes)


def _heading_changes(params: ShipParams, delta0s, radius_m: float, dt: float,
                     record: _Recording | None = None) -> np.ndarray:
    """Heading change at the circle crossing for each delta0, rolled in lockstep.

    Lane i repeats _roll_until_crossing(params, delta0s[i], radius_m, dt)
    in the same order of operations (rate-limited rudder, split step at the
    settle instant, interpolation onto the circle) and returns its
    heading_change_deg bit for bit; with a record, it also keeps every
    sample of that rollout there. A lane gives NaN exactly where the scalar
    rollout raises _no_crossing: both test t > max_t on the same sums. Each
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
    max_t = _time_limit(params, radius_m)
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
            new = _stabilize_lanes(params, st, dt)

        done = np.hypot(new[_X], new[_Y]) >= near
        if done.any():
            # per-lane step lengths, when the settle split shortened some lanes' step
            lane_dts = step_dt.tolist() if isinstance(step_dt, np.ndarray) else None
            for i in np.flatnonzero(done).tolist():
                d = math.hypot(new[_X, i], new[_Y, i])
                if d < radius_m:
                    done[i] = False
                    continue
                d_prev = math.hypot(st[_X, i], st[_Y, i])
                w = 1.0 if d == d_prev else (radius_m - d_prev) / (d - d_prev)
                lane_dt = step_dt if lane_dts is None else lane_dts[i]
                lane = int(aux[_LANE, i])
                out[lane] = hc_end = float(aux[_HC, i]) + w * lane_dt * float(st[_R, i])
                if record is not None:
                    record.end[:, lane] = st[:, i] + w * (new[:, i] - st[:, i])
                    record.end[_HDG, lane] = wrap_degrees(wrap_degrees(hc_end))
                    record.end_t[lane] = aux[_T, i] + w * lane_dt

        aux[_HC] += step_dt * st[_R]
        aux[_T] += step_dt
        st = new
        t_bound += dt
        if t_bound > max_t:
            done |= aux[_T] > max_t
        if done.any():
            st, aux = st[:, ~done], aux[:, ~done]
            n_adjusting = int(np.count_nonzero(aux[_ADJ]))
        if record is not None:
            record.steps.append((st, aux[[_T, _LANE]]))
    return out


def _lane_cells(params: ShipParams, delta0s: list[float], radius_m: float,
                dt: float) -> list[TrajectoryCell | None]:
    """The cell of each delta0, from one recorded lockstep pass.

    Each cell equals _roll_until_crossing's bit for bit: the lanes give its
    states, times, end sample and heading change, and its arc length sums
    math.hypot of the sample-to-sample steps left to right, as the scalar
    loop does. Every cell owns a compact array; the recording is dropped on
    return. A lane that did not cross in time gives None.
    """
    record = _Recording(len(delta0s))
    heading_changes = _heading_changes(params, delta0s, radius_m, dt, record).tolist()
    states = np.concatenate([s for s, _ in record.steps], axis=1)
    times, lanes = np.concatenate([tl for _, tl in record.steps], axis=1)
    by_lane = np.argsort(lanes, kind="stable")  # each lane's samples in step order
    states, times = states[:, by_lane], times[by_lane]
    counts = np.bincount(lanes.astype(np.intp), minlength=len(delta0s)).tolist()
    start = np.zeros(_RUD + 1)  # the trimmed state
    start[_U] = params.steady_speed_mps

    cells: list[TrajectoryCell | None] = []
    k1 = 0
    for lane, (delta0, hc, n) in enumerate(zip(delta0s, heading_changes, counts)):
        k0, k1 = k1, k1 + n
        if math.isnan(hc):
            cells.append(None)
            continue
        columns = np.empty((_RUD + 1, n + 2))
        columns[:, 0] = start
        columns[:, 1:-1] = states[:, k0:k1]
        columns[:, -1] = record.end[:, lane]
        arc = 0.0
        for d in map(math.hypot, *np.diff(columns[:2]).tolist()):
            arc += d
        cells.append(_cell(columns, [0.0, *times[k0:k1].tolist(), float(record.end_t[lane])],
                           delta0, hc, arc, radius_m))
    return cells


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


def check_rollout_dt(params: ShipParams, radius_m: float, dt: float) -> None:
    """check_dt for rollouts on this (checked) circle, up to the time limit."""
    check_dt(params, dt, _time_limit(params, radius_m))


def _check_target(target: float) -> None:
    if not abs(target) <= MAX_HEADING_CHANGE_DEG + 1e-9:
        raise ValueError(f"|target| must be <= {MAX_HEADING_CHANGE_DEG}, got {target}")


class _Bisection:
    """Bracketed bisection on |delta0| for one nonzero target heading change.

    It holds the bracket, the best probe so far as (|error|, |delta0|) and
    the iteration budget; the caller rolls full rudder for start(), then
    each probe, one at a time (generate_cell) or for many targets in
    lockstep (build_cell_set), and hands the measured heading change to
    record(). Once solved, `result` is the chosen |delta0|.
    """

    def __init__(self, params: ShipParams, target: float, radius_m: float):
        self.target = target
        self.radius_m = radius_m
        self.sign = 1.0 if target > 0.0 else -1.0
        # delta0 of full rudder toward the target's side
        self.full_rudder = (params.rudder_limit_stbd_deg if target > 0.0
                            else params.rudder_limit_port_deg)
        self.lo, self.hi = 0.0, self.sign * self.full_rudder
        self.best: tuple[float, float] | None = None
        self.iterations = 0
        self.result: float | None = None

    def start(self, full_heading_change: float) -> None:
        """Take the full-rudder heading change: the reach check and first best."""
        s = self.sign
        if s * full_heading_change < s * self.target - CELL_TARGET_TOL_DEG:
            raise Unreachable(
                f"target {self.target:+.1f} deg unreachable at radius {self.radius_m} m: "
                f"full rudder reaches {full_heading_change:+.2f} deg at the crossing"
            )
        self.best = (abs(full_heading_change - self.target), self.hi)

    def probe(self) -> float:
        """The next |delta0| to roll."""
        return 0.5 * (self.lo + self.hi)

    def next_levels(self, levels: int) -> list[float]:
        """Every |delta0| the next `levels` probes can be: this level's probe
        and the subtree of candidates below it, 2**levels - 1 in all."""
        probes = []
        brackets = [(self.lo, self.hi)]
        for _ in range(levels):
            below = []
            for lo, hi in brackets:
                mid = 0.5 * (lo + hi)
                probes.append(mid)
                below += [(lo, mid), (mid, hi)]
            brackets = below
        return probes

    def record(self, mag: float, heading_change: float) -> None:
        """Take the heading change rolled for the probe `mag`."""
        err = heading_change - self.target
        if abs(err) < self.best[0]:
            self.best = (abs(err), mag)
        self.iterations += 1
        if abs(err) <= _SOLVE_TOL_DEG:
            self.result = mag
            return
        if self.sign * err < 0.0:
            self.lo = mag
        else:
            self.hi = mag
        if self.iterations == _MAX_BISECTIONS:
            best_err, best_mag = self.best
            if best_err > CELL_TARGET_TOL_DEG:
                raise NonConvergence(f"bisection on delta0 left a {best_err:.3f} deg "
                                     f"error for target {self.target:+.1f}")
            self.result = best_mag


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
    check_rollout_dt(params, radius_m, dt)

    if target == 0.0:
        return _roll_until_crossing(params, 0.0, radius_m, dt).cell()

    solve = _Bisection(params, target, radius_m)
    rolled = {solve.hi: _roll_until_crossing(params, solve.full_rudder, radius_m, dt)}
    solve.start(rolled[solve.hi].heading_change_deg)
    while solve.result is None:
        mag = solve.probe()
        rolled[mag] = _roll_until_crossing(params, solve.sign * mag, radius_m, dt)
        solve.record(mag, rolled[mag].heading_change_deg)
    return rolled[solve.result].cell()


def _target_error(target: float, exc: Exception) -> Exception:
    return type(exc)(f"target {target:+.1f} deg: {exc}")


def _solve_delta0s(params: ShipParams, targets: list[float], radius_m: float,
                   dt: float) -> list[float]:
    """delta0 of every target, all bisections advancing together.

    Each pass rolls, for every unsolved target, the subtree of its next
    probes (_FIRST_PASS_LEVELS levels in the first pass, _LEVELS_PER_PASS
    in each later one), and advances each bisection by that many levels.
    Targets that share a bracket share its subtree, and equal probes share
    a lane; the full-rudder rollout of each side rides along the first pass.
    The probe sequence of each target is therefore exactly generate_cell's.
    A NaN lane fails its target with _no_crossing; the lowest failing
    target's error is raised.
    """
    def measured(hc: float) -> float:
        if math.isnan(hc):  # the lane did not cross in time
            raise _no_crossing(params, radius_m)
        return hc

    solves = [_Bisection(params, t, radius_m) for t in targets if t != 0.0]
    full_rudder = [b.full_rudder for b in solves]
    errors: dict[float, Exception] = {}
    active = solves
    levels = _FIRST_PASS_LEVELS
    while active:
        subtrees = {(b.sign, b.lo, b.hi): b for b in active}.values()
        probes = (b.sign * mag for b in subtrees for mag in b.next_levels(levels))
        lanes = list(dict.fromkeys([*full_rudder, *probes]))
        hc = dict(zip(lanes, _heading_changes(params, lanes, radius_m, dt).tolist()))
        if full_rudder:
            for n, solve in enumerate(active):
                try:
                    solve.start(measured(hc[solve.full_rudder]))
                except (Unreachable, NonConvergence) as exc:
                    errors[solve.target] = exc
                    active = active[:n]  # targets above this one cannot fail first
                    break
            full_rudder = []
        for solve in active:
            try:
                for _ in range(levels):
                    mag = solve.probe()
                    solve.record(mag, measured(hc[solve.sign * mag]))
                    if solve.result is not None:
                        break
            except NonConvergence as exc:
                errors[solve.target] = exc
        active = [b for b in active if b.result is None and b.target not in errors]
        levels = _LEVELS_PER_PASS

    if errors:
        target = min(errors)
        raise _target_error(target, errors[target]) from errors[target]
    delta0 = {b.target: b.sign * b.result for b in solves}
    return [delta0.get(t, 0.0) for t in targets]


def build_cell_set(params: ShipParams, radius_m: float,
                   resolution_deg: float = DEFAULT_RESOLUTION_DEG,
                   max_heading_change_deg: float = MAX_HEADING_CHANGE_DEG,
                   dt: float = DEFAULT_DT_S) -> CellSet:
    """Generate the full cell family and fit its rudder/heading relation.

    delta0 is solved for all targets together (_solve_delta0s), and the
    solved delta0s are rolled once more in one recorded lockstep pass that
    gives every cell (_lane_cells), so the set equals one built target by
    target with generate_cell. A lane that does not cross in time is not
    rolled again: the build raises _no_crossing for its lowest target.

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
    check_rollout_dt(params, radius_m, dt)
    half = int(round(MAX_HEADING_CHANGE_DEG / resolution_deg))
    targets = [k * resolution_deg for k in range(-half, half + 1)]

    cells = _lane_cells(params, _solve_delta0s(params, targets, radius_m, dt), radius_m, dt)
    for target, cell in zip(targets, cells):
        if cell is None:  # the lane did not cross in time
            raise _target_error(target, _no_crossing(params, radius_m))

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


# At most this many library sets are kept, and at most this many keys of
# released sets are remembered.
_LIBRARY_SETS = 4
# The keys the library was asked for, least recently used first. A kept set's
# key maps to (set, reused), reused telling whether the key was asked for
# again; a released set leaves its key mapped to None.
_library: dict[tuple, tuple[CellSet, bool] | None] = {}


def cell_library(params: ShipParams, radius_m: float,
                 resolution_deg: float = DEFAULT_RESOLUTION_DEG,
                 dt: float = DEFAULT_DT_S) -> CellSet:
    """The cell set for (params, radius, resolution, dt), built once and reused.

    The planners take their cells here when none are passed, so a process
    that plans many scenarios on a few hulls and grids builds each set once.
    A key asked for again is reused: its set becomes the most recent, or is
    built again if it was released. On a miss, before the new set is built,
    every set whose key was never reused is released, so a stream of
    distinct keys holds one set at a time; then the least recently used sets
    are released until fewer than _LIBRARY_SETS remain. So the library holds
    at most _LIBRARY_SETS sets (about 1.6 MB each at 2 degrees and 600 m),
    and remembers the _LIBRARY_SETS most recently used keys of released sets.
    build_cell_set stays the uncached way to generate a set.
    """
    key = (params, radius_m, resolution_deg, dt)
    asked_before = key in _library
    kept = _library.pop(key, None)
    if kept is not None:
        _library[key] = (kept[0], True)
        return kept[0]
    # keep the most recent reused sets, release the rest and forget old keys
    stay = [k for k, entry in _library.items() if entry and entry[1]][1 - _LIBRARY_SETS:]
    released = [k for k in _library if k not in stay]
    for k in released[:-_LIBRARY_SETS]:
        del _library[k]
    for k in released[-_LIBRARY_SETS:]:
        _library[k] = None
    cells = build_cell_set(params, radius_m, resolution_deg, dt=dt)
    _library[key] = (cells, asked_before)
    return cells


def validate_rules(cell: TrajectoryCell, params: ShipParams) -> RuleReport:
    """Measure a cell against the three standardization rules."""
    columns = cell.samples.columns
    first, last = columns[:, 0].tolist(), columns[:, -1].tolist()
    u0 = params.steady_speed_mps
    speed_err = abs(last[_U] - u0) / u0
    rule1 = (
        abs(first[_RUD]) <= _RUDDER_EPS_DEG
        and abs(last[_RUD]) <= _RUDDER_EPS_DEG
        and abs(first[_U] - u0) / u0 <= _RULE1_SPEED_FRAC
        and speed_err <= _RULE1_SPEED_FRAC
    )

    steering = _count_steerings(columns[_RUD].tolist())
    rule2 = steering <= 1

    dist = math.hypot(*cell.end_offset)
    radius_err = abs(dist - cell.radius_m) / cell.radius_m
    rule3 = radius_err <= _RULE3_RADIUS_FRAC

    return RuleReport(
        rule1_ok=rule1, rule2_ok=rule2, rule3_ok=rule3,
        end_rudder_deg=last[_RUD],
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


def joined(cells: Sequence[TrajectoryCell]) -> Iterator[tuple[TrajectoryCell, int]]:
    """Each of a run of cells placed end to end, with the index of its first
    sample in the run: the first cell is whole, and each later cell leaves
    out its first sample, the joint it shares with the cell before.

    The one joint rule for a run's samples, its times and its state text.
    """
    return ((cell, 1 if i else 0) for i, cell in enumerate(cells))


def transform_cell(cells: Sequence[TrajectoryCell], poses: Sequence[GridNode]) -> Trajectory:
    """Place ship-frame cells end to end, each at its world pose (rotate by
    the pose's heading, translate to its position).

    The cells join by joined's rule; no cells give an empty Trajectory. The
    placement runs on the joined sample columns as whole-array expressions:
    each pose's position, heading, cosine and sine (math.cos and math.sin,
    once per pose) are repeated over its cell's samples, and the per-sample
    arithmetic keeps its order, so every sample is bit-equal to placing the
    samples one at a time. x and y are placed at once; the trajectory's
    other rows are filled on the first read of its columns (Trajectory.placed),
    into the same array. The heading is wrapped twice, as ShipState wraps
    a wrapped sum once more: a sum just below zero wraps to 360.0, and only
    then to 0.0.
    """
    if not cells:
        return Trajectory(np.empty((7, 0)))
    pieces = [cell.samples.columns[:, first:] for cell, first in joined(cells)]
    counts = [p.shape[1] for p in pieces]
    headings = [pose.heading_deg for pose in poses]
    per_pose = np.array([(*pose.position, math.cos(math.radians(heading)),
                          math.sin(math.radians(heading)))
                         for pose, heading in zip(poses, headings)]).T
    ox, oy, ch, sh = np.repeat(per_pose, counts, axis=1)
    x, y = np.concatenate([p[:_HDG] for p in pieces], axis=1)
    world = np.empty((_RUD + 1, sum(counts)))
    world[_X], world[_Y] = ox + (x * ch + y * sh), oy + (-x * sh + y * ch)

    def fill() -> np.ndarray:
        # the per-sample headings are repeated here, so that an unread
        # trajectory holds no more than its own columns
        np.concatenate([p[_HDG:] for p in pieces], axis=1, out=world[_HDG:])
        world[_HDG] = wrap_degrees(wrap_degrees(world[_HDG] + np.repeat(headings, counts)))
        return world

    return Trajectory.placed(world[:_HDG], fill)
