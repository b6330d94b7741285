"""Heading selection and path construction amid static disc obstacles.

Free water: head straight for the destination, in one step when the bearing
is within the cell family's maximum heading change, otherwise turn the
maximum first and re-evaluate. Obstacle waters: aim at the tangent point of
the blocking obstacle whose bearing costs the smaller deviation from the
destination bearing, re-evaluating from every new node so the tangency
error shrinks as the obstacle is tracked (the continuous-tracking loop).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Optional, TypeVar

import numpy as np

from .cells import (MAX_HEADING_CHANGE_DEG, CellSet, TrajectoryCell, cell_library, joined,
                    transform_cell)
from .errors import (
    DestinationInsideObstacle,
    InsideObstacle,
    StartInsideObstacle,
    ValidationError,
)
from .grid import GridNode, advance_pose, compass_bearing, signed_degrees, wrap_degrees
from .ship import MAX_RUN_STEPS, Trajectory

if TYPE_CHECKING:
    from .scenario import Scenario

Point = tuple[float, float]

# commands smaller than this are trim, not steering (keeps steering counts
# meaningful when late-plan corrections drop below a degree)
STEERING_THRESHOLD_DEG = 1.0


@dataclass(frozen=True)
class Obstacle:
    """Disc obstacle; radius is already inflated by any safety margin.

    course_deg is the compass course of motion and is ignored for static
    obstacles (speed_mps == 0).
    """

    center: Point
    radius_m: float
    speed_mps: float = 0.0
    course_deg: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (*self.center, self.radius_m, self.speed_mps,
                                       self.course_deg))):
            raise ValueError("obstacle center, radius, speed and course must be finite")
        if not self.radius_m > 0:
            raise ValueError("obstacle radius must be positive")
        if not self.speed_mps >= 0:
            raise ValueError("obstacle speed must be non-negative")

    @property
    def moving(self) -> bool:
        return self.speed_mps > 0.0

    def position_at(self, t_s: float) -> Point:
        """Center at time t_s; for an array of times, each coordinate is an array."""
        h = math.radians(self.course_deg)
        return (self.center[0] + self.speed_mps * t_s * math.sin(h),
                self.center[1] + self.speed_mps * t_s * math.cos(h))


@dataclass(frozen=True)
class HeadingDecision:
    """One search-loop decision: how far to turn, and away from which side.

    heading_change_deg is already clamped to ±MAX_HEADING_CHANGE_DEG; a
    bearing further off is left to re-evaluation from the next node.
    avoid_side is +1/-1 when the turn pursues a starboard/port tangent (the
    executor then rounds the cell choice away from the obstacle), 0 for
    plain destination pursuit.
    """

    heading_change_deg: float
    avoid_side: int = 0


def _separation_series(relative: np.ndarray) -> list[float]:
    """math.hypot of each sample of a (2, n) own-minus-mover track (as math.dist)."""
    return list(map(math.hypot, *relative.tolist()))


@dataclass
class PlanResult:
    """A plan. It keeps the cells it ran, in order, whose samples the
    trajectory places end to end (cells.joined), and the plan time at each
    cell's start, from which sample_times_s is computed on first read. A
    dynamic plan that ran a cell keeps its own-minus-mover track, from which
    separation_m is computed on first read."""

    nodes: list[GridNode]
    trajectory: Trajectory
    rudder_commands: list[float]
    heading_changes_deg: list[float]
    path_length_m: float
    steering_count: int
    reached: bool
    min_clearance_m: Optional[float] = None
    min_separation_m: Optional[float] = None
    relative_track: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    executed_cells: list[TrajectoryCell] = field(default_factory=list, repr=False,
                                                 compare=False)
    cell_starts_s: list[float] = field(default_factory=list)

    @cached_property
    def _times(self) -> np.ndarray:
        """sample_times_s as a float64 array: each cell's start time plus its
        own sample times, joined by cells.joined."""
        local = [cell._times[first:] for cell, first in joined(self.executed_cells)]
        return (np.repeat(self.cell_starts_s, [len(times) for times in local])
                + np.concatenate([np.empty(0), *local]))

    @cached_property
    def sample_times_s(self) -> list[float]:
        """Plan time at each sample of the trajectory."""
        return self._times.tolist()

    @cached_property
    def separation_m(self) -> list[float]:
        """Distance to the mover at each sample; empty without a relative track."""
        return [] if self.relative_track is None else _separation_series(self.relative_track)


def _screen(current: Point, obstacle: Obstacle, heading_deg: float,
            dest_bearing: float) -> Optional[tuple[float, float]]:
    """Compass bearings of the two tangent points of an obstacle disc, left
    first, or None when the obstacle is bypassed.

    It is bypassed when its center sits more than 90 degrees off the heading
    (abeam or astern) or the destination bearing clears its tangent cone.
    Raises InsideObstacle from inside the disc.
    """
    d = math.dist(current, obstacle.center)
    if d <= obstacle.radius_m:
        raise InsideObstacle(
            f"point {current} is inside obstacle at {obstacle.center} (r={obstacle.radius_m})"
        )
    center_bearing = compass_bearing(current, obstacle.center)
    half_deg = math.degrees(math.asin(obstacle.radius_m / d))
    if (abs(signed_degrees(center_bearing - heading_deg)) > 90.0
            or abs(signed_degrees(dest_bearing - center_bearing)) >= half_deg):
        return None
    return wrap_degrees(center_bearing - half_deg), wrap_degrees(center_bearing + half_deg)


def _aim(pose: GridNode, bearing: float, side: int = 0) -> HeadingDecision:
    """Pursue a compass bearing, clamping the turn to ±MAX_HEADING_CHANGE_DEG."""
    diff = signed_degrees(bearing - pose.heading_deg)
    return HeadingDecision(max(-MAX_HEADING_CHANGE_DEG, min(MAX_HEADING_CHANGE_DEG, diff)),
                           side)


@dataclass(frozen=True)
class Engagement:
    """Avoidance-episode state for the continuous-tracking loop.

    The side chosen when obstacles first block is kept for as long as the
    blocking set stays connected to that episode (some obstacle of it is
    still blocking); a fresh episode re-runs the side comparison.
    """

    side: Optional[int] = None
    ids: frozenset = frozenset()


def decide_heading(pose: GridNode, destination: Point,
                   tracked: list[tuple[object, Obstacle]],
                   engagement: Engagement) -> tuple[HeadingDecision, Engagement]:
    """One decision, and the next node's Engagement, by extreme tangency.

    Screens each tracked obstacle once (_screen, which raises InsideObstacle
    for the first that holds the pose) and takes the tangent bearings of
    every one still blocking the destination bearing (the free-water rule
    when none does). A fresh episode pursues whichever of the port-most and
    starboard-most deviates less from the destination bearing (ties go
    starboard); an episode in progress pursues its committed side's tangent
    envelope, so re-evaluation does not flip-flop across the obstacle.
    tracked pairs a stable identifier with each obstacle so an episode
    survives obstacles dropping out (and the dynamic planner's virtual
    obstacle being refreshed under the same identifier). engagement is only
    read.
    """
    dest_bearing = compass_bearing(pose.position, destination)
    blocking, tangents = [], []   # each still blocking obstacle's id and tangent pair
    for oid, o in tracked:
        pair = _screen(pose.position, o, pose.heading_deg, dest_bearing)
        if pair is not None:
            blocking.append(oid)
            tangents.append(pair)
    if not tangents:
        return _aim(pose, dest_bearing), Engagement()

    left_diffs = [signed_degrees(left - dest_bearing) for left, _ in tangents]
    right_diffs = [signed_degrees(right - dest_bearing) for _, right in tangents]
    ids = frozenset(blocking)
    fresh = engagement.side is None or not (ids & engagement.ids)
    if fresh:
        port_most = min(left_diffs + right_diffs)
        stbd_most = max(left_diffs + right_diffs)
        # ties (within angle-arithmetic noise) break to starboard
        side = -1 if abs(port_most) < abs(stbd_most) - 1e-9 else +1
        chosen_diff = port_most if side < 0 else stbd_most
    else:
        side = engagement.side
        chosen_diff = max(right_diffs) if side > 0 else min(left_diffs)
    decision = _aim(pose, wrap_degrees(dest_bearing + chosen_diff), side)
    engagement = Engagement(side, ids)
    # While tracking, only ever turn further away from the obstacle: hold
    # the heading when it already clears the committed-side tangent (the
    # re-aim commands decay to nothing as the path converges onto the
    # tangent line, instead of chasing the tangent back inward).
    change = decision.heading_change_deg
    held = max(0.0, change) if side > 0 else min(0.0, change)
    if fresh or held == change:
        return decision, engagement
    return HeadingDecision(held, side), engagement


def pick_cell(decision: HeadingDecision, cells: CellSet) -> tuple[TrajectoryCell, float]:
    """Cell to execute for a decision and its rudder command.

    Plain pursuit rounds to the nearest cell; a tangent-bearing decision
    rounds away from the obstacle (CellSet.nearest_index), never toward it.
    That does not keep the swept cell clear: its kick, sway and arc can
    still cut inside the tangent line.
    """
    idx = cells.nearest_index(decision.heading_change_deg, decision.avoid_side)
    return cells.cells[idx], cells.command_for(decision.heading_change_deg)


def clearance(point: Point, obstacles: list[Obstacle]) -> float:
    """Distance from a point to the nearest obstacle boundary (signed)."""
    return min(math.dist(point, o.center) - o.radius_m for o in obstacles)


def _segment_gap(a: Point, b: Point, center: Point, radius: float) -> float:
    """Signed gap from the segment a-b to a disc, at the clamped projection of its center."""
    ax, ay = a
    ox, oy = center
    dx, dy = b[0] - ax, b[1] - ay
    seg_sq = dx * dx + dy * dy
    t = max(0.0, min(1.0, ((ox - ax) * dx + (oy - ay) * dy) / seg_sq)) if seg_sq else 0.0
    return math.hypot(ax + t * dx - ox, ay + t * dy - oy) - radius


def _polyline_gap(xy: np.ndarray, discs: list[tuple[Point, float]]) -> float:
    """Minimum of _segment_gap over the segments of a (2, n) polyline (one
    sample is a zero-length segment) and the (center, radius) discs.

    A numpy screen bounds each pair from below: a segment's squared distance
    to a center is at least its nearer end's less its squared length. The
    pairs bounded within a margin, far above rounding, of the lowest point
    gap are re-measured with _segment_gap, so the result is exact.
    """
    if xy.shape[1] == 1:
        xy = np.repeat(xy, 2, axis=1)
    seg_sq = (np.diff(xy) ** 2).sum(axis=0)
    sqs = [(xy[0] - cx) ** 2 + (xy[1] - cy) ** 2 for (cx, cy), _ in discs]
    lowest = min(math.sqrt(sq.min()) - r for sq, (_, r) in zip(sqs, discs))
    cutoff = lowest + 1e-6 * (1 + abs(lowest) + max(r for _, r in discs) + np.abs(xy).max())
    return min(_segment_gap(xy[:, i].tolist(), xy[:, i + 1].tolist(), center, r)
               for sq, (center, r) in zip(sqs, discs) if cutoff + r >= 0.0
               for i in np.flatnonzero(np.minimum(sq[:-1], sq[1:]) - seg_sq <= (cutoff + r) ** 2))


def check_endpoints(scenario: "Scenario", obstacles: list[Obstacle]) -> None:
    """Raise when the start or the destination lies inside an obstacle disc."""
    start_xy = (scenario.start_x_m, scenario.start_y_m)
    dest = (scenario.dest_x_m, scenario.dest_y_m)
    for o in obstacles:
        if math.dist(start_xy, o.center) <= o.radius_m:
            raise StartInsideObstacle(f"start {start_xy} inside obstacle at {o.center}")
        if math.dist(dest, o.center) <= o.radius_m:
            raise DestinationInsideObstacle(f"destination {dest} inside obstacle at {o.center}")


# step(pose, t, state) -> (cell, rudder command, next state); a planner's
# step mutates nothing, so it may be re-run on any input
State = TypeVar("State")
Step = Callable[[GridNode, float, State], tuple[TrajectoryCell, float, State]]


def execute_cells(scenario: "Scenario", step: Step[State], state: State,
                  obstacles: list[Obstacle]) -> PlanResult:
    """On-line execution loop shared by every planner.

    From the start pose, asks step for the cell to run at each node (t is
    the plan time at that node), threading the state: state is the start
    node's, and each step returns the next node's. Keeps each cell, its
    start time and its command, and advances to the cell's end node. After
    the last cell, one transform_cell call places every cell at its node
    (consecutive cells share their joint sample); the plan is measured from
    the placed x and y alone, and the trajectory's other rows and the
    sample times are computed on first read. Stops within the reach
    tolerance of the destination, or with reached=False when the step
    budget runs out or the next cell would take the path past MAX_RUN_STEPS
    samples.
    The path length is math.fsum of the executed cells' arc_length_m, each
    measured once when its cell was built, so 0.0 when no cell ran; placing
    a cell is a rotation and a shift, so this equals the length of the
    polyline through the placed samples to within rounding. Clearance (None without obstacles) is _polyline_gap of the
    path through the samples, or of the start point if no cell ran.
    """
    start_xy = (scenario.start_x_m, scenario.start_y_m)
    dest = (scenario.dest_x_m, scenario.dest_y_m)
    reach_tol = scenario.reach_tolerance_m

    pose = GridNode(start_xy, wrap_degrees(scenario.start_heading_deg))
    nodes = [pose]
    run: list[TrajectoryCell] = []
    starts: list[float] = []   # plan time at each cell's start
    commands: list[float] = []
    t = 0.0
    samples = 0
    for _ in range(scenario.max_steps):
        if math.dist(pose.position, dest) < reach_tol:
            break
        cell, command, state = step(pose, t, state)
        samples += len(cell.sample_times_s) - (1 if run else 0)
        if samples > MAX_RUN_STEPS:
            break
        run.append(cell)
        starts.append(t)
        commands.append(command)
        t += cell.duration_s
        pose = advance_pose(pose, cell)
        nodes.append(pose)

    trajectory = transform_cell(run, nodes[:-1])
    xy = trajectory.xy if run else np.array([start_xy], dtype=np.float64).T
    discs = [(o.center, o.radius_m) for o in obstacles]

    return PlanResult(
        nodes=nodes,
        trajectory=trajectory,
        rudder_commands=commands,
        heading_changes_deg=[c.heading_change_deg for c in run],
        path_length_m=math.fsum(c.arc_length_m for c in run),
        steering_count=sum(1 for c in commands if abs(c) >= STEERING_THRESHOLD_DEG),
        reached=math.dist(pose.position, dest) < reach_tol,
        min_clearance_m=_polyline_gap(xy, discs) if discs else None,
        executed_cells=run,
        cell_starts_s=starts,
    )


def scenario_cells(scenario: "Scenario", cells: Optional[CellSet] = None) -> CellSet:
    """The cells to plan on: the set passed, or the library's for the scenario.

    A passed set must have been built for the scenario's hull, radius,
    resolution and dt (its key); ValidationError otherwise.
    """
    key = (scenario.ship, scenario.radius_m, scenario.cell_resolution_deg, scenario.dt_s)
    if cells is None:
        return cell_library(*key)
    if cells.key != key:
        raise ValidationError(f"cell set is for {cells.key}; scenario needs {key}")
    return cells


def plan_static(scenario: "Scenario", cells: Optional[CellSet] = None) -> PlanResult:
    """Continuous-tracking planning loop over static obstacles.

    Each iteration decides a heading, converts it to a rudder command via
    the cell relation, executes the nearest (safely rounded) cell, and
    re-evaluates from the new node (see execute_cells); the state is the
    Engagement.
    """
    obstacles = scenario.obstacles
    check_endpoints(scenario, obstacles)
    cells = scenario_cells(scenario, cells)
    dest = (scenario.dest_x_m, scenario.dest_y_m)
    tracked = list(enumerate(obstacles))

    def step(pose: GridNode, t: float, engagement: Engagement):
        decision, engagement = decide_heading(pose, dest, tracked, engagement)
        return (*pick_cell(decision, cells), engagement)

    return execute_cells(scenario, step, Engagement(), obstacles)
