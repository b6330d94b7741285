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
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .cells import (MAX_HEADING_CHANGE_DEG, CellSet, TrajectoryCell, cell_library,
                    transform_cell)
from .errors import (
    DestinationInsideObstacle,
    InsideObstacle,
    StartInsideObstacle,
    ValidationError,
)
from .grid import CompassAngle, GridNode, advance_pose, compass_bearing
from .ship import Trajectory

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
    """One search-loop decision: which bearing to pursue and how far to turn.

    heading_change_deg is already clamped to the cell family's maximum; when
    the full bearing difference exceeds it, two_step marks that the rest is
    left to re-evaluation from the next node. avoid_side is +1/-1 when the
    bearing is a starboard/port tangent (the executor then rounds the cell
    choice away from the obstacle), 0 for plain destination pursuit.
    """

    target_bearing_deg: float
    heading_change_deg: float
    two_step: bool
    avoid_side: int = 0


@dataclass
class PlanResult:
    nodes: list[GridNode]
    trajectory: Trajectory
    sample_times_s: list[float]
    rudder_commands: list[float]
    heading_changes_deg: list[float]
    path_length_m: float
    steering_count: int
    reached: bool
    min_clearance_m: Optional[float] = None
    separation_m: list[float] = field(default_factory=list)
    min_separation_m: Optional[float] = None


def tangent_angles(current: Point, obstacle: Obstacle) -> tuple[CompassAngle, CompassAngle]:
    """Bearings of the two tangent points of an obstacle disc, left first."""
    d = math.dist(current, obstacle.center)
    if d <= obstacle.radius_m:
        raise InsideObstacle(
            f"point {current} is inside obstacle at {obstacle.center} (r={obstacle.radius_m})"
        )
    center_bearing = compass_bearing(current, obstacle.center)
    half_deg = math.degrees(math.asin(obstacle.radius_m / d))
    return center_bearing.plus(-half_deg), center_bearing.plus(half_deg)


def is_bypassed(pose: GridNode, obstacle: Obstacle, destination: Point) -> bool:
    """True when the obstacle no longer needs to be tracked.

    Either the destination bearing clears the obstacle's tangent cone, or
    the obstacle center sits more than 90 degrees off the current heading
    (abeam or astern).
    """
    d = math.dist(pose.position, obstacle.center)
    if d <= obstacle.radius_m:
        return False
    center_bearing = compass_bearing(pose.position, obstacle.center)
    rel = abs(center_bearing.diff_from(pose.heading))
    if rel > 90.0:
        return True
    dest_bearing = compass_bearing(pose.position, destination)
    half_deg = math.degrees(math.asin(obstacle.radius_m / d))
    return abs(dest_bearing.diff_from(center_bearing)) >= half_deg


def _aim(pose: GridNode, bearing: CompassAngle, side: int = 0) -> HeadingDecision:
    """Pursue a bearing, capping the turn at the cell family's maximum."""
    diff = bearing.diff_from(pose.heading)
    two_step = abs(diff) > MAX_HEADING_CHANGE_DEG
    change = math.copysign(MAX_HEADING_CHANGE_DEG, diff) if two_step else diff
    return HeadingDecision(bearing.degrees, change, two_step, avoid_side=side)


def select_heading_free(pose: GridNode, destination: Point) -> HeadingDecision:
    """Free-water decision: aim at the destination, capped at the max turn."""
    return _aim(pose, compass_bearing(pose.position, destination))


@dataclass
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
                   engagement: Engagement) -> HeadingDecision:
    """One planning decision via the extreme-tangency comparison.

    Takes the tangent bearings of every tracked obstacle still blocking the
    destination bearing (the free-water rule when none does). A fresh
    episode pursues whichever of the port-most and starboard-most deviates
    less from the destination bearing (ties go starboard); an episode in
    progress pursues its committed side's tangent envelope, so
    re-evaluation does not flip-flop across the obstacle. tracked pairs a
    stable identifier with each obstacle so an episode survives obstacles
    dropping out (and the dynamic planner's virtual obstacle being
    refreshed under the same identifier).
    """
    blocking = [(oid, o) for oid, o in tracked if not is_bypassed(pose, o, destination)]
    if not blocking:
        engagement.side = None
        engagement.ids = frozenset()
        return select_heading_free(pose, destination)

    dest_bearing = compass_bearing(pose.position, destination)
    tangents = [tangent_angles(pose.position, o) for _, o in blocking]
    left_diffs = [left.diff_from(dest_bearing) for left, _ in tangents]
    right_diffs = [right.diff_from(dest_bearing) for _, right in tangents]
    ids = frozenset(oid for oid, _ in blocking)
    fresh = engagement.side is None or not (ids & engagement.ids)
    engagement.ids = ids
    if fresh:
        port_most = min(left_diffs + right_diffs)
        stbd_most = max(left_diffs + right_diffs)
        # ties (within angle-arithmetic noise) break to starboard
        engagement.side = -1 if abs(port_most) < abs(stbd_most) - 1e-9 else +1
        chosen_diff = port_most if engagement.side < 0 else stbd_most
    else:
        chosen_diff = max(right_diffs) if engagement.side > 0 else min(left_diffs)
    side = engagement.side
    decision = _aim(pose, dest_bearing.plus(chosen_diff), side)
    # While tracking, only ever turn further away from the obstacle: hold
    # the heading when it already clears the committed-side tangent (the
    # re-aim commands decay to nothing as the path converges onto the
    # tangent line, instead of chasing the tangent back inward).
    change = decision.heading_change_deg
    held = max(0.0, change) if side > 0 else min(0.0, change)
    if fresh or held == change:
        return decision
    return HeadingDecision(pose.heading.degrees, held, two_step=False, avoid_side=side)


def select_heading_static(pose: GridNode, destination: Point,
                          obstacles: list[Obstacle]) -> HeadingDecision:
    """decide_heading with no avoidance episode in progress."""
    return decide_heading(pose, destination, list(enumerate(obstacles)), Engagement())


def pick_cell(decision: HeadingDecision,
              cells: CellSet) -> tuple[TrajectoryCell, int, float]:
    """Cell to execute for a decision, its index and its rudder command.

    Plain pursuit rounds to the nearest cell; a tangent-bearing decision
    rounds away from the obstacle (CellSet.nearest_index), never toward it.
    That does not keep the swept cell clear: its kick, sway and arc can
    still cut inside the tangent line.
    """
    idx = cells.nearest_index(decision.heading_change_deg, decision.avoid_side)
    return cells.cells[idx], idx, cells.command_for(decision.heading_change_deg)


def clearance(point: Point, obstacles: list[Obstacle]) -> float:
    """Distance from a point to the nearest obstacle boundary (signed)."""
    return min(math.dist(point, o.center) - o.radius_m for o in obstacles)


def min_clearance(points: np.ndarray, obstacles: list[Obstacle]) -> float:
    """min(clearance(p, obstacles) for p in points) for an (n, 2) point array.

    Screens every point against each disc with numpy hypot, then
    re-measures with clearance() only the points whose screened value is
    within 1e-6 * (1 + |min| + largest radius) of the screened minimum.
    That margin exceeds the few-ulp difference between np.hypot and
    math.dist, so the true minimizer is always re-measured and the result
    equals the point-by-point minimum exactly.
    """
    x, y = points.T
    screened = np.full(len(points), np.inf)
    for o in obstacles:
        np.minimum(screened, np.hypot(x - o.center[0], y - o.center[1]) - o.radius_m,
                   out=screened)
    lowest = screened.min()
    near = screened <= lowest + 1e-6 * (1.0 + abs(lowest) + max(o.radius_m for o in obstacles))
    return min(clearance(p, obstacles) for p in map(tuple, points[near].tolist()))


def check_endpoints(scenario: "Scenario", obstacles: list[Obstacle]) -> None:
    """Raise when the start or the destination lies inside an obstacle disc."""
    start_xy = (scenario.start_x_m, scenario.start_y_m)
    dest = (scenario.dest_x_m, scenario.dest_y_m)
    for o in obstacles:
        if math.dist(start_xy, o.center) <= o.radius_m:
            raise StartInsideObstacle(f"start {start_xy} inside obstacle at {o.center}")
        if math.dist(dest, o.center) <= o.radius_m:
            raise DestinationInsideObstacle(f"destination {dest} inside obstacle at {o.center}")


# next_cell(pose, t) -> (cell, cell index, rudder command) for one step
NextCell = Callable[[GridNode, float], tuple[TrajectoryCell, int, float]]


def execute_cells(scenario: "Scenario", next_cell: NextCell,
                  obstacles: list[Obstacle]) -> PlanResult:
    """On-line execution loop shared by every planner.

    From the start pose, asks next_cell for the cell to run at each node
    (t is the plan time at that node), places the cell at the pose, keeps
    its sample columns and times (consecutive cells share their joint
    sample; the arrays are joined once, after the last cell) and advances
    to the cell's end node. Stops within
    the reach tolerance of the destination, or with reached=False when the
    step budget runs out. The path length sums the sample-to-sample
    distances in sample order. Clearance is measured against obstacles
    (None when there are none), at the start point if no cell ran, by
    min_clearance: one numpy screen of every sample against every disc,
    then an exact clearance() re-check of the samples near the minimum.
    """
    start_xy = (scenario.start_x_m, scenario.start_y_m)
    dest = (scenario.dest_x_m, scenario.dest_y_m)
    reach_tol = scenario.reach_tolerance_m

    pose = GridNode(position=start_xy, heading=CompassAngle(scenario.start_heading_deg))
    nodes = [pose]
    blocks: list[np.ndarray] = []      # each cell's (7, k) sample columns
    time_blocks: list[np.ndarray] = []
    commands: list[float] = []
    changes: list[float] = []
    t = 0.0
    for _ in range(scenario.max_steps):
        if math.dist(pose.position, dest) < reach_tol:
            break
        cell, idx, command = next_cell(pose, t)
        commands.append(command)
        changes.append(cell.heading_change_deg)

        world = transform_cell(cell, pose.position[0], pose.position[1],
                               pose.heading.degrees)
        joint = 1 if blocks else 0
        blocks.append(world.columns[:, joint:])
        time_blocks.append(t + cell._times[joint:])
        t += cell.duration_s
        pose = advance_pose(pose, cell, idx)
        nodes.append(pose)

    if blocks:
        trajectory = Trajectory(np.concatenate(blocks, axis=1))
        times = np.concatenate(time_blocks).tolist()
        xy = trajectory.columns[:2]
    else:
        trajectory = Trajectory(np.empty((7, 0)))
        times = []
        xy = np.array([[start_xy[0]], [start_xy[1]]], dtype=np.float64)
    path_length = 0.0
    for d in map(math.hypot, *np.diff(xy).tolist()):
        path_length += d

    min_clear = min_clearance(xy.T, obstacles) if obstacles else None

    return PlanResult(
        nodes=nodes,
        trajectory=trajectory,
        sample_times_s=times,
        rudder_commands=commands,
        heading_changes_deg=changes,
        path_length_m=path_length,
        steering_count=sum(1 for c in commands if abs(c) >= STEERING_THRESHOLD_DEG),
        reached=math.dist(pose.position, dest) < reach_tol,
        min_clearance_m=min_clear,
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
    re-evaluates from the new node (see execute_cells).
    """
    obstacles = scenario.obstacles
    check_endpoints(scenario, obstacles)
    cells = scenario_cells(scenario, cells)
    dest = (scenario.dest_x_m, scenario.dest_y_m)
    engagement = Engagement()
    tracked = list(enumerate(obstacles))

    def next_cell(pose: GridNode, t: float):
        decision = decide_heading(pose, dest, tracked, engagement)
        return pick_cell(decision, cells)

    return execute_cells(scenario, next_cell, obstacles)
