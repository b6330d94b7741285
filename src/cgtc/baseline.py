"""Grid baseline planner: 8-connected A* tracked with 45-degree headings.

The comparison baseline plans on a square grid of pitch equal to the circle
radius, then has the same vehicle dynamics track the resulting polyline
with desired headings restricted to multiples of 45 degrees. Metrics come
from the executed trajectory, not the polyline, so both planners are
measured the same way.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Optional

from .cells import MAX_HEADING_CHANGE_DEG, CellSet, TrajectoryCell, generate_cell
from .errors import GridTooLarge, NoGridPath
from .grid import GridNode, compass_bearing, signed_degrees
from .static_planner import (Obstacle, PlanResult, _segment_gap, execute_cells,
                             scenario_cells)

if TYPE_CHECKING:
    from .scenario import Scenario

Point = tuple[float, float]

_DIRS = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
# Turn cost in degrees from an incoming to an outgoing direction, by their
# _DIRS indices (none out of the start node), and the length of a step along
# each direction in pitches.
_TURN_DEG = [[abs(signed_degrees(math.degrees(math.atan2(d[0], d[1]))
                                 - math.degrees(math.atan2(prev[0], prev[1]))))
              for d in _DIRS] for prev in _DIRS]
_NO_TURN = [0.0] * len(_DIRS)
_STEP = [math.hypot(*d) for d in _DIRS]

# The most nodes astar_grid_path's square grid may hold, as ship.MAX_RUN_STEPS
# bounds a run: a leg of up to about 166 pitches. Searching every node of
# such a grid takes a few seconds.
MAX_GRID_NODES = 1_000_000


def _segment_clear(a: Point, b: Point, obstacles: list[Obstacle]) -> bool:
    """True when the segment a-b keeps a positive gap to every disc."""
    for o in obstacles:
        if _segment_gap(a, b, o.center, o.radius_m) <= 0.0:
            return False
    return True


def astar_grid_path(start: Point, goal: Point, pitch_m: float,
                    obstacles: list[Obstacle]) -> list[Point]:
    """8-connected A* on a square grid of the given pitch, start at a node.

    The goal snaps to the nearest grid node. Edges (not only nodes) are
    checked against the obstacle discs. Ties in f break toward the smaller
    heading change from the incoming direction. Each expanded node first
    screens the discs: only one whose centre lies within its radius plus a
    diagonal step of the node can touch one of the node's edges. The grid
    reaches three times the leg in pitches from the start in each direction
    (at least 8); one of more than MAX_GRID_NODES nodes raises GridTooLarge
    before the search.
    """
    goal_ij = (round((goal[0] - start[0]) / pitch_m),
               round((goal[1] - start[1]) / pitch_m))

    def world(ij):
        return (start[0] + ij[0] * pitch_m, start[1] + ij[1] * pitch_m)

    span = math.dist((0, 0), goal_ij) + 0.5
    bound = int(max(8, 3 * span))
    if (2 * bound + 1) ** 2 > MAX_GRID_NODES:
        raise GridTooLarge(f"a grid of {(2 * bound + 1) ** 2} nodes from {start} to {goal} "
                           f"at pitch {pitch_m}: at most {MAX_GRID_NODES} are searched")

    def heur(ij):
        return pitch_m * math.dist(ij, goal_ij)

    step = [pitch_m * length for length in _STEP]
    diagonal = abs(pitch_m) * math.sqrt(2.0)
    # the slack, far above the rounding of the world coordinates and of the
    # segment test, keeps every disc the segment test could find blocking
    extent = abs(start[0]) + abs(start[1]) + 2.0 * bound * diagonal
    discs = []
    for o in obstacles:
        ox, oy = o.center
        reach = o.radius_m + diagonal
        reach += 1e-9 * (reach + extent + abs(ox) + abs(oy))
        discs.append((o, ox, oy, reach * reach))

    counter = 0
    h_of = {(0, 0): heur((0, 0))}
    open_heap = [(h_of[(0, 0)], 0.0, counter, (0, 0), None)]
    g_cost = {(0, 0): 0.0}
    came: dict = {(0, 0): None}

    while open_heap:
        f, turn, _, ij, prev_k = heapq.heappop(open_heap)
        if ij == goal_ij:
            path = []
            node = ij
            while node is not None:
                path.append(world(node))
                node = came[node]
            return path[::-1]
        base = g_cost[ij]
        if f - h_of[ij] > base + 1e-9:
            continue  # stale entry
        here = world(ij)
        hx, hy = here
        near = [o for o, ox, oy, reach_sq in discs
                if (ox - hx) ** 2 + (oy - hy) ** 2 <= reach_sq]
        turns = _TURN_DEG[prev_k] if prev_k is not None else _NO_TURN
        i, j = ij
        for k, (di, dj) in enumerate(_DIRS):
            nb = (i + di, j + dj)
            if abs(nb[0]) > bound or abs(nb[1]) > bound:
                continue
            if near and not _segment_clear(here, world(nb), near):
                continue
            ng = base + step[k]
            known = g_cost.get(nb)
            if known is None or ng < known - 1e-9:
                g_cost[nb] = ng
                came[nb] = ij
                h = h_of.get(nb)
                if h is None:
                    h = h_of[nb] = heur(nb)
                counter += 1
                heapq.heappush(open_heap, (ng + h, turns[k], counter, nb, k))
    raise NoGridPath(f"no 8-connected path from {start} to {goal} at pitch {pitch_m}")


def collapse_collinear(points: list[Point]) -> list[Point]:
    """Drop interior points of straight runs, keeping corners and ends."""
    if len(points) <= 2:
        return list(points)
    out = [points[0]]
    for prev, cur, nxt in zip(points, points[1:], points[2:]):
        v1 = (cur[0] - prev[0], cur[1] - prev[1])
        v2 = (nxt[0] - cur[0], nxt[1] - cur[1])
        if abs(v1[0] * v2[1] - v1[1] * v2[0]) > 1e-6:
            out.append(cur)
    out.append(points[-1])
    return out


def _tracking_cell(cells: CellSet, change: float) -> TrajectoryCell:
    """The cell the tracker runs for a heading change within the family.

    The change is rounded to 0.01 degrees. The set's cell is taken wherever
    CellSet.held_cell gives one; any other change is generated at the set's
    radius and dt and kept with the set (CellSet.kept_cell), so later plans
    on the same set reuse it.
    """
    key = round(change, 2)
    held = cells.held_cell(key)
    if held is not None:
        return held
    return cells.kept_cell(key, lambda: generate_cell(cells.params, key, cells.radius_m,
                                                      dt=cells.dt_s))


def grid_baseline_plan(scenario: "Scenario", cells: Optional[CellSet] = None) -> PlanResult:
    """Plan on the square grid, then track the polyline with 45-deg headings.

    The tracker pursues each corner of the A* polyline: desired heading is
    the bearing to the current corner rounded to the nearest multiple of 45
    degrees, executed as a maneuver of the same cell structure (one steering
    per heading change). A corner is considered passed once the vehicle is
    within one pitch of it. _tracking_cell picks each cell: the set's cell
    where CellSet.held_cell gives one, for a multiple of the resolution or
    a change such as 44.99 that the nearest cell achieved within the solve
    tolerance (heading drift leaves such changes); any other change, such
    as 45 degrees on a 2-degree set, is generated once and kept with the
    set, up to cells._KEPT_CELLS of them.
    """
    obstacles = scenario.obstacles
    start_xy = (scenario.start_x_m, scenario.start_y_m)
    dest = (scenario.dest_x_m, scenario.dest_y_m)
    pitch = scenario.radius_m
    cells = scenario_cells(scenario, cells)

    waypoints = collapse_collinear(astar_grid_path(start_xy, dest, pitch, obstacles))

    def step(pose: GridNode, t: float, wp_i: int):
        while wp_i < len(waypoints) - 1 and math.dist(pose.position, waypoints[wp_i]) <= pitch:
            wp_i += 1
        target = waypoints[wp_i]
        if math.dist(pose.position, target) == 0.0:
            target = dest
        desired = round(compass_bearing(pose.position, target) / 45.0) * 45.0
        change = signed_degrees(desired - pose.heading_deg)
        change = max(-MAX_HEADING_CHANGE_DEG, min(MAX_HEADING_CHANGE_DEG, change))
        cell = _tracking_cell(cells, change)
        return cell, cell.delta0_deg, wp_i

    return execute_cells(scenario, step, 1 if len(waypoints) > 1 else 0, obstacles)
