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

from .cells import MAX_HEADING_CHANGE_DEG, CellSet, generate_cell
from .errors import NoGridPath
from .grid import GridNode, compass_bearing, signed_degrees
from .static_planner import Obstacle, PlanResult, execute_cells, scenario_cells

if TYPE_CHECKING:
    from .scenario import Scenario

Point = tuple[float, float]

_DIRS = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]


def _segment_clear(a: Point, b: Point, obstacles: list[Obstacle]) -> bool:
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    seg_sq = dx * dx + dy * dy
    for o in obstacles:
        ox, oy = o.center
        if seg_sq == 0.0:
            d_sq = (ox - ax) ** 2 + (oy - ay) ** 2
        else:
            t = max(0.0, min(1.0, ((ox - ax) * dx + (oy - ay) * dy) / seg_sq))
            d_sq = (ax + t * dx - ox) ** 2 + (ay + t * dy - oy) ** 2
        if d_sq <= o.radius_m * o.radius_m:
            return False
    return True


def astar_grid_path(start: Point, goal: Point, pitch_m: float,
                    obstacles: list[Obstacle]) -> list[Point]:
    """8-connected A* on a square grid of the given pitch, start at a node.

    The goal snaps to the nearest grid node. Edges (not only nodes) are
    checked against the obstacle discs. Ties in f break toward the smaller
    heading change from the incoming direction.
    """
    goal_ij = (round((goal[0] - start[0]) / pitch_m),
               round((goal[1] - start[1]) / pitch_m))

    def world(ij):
        return (start[0] + ij[0] * pitch_m, start[1] + ij[1] * pitch_m)

    span = math.dist((0, 0), goal_ij) + 0.5
    bound = int(max(8, 3 * span))

    def heur(ij):
        return pitch_m * math.dist(ij, goal_ij)

    counter = 0
    open_heap = [(heur((0, 0)), 0.0, counter, (0, 0), None)]
    g_cost = {(0, 0): 0.0}
    came: dict = {(0, 0): None}

    while open_heap:
        f, turn, _, ij, prev_dir = heapq.heappop(open_heap)
        if ij == goal_ij:
            path = []
            node = ij
            while node is not None:
                path.append(world(node))
                node = came[node]
            return path[::-1]
        base = g_cost[ij]
        if f - heur(ij) > base + 1e-9:
            continue  # stale entry
        for d in _DIRS:
            nb = (ij[0] + d[0], ij[1] + d[1])
            if abs(nb[0]) > bound or abs(nb[1]) > bound:
                continue
            if not _segment_clear(world(ij), world(nb), obstacles):
                continue
            ng = base + pitch_m * math.hypot(*d)
            if nb not in g_cost or ng < g_cost[nb] - 1e-9:
                g_cost[nb] = ng
                came[nb] = ij
                if prev_dir is None:
                    turn_cost = 0.0
                else:
                    a0 = math.degrees(math.atan2(prev_dir[0], prev_dir[1]))
                    a1 = math.degrees(math.atan2(d[0], d[1]))
                    turn_cost = abs(signed_degrees(a1 - a0))
                counter += 1
                heapq.heappush(open_heap, (ng + heur(nb), turn_cost, counter, nb, d))
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


def grid_baseline_plan(scenario: "Scenario", cells: Optional[CellSet] = None) -> PlanResult:
    """Plan on the square grid, then track the polyline with 45-deg headings.

    The tracker pursues each corner of the A* polyline: desired heading is
    the bearing to the current corner rounded to the nearest multiple of 45
    degrees, executed as a generated maneuver of the same cell structure
    (one steering per heading change). A corner is considered passed once
    the vehicle is within one pitch of it. A change that is a multiple of the
    set's resolution takes the set's cell instead of generating it again.
    """
    obstacles = scenario.obstacles
    start_xy = (scenario.start_x_m, scenario.start_y_m)
    dest = (scenario.dest_x_m, scenario.dest_y_m)
    pitch = scenario.radius_m
    cells = scenario_cells(scenario, cells)

    waypoints = collapse_collinear(astar_grid_path(start_xy, dest, pitch, obstacles))

    cell_cache = {}

    def cell_for_change(change: float):
        # a change the set was built for is that cell (the same solve);
        # any other is generated once per plan
        key = round(change, 2)
        if round(key / cells.resolution_deg) * cells.resolution_deg == key:
            return cells.nearest_cell(key)
        if key not in cell_cache:
            cell_cache[key] = generate_cell(cells.params, key, pitch, dt=cells.dt_s)
        return cell_cache[key]

    wp_i = 1 if len(waypoints) > 1 else 0

    def next_cell(pose: GridNode, t: float):
        nonlocal wp_i
        while wp_i < len(waypoints) - 1 and math.dist(pose.position, waypoints[wp_i]) <= pitch:
            wp_i += 1
        target = waypoints[wp_i]
        if math.dist(pose.position, target) == 0.0:
            target = dest
        bearing = compass_bearing(pose.position, target)
        desired = round(bearing.degrees / 45.0) * 45.0
        change = signed_degrees(desired - pose.heading.degrees)
        change = max(-MAX_HEADING_CHANGE_DEG, min(MAX_HEADING_CHANGE_DEG, change))
        cell = cell_for_change(change)
        return cell, cells.nearest_index(cell.heading_change_deg), cell.delta0_deg

    return execute_cells(scenario, next_cell, obstacles)
