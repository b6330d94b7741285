"""Grid baseline A*: the disc-screened search against the unscreened reference."""

import heapq
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cgtc import baseline as baseline_mod
from cgtc.errors import GridTooLarge, NoGridPath
from cgtc.grid import signed_degrees
from cgtc.static_planner import Obstacle


def reference_astar(start, goal, pitch_m, obstacles):
    """The unscreened reference search: every edge is tested against every
    disc, and each push takes its turn cost from its own atan2 pair."""
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
        for d in baseline_mod._DIRS:
            nb = (ij[0] + d[0], ij[1] + d[1])
            if abs(nb[0]) > bound or abs(nb[1]) > bound:
                continue
            if not baseline_mod._segment_clear(world(ij), world(nb), obstacles):
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


def _outcome(search, start, goal, pitch_m, obstacles):
    try:
        return search(start, goal, pitch_m, obstacles)
    except NoGridPath as exc:
        return ("NoGridPath", str(exc))


_coord = st.floats(-5000.0, 5000.0, allow_nan=False)
_disc = st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0), st.floats(0.05, 2.5))


# a disc tangent to the edge from node (1, 0) to node (2, 0) at its midpoint
@example(pitch=100.0, start=(0.0, 0.0), steps=(3, 0), discs=[(1.5, 0.3, 0.3)])
# a disc that touches only node (1, 1) of the edges out of node (0, 0): its
# centre lies beyond radius plus one pitch of node (0, 0), within radius
# plus a diagonal step
@example(pitch=100.0, start=(0.0, 0.0), steps=(1, 1), discs=[(2.0, 1.0, 1.0)])
# a centre exactly radius plus a diagonal step from node (0, 0), on its
# diagonal: the segment test finds the disc touching node (1, 1), where a
# screen without slack for rounding would leave it out
@example(pitch=600.0, start=(0.0, 0.0), steps=(1, 1),
         discs=[(1.0 + 0.651 / math.sqrt(2.0), 1.0 + 0.651 / math.sqrt(2.0), 0.651)])
# the goal node walled off
@example(pitch=600.0, start=(0.0, 0.0), steps=(0, 3), discs=[(0.0, 3.0, 1.2)])
@settings(max_examples=200, deadline=None)
@given(pitch=st.floats(50.0, 1000.0), start=st.tuples(_coord, _coord),
       steps=st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
       discs=st.lists(_disc, max_size=8))
def test_screened_astar_is_the_reference(pitch, start, steps, discs):
    """Disc fields given in pitches about the start: the same path point for
    point, or the same NoGridPath."""
    goal = (start[0] + steps[0] * pitch, start[1] + steps[1] * pitch)
    obstacles = [Obstacle(center=(start[0] + x * pitch, start[1] + y * pitch),
                          radius_m=r * pitch) for x, y, r in discs]
    expected = _outcome(reference_astar, start, goal, pitch, obstacles)
    assert _outcome(baseline_mod.astar_grid_path, start, goal, pitch, obstacles) == expected



def test_a_grid_past_the_node_limit_is_refused_before_the_search():
    """A leg of 166 pitches makes a grid of 999**2 nodes, within the limit;
    one of 167 pitches a grid of 1005**2, which is refused unsearched."""
    pitch = 600.0
    assert baseline_mod.MAX_GRID_NODES == 1_000_000
    path = baseline_mod.astar_grid_path((0.0, 0.0), (166 * pitch, 0.0), pitch, [])
    assert path[0] == (0.0, 0.0) and path[-1] == (166 * pitch, 0.0) and len(path) == 167
    with pytest.raises(GridTooLarge, match="1010025 nodes"):
        baseline_mod.astar_grid_path((0.0, 0.0), (167 * pitch, 0.0), pitch, [])
    with pytest.raises(GridTooLarge):
        baseline_mod.astar_grid_path((0.0, 0.0), (1e9, 0.0), pitch, [])
