import math
from dataclasses import replace

import pytest

from cgtc.cells import build_cell_set
from cgtc.scenario import Scenario
from cgtc.ship import ShipParams, clamp_rudder
from cgtc.static_planner import PlanResult, _segment_gap

# Published rudder-vs-heading table used by the correlation and fit tests.
RUDDER_HEADING_TABLE = [
    (-35.0, -89.2433),
    (-29.0, -80.761),
    (-23.0, -69.3535),
    (-17.0, -54.8467),
    (-11.0, -37.0651),
    (-5.0, -17.0874),
    (1.0, 3.8501),
    (7.0, 26.1262),
    (13.0, 46.9387),
    (19.0, 64.3923),
    (25.0, 78.3661),
    (31.0, 89.3798),
]


@pytest.fixture(scope="session")
def params():
    return ShipParams()


@pytest.fixture(scope="session")
def cells_factor6(params):
    """Default cell set: radius from ship-domain factor 6, resolution 5 deg."""
    return build_cell_set(params, 6.0 * params.length_m, 5.0)


@pytest.fixture(scope="session")
def cells600(params):
    """Cell set at the 600 m experiment radius."""
    return build_cell_set(params, 600.0, 5.0)


def segment_minimum(points, discs):
    """Reference for the polyline measures: _segment_gap, one pair at a time.

    The minimum over each segment between consecutive (x, y) points (one
    point is a zero-length segment) and each (center, radius) disc.
    """
    ends = list(zip(points, points[1:])) or [(points[0], points[0])]
    return min(_segment_gap(a, b, center, r) for a, b in ends for center, r in discs)


def steady_turn_radius(params: ShipParams, rudder_deg: float) -> float:
    """Analytic steady turning radius u_ss / omega_ss for a held rudder."""
    cmd = clamp_rudder(params, rudder_deg)
    if cmd == 0.0:
        return math.inf
    if cmd >= 0.0:
        omega = params.turn_gain * cmd
    else:
        omega = params.turn_gain * cmd / params.asymmetry_factor
    u_ss = params.steady_speed_mps * (
        1.0 - params.speed_loss_gain * abs(cmd) / params.rudder_limit_stbd_deg
    )
    return abs(u_ss / math.radians(omega))


def mirror_scenario(scenario: Scenario) -> Scenario:
    """Reflect a scenario about the north (y) axis; useful for symmetry checks."""
    return replace(
        scenario,
        start_x_m=-scenario.start_x_m,
        start_heading_deg=-scenario.start_heading_deg,
        dest_x_m=-scenario.dest_x_m,
        obstacles=[replace(o, center=(-o.center[0], o.center[1]),
                           course_deg=-o.course_deg)
                   for o in scenario.obstacles],
        name=scenario.name + "-mirrored" if scenario.name else "",
    )


def sequential_path_length(result: PlanResult, start) -> float:
    """Reference for PlanResult.path_length_m: math.hypot of each step
    between consecutive samples (the start point alone when no cell ran),
    added one at a time from 0.0 in sample order."""
    points = [(s.x_m, s.y_m) for s in result.trajectory] or [start]
    total = 0.0
    for (ax, ay), (bx, by) in zip(points, points[1:]):
        total += math.hypot(bx - ax, by - ay)
    return total
