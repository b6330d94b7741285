import pytest

from cgtc.cells import build_cell_set
from cgtc.ship import ShipParams
from cgtc.static_planner import _segment_gap

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
