"""Circle-grid geometry: headings, polar/world transforms, node advance.

Conventions used everywhere in this package: world x is east, world y is
north, compass angles are degrees measured clockwise from north and wrapped
by wrap_degrees, into [0, 360]. A bearing of 0 points along +y, a bearing
of 90 along +x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import CoincidentPoints, FactorOutOfRange

if TYPE_CHECKING:
    from .cells import TrajectoryCell
    from .ship import ShipParams

Point = tuple[float, float]

DOMAIN_FACTOR_MIN = 4.0
DOMAIN_FACTOR_MAX = 8.0


def wrap_degrees(deg: float) -> float:
    """Fold an angle in degrees into [0, 360].

    The result lies in [0, 360) except at the edge: a negative angle within
    rounding of zero, such as -1e-17, gives exactly 360.0, which wraps once
    more to 0.0.
    """
    return deg % 360.0


def signed_degrees(deg: float) -> float:
    """Fold an angle difference into (-180, 180]."""
    d = deg % 360.0
    if d > 180.0:
        d -= 360.0
    return d


@dataclass(frozen=True)
class GridNode:
    """A pose of the circle grid: the center of the next search circle and
    the compass heading there, a wrapped float of degrees (wrap_degrees)."""

    position: Point
    heading_deg: float


def polar_to_world(center: Point, radius_m: float, alpha: float) -> Point:
    """Locate a point at distance radius_m from center along compass bearing alpha."""
    if radius_m < 0:
        raise ValueError(f"radius must be non-negative, got {radius_m}")
    a = math.radians(alpha)
    return (center[0] + radius_m * math.sin(a), center[1] + radius_m * math.cos(a))


def compass_bearing(origin: Point, target: Point) -> float:
    """Four-quadrant compass bearing of target as seen from origin, wrapped."""
    dx = target[0] - origin[0]
    dy = target[1] - origin[1]
    if dx == 0.0 and dy == 0.0:
        raise CoincidentPoints(f"bearing undefined between coincident points {origin}")
    return wrap_degrees(math.degrees(math.atan2(dx, dy)))


def rotate_offset(offset: Point, heading_deg: float) -> Point:
    """Rotate a ship-frame offset (heading 0 = +y) into the world frame."""
    h = math.radians(heading_deg)
    ch, sh = math.cos(h), math.sin(h)
    ex, ey = offset
    return (ex * ch + ey * sh, -ex * sh + ey * ch)


def advance_pose(pose: GridNode, cell: "TrajectoryCell") -> GridNode:
    """The pose reached by executing a cell from a pose.

    Its position is the cell end offset rotated into the pose's frame; its
    heading is wrap_degrees of the pose's heading plus the cell's change.
    """
    off = rotate_offset(cell.end_offset, pose.heading_deg)
    return GridNode((pose.position[0] + off[0], pose.position[1] + off[1]),
                    wrap_degrees(pose.heading_deg + cell.heading_change_deg))


def ship_domain_radius(params: "ShipParams", factor: float) -> float:
    """Ship-domain radius as a multiple of hull length.

    Accepted multiples follow the usual 4-8 ship-length convention; scenario
    files may instead give an explicit radius, which bypasses this rule.
    """
    if not (DOMAIN_FACTOR_MIN <= factor <= DOMAIN_FACTOR_MAX):
        raise FactorOutOfRange(
            f"domain factor {factor} outside [{DOMAIN_FACTOR_MIN}, {DOMAIN_FACTOR_MAX}]"
        )
    return factor * params.length_m
