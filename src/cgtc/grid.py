"""Circle-grid geometry: compass angles, polar/world transforms, node expansion.

Conventions used everywhere in this package: world x is east, world y is
north, compass angles are degrees in [0, 360) measured clockwise from north.
A bearing of 0 points along +y, a bearing of 90 along +x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .errors import CoincidentPoints, FactorOutOfRange

if TYPE_CHECKING:
    from .cells import CellSet, TrajectoryCell
    from .ship import ShipParams

Point = tuple[float, float]

DOMAIN_FACTOR_MIN = 4.0
DOMAIN_FACTOR_MAX = 8.0


def wrap_degrees(deg: float) -> float:
    """Normalize an angle in degrees to [0, 360)."""
    return deg % 360.0


def signed_degrees(deg: float) -> float:
    """Fold an angle difference into (-180, 180]."""
    d = deg % 360.0
    if d > 180.0:
        d -= 360.0
    return d


@dataclass(frozen=True)
class CompassAngle:
    """Compass angle in degrees, normalized to [0, 360) on construction."""

    degrees: float

    def __post_init__(self):
        object.__setattr__(self, "degrees", wrap_degrees(float(self.degrees)))

    def __float__(self) -> float:
        return self.degrees

    def plus(self, delta_deg: float) -> "CompassAngle":
        return CompassAngle(self.degrees + delta_deg)

    def diff_from(self, other: "CompassAngle | float") -> float:
        """Signed difference self - other in (-180, 180]."""
        return signed_degrees(self.degrees - float(other))


@dataclass
class GridNode:
    """Node of the circle-grid search tree.

    Each node is the center of the next search circle; its children lie on
    that circle's arc. The root has no parent and depth 0.
    """

    position: Point
    heading: CompassAngle
    parent: Optional["GridNode"] = field(default=None, repr=False)
    cell_used: Optional[int] = None
    depth: int = 0


def polar_to_world(center: Point, radius_m: float, alpha: "CompassAngle | float") -> Point:
    """Locate a point at distance radius_m from center along compass bearing alpha."""
    if radius_m < 0:
        raise ValueError(f"radius must be non-negative, got {radius_m}")
    a = math.radians(float(alpha))
    return (center[0] + radius_m * math.sin(a), center[1] + radius_m * math.cos(a))


def bearing_deg(origin: Point, target: Point) -> float:
    """Four-quadrant compass bearing of target from origin, in degrees as
    atan2 gives them: wrap_degrees of it is compass_bearing's degrees."""
    dx = target[0] - origin[0]
    dy = target[1] - origin[1]
    if dx == 0.0 and dy == 0.0:
        raise CoincidentPoints(f"bearing undefined between coincident points {origin}")
    return math.degrees(math.atan2(dx, dy))


def compass_bearing(origin: Point, target: Point) -> CompassAngle:
    """Four-quadrant compass bearing of target as seen from origin."""
    return CompassAngle(bearing_deg(origin, target))


def rotate_offset(offset: Point, heading_deg: float) -> Point:
    """Rotate a ship-frame offset (heading 0 = +y) into the world frame."""
    h = math.radians(heading_deg)
    ch, sh = math.cos(h), math.sin(h)
    ex, ey = offset
    return (ex * ch + ey * sh, -ex * sh + ey * ch)


def advance_pose(pose: GridNode, cell: "TrajectoryCell", cell_index: int) -> GridNode:
    """Child node reached by executing a cell from a pose.

    Child position is the cell end offset rotated into the pose's frame;
    child heading adds the cell's heading change.
    """
    off = rotate_offset(cell.end_offset, pose.heading.degrees)
    return GridNode(
        position=(pose.position[0] + off[0], pose.position[1] + off[1]),
        heading=pose.heading.plus(cell.heading_change_deg),
        parent=pose,
        cell_used=cell_index,
        depth=pose.depth + 1,
    )


def expand_node(node: GridNode, cells: "CellSet") -> list[GridNode]:
    """Produce one child per trajectory cell, each on the circle about node."""
    return [advance_pose(node, c, i) for i, c in enumerate(cells.cells)]


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
