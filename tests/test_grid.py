"""Compass geometry and circle-grid node advance tests."""

import math
import random

import pytest

from cgtc.cells import transform_cell
from cgtc.errors import CoincidentPoints, FactorOutOfRange
from cgtc.grid import (
    GridNode,
    advance_pose,
    compass_bearing,
    polar_to_world,
    rotate_offset,
    ship_domain_radius,
    signed_degrees,
    wrap_degrees,
)


class TestHeadings:
    """Headings are floats of degrees, wrapped by wrap_degrees."""

    def test_normalization(self):
        assert wrap_degrees(370.0) == pytest.approx(10.0)
        assert wrap_degrees(-10.0) == pytest.approx(350.0)
        assert wrap_degrees(360.0) == 0.0

    def test_signed_difference_range(self):
        assert signed_degrees(10.0 - 350.0) == pytest.approx(20.0)
        assert signed_degrees(350.0 - 10.0) == pytest.approx(-20.0)
        assert signed_degrees(180.0) == 180.0
        assert signed_degrees(-180.0) == 180.0
        rng = random.Random(3)
        for _ in range(200):
            d = signed_degrees(rng.uniform(-1000, 1000))
            assert -180.0 < d <= 180.0

    def test_wrap(self):
        for deg in (-720.5, -1.0, 0.0, 359.999, 1080.25):
            assert 0.0 <= wrap_degrees(deg) < 360.0
        # the edge of the range: a negative angle within rounding of zero
        # wraps to 360.0 itself, and only a second wrap gives 0.0
        assert wrap_degrees(-1e-17) == 360.0
        assert wrap_degrees(wrap_degrees(-1e-17)) == 0.0

    def test_advance_pose_wraps_the_sum_once(self, cells_factor6):
        """advance_pose's heading is wrap_degrees(h + change) bit for bit,
        also for a sum just below 0, which stays at 360.0."""
        for heading in (0.0, 0.5, 37.25, 314.0, 359.99999999999994):
            node = GridNode(position=(512.0, -88.0), heading_deg=heading)
            for cell in cells_factor6.cells:
                expected = wrap_degrees(heading + cell.heading_change_deg)
                assert advance_pose(node, cell).heading_deg.hex() == expected.hex()
        port = cells_factor6.cells[0]
        below = GridNode(position=(0.0, 0.0), heading_deg=-port.heading_change_deg - 1e-14)
        assert below.heading_deg + port.heading_change_deg < 0.0
        assert advance_pose(below, port).heading_deg == 360.0


class TestPolarToWorld:
    def test_due_north(self):
        assert polar_to_world((0.0, 0.0), 10.0, 0.0) == pytest.approx((0.0, 10.0))

    def test_due_east(self):
        x, y = polar_to_world((0.0, 0.0), 10.0, 90.0)
        assert x == pytest.approx(10.0)
        assert y == pytest.approx(0.0, abs=1e-12)

    def test_offset_center_high_precision(self):
        x, y = polar_to_world((100.0, 200.0), 600.0, 37.0)
        assert x == pytest.approx(100.0 + 600.0 * math.sin(math.radians(37.0)), abs=1e-9)
        assert y == pytest.approx(200.0 + 600.0 * math.cos(math.radians(37.0)), abs=1e-9)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            polar_to_world((0.0, 0.0), -1.0, 0.0)


class TestCompassBearing:
    def test_cardinal_and_diagonal(self):
        assert compass_bearing((0, 0), (0, 5)) == pytest.approx(0.0)
        assert compass_bearing((0, 0), (100, 100)) == pytest.approx(45.0)

    def test_round_trip_third_quadrant(self):
        target = (-3.0, -4.0)
        b = compass_bearing((0.0, 0.0), target)
        back = polar_to_world((0.0, 0.0), 5.0, b)
        assert back[0] == pytest.approx(target[0], abs=1e-9)
        assert back[1] == pytest.approx(target[1], abs=1e-9)

    def test_coincident_points(self):
        with pytest.raises(CoincidentPoints):
            compass_bearing((1.0, 1.0), (1.0, 1.0))

    def test_mutual_inverse_property(self):
        rng = random.Random(11)
        for _ in range(300):
            c = (rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4))
            r = rng.uniform(1e-3, 1e5)
            alpha = rng.uniform(0.0, 360.0)
            p = polar_to_world(c, r, alpha)
            assert abs(signed_degrees(compass_bearing(c, p) - alpha)) < 1e-9


def children(node, cells):
    """The node's children: advance_pose by each cell of the set, in order."""
    return [advance_pose(node, cell) for cell in cells.cells]


class TestExpandNode:
    def test_straight_cell_child(self, cells_factor6):
        node = GridNode(position=(0.0, 0.0), heading_deg=0.0)
        straight = children(node, cells_factor6)[cells_factor6.nearest_index(0.0)]
        assert straight.position[0] == pytest.approx(0.0, abs=1e-6)
        assert straight.position[1] == pytest.approx(cells_factor6.radius_m, rel=1e-6)
        assert straight.heading_deg == pytest.approx(0.0, abs=1e-9)

    def test_rotated_node_straight_child(self, cells_factor6):
        node = GridNode(position=(0.0, 0.0), heading_deg=90.0)
        child = children(node, cells_factor6)[cells_factor6.nearest_index(0.0)]
        assert child.position[0] == pytest.approx(cells_factor6.radius_m, rel=1e-6)
        assert child.position[1] == pytest.approx(0.0, abs=1e-6)

    def test_children_on_circle(self, cells_factor6):
        node = GridNode(position=(120.0, -40.0), heading_deg=203.0)
        r = cells_factor6.radius_m
        for child in children(node, cells_factor6):
            d = math.dist(child.position, node.position)
            assert 0.995 * r <= d <= 1.005 * r

    def test_rotation_equivariance(self, cells_factor6):
        base = GridNode(position=(0.0, 0.0), heading_deg=0.0)
        turned = GridNode(position=(0.0, 0.0), heading_deg=73.0)
        kids0 = children(base, cells_factor6)
        kids1 = children(turned, cells_factor6)
        for k0, k1 in zip(kids0, kids1):
            expect = rotate_offset(k0.position, 73.0)
            assert k1.position[0] == pytest.approx(expect[0], abs=1e-9)
            assert k1.position[1] == pytest.approx(expect[1], abs=1e-9)
            assert abs(signed_degrees(k1.heading_deg - (k0.heading_deg + 73.0))) < 1e-9

    def test_resimulated_cell_lands_on_child(self, cells_factor6):
        node = GridNode(position=(512.0, -88.0), heading_deg=314.0)
        for idx in (0, cells_factor6.nearest_index(0.0), len(cells_factor6.cells) - 1):
            cell = cells_factor6.cells[idx]
            child = advance_pose(node, cell)
            world = transform_cell([cell], [node])
            assert world[-1].x_m == pytest.approx(child.position[0], abs=1e-6)
            assert world[-1].y_m == pytest.approx(child.position[1], abs=1e-6)
            assert abs(signed_degrees(world[-1].heading_deg - child.heading_deg)) < 1e-6


class TestShipDomainRadius:
    def test_factor_bounds(self, params):
        assert ship_domain_radius(params, 4.0) == pytest.approx(254.4)
        assert ship_domain_radius(params, 8.0) == pytest.approx(508.8)

    def test_factor_out_of_range(self, params):
        with pytest.raises(FactorOutOfRange):
            ship_domain_radius(params, 3.9)
        with pytest.raises(FactorOutOfRange):
            ship_domain_radius(params, 8.1)
