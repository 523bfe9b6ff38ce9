import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolsim.geodata import (BALTIMORE_BBOX, FEET_PER_DEGREE_LAT, BoundingBox,
                               LatLon, Polygon, count_within, distance_feet,
                               point_in_polygon)


def haversine_feet(a: LatLon, b: LatLon) -> float:
    """Independent great-circle oracle, R = 6,371,000 m."""
    phi1, phi2 = math.radians(a.lat), math.radians(b.lat)
    dphi = phi2 - phi1
    dlam = math.radians(b.lon - a.lon)
    h = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2 * 6_371_000.0 * 3.28084 * math.asin(math.sqrt(h))


class TestDistance:
    def test_identity(self):
        p = LatLon(39.30, -76.60)
        assert distance_feet(p, p) == 0.0

    def test_one_millidegree_lat(self):
        d = distance_feet(LatLon(39.300, -76.60), LatLon(39.301, -76.60))
        assert d == pytest.approx(364.57, abs=0.01)

    def test_one_millidegree_lon(self):
        a, b = LatLon(39.30, -76.600), LatLon(39.30, -76.601)
        expected = FEET_PER_DEGREE_LAT * math.cos(math.radians(39.30)) * 0.001
        assert distance_feet(a, b) == pytest.approx(expected, abs=1e-6)
        assert distance_feet(a, b) == pytest.approx(281.9, abs=0.5)

    def test_haversine_cross_check(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = LatLon(rng.uniform(39.2, 39.37), rng.uniform(-76.71, -76.53))
            b = LatLon(rng.uniform(39.2, 39.37), rng.uniform(-76.71, -76.53))
            d = distance_feet(a, b)
            h = haversine_feet(a, b)
            if h > 1.0:
                assert abs(d - h) / h < 1e-3

    @given(st.floats(39.2, 39.37), st.floats(-76.71, -76.53),
           st.floats(39.2, 39.37), st.floats(-76.71, -76.53))
    def test_symmetry(self, lat1, lon1, lat2, lon2):
        a, b = LatLon(lat1, lon1), LatLon(lat2, lon2)
        assert distance_feet(a, b) == distance_feet(b, a)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            pts = [LatLon(rng.uniform(39.2, 39.37), rng.uniform(-76.71, -76.53))
                   for _ in range(3)]
            ab = distance_feet(pts[0], pts[1])
            bc = distance_feet(pts[1], pts[2])
            ac = distance_feet(pts[0], pts[2])
            assert ac <= ab + bc + 1e-6 * max(ab + bc, 1.0)

    def test_latlon_validation(self):
        with pytest.raises(ValueError):
            LatLon(91.0, 0.0)
        with pytest.raises(ValueError):
            LatLon(0.0, 181.0)


UNIT_SQUARE = Polygon([LatLon(0, 0), LatLon(0, 1), LatLon(1, 1), LatLon(1, 0)])


class TestPointInPolygon:
    def test_inside_unit_square(self):
        assert point_in_polygon(LatLon(0.5, 0.5), UNIT_SQUARE)

    def test_outside_unit_square(self):
        assert not point_in_polygon(LatLon(1.5, 0.5), UNIT_SQUARE)

    def test_hole_is_outside(self):
        holed = Polygon(
            [LatLon(0, 0), LatLon(0, 1), LatLon(1, 1), LatLon(1, 0)],
            holes=[[LatLon(0.4, 0.4), LatLon(0.4, 0.6),
                    LatLon(0.6, 0.6), LatLon(0.6, 0.4)]])
        assert not point_in_polygon(LatLon(0.5, 0.5), holed)
        assert point_in_polygon(LatLon(0.1, 0.1), holed)

    def test_closed_ring_accepted(self):
        closed = Polygon([LatLon(0, 0), LatLon(0, 1), LatLon(1, 1),
                          LatLon(1, 0), LatLon(0, 0)])
        assert point_in_polygon(LatLon(0.5, 0.5), closed)

    def test_ring_too_short(self):
        with pytest.raises(ValueError):
            Polygon([LatLon(0, 0), LatLon(1, 1)])

    def test_convex_polygon_matches_halfplane_oracle(self):
        # Regular hexagon; inside iff on the inner side of every edge.
        verts = [LatLon(math.sin(t) * 0.9, math.cos(t) * 0.9)
                 for t in np.linspace(0, 2 * math.pi, 7)[:-1]]
        hexagon = Polygon(verts)

        def halfplane_inside(p):
            n = len(verts)
            signs = []
            for i in range(n):
                a, b = verts[i], verts[(i + 1) % n]
                cross = ((b.lon - a.lon) * (p.lat - a.lat)
                         - (b.lat - a.lat) * (p.lon - a.lon))
                signs.append(cross)
            return all(s > 0 for s in signs) or all(s < 0 for s in signs)

        rng = np.random.default_rng(3)
        for _ in range(1000):
            p = LatLon(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if min(abs(s) for s in _edge_dists(p, verts)) < 1e-9:
                continue  # skip exact-boundary points, convention differs
            assert point_in_polygon(p, hexagon) == halfplane_inside(p)


def _edge_dists(p, verts):
    n = len(verts)
    out = []
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        out.append((b.lon - a.lon) * (p.lat - a.lat)
                   - (b.lat - a.lat) * (p.lon - a.lon))
    return out


def brute_force_query(points, center, radius):
    return {i for i, p in enumerate(points)
            if distance_feet(center, p) <= radius}


def random_points(n, rng, bbox=BALTIMORE_BBOX):
    return [LatLon(rng.uniform(bbox.lat_min, bbox.lat_max),
                   rng.uniform(bbox.lon_min, bbox.lon_max)) for _ in range(n)]


def within(points, center, radius):
    """Ids of points within radius of center, read from the kernel's counts."""
    counts = count_within(points, [center], radius)
    return {i for i, k in enumerate(counts) if k}


class TestGridIndex:
    """Radius counts from count_within, checked against brute force."""

    def test_empty_index(self):
        assert count_within([LatLon(39.3, -76.6)], [], 10_000.0).tolist() == [0]
        assert count_within([], [LatLon(39.3, -76.6)], 10_000.0).tolist() == []

    def test_counts_every_center_in_range(self):
        rng = np.random.default_rng(11)
        pts = random_points(300, rng)
        centers = random_points(40, rng)
        counts = count_within(pts, centers, 700.0)
        for p, k in zip(pts, counts):
            assert k == sum(distance_feet(p, c) <= 700.0 for c in centers)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        pts = random_points(500, rng)
        for _ in range(100):
            probe = LatLon(rng.uniform(39.19, 39.38), rng.uniform(-76.72, -76.52))
            for radius in (400.0, 700.0, 1500.0):
                assert within(pts, probe, radius) == \
                    brute_force_query(pts, probe, radius)

    def test_probe_far_outside_frame(self):
        rng = np.random.default_rng(6)
        pts = random_points(100, rng)
        assert within(pts, LatLon(45.0, -76.6), 700.0) == set()

    def test_closed_ball_boundary(self):
        center = LatLon(39.30, -76.60)
        boundary = LatLon(39.30 + 700.0 / FEET_PER_DEGREE_LAT, -76.60)
        d = distance_feet(center, boundary)
        assert within([boundary], center, d) == {0}
        assert count_within([center], [boundary], d).tolist() == [1]

    def test_points_outside_frame_still_indexed(self):
        outside = LatLon(39.5, -76.6)
        assert within([outside], outside, 1.0) == {0}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 60))
    def test_brute_force_equivalence_property(self, seed, n):
        rng = np.random.default_rng(seed)
        pts = random_points(n, rng)
        for _ in range(20):
            probe = LatLon(rng.uniform(39.19, 39.38), rng.uniform(-76.72, -76.52))
            radius = rng.uniform(50.0, 3000.0)
            assert within(pts, probe, radius) == \
                brute_force_query(pts, probe, radius)
