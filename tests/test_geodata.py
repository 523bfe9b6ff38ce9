import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolsim.geodata import (BALTIMORE_BBOX, FEET_PER_DEGREE_LAT, BoundingBox,
                               LatLon, Polygon, count_within, distance_feet,
                               points_in_polygon)


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


class TestBoundingBox:
    @pytest.mark.parametrize("box", [(39.2, 95.0, -76.71, -76.53),
                                     (-90.5, 39.2, -76.71, -76.53),
                                     (39.2, 39.37, -181.0, -76.53),
                                     (39.2, 39.37, -76.71, 180.5)])
    def test_corners_must_be_coordinates(self, box):
        with pytest.raises(ValueError, match="out of range"):
            BoundingBox(*box)


def oracle_ring_crossings(p: LatLon, ring: list[LatLon]) -> int:
    """Scalar ray cast from p towards +lon, half-open rule on vertices."""
    if ring[0] == ring[-1]:
        ring = ring[:-1]
    x, y = p.lon, p.lat
    n = len(ring)
    crossings = 0
    for i in range(n):
        a = ring[i]
        b = ring[(i + 1) % n]
        y1, y2 = a.lat, b.lat
        if (y1 > y) != (y2 > y):
            t = (y - y1) / (y2 - y1)
            x_cross = a.lon + t * (b.lon - a.lon)
            if x_cross > x:
                crossings += 1
    return crossings


def oracle_point_in_polygon(p: LatLon, rings: list[list[LatLon]]) -> bool:
    """Pure-Python parity test over an exterior ring and its holes."""
    return sum(oracle_ring_crossings(p, ring) for ring in rings) % 2 == 1


def star_ring(rng, lat0, lon0, radius, n, step=None):
    """Star-shaped ring around (lat0, lon0): one vertex at a random angle in
    each of n equal sectors, at a random radius.

    With a step, offsets are rounded to multiples of it, so vertices share
    latitudes and some edges are horizontal; with n >= 6 and a step of at
    most radius / 4 the ring keeps 3 distinct vertices and nonzero height.
    """
    angles = (np.arange(n) + rng.uniform(0.0, 1.0, n)) * (2 * math.pi / n)
    radii = rng.uniform(0.3, 1.0, n) * radius
    offsets = [(r * math.sin(a), r * math.cos(a)) for a, r in zip(angles, radii)]
    if step:
        offsets = [(round(dy / step) * step, round(dx / step) * step)
                   for dy, dx in offsets]
    return [LatLon(lat0 + dy, lon0 + dx) for dy, dx in offsets]


def probe_points(rng, rings, n):
    """Random points around the rings, plus points snapped onto vertices,
    onto vertex latitudes and onto the edges of the rings' bounding box or
    the next float outside it."""
    verts = [v for ring in rings for v in ring]
    lats = [v.lat for v in verts]
    lons = [v.lon for v in verts]
    lo_lat, hi_lat, lo_lon, hi_lon = min(lats), max(lats), min(lons), max(lons)
    pad = 0.2 * (hi_lat - lo_lat)
    lat_edges = [lo_lat, hi_lat, np.nextafter(lo_lat, -90), np.nextafter(hi_lat, 90)]
    lon_edges = [lo_lon, hi_lon, np.nextafter(lo_lon, -180), np.nextafter(hi_lon, 180)]
    points = [LatLon(rng.uniform(lo_lat - pad, hi_lat + pad),
                     rng.uniform(lo_lon - pad, hi_lon + pad)) for _ in range(n)]
    points += [verts[i] for i in rng.integers(len(verts), size=max(1, n // 4))]
    points += [LatLon(lats[i], rng.uniform(lo_lon - pad, hi_lon + pad))
               for i in rng.integers(len(verts), size=max(1, n // 4))]
    for _ in range(max(1, n // 8)):
        points.append(LatLon(float(rng.choice(lat_edges)),
                             rng.uniform(lo_lon, hi_lon)))
        points.append(LatLon(rng.uniform(lo_lat, hi_lat),
                             float(rng.choice(lon_edges))))
    return points


def kernel(points, poly):
    lat = np.array([p.lat for p in points])
    lon = np.array([p.lon for p in points])
    return points_in_polygon(lat, lon, poly).tolist()


UNIT_SQUARE = Polygon([LatLon(0, 0), LatLon(0, 1), LatLon(1, 1), LatLon(1, 0)])


class TestPointInPolygon:
    def test_inside_unit_square(self):
        assert kernel([LatLon(0.5, 0.5)], UNIT_SQUARE) == [True]

    def test_outside_unit_square(self):
        assert kernel([LatLon(1.5, 0.5)], UNIT_SQUARE) == [False]

    def test_hole_is_outside(self):
        holed = Polygon(
            [LatLon(0, 0), LatLon(0, 1), LatLon(1, 1), LatLon(1, 0)],
            holes=[[LatLon(0.4, 0.4), LatLon(0.4, 0.6),
                    LatLon(0.6, 0.6), LatLon(0.6, 0.4)]])
        assert kernel([LatLon(0.5, 0.5)], holed) == [False]
        assert kernel([LatLon(0.1, 0.1)], holed) == [True]

    def test_closed_ring_accepted(self):
        closed = Polygon([LatLon(0, 0), LatLon(0, 1), LatLon(1, 1),
                          LatLon(1, 0), LatLon(0, 0)])
        assert kernel([LatLon(0.5, 0.5)], closed) == [True]

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
            assert kernel([p], hexagon) == [halfplane_inside(p)]

    def test_degenerate_rings_rejected(self):
        a, b = LatLon(39.30, -76.60), LatLon(39.31, -76.59)
        with pytest.raises(ValueError):
            Polygon([a, b, a, a])  # two distinct vertices
        with pytest.raises(ValueError):  # zero height
            Polygon([LatLon(39.30, -76.60), LatLon(39.30, -76.58),
                     LatLon(39.30, -76.59), LatLon(39.30, -76.60)])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(3, 14),
           st.integers(0, 2), st.integers(1, 3))
    def test_kernel_matches_oracle(self, seed, n_verts, n_holes, n_parts):
        # Star-shaped rings with holes; n_parts polygons share the points,
        # as the parts of a MultiPolygon do.
        rng = np.random.default_rng(seed)
        parts = []
        for _ in range(n_parts):
            lat0, lon0 = rng.uniform(39.2, 39.37), rng.uniform(-76.71, -76.53)
            radius = rng.uniform(0.002, 0.03)
            step = radius / 4 if rng.random() < 0.5 else None
            rings = [star_ring(rng, lat0, lon0, radius, max(n_verts, 6), step)]
            rings += [star_ring(rng, lat0, lon0, 0.3 * radius,
                                int(rng.integers(3, 8)))
                      for _ in range(n_holes)]
            if rng.random() < 0.5:
                rings[0] = rings[0] + rings[0][:1]  # closed ring
            parts.append(rings)
        all_rings = [ring for rings in parts for ring in rings]
        points = probe_points(rng, all_rings, 120)
        for rings in parts:
            poly = Polygon(rings[0], rings[1:])
            expected = [oracle_point_in_polygon(p, rings) for p in points]
            assert kernel(points, poly) == expected
            # One row at a time, as with a polygon's only point.
            assert [kernel([p], poly)[0] for p in points] == expected


def _edge_dists(p, verts):
    n = len(verts)
    out = []
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        out.append((b.lon - a.lon) * (p.lat - a.lat)
                   - (b.lat - a.lat) * (p.lon - a.lon))
    return out


def rows(*points: LatLon) -> np.ndarray:
    """The points as an (n, 2) array of (lat, lon) rows."""
    return np.array([(p.lat, p.lon) for p in points],
                    dtype=float).reshape(-1, 2)


def brute_force_query(points, center, radius):
    return {i for i, p in enumerate(points.tolist())
            if distance_feet(center, LatLon(*p)) <= radius}


def random_points(n, rng, bbox=BALTIMORE_BBOX):
    return rows(*(LatLon(rng.uniform(bbox.lat_min, bbox.lat_max),
                         rng.uniform(bbox.lon_min, bbox.lon_max))
                  for _ in range(n)))


def within(points, center, radius):
    """Ids of points within radius of center, read from the kernel's counts."""
    counts = count_within(points, rows(center), radius)
    return {i for i, k in enumerate(counts) if k}


class TestGridIndex:
    """Radius counts from count_within, checked against brute force."""

    def test_empty_index(self):
        # (0, 2) points or centers: zero counts, or no counts at all.
        one, none = rows(LatLon(39.3, -76.6)), rows()
        assert none.shape == (0, 2)
        assert count_within(one, none, 10_000.0).tolist() == [0]
        assert count_within(none, one, 10_000.0).tolist() == []
        assert count_within(none, none, 10_000.0).tolist() == []
        assert count_within(one, none, 10_000.0).dtype == np.int64

    def test_counts_every_center_in_range(self):
        rng = np.random.default_rng(11)
        pts = random_points(300, rng)
        centers = random_points(40, rng)
        counts = count_within(pts, centers, 700.0)
        for p, k in zip(pts.tolist(), counts):
            assert k == sum(distance_feet(LatLon(*p), LatLon(*c)) <= 700.0
                            for c in centers.tolist())

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
        assert within(rows(boundary), center, d) == {0}
        assert count_within(rows(center), rows(boundary), d).tolist() == [1]

    def test_points_outside_frame_still_indexed(self):
        outside = LatLon(39.5, -76.6)
        assert within(rows(outside), outside, 1.0) == {0}

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
