import math
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolsim import geodata
from patrolsim.geodata import (BALTIMORE_BBOX, FEET_PER_DEGREE_LAT, BoundingBox,
                               Polygon, count_within, points_in_polygon)


@dataclass(frozen=True)
class LatLon:
    """One point in degrees north and east, range-checked as geodata checks
    box corners and ring vertices."""
    lat: float
    lon: float

    def __post_init__(self):
        geodata._check_range(np.array([[self.lat, self.lon]]))


def distance_feet(a: LatLon, b: LatLon) -> float:
    """The distance count_within compares with a radius: its kernel
    `_feet_apart` at two points."""
    return float(geodata._feet_apart(a.lat, a.lon, b.lat, b.lon))


def bbox_center(box: BoundingBox) -> LatLon:
    return LatLon((box.lat_min + box.lat_max) / 2.0,
                  (box.lon_min + box.lon_max) / 2.0)


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


def oracle_ring_crossings(p, ring) -> int:
    """Scalar ray cast from p towards +lon, half-open rule on vertices;
    p and the ring's vertices are (lat, lon) pairs."""
    if ring[0] == ring[-1]:
        ring = ring[:-1]
    y, x = p
    n = len(ring)
    crossings = 0
    for i in range(n):
        a = ring[i]
        b = ring[(i + 1) % n]
        y1, y2 = a[0], b[0]
        if (y1 > y) != (y2 > y):
            t = (y - y1) / (y2 - y1)
            x_cross = a[1] + t * (b[1] - a[1])
            if x_cross > x:
                crossings += 1
    return crossings


def oracle_point_in_polygon(p, rings) -> bool:
    """Pure-Python parity test over an exterior ring and its holes."""
    return sum(oracle_ring_crossings(p, ring) for ring in rings) % 2 == 1


def loop_points_in_polygon(lat, lon, rings) -> np.ndarray:
    """The per-edge loop points_in_polygon was: one pass over the edges of
    every ring, vectorized over the points, each edge built from its two
    (lat, lon) vertices in Python floats."""
    inside = np.zeros(len(lat), dtype=bool)
    for ring in rings:
        if ring[0] == ring[-1]:
            ring = ring[:-1]
        for a, b in zip(ring, ring[1:] + ring[:1]):
            if a[0] == b[0]:
                continue
            y1, y2, dy, x1, dx = a[0], b[0], b[0] - a[0], a[1], b[1] - a[1]
            t = (lat - y1) / dy
            inside ^= ((y1 > lat) != (y2 > lat)) & (x1 + t * dx > lon)
    return inside


def horizontal_edge_points(rng, rings, n):
    """Points on the horizontal edges of the rings, ends included."""
    edges = [(a, b) for ring in rings
             for a, b in zip(ring, ring[1:] + ring[:1]) if a[0] == b[0]]
    if not edges:
        return []
    points = []
    for i in rng.integers(len(edges), size=n):
        (lat, lon_a), (_, lon_b) = edges[i]
        points.append((lat, float(rng.choice([lon_a, lon_b, (lon_a + lon_b) / 2,
                                              lon_a + rng.random()
                                              * (lon_b - lon_a)]))))
    return points


def edge_points(rng, rings, n):
    """Points on random edges of the rings and one float either side in
    longitude, where the crossing test turns on the last bit of its
    float expressions."""
    edges = [(a, b) for ring in rings for a, b in zip(ring, ring[1:] + ring[:1])]
    points = []
    for i in rng.integers(len(edges), size=n):
        (lat_a, lon_a), (lat_b, lon_b) = edges[i]
        s = rng.random()
        lat, lon = lat_a + s * (lat_b - lat_a), lon_a + s * (lon_b - lon_a)
        points += [(lat, lon), (lat, float(np.nextafter(lon, -180.0))),
                   (lat, float(np.nextafter(lon, 180.0)))]
    return points


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
    return [(lat0 + dy, lon0 + dx) for dy, dx in offsets]


def probe_points(rng, rings, n):
    """Random points around the rings, plus points snapped onto vertices,
    onto vertex latitudes and onto the edges of the rings' bounding box or
    the next float outside it."""
    verts = [v for ring in rings for v in ring]
    lats = [lat for lat, _ in verts]
    lons = [lon for _, lon in verts]
    lo_lat, hi_lat, lo_lon, hi_lon = min(lats), max(lats), min(lons), max(lons)
    pad = 0.2 * (hi_lat - lo_lat)
    lat_edges = [lo_lat, hi_lat, np.nextafter(lo_lat, -90), np.nextafter(hi_lat, 90)]
    lon_edges = [lo_lon, hi_lon, np.nextafter(lo_lon, -180), np.nextafter(hi_lon, 180)]
    points = [(rng.uniform(lo_lat - pad, hi_lat + pad),
               rng.uniform(lo_lon - pad, hi_lon + pad)) for _ in range(n)]
    points += [verts[i] for i in rng.integers(len(verts), size=max(1, n // 4))]
    points += [(lats[i], rng.uniform(lo_lon - pad, hi_lon + pad))
               for i in rng.integers(len(verts), size=max(1, n // 4))]
    for _ in range(max(1, n // 8)):
        points.append((float(rng.choice(lat_edges)),
                       rng.uniform(lo_lon, hi_lon)))
        points.append((rng.uniform(lo_lat, hi_lat),
                       float(rng.choice(lon_edges))))
    return points


def kernel(points, poly):
    lat = np.array([p[0] for p in points])
    lon = np.array([p[1] for p in points])
    return points_in_polygon(lat, lon, poly).tolist()


UNIT_SQUARE = Polygon([(0, 0), (0, 1), (1, 1), (1, 0)])


class TestPointInPolygon:
    def test_inside_unit_square(self):
        assert kernel([(0.5, 0.5)], UNIT_SQUARE) == [True]

    def test_outside_unit_square(self):
        assert kernel([(1.5, 0.5)], UNIT_SQUARE) == [False]

    def test_hole_is_outside(self):
        holed = Polygon(
            [(0, 0), (0, 1), (1, 1), (1, 0)],
            holes=[[(0.4, 0.4), (0.4, 0.6), (0.6, 0.6), (0.6, 0.4)]])
        assert kernel([(0.5, 0.5)], holed) == [False]
        assert kernel([(0.1, 0.1)], holed) == [True]

    def test_closed_ring_accepted(self):
        closed = Polygon([(0, 0), (0, 1), (1, 1), (1, 0), (0, 0)])
        assert kernel([(0.5, 0.5)], closed) == [True]

    def test_ring_too_short(self):
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 1)])

    def test_convex_polygon_matches_halfplane_oracle(self):
        # Regular hexagon; inside iff on the inner side of every edge.
        verts = [(math.sin(t) * 0.9, math.cos(t) * 0.9)
                 for t in np.linspace(0, 2 * math.pi, 7)[:-1]]
        hexagon = Polygon(verts)

        def halfplane_inside(p):
            n = len(verts)
            signs = []
            for i in range(n):
                a, b = verts[i], verts[(i + 1) % n]
                cross = ((b[1] - a[1]) * (p[0] - a[0])
                         - (b[0] - a[0]) * (p[1] - a[1]))
                signs.append(cross)
            return all(s > 0 for s in signs) or all(s < 0 for s in signs)

        rng = np.random.default_rng(3)
        for _ in range(1000):
            p = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            if min(abs(s) for s in _edge_dists(p, verts)) < 1e-9:
                continue  # skip exact-boundary points, convention differs
            assert kernel([p], hexagon) == [halfplane_inside(p)]

    def test_degenerate_rings_rejected(self):
        a, b = (39.30, -76.60), (39.31, -76.59)
        with pytest.raises(ValueError):
            Polygon([a, b, a, a])  # two distinct vertices
        with pytest.raises(ValueError):  # zero height
            Polygon([(39.30, -76.60), (39.30, -76.58),
                     (39.30, -76.59), (39.30, -76.60)])

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


    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(3, 40),
           st.integers(0, 2), st.sampled_from([1, 5, 64, 1 << 16]))
    def test_broadcast_equals_edge_loop(self, seed, n_verts, n_holes, block):
        # Rings with horizontal edges (offsets on a grid), points on
        # vertices, on vertex latitudes, on horizontal edges and on or next
        # to other edges; the broadcast is cut into blocks of `block`
        # elements.
        rng = np.random.default_rng(seed)
        lat0, lon0 = rng.uniform(39.2, 39.37), rng.uniform(-76.71, -76.53)
        radius = rng.uniform(0.002, 0.03)
        rings = [star_ring(rng, lat0, lon0, radius, max(n_verts, 6),
                           radius / 4 if rng.random() < 0.5 else None)]
        rings += [star_ring(rng, lat0, lon0, 0.3 * radius,
                            int(rng.integers(6, 10)), 0.3 * radius / 4)
                  for _ in range(n_holes)]
        points = probe_points(rng, rings, 150)
        points += horizontal_edge_points(rng, rings, 30)
        points += edge_points(rng, rings, 100)
        lat = np.array([p[0] for p in points])
        lon = np.array([p[1] for p in points])
        poly = Polygon(rings[0], rings[1:])
        with mock.patch.object(geodata, "PIP_BLOCK_ELEMENTS", block):
            got = points_in_polygon(lat, lon, poly)
        assert got.dtype == bool and got.shape == lat.shape
        assert got.tolist() == loop_points_in_polygon(lat, lon, rings).tolist()

    def test_rings_and_edges_are_arrays(self):
        holed = Polygon([(0, 0), (0, 1), (1, 1), (1, 0), (0, 0)],
                        holes=[[(0.4, 0.4), (0.4, 0.6), (0.6, 0.5)]])
        assert [r.dtype for r in holed.rings] == [np.float64, np.float64]
        assert [r.shape for r in holed.rings] == [(4, 2), (3, 2)]
        # Horizontal edges are left out: 2 of the square's 4, 1 of the
        # hole's 3.
        assert holed.edges.dtype == np.float64
        assert holed.edges.shape == (5, 4)
        assert holed.edges.tolist() == [[0.0, 1.0, 0.4, 0.6],
                                        [1.0, 0.0, 0.6, 0.4],
                                        [1.0, -1.0, 0.6 - 0.4, 0.4 - 0.6],
                                        [1.0, 0.0, 0.6, 0.5],
                                        [0.0, 0.0, 0.5 - 0.6, 0.4 - 0.5]]

    @pytest.mark.parametrize("ring", [
        [(0, 0), (91.0, 0), (1, 1)], [(0, 0), (0, 1), (1, -180.5)],
        [(0, 0), (float("nan"), 1), (1, 1)]])
    def test_vertex_out_of_range(self, ring):
        with pytest.raises(ValueError, match="out of range"):
            Polygon(ring)

    def test_signed_zeros_are_one_vertex(self):
        # (0.0, 0.0) and (-0.0, 0.0) are one point, as they are in a set.
        with pytest.raises(ValueError, match="3 distinct"):
            Polygon([(0.0, 0.0), (-0.0, 0.0), (1.0, 1.0)])


def _edge_dists(p, verts):
    n = len(verts)
    out = []
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        out.append((b[1] - a[1]) * (p[0] - a[0])
                   - (b[0] - a[0]) * (p[1] - a[1]))
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
