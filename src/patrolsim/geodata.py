"""Geospatial primitives: coordinates, distances in feet, polygon containment,
and the count of points within a radius.

City-scale spans (< 0.2 degrees) let us use a flat equirectangular
approximation for distance; a haversine cross-check bounds the error
below 0.1% at that scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Conversion used throughout: one degree of latitude in feet.
FEET_PER_DEGREE_LAT = 364_567.2


_RANGE = np.array([90.0, 180.0])  # largest |lat| and |lon|


def _check_range(points: np.ndarray) -> None:
    """A ValueError naming the first latitude or longitude of the (lat, lon)
    rows outside [-90, 90] or [-180, 180], or NaN."""
    in_range = np.abs(points) <= _RANGE  # false for NaN
    if not in_range.all():
        row, col = np.argwhere(~in_range)[0]
        raise ValueError(f"{('latitude', 'longitude')[col]} out of range: "
                         f"{points[row, col]}")


@dataclass(frozen=True)
class BoundingBox:
    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def __post_init__(self):
        _check_range(np.array([[self.lat_min, self.lon_min],
                               [self.lat_max, self.lon_max]], dtype=float))
        if not (self.lat_min < self.lat_max and self.lon_min < self.lon_max):
            raise ValueError("degenerate bounding box")

    def contains(self, p) -> bool:
        """Whether p (a row with .lat and .lon) is in the closed box."""
        return (self.lat_min <= p.lat <= self.lat_max
                and self.lon_min <= p.lon <= self.lon_max)


# Baltimore city bounding box used for coordinate validity filtering.
BALTIMORE_BBOX = BoundingBox(39.197, 39.372, -76.712, -76.529)


def _feet_apart(lat_a, lon_a, lat_b, lon_b):
    """Equirectangular distance in feet, elementwise over floats or arrays.

    Longitude differences are scaled by cos(mean latitude).
    """
    dlat = (lat_b - lat_a) * FEET_PER_DEGREE_LAT
    mean_lat = np.radians((lat_a + lat_b) / 2.0)
    dlon = (lon_b - lon_a) * FEET_PER_DEGREE_LAT * np.cos(mean_lat)
    return np.hypot(dlat, dlon)


def count_within(points: np.ndarray, centers: np.ndarray,
                 radius_ft: float) -> np.ndarray:
    """For each (lat, lon) row of `points`, the number of `centers` rows
    within radius_ft (closed ball).

    Loops over centers and vectorizes over points, so memory stays linear
    in the number of points.
    """
    lat, lon = points[:, 0], points[:, 1]
    counts = np.zeros(len(points), dtype=np.int64)
    for c_lat, c_lon in centers.tolist():
        counts += _feet_apart(lat, lon, c_lat, c_lon) <= radius_ft
    return counts


# Elements of one (points, edges) block of `points_in_polygon`.
PIP_BLOCK_ELEMENTS = 1 << 16


class Polygon:
    """Exterior ring plus optional hole rings, each a float64 (m, 2) array
    of (lat, lon) rows (any sequence of such pairs is taken).

    Rings may be given open or closed (first vertex repeated at the end);
    `rings` keeps them open. The edges of every ring and the bounding box
    of all rings are computed once here; `points_in_polygon` reads nothing
    else.
    """

    def __init__(self, exterior, holes=None):
        self.rings = [_normalize_ring(r) for r in [exterior, *(holes or [])]]
        starts = np.concatenate(self.rings)
        (lat_min, lon_min), (lat_max, lon_max) = (starts.min(axis=0).tolist(),
                                                  starts.max(axis=0).tolist())
        self.bbox = BoundingBox(lat_min, lat_max, lon_min, lon_max)
        ends = np.concatenate([np.concatenate((r[1:], r[:1]))
                               for r in self.rings])
        (y1, x1), (y2, x2) = starts.T, ends.T
        edges = np.array([y1, y2, y2 - y1, x1, x2 - x1])
        # Rows y1, y2, y2 - y1, x1, x2 - x1 of one column per edge. A
        # horizontal edge (y2 - y1 is 0 only when y1 == y2) is never
        # crossed by the +lon ray, so it is left out.
        self.edges = edges[:, edges[2] != 0.0]


def _normalize_ring(ring) -> np.ndarray:
    ring = np.array(ring, dtype=float)
    if ring.ndim != 2 or ring.shape[1] != 2:
        raise ValueError(f"polygon ring must be (lat, lon) rows, "
                         f"got shape {ring.shape}")
    _check_range(ring)
    vertices = ring.tolist()
    if len(vertices) >= 2 and vertices[0] == vertices[-1]:
        ring, vertices = ring[:-1], vertices[:-1]
    # Distinct as a set counts them: 0.0 and -0.0 are one value.
    if len(set(map(tuple, vertices))) < 3:
        raise ValueError("polygon ring needs at least 3 distinct vertices")
    return ring


def points_in_polygon(lat: np.ndarray, lon: np.ndarray,
                      poly: Polygon) -> np.ndarray:
    """Ray-casting parity test in the (lon, lat) plane for many points.

    A ray from each point towards +lon crosses an edge when the edge
    straddles the point's latitude (half-open on vertices) and meets it
    east of the point. Crossings of hole rings count too, so holes are
    outside. Each block of points is one broadcast against every edge,
    sized so that its (points, edges) temporaries stay under
    PIP_BLOCK_ELEMENTS elements.
    """
    y1, y2, dy, x1, dx = poly.edges[:, None, :]
    inside = np.empty(len(lat), dtype=bool)
    step = max(1, PIP_BLOCK_ELEMENTS // poly.edges.shape[1])
    for i in range(0, len(lat), step):
        la, lo = lat[i:i + step, None], lon[i:i + step, None]
        t = (la - y1) / dy
        inside[i:i + step] = np.bitwise_xor.reduce(
            ((y1 > la) != (y2 > la)) & (x1 + t * dx > lo), axis=1)
    return inside
