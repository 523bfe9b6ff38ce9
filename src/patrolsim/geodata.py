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


@dataclass(frozen=True)
class LatLon:
    """A point in degrees north / degrees east (negative west), as read in;
    past ingest, point sets are (n, 2) float64 arrays of (lat, lon) rows."""

    lat: float
    lon: float

    def __post_init__(self):
        if not (-90.0 <= self.lat <= 90.0):
            raise ValueError(f"latitude out of range: {self.lat}")
        if not (-180.0 <= self.lon <= 180.0):
            raise ValueError(f"longitude out of range: {self.lon}")


@dataclass(frozen=True)
class BoundingBox:
    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def __post_init__(self):
        LatLon(self.lat_min, self.lon_min)  # both corners in range
        LatLon(self.lat_max, self.lon_max)
        if not (self.lat_min < self.lat_max and self.lon_min < self.lon_max):
            raise ValueError("degenerate bounding box")

    def contains(self, p: LatLon) -> bool:
        return (self.lat_min <= p.lat <= self.lat_max
                and self.lon_min <= p.lon <= self.lon_max)

    @property
    def center(self) -> LatLon:
        return LatLon((self.lat_min + self.lat_max) / 2.0,
                      (self.lon_min + self.lon_max) / 2.0)


# Baltimore city bounding box used for coordinate validity filtering.
BALTIMORE_BBOX = BoundingBox(39.197, 39.372, -76.712, -76.529)


def _feet_apart(lat_a, lon_a, lat_b, lon_b):
    """Equirectangular distance in feet, elementwise over floats or arrays.

    Longitude differences are scaled by cos(mean latitude). The scalar and
    the array paths share this one numpy expression, so a distance compared
    against a radius rounds the same way in both.
    """
    dlat = (lat_b - lat_a) * FEET_PER_DEGREE_LAT
    mean_lat = np.radians((lat_a + lat_b) / 2.0)
    dlon = (lon_b - lon_a) * FEET_PER_DEGREE_LAT * np.cos(mean_lat)
    return np.hypot(dlat, dlon)


def distance_feet(a: LatLon, b: LatLon) -> float:
    """Equirectangular distance in feet between two points."""
    return float(_feet_apart(a.lat, a.lon, b.lat, b.lon))


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


class Polygon:
    """Exterior ring plus optional hole rings, vertices as LatLon.

    Rings may be given open or closed (first vertex repeated at the end).
    The edges of every ring and the bounding box of all rings are computed
    once here; `points_in_polygon` reads nothing else.
    """

    def __init__(self, exterior: list[LatLon], holes: list[list[LatLon]] | None = None):
        rings = [_normalize_ring(r) for r in [exterior, *(holes or [])]]
        lats = [v.lat for ring in rings for v in ring]
        lons = [v.lon for ring in rings for v in ring]
        self.bbox = BoundingBox(min(lats), max(lats), min(lons), max(lons))
        # (y1, y2, y2 - y1, x1, x2 - x1) per edge; a horizontal edge is
        # never crossed by the +lon ray, so it is left out.
        self.edges = [(a.lat, b.lat, b.lat - a.lat, a.lon, b.lon - a.lon)
                      for ring in rings
                      for a, b in zip(ring, ring[1:] + ring[:1])
                      if a.lat != b.lat]


def _normalize_ring(ring: list[LatLon]) -> list[LatLon]:
    if len(ring) >= 2 and ring[0] == ring[-1]:
        ring = ring[:-1]
    if len(set(ring)) < 3:
        raise ValueError("polygon ring needs at least 3 distinct vertices")
    return list(ring)


def points_in_polygon(lat: np.ndarray, lon: np.ndarray,
                      poly: Polygon) -> np.ndarray:
    """Ray-casting parity test in the (lon, lat) plane for many points.

    Loops over the edges of every ring and vectorizes over points; a ray
    from each point towards +lon crosses an edge when the edge straddles
    the point's latitude (half-open on vertices) and meets it east of the
    point. Crossings of hole rings count too, so holes are outside.
    """
    inside = np.zeros(len(lat), dtype=bool)
    for y1, y2, dy, x1, dx in poly.edges:
        t = (lat - y1) / dy
        inside ^= ((y1 > lat) != (y2 > lat)) & (x1 + t * dx > lon)
    return inside

