"""Seeded file-backed city for the ``city-all`` workload.

Writes a boundary GeoJSON, a demographics CSV and one crime CSV that holds
two years of incidents, plus ``planted.json`` with the exact number of rows
that ingest must drop at each stage. Geometry is built so that every planted
point's polygon membership is known without running a point-in-polygon test:

- neighborhoods sit on a 16 x 17 grid of cells; each is a star-shaped ring
  inscribed in its cell, so no two neighborhoods overlap;
- some rings have a hole around the cell centre, and some neighborhoods are
  MultiPolygons with a small island near the cell's lower-left corner;
- points planted inside a neighborhood lie in the annulus between the hole
  and the ring's inscribed circle, or at an island's centre;
- points planted outside every polygon lie near a cell's upper-right corner
  or at the centre of a hole.

Rows dropped by ingest are planted as malformed rows (bad number or date),
rows just outside the validity bounding box, January rows (the holdout
month) and rows that fall in no polygon.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random

GRID_ROWS, GRID_COLS = 16, 17          # 272 neighborhoods
LAT_MIN, LAT_MAX = 39.20, 39.37
LON_MIN, LON_MAX = -76.71, -76.53
YEARS = (2019, 2020)
VERTICES = (10, 20)                     # ring vertex count range
R_MIN, R_MAX = 0.30, 0.45               # ring radius range, in cell units
HOLE_R = 0.07                           # hole half-width, in cell units
ISLAND_AT, ISLAND_R = -0.40, 0.05       # island centre offset and radius
OUTSIDE_AT = 0.46                       # upper-right corner offset

# Rows planted per year: ASSIGNED survive ingest; the others are dropped as
# January (holdout) rows, rows outside the bbox, or rows in no polygon.
# MALFORMED rows are spread over both years. planted.json records them all.
ASSIGNED_PER_YEAR = 3_000
JANUARY = 150
OUTSIDE_BBOX = 120
OUTSIDE_POLYGONS = 200
MALFORMED = 90


def _cell_frame(row: int, col: int) -> tuple[float, float, float, float]:
    dlat = (LAT_MAX - LAT_MIN) / GRID_ROWS
    dlon = (LON_MAX - LON_MIN) / GRID_COLS
    return (LAT_MIN + (row + 0.5) * dlat, LON_MIN + (col + 0.5) * dlon,
            dlat, dlon)


def _to_lonlat(frame, u: float, v: float) -> list[float]:
    clat, clon, dlat, dlon = frame
    return [clon + u * dlon, clat + v * dlat]


def _closed(ring: list[list[float]]) -> list[list[float]]:
    return ring + [ring[0]]


def _neighborhood(rng: random.Random, index: int) -> dict:
    row, col = divmod(index, GRID_COLS)
    frame = _cell_frame(row, col)
    n = rng.randint(*VERTICES)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    radii = [rng.uniform(R_MIN, R_MAX) for _ in range(n)]
    exterior = [_to_lonlat(frame, r * math.cos(phase + 2 * math.pi * k / n),
                           r * math.sin(phase + 2 * math.pi * k / n))
                for k, r in enumerate(radii)]
    # Every edge of a star ring with vertex radii >= R_MIN stays at least
    # R_MIN * cos(pi / n) from the centre.
    inner = min(radii) * math.cos(math.pi / n)
    has_hole = index % 7 == 3
    has_island = index % 9 == 4
    hole = [_to_lonlat(frame, u * HOLE_R, v * HOLE_R)
            for u, v in ((-1, -1), (1, -1), (1, 1), (-1, 1))]
    rings = [_closed(exterior)] + ([_closed(hole)] if has_hole else [])
    if has_island:
        island = [_to_lonlat(frame, ISLAND_AT + ISLAND_R * math.cos(a),
                             ISLAND_AT + ISLAND_R * math.sin(a))
                  for a in (0.3, 2.4, 4.4)]
        geometry = {"type": "MultiPolygon",
                    "coordinates": [rings, [_closed(island)]]}
    else:
        geometry = {"type": "Polygon", "coordinates": rings}
    return {"id": f"N{index:03d}", "frame": frame, "inner": inner,
            "has_hole": has_hole, "has_island": has_island,
            "geometry": geometry}


def _inside_point(rng: random.Random, nb: dict) -> tuple[float, float]:
    """(lat, lon) strictly inside the neighborhood."""
    if nb["has_island"] and rng.random() < 0.1:
        u = ISLAND_AT + rng.uniform(-0.2, 0.2) * ISLAND_R
        v = ISLAND_AT + rng.uniform(-0.2, 0.2) * ISLAND_R
    else:
        lo = HOLE_R * math.sqrt(2.0) * 1.3 if nb["has_hole"] else 0.0
        r = rng.uniform(lo, 0.9 * nb["inner"])
        a = rng.uniform(0.0, 2.0 * math.pi)
        u, v = r * math.cos(a), r * math.sin(a)
    lon, lat = _to_lonlat(nb["frame"], u, v)
    return lat, lon


def _outside_point(rng: random.Random, nb: dict) -> tuple[float, float]:
    """(lat, lon) inside the bounding box but in no polygon."""
    if nb["has_hole"] and rng.random() < 0.5:
        u, v = rng.uniform(-0.3, 0.3) * HOLE_R, rng.uniform(-0.3, 0.3) * HOLE_R
    else:
        u = OUTSIDE_AT + rng.uniform(-0.02, 0.02)
        v = OUTSIDE_AT + rng.uniform(-0.02, 0.02)
    lon, lat = _to_lonlat(nb["frame"], u, v)
    return lat, lon


def _outside_bbox_point(rng: random.Random) -> tuple[float, float]:
    side = rng.randrange(4)
    lat = rng.uniform(LAT_MIN, LAT_MAX)
    lon = rng.uniform(LON_MIN, LON_MAX)
    offset = rng.uniform(0.001, 0.02)
    if side == 0:
        lat = LAT_MIN - offset
    elif side == 1:
        lat = LAT_MAX + offset
    elif side == 2:
        lon = LON_MIN - offset
    else:
        lon = LON_MAX + offset
    return lat, lon


def _timestamp(rng: random.Random, year: int, month: int) -> str:
    day, hour, minute = rng.randint(1, 28), rng.randrange(24), rng.randrange(60)
    # A share of rows uses the portal's US format, so date parsing has to
    # fall through to a later format.
    if rng.random() < 0.2:
        return f"{month:02d}/{day:02d}/{year} {hour:02d}:{minute:02d}"
    return f"{year}-{month:02d}-{day:02d} {hour:02d}:{minute:02d}:{rng.randrange(60):02d}"


def _malformed(rng: random.Random, row: list[str]) -> list[str]:
    kind = rng.randrange(4)
    if kind == 0:
        row[1] = ""
    elif kind == 1:
        row[2] = "not-a-number"
    elif kind == 2:
        row[3] = "31/31/2020 25:61"
    else:
        row[3] = ""
    return row


CRIME_TYPES = ("LARCENY", "BURGLARY", "ASSAULT", "ROBBERY", "AUTO THEFT")


def generate_city(out_dir: str, seed: int) -> dict:
    """Write the city under ``out_dir`` and return the planted counts."""
    rng = random.Random(seed)
    os.makedirs(out_dir, exist_ok=True)
    nbs = [_neighborhood(rng, i) for i in range(GRID_ROWS * GRID_COLS)]

    features = [{"type": "Feature",
                 "properties": {"id": nb["id"], "name": f"Hood {nb['id']}"},
                 "geometry": nb["geometry"]} for nb in nbs]
    with open(os.path.join(out_dir, "neighborhoods.geojson"), "w",
              encoding="utf-8") as fh:
        json.dump({"type": "FeatureCollection", "features": features}, fh)

    with open(os.path.join(out_dir, "demographics.csv"), "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "pct_black", "pct_white", "pct_neither",
                         "median_income", "poverty_rate"])
        for nb in nbs:
            black = rng.uniform(0.02, 0.95)
            white = rng.uniform(0.0, 0.98 - black)
            writer.writerow([nb["id"], repr(black), repr(white),
                             repr(1.0 - black - white),
                             repr(round(rng.uniform(20_000, 120_000), 2)),
                             repr(rng.uniform(0.02, 0.45))])

    rows: list[list[str]] = []
    planted = {"seed": seed, "neighborhoods": len(nbs), "years": {}}

    def add(lat: float, lon: float, year: int, month: int) -> list[str]:
        row = [f"C{len(rows):06d}", repr(lat), repr(lon),
               _timestamp(rng, year, month), rng.choice(CRIME_TYPES)]
        rows.append(row)
        return row

    for year in YEARS:
        per_month = {m: 0 for m in range(2, 13)}
        for i in range(ASSIGNED_PER_YEAR):
            # Every month gets incidents; the rest are spread at random.
            month = 2 + i % 11 if i < 11 else rng.randint(2, 12)
            per_month[month] += 1
            add(*_inside_point(rng, rng.choice(nbs)), year, month)
        for _ in range(JANUARY):
            add(*_inside_point(rng, rng.choice(nbs)), year, 1)
        for _ in range(OUTSIDE_BBOX):
            add(*_outside_bbox_point(rng), year, rng.randint(2, 12))
        for _ in range(OUTSIDE_POLYGONS):
            add(*_outside_point(rng, rng.choice(nbs)), year, rng.randint(2, 12))
        planted["years"][str(year)] = {
            "rows": ASSIGNED_PER_YEAR + JANUARY + OUTSIDE_BBOX + OUTSIDE_POLYGONS,
            "january": JANUARY, "outside_bbox": OUTSIDE_BBOX,
            "outside_polygons": OUTSIDE_POLYGONS,
            "assigned": ASSIGNED_PER_YEAR,
            "per_month": {str(m): c for m, c in per_month.items()}}
    for _ in range(MALFORMED):
        year, month = rng.choice(YEARS), rng.randint(2, 12)
        _malformed(rng, add(*_inside_point(rng, rng.choice(nbs)), year, month))
    rng.shuffle(rows)
    planted["rows"] = len(rows)
    planted["malformed"] = MALFORMED

    with open(os.path.join(out_dir, "crimes.csv"), "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "lat", "lon", "date", "type"])
        writer.writerows(rows)
    with open(os.path.join(out_dir, "planted.json"), "w", encoding="utf-8") as fh:
        json.dump(planted, fh, indent=1, sort_keys=True)
    return planted


def city_binding(city_dir: str) -> dict:
    """The config ``data`` block that points patrolsim at the generated files."""
    return {"cities": {"Gentown": {
        "crime_csv": os.path.join(city_dir, "crimes.csv"),
        "boundaries": os.path.join(city_dir, "neighborhoods.geojson"),
        "demographics": os.path.join(city_dir, "demographics.csv"),
        "column_mapping": "generic",
        "bbox": [LAT_MIN, LAT_MAX, LON_MIN, LON_MAX]}}}
