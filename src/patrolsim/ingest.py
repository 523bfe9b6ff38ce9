"""Crime CSV / boundary GeoJSON / demographics ingestion.

Parses incident CSVs with configurable column mappings (city portals use
different schemas), filters to valid in-box coordinates and months
February-December, joins neighborhoods to demographic covariates, assigns
incidents to containing polygons, and partitions by month.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime
from typing import NamedTuple

import numpy as np

from .geodata import BoundingBox, Polygon, points_in_polygon

log = logging.getLogger(__name__)

# The months a city-year runs: January is the holdout month.
MONTHS = range(2, 13)

# The demographic groups, in the order of Neighborhood's pct_* shares.
RACE_GROUPS = ("Black", "White", "Neither")

DATE_FORMATS = (
    "%Y-%m-%d %H:%M:%S",
    "%Y-%m-%d %H:%M",
    "%m/%d/%Y %H:%M",
    "%m/%d/%Y %H:%M:%S",
    "%Y-%m-%d",
)

# The regex strptime compiles for each DATE_FORMATS entry, in that order,
# with each field's group named after its datetime argument.
_YEAR = r"(?P<year>\d\d\d\d)"
_MONTH = r"(?P<month>1[0-2]|0[1-9]|[1-9])"
_DAY = r"(?P<day>3[0-1]|[1-2]\d|0[1-9]|[1-9]| [1-9])"
_HOUR = r"(?P<hour>2[0-3]|[0-1]\d|\d)"
_MINUTE = r"(?P<minute>[0-5]\d|\d)"
_SECOND = r"(?P<second>6[0-1]|[0-5]\d|\d)"
_DATE_PATTERNS = tuple(re.compile(p) for p in (
    rf"{_YEAR}-{_MONTH}-{_DAY}\s+{_HOUR}:{_MINUTE}:{_SECOND}",
    rf"{_YEAR}-{_MONTH}-{_DAY}\s+{_HOUR}:{_MINUTE}",
    rf"{_MONTH}/{_DAY}/{_YEAR}\s+{_HOUR}:{_MINUTE}",
    rf"{_MONTH}/{_DAY}/{_YEAR}\s+{_HOUR}:{_MINUTE}:{_SECOND}",
    rf"{_YEAR}-{_MONTH}-{_DAY}",
))
# Each pattern's group names in the order datetime takes them.
_DATE_FIELDS = tuple(("year", "month", "day", "hour", "minute",
                      "second")[:p.groups] for p in _DATE_PATTERNS)

# Named column-mapping presets; portal schemas drift, so these can also be
# supplied inline in the run config.
COLUMN_PRESETS = {
    "baltimore-part1": {
        "id": "RowID", "lat": "Latitude", "lon": "Longitude",
        "date": "CrimeDateTime",
    },
    "chicago-portal": {
        "id": "ID", "lat": "Latitude", "lon": "Longitude", "date": "Date",
    },
    "generic": {"id": "id", "lat": "lat", "lon": "lon", "date": "date"},
}


class CrimeIncident(NamedTuple):
    """One crime CSV row: degrees north and east, and the neighborhood
    that contains it once assigned."""
    id: str
    lat: float
    lon: float
    timestamp: datetime
    neighborhood_id: str | None = None


@dataclass(frozen=True)
class Neighborhood:
    id: str
    polygons: tuple[Polygon, ...]
    pct_black: float
    pct_white: float
    pct_neither: float
    median_income: float
    poverty_rate: float


@dataclass(frozen=True, eq=False)
class MonthSlice:
    """One month's crimes as columns, in input order: `incidents` holds
    their locations, a float64 (n, 2) array of (lat, lon) rows, and
    `neighborhood_ids` the (n,) str ids of their neighborhoods."""
    city: str
    year: int
    month: int
    incidents: np.ndarray
    neighborhood_ids: np.ndarray


class IngestError(Exception):
    """Fatal data-loading problem (missing file, missing column, bad value)."""


def _match_date(raw: str) -> datetime | None:
    """The datetime of the first DATE_FORMATS entry that reads the stripped
    field as a valid date, as strptime would; None when none does."""
    raw = raw.strip()
    for pattern, fields in zip(_DATE_PATTERNS, _DATE_FIELDS):
        match = pattern.fullmatch(raw)
        if match:
            try:
                return datetime(*map(int, match.group(*fields)))
            except ValueError:  # not this format: say 2019-02-30 or second 60
                continue
    return None


def _undecodable_line(path: str) -> int:
    """The number of the first line of the file that is not UTF-8, or 0
    when every line is."""
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return number
    return 0


@contextmanager
def _csv_faults(reader, path: str, name: str):
    """A line that `reader`, a csv reader or DictReader of the UTF-8 file at
    `path`, finds not UTF-8 or not CSV (such as a field over csv's size
    limit) becomes an IngestError naming `name` and the line."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise IngestError(f"{name}, line {_undecodable_line(path)}: not "
                          f"UTF-8 ({exc.reason})") from exc
    except csv.Error as exc:
        # A DictReader counts the lines of the rows it returned; its csv
        # reader counts the line that failed too.
        line = getattr(reader, "reader", reader).line_num
        raise IngestError(f"{name}, line {line}: {exc}") from exc


def parse_crime_csv(path: str, column_mapping: dict[str, str] | str
                    ) -> tuple[list[CrimeIncident], int]:
    """Parse one incident CSV.

    Returns (incidents, dropped_count); rows with unparseable or
    out-of-range coordinates or dates are skipped and counted. Rows are read
    as csv.DictReader reads them: blank lines are skipped, a short row's
    missing fields read as None (a row without its id is dropped), the last
    of repeated header names wins and extra fields are ignored. Duplicate
    ids are kept as-is. A leading UTF-8 byte-order mark is skipped; a file
    that is not UTF-8 or not valid CSV is an IngestError naming the line.
    """
    if isinstance(column_mapping, str):
        try:
            column_mapping = COLUMN_PRESETS[column_mapping]
        except KeyError:
            raise IngestError(f"unknown column preset: {column_mapping!r}")

    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise IngestError(f"cannot open crime CSV {path}: {exc}") from exc

    incidents: list[CrimeIncident] = []
    dropped = 0
    with fh:
        reader = csv.reader(fh)
        with _csv_faults(reader, path, f"crime CSV {path}"):
            header = next(reader, [])
            index = {name: i for i, name in enumerate(header)}
            for key in ("id", "lat", "lon", "date"):
                if column_mapping[key] not in index:
                    raise IngestError(f"mapped column {column_mapping[key]!r} "
                                      f"({key}) missing from {path}")
            i_id, i_lat, i_lon, i_date = (index[column_mapping[key]] for key
                                          in ("id", "lat", "lon", "date"))
            for row in reader:
                if not row:
                    continue
                if len(row) < len(header):
                    row += [None] * (len(header) - len(row))
                try:
                    lat = float(row[i_lat])
                    lon = float(row[i_lon])
                except (TypeError, ValueError):
                    dropped += 1
                    continue
                # In [-90, 90] and [-180, 180], and false for NaN.
                if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
                    dropped += 1
                    continue
                ts = _match_date(row[i_date] or "")
                if ts is None or row[i_id] is None:
                    dropped += 1
                    continue
                incidents.append(CrimeIncident(row[i_id], lat, lon, ts))
    if dropped:
        log.info("parse_crime_csv(%s): dropped %d malformed rows", path, dropped)
    return incidents, dropped


def read_csv_rows(path: str, parse, what: str) -> list:
    """`parse` of each csv.DictReader row of the file at `path`, past any
    UTF-8 byte-order mark. A line that is not UTF-8 or not CSV, or a row
    that `parse` cannot read (a KeyError, TypeError or ValueError), is an
    IngestError naming the file and the line; for a row, also `what` it
    should be."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        try:
            with _csv_faults(reader, path, path):
                return [parse(row) for row in reader]
        except (KeyError, TypeError, ValueError) as exc:
            raise IngestError(f"{path}, line {reader.line_num}: not {what} "
                              f"({exc!r})") from exc


def coordinates(incidents) -> np.ndarray:
    """The incidents' locations as one (n, 2) float64 array of (lat, lon)
    rows, the form every step after ingest takes points in."""
    return np.array([(i.lat, i.lon) for i in incidents],
                    dtype=float).reshape(-1, 2)


def filter_valid(incidents: list[CrimeIncident],
                 bbox: BoundingBox) -> list[CrimeIncident]:
    """Keep incidents inside the city box in one of MONTHS."""
    return [inc for inc in incidents
            if bbox.contains(inc) and inc.timestamp.month in MONTHS]


SHARE_COLUMNS = ("pct_black", "pct_white", "pct_neither", "poverty_rate")


def _read_demographics(path: str) -> dict[str, dict[str, float | None]]:
    """Each row's median_income and share columns, as numbers, by row id.

    A missing, empty, non-numeric or non-finite value, or a negative
    median_income (the Census API's -666666666), is an IngestError naming
    the file, the row id and the column; only pct_neither may be left empty
    (None), to be computed as the remainder. So is an id on two rows, and
    a row whose three group shares are all 0, which no group can be drawn
    from. A line that is not UTF-8 or not CSV, or a row without an id, is
    an IngestError naming the file and the line (see `read_csv_rows`).
    """
    demo = {}
    for rid, row in read_csv_rows(path, lambda row: (str(row["id"]), row),
                                  "a demographics row"):
        if rid in demo:
            raise IngestError(f"demographics {path}: id {rid!r} is on more "
                              f"than one row")
        values = demo[rid] = {}
        for col in ("median_income",) + SHARE_COLUMNS:
            raw = row.get(col)
            if col == "pct_neither" and raw in (None, ""):
                values[col] = None
                continue
            try:
                value = float(raw)
            except (TypeError, ValueError):
                value = math.nan
            if not math.isfinite(value) \
                    or (col == "median_income" and value < 0):
                raise IngestError(
                    f"demographics {path}, row {rid!r}: {col} is "
                    f"{'missing' if raw is None else repr(raw)}")
            values[col] = value
        if values["pct_black"] == values["pct_white"] \
                == values["pct_neither"] == 0.0:
            raise IngestError(f"demographics {path}, row {rid!r}: pct_black, "
                              f"pct_white and pct_neither are all 0")
    return demo


def _share_divisors(demo: list[dict[str, float | None]]) -> dict[str, float]:
    """Divisor (1 or 100) of each share column, decided over all its values.

    ACS extracts come in either 0-1 or 0-100 scale; any value above 1.5
    marks the whole column as percentage-scaled.
    """
    divisors = {}
    for col in SHARE_COLUMNS:
        values = [v[col] for v in demo if v[col] is not None]
        for v in values:
            if not (0.0 <= v <= 100.0):
                raise IngestError(f"{col} outside [0, 100]: {v}")
        divisors[col] = 100.0 if any(v > 1.5 for v in values) else 1.0
    return divisors


def _share(values: dict[str, float | None], col: str,
           divisors: dict[str, float]) -> float:
    value = values[col] / divisors[col]
    if value > 1.0:
        raise IngestError(f"{col} fraction above 1: {values[col]}")
    return value


def _geojson_polygons(geometry) -> list[Polygon]:
    """The polygons of a GeoJSON Polygon or MultiPolygon geometry; a
    malformed one raises LookupError, TypeError or ValueError."""
    def ring(coords):
        # A position may carry an altitude after lon and lat (RFC 7946).
        rows = np.array([(lat, lon) for lon, lat, *_ in coords])
        if rows.dtype.kind not in "iuf":
            raise ValueError("ring coordinates must be numbers")
        return rows

    if not isinstance(geometry, dict):
        raise ValueError(f"geometry is {geometry!r}, not an object")
    gtype = geometry.get("type")
    if gtype == "Polygon":
        parts = [geometry.get("coordinates")]
    elif gtype == "MultiPolygon":
        parts = geometry.get("coordinates")
    else:
        raise ValueError(f"unsupported geometry type: {gtype}")
    return [Polygon(ring(rings[0]), [ring(r) for r in rings[1:]])
            for rings in parts]


def load_neighborhoods(boundary_path: str, demographics_path: str,
                       id_property: str = "id") -> list[Neighborhood]:
    """Join boundary GeoJSON features with a demographics CSV keyed by id.

    Ids present in only one source are dropped with a warning; no id in
    both is an IngestError naming both files. pct_neither is computed as
    the remainder when the CSV does not carry it. Either file may start
    with a UTF-8 byte-order mark.
    """
    try:
        with open(boundary_path, encoding="utf-8-sig") as fh:
            collection = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IngestError(f"cannot read boundaries {boundary_path}: {exc}") from exc

    features = (collection.get("features", [])
                if isinstance(collection, dict) else None)
    if not isinstance(features, list):
        raise IngestError(f"boundaries {boundary_path}: \"features\" is not "
                          f"a list")
    demo = _read_demographics(demographics_path)
    divisors = _share_divisors(list(demo.values()))
    out: list[Neighborhood] = []
    for number, feature in enumerate(features):
        if not isinstance(feature, dict):
            raise IngestError(f"boundaries {boundary_path}: feature {number} "
                              f"is not an object")
        # "properties": null is a feature without the id property.
        props = feature.get("properties") or {}
        fid = str(props.get(id_property, ""))
        if fid not in demo:
            log.warning("boundary id %r has no demographics row; dropped", fid)
            continue
        try:
            polygons = tuple(_geojson_polygons(feature.get("geometry")))
        except (LookupError, TypeError, ValueError) as exc:
            raise IngestError(f"boundaries {boundary_path}, feature {fid!r}: "
                              f"{exc}") from exc
        row = demo[fid]
        pct_black = _share(row, "pct_black", divisors)
        pct_white = _share(row, "pct_white", divisors)
        if row["pct_neither"] is not None:
            pct_neither = _share(row, "pct_neither", divisors)
        else:
            pct_neither = max(0.0, 1.0 - pct_black - pct_white)
        out.append(Neighborhood(
            id=fid,
            polygons=polygons,
            pct_black=pct_black,
            pct_white=pct_white,
            pct_neither=pct_neither,
            median_income=row["median_income"],
            poverty_rate=_share(row, "poverty_rate", divisors),
        ))
    if not out:
        raise IngestError(f"no feature of boundaries {boundary_path} has a "
                          f"row in demographics {demographics_path}")
    return out


def assign_neighborhoods(incidents: list[CrimeIncident],
                         neighborhoods: list[Neighborhood],
                         ) -> tuple[list[CrimeIncident], int]:
    """Set neighborhood_id by point-in-polygon; first match in input order wins.

    Neighborhoods and their polygons are walked in order; each polygon tests
    only the incidents still unassigned that lie in its bounding box. The
    box decides nothing the ray cast would not: outside it, no edge
    straddles the point's latitude, or every crossing (which lies between
    its edge's end longitudes) is on the same side of the point, an even
    count per ring. The incidents are sorted by latitude once, so a box's
    latitude range is one slice of them.
    Incidents contained by no polygon are dropped and counted.
    """
    if not neighborhoods:
        raise IngestError("assign_neighborhoods requires at least one neighborhood")
    points = coordinates(incidents)
    order = np.argsort(points[:, 0], kind="stable")
    lat, lon = points[order].T
    found = np.full(len(incidents), -1)  # in latitude order
    for k, nb in enumerate(neighborhoods):
        for poly in nb.polygons:
            box = poly.bbox
            lo = np.searchsorted(lat, box.lat_min, side="left")
            hi = np.searchsorted(lat, box.lat_max, side="right")
            near = lo + np.flatnonzero((found[lo:hi] < 0)
                                       & (lon[lo:hi] >= box.lon_min)
                                       & (lon[lo:hi] <= box.lon_max))
            found[near[points_in_polygon(lat[near], lon[near], poly)]] = k
    owner = np.empty_like(found)
    owner[order] = found
    ids = [nb.id for nb in neighborhoods]
    assigned = [CrimeIncident(*inc[:4], ids[k])
                for inc, k in zip(incidents, owner.tolist()) if k >= 0]
    dropped = len(incidents) - len(assigned)
    if dropped:
        log.info("assign_neighborhoods: %d incidents outside all polygons", dropped)
    return assigned, dropped


def partition_by_month(incidents: list[CrimeIncident], city: str,
                       year: int) -> list[MonthSlice]:
    """Split the assigned incidents of the caller's (city, year) into one
    column slice per month that has any, in month order."""
    by_month: dict[int, list[CrimeIncident]] = {}
    for inc in incidents:
        by_month.setdefault(inc.timestamp.month, []).append(inc)
    return [MonthSlice(city, year, m, coordinates(rows),
                       np.array([inc.neighborhood_id for inc in rows],
                                dtype=str))
            for m, rows in sorted(by_month.items())]


def hull_bbox(neighborhoods: list[Neighborhood], pad: float = 0.01) -> BoundingBox:
    """Bounding box of all neighborhood polygons, expanded by pad degrees.

    Used as the validity box for cities whose box is not configured.
    """
    boxes = [poly.bbox for nb in neighborhoods for poly in nb.polygons]
    return BoundingBox(
        max(-90.0, min(b.lat_min for b in boxes) - pad),
        min(90.0, max(b.lat_max for b in boxes) + pad),
        max(-180.0, min(b.lon_min for b in boxes) - pad),
        min(180.0, max(b.lon_max for b in boxes) + pad),
    )
