import csv
import json
from dataclasses import replace
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_geodata import (LatLon, horizontal_edge_points,
                          loop_points_in_polygon, oracle_point_in_polygon,
                          probe_points, star_ring)

from patrolsim.geodata import BALTIMORE_BBOX, Polygon, points_in_polygon
from patrolsim.ingest import (DATE_FORMATS, CrimeIncident, IngestError,
                              Neighborhood, _match_date, assign_neighborhoods,
                              coordinates, filter_valid, hull_bbox,
                              load_neighborhoods, parse_crime_csv,
                              partition_by_month)

CRIME_CSV = """id,lat,lon,date,type
1,39.31,-76.62,2019-03-15 14:30,BURGLARY
2,,,2019-03-16 10:00,THEFT
3,39.29,-76.58,03/20/2019 09:15,ASSAULT
"""


@pytest.fixture
def crime_csv(tmp_path):
    path = tmp_path / "crime.csv"
    path.write_text(CRIME_CSV)
    return str(path)


def square_feature(fid, lat0, lat1, lon0, lon1, name=None):
    ring = [[lon0, lat0], [lon0, lat1], [lon1, lat1], [lon1, lat0], [lon0, lat0]]
    return {"type": "Feature",
            "properties": {"id": fid, "name": name or fid},
            "geometry": {"type": "Polygon", "coordinates": [ring]}}


@pytest.fixture
def boundary_files(tmp_path):
    collection = {"type": "FeatureCollection", "features": [
        square_feature("A", 39.28, 39.33, -76.65, -76.60),
        square_feature("B", 39.28, 39.33, -76.60, -76.55),
    ]}
    bpath = tmp_path / "bounds.geojson"
    bpath.write_text(json.dumps(collection))
    dpath = tmp_path / "demo.csv"
    dpath.write_text(
        "id,pct_black,pct_white,pct_neither,median_income,poverty_rate\n"
        "A,62.0,30.5,7.5,35000,22.0\n"
        "B,10.0,85.0,5.0,72000,8.0\n")
    return str(bpath), str(dpath)


class TestParseCrimeCsv:
    def test_blank_coordinates_dropped(self, crime_csv):
        incidents, dropped = parse_crime_csv(crime_csv, "generic")
        assert len(incidents) == 2
        assert dropped == 1

    def test_month_parsed(self, crime_csv):
        incidents, _ = parse_crime_csv(crime_csv, "generic")
        assert incidents[0].timestamp.month == 3
        assert (incidents[0].lat, incidents[0].lon) == (39.31, -76.62)
        # The whole row: the type column is not read.
        assert incidents[0] == CrimeIncident(
            "1", 39.31, -76.62, datetime(2019, 3, 15, 14, 30))

    def test_both_date_formats(self, crime_csv):
        incidents, _ = parse_crime_csv(crime_csv, "generic")
        assert [i.id for i in incidents] == ["1", "3"]

    def test_duplicate_ids_kept(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("id,lat,lon,date,type\n"
                        "7,39.31,-76.62,2019-03-15 14:30,X\n"
                        "7,39.32,-76.61,2019-04-01 09:00,Y\n")
        incidents, _ = parse_crime_csv(str(path), "generic")
        assert len(incidents) == 2

    def test_missing_file_fatal(self):
        with pytest.raises(IngestError):
            parse_crime_csv("/nonexistent.csv", "generic")

    def test_byte_order_mark_is_read(self, tmp_path, crime_csv):
        # Spreadsheet exports often start with a UTF-8 byte-order mark.
        path = tmp_path / "bom.csv"
        path.write_text("\ufeff" + CRIME_CSV, encoding="utf-8")
        assert parse_crime_csv(str(path), "generic") \
            == parse_crime_csv(crime_csv, "generic")
        # A line that is not UTF-8 is still named by its number.
        path.write_bytes(b"\xef\xbb\xbf" + CRIME_CSV.encode()
                         + b"4,39.3,-76.6,2019-03-15,CAF\xc9\n")
        with pytest.raises(IngestError, match="line 5: not UTF-8"):
            parse_crime_csv(str(path), "generic")

    def test_missing_mapped_column_fatal(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,lat,date\n1,39.3,2019-03-15 14:30\n")
        with pytest.raises(IngestError):
            parse_crime_csv(str(path), "generic")

    def test_unknown_preset_fatal(self, crime_csv):
        with pytest.raises(IngestError):
            parse_crime_csv(crime_csv, "no-such-preset")


def make_incident(lat, lon, month, day=10):
    return CrimeIncident(id=f"{lat}-{lon}-{month}", lat=lat, lon=lon,
                         timestamp=datetime(2019, month, day))


def in_neighborhood(nb, p) -> bool:
    """Whether one of the neighborhood's polygons contains the (lat, lon)
    point."""
    return any(points_in_polygon(np.array([p[0]]), np.array([p[1]]),
                                 poly)[0] for poly in nb.polygons)


class TestCoordinates:
    def test_rows_are_lat_lon(self):
        incidents = [make_incident(39.31, -76.62, 3),
                     make_incident(39.29, -76.58, 4)]
        xy = coordinates(incidents)
        assert xy.dtype == np.float64
        assert xy.tolist() == [[39.31, -76.62], [39.29, -76.58]]

    def test_no_incidents(self):
        assert coordinates([]).shape == (0, 2)


class TestFilterValid:
    def test_outside_box_dropped(self):
        out = filter_valid([make_incident(39.5, -76.6, 3)], BALTIMORE_BBOX)
        assert out == []

    def test_january_dropped(self):
        out = filter_valid([make_incident(39.30, -76.60, 1)], BALTIMORE_BBOX)
        assert out == []

    def test_march_in_box_kept(self):
        inc = make_incident(39.30, -76.60, 3)
        assert filter_valid([inc], BALTIMORE_BBOX) == [inc]

    def test_idempotent(self):
        incidents = [make_incident(39.30, -76.60, m) for m in range(1, 13)]
        once = filter_valid(incidents, BALTIMORE_BBOX)
        assert filter_valid(once, BALTIMORE_BBOX) == once


class TestLoadNeighborhoods:
    def test_join(self, boundary_files):
        nbs = load_neighborhoods(*boundary_files)
        assert len(nbs) == 2
        a = nbs[0]
        assert a.id == "A"
        assert a.pct_black == pytest.approx(0.62)
        assert a.pct_white == pytest.approx(0.305)
        assert a.pct_neither == pytest.approx(0.075)
        assert a.poverty_rate == pytest.approx(0.22)
        assert a.pct_black + a.pct_white + a.pct_neither == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("which", [0, 1], ids=["boundaries",
                                                   "demographics"])
    def test_byte_order_mark_is_read(self, boundary_files, which):
        # Spreadsheet exports often start with a UTF-8 byte-order mark.
        def read():
            return [(replace(nb, polygons=()),
                     [[ring.tolist() for ring in p.rings]
                      for p in nb.polygons])
                    for nb in load_neighborhoods(*boundary_files)]
        expected = read()
        with open(boundary_files[which], encoding="utf-8") as fh:
            text = fh.read()
        with open(boundary_files[which], "w", encoding="utf-8") as fh:
            fh.write("\ufeff" + text)
        assert read() == expected

    def test_pct_neither_computed_when_absent(self, tmp_path, boundary_files):
        bpath, _ = boundary_files
        dpath = tmp_path / "demo2.csv"
        dpath.write_text("id,pct_black,pct_white,median_income,poverty_rate\n"
                         "A,62.0,30.5,35000,22.0\nB,10,85,72000,8\n")
        nbs = load_neighborhoods(bpath, str(dpath))
        assert nbs[0].pct_neither == pytest.approx(0.075)

    def test_unmatched_boundary_dropped(self, tmp_path, boundary_files):
        bpath, _ = boundary_files
        dpath = tmp_path / "demo3.csv"
        dpath.write_text("id,pct_black,pct_white,median_income,poverty_rate\n"
                         "A,62.0,30.5,35000,22.0\n")
        nbs = load_neighborhoods(bpath, str(dpath))
        assert [nb.id for nb in nbs] == ["A"]

    def test_no_shared_id_fatal(self, tmp_path, boundary_files):
        bpath, _ = boundary_files
        dpath = tmp_path / "demo-other.csv"
        dpath.write_text("id,pct_black,pct_white,median_income,poverty_rate\n"
                         "C,62.0,30.5,35000,22.0\n")
        with pytest.raises(IngestError) as err:
            load_neighborhoods(bpath, str(dpath))
        assert bpath in str(err.value) and str(dpath) in str(err.value)

    def test_percentage_out_of_range_fatal(self, tmp_path, boundary_files):
        bpath, _ = boundary_files
        dpath = tmp_path / "demo4.csv"
        dpath.write_text("id,pct_black,pct_white,median_income,poverty_rate\n"
                         "A,162.0,30.5,35000,22.0\nB,10,85,72000,8\n")
        with pytest.raises(IngestError):
            load_neighborhoods(bpath, str(dpath))

    def test_fraction_scale_accepted(self, tmp_path, boundary_files):
        bpath, _ = boundary_files
        dpath = tmp_path / "demo5.csv"
        dpath.write_text("id,pct_black,pct_white,median_income,poverty_rate\n"
                         "A,0.62,0.305,35000,0.22\nB,0.1,0.85,72000,0.08\n")
        nbs = load_neighborhoods(bpath, str(dpath))
        assert nbs[0].pct_black == pytest.approx(0.62)

    def test_scale_decided_per_column(self, tmp_path, boundary_files):
        bpath, _ = boundary_files
        dpath = tmp_path / "demo6.csv"
        dpath.write_text("id,pct_black,pct_white,median_income,poverty_rate\n"
                         "A,1.2,0.9,35000,1.1\nB,60.0,35.0,72000,20.0\n")
        a = load_neighborhoods(bpath, str(dpath))[0]
        assert a.pct_black == pytest.approx(0.012)
        assert a.pct_white == pytest.approx(0.009)
        assert a.poverty_rate == pytest.approx(0.011)
        assert a.pct_neither == pytest.approx(0.979)

    def test_fraction_above_one_fatal(self, tmp_path, boundary_files):
        bpath, _ = boundary_files
        dpath = tmp_path / "demo7.csv"
        dpath.write_text("id,pct_black,pct_white,median_income,poverty_rate\n"
                         "A,0.62,0.305,35000,1.2\nB,0.1,0.85,72000,0.08\n")
        with pytest.raises(IngestError):
            load_neighborhoods(bpath, str(dpath))

    @pytest.mark.parametrize("column,value", [
        ("median_income", "n/a"), ("pct_black", "sixty"),
        ("poverty_rate", ""), ("pct_white", ""),
        ("median_income", None), ("poverty_rate", None),
        ("pct_black", None), ("pct_white", None),
        ("median_income", "nan"), ("median_income", "inf"),
        ("median_income", "-666666666"), ("pct_black", "nan"),
    ], ids=lambda v: "missing" if v is None else repr(v))
    def test_malformed_value_fatal(self, tmp_path, boundary_files, column,
                                   value):
        # A non-numeric, empty or non-finite value, a negative income (the
        # Census API's -666666666 for an unavailable estimate), or a missing
        # column (None), names the file, the row and the column.
        row = {"id": "A", "pct_black": "62.0", "pct_white": "30.5",
               "median_income": "35000", "poverty_rate": "22.0"}
        if value is None:
            del row[column]
        else:
            row[column] = value
        dpath = tmp_path / "bad.csv"
        dpath.write_text(",".join(row) + "\n" + ",".join(row.values()) + "\n")
        with pytest.raises(IngestError) as err:
            load_neighborhoods(boundary_files[0], str(dpath))
        assert str(dpath) in str(err.value)
        assert "'A'" in str(err.value) and column in str(err.value)

    def test_positions_with_altitude(self, tmp_path, boundary_files):
        bpath, dpath = boundary_files
        with open(bpath, encoding="utf-8") as fh:
            collection = json.load(fh)
        for feature in collection["features"]:
            feature["geometry"]["coordinates"] = [
                [[lon, lat, 12.5] for lon, lat in ring]
                for ring in feature["geometry"]["coordinates"]]
        apath = tmp_path / "altitude.geojson"
        apath.write_text(json.dumps(collection))
        rng = np.random.default_rng(12)
        incidents = [make_incident(lat, lon, 3) for lat, lon in zip(
            rng.uniform(39.27, 39.34, 200), rng.uniform(-76.66, -76.54, 200))]
        flat = assign_neighborhoods(incidents, load_neighborhoods(bpath, dpath))
        assert assign_neighborhoods(
            incidents, load_neighborhoods(str(apath), dpath)) == flat
        assert 0 < flat[1] < len(incidents)

    def test_position_without_latitude_fatal(self, tmp_path, boundary_files):
        collection = {"type": "FeatureCollection", "features": [
            square_feature("A", 39.28, 39.33, -76.65, -76.60)]}
        collection["features"][0]["geometry"]["coordinates"][0][2] = [-76.60]
        bpath = tmp_path / "short.geojson"
        bpath.write_text(json.dumps(collection))
        with pytest.raises(IngestError, match="'A'"):
            load_neighborhoods(str(bpath), boundary_files[1])

    def test_multipolygon(self, tmp_path):
        feature = {"type": "Feature", "properties": {"id": "M"},
                   "geometry": {"type": "MultiPolygon", "coordinates": [
                       [[[-76.65, 39.28], [-76.65, 39.30], [-76.63, 39.30],
                         [-76.63, 39.28], [-76.65, 39.28]]],
                       [[[-76.60, 39.28], [-76.60, 39.30], [-76.58, 39.30],
                         [-76.58, 39.28], [-76.60, 39.28]]]]}}
        bpath = tmp_path / "multi.geojson"
        bpath.write_text(json.dumps({"type": "FeatureCollection",
                                     "features": [feature]}))
        dpath = tmp_path / "demo6.csv"
        dpath.write_text("id,pct_black,pct_white,median_income,poverty_rate\n"
                         "M,50,45,50000,15\n")
        nbs = load_neighborhoods(str(bpath), str(dpath))
        assert len(nbs[0].polygons) == 2
        assert in_neighborhood(nbs[0], (39.29, -76.64))
        assert in_neighborhood(nbs[0], (39.29, -76.59))
        assert not in_neighborhood(nbs[0], (39.29, -76.615))


class TestAssignNeighborhoods:
    def test_assignment_and_drop(self, boundary_files):
        nbs = load_neighborhoods(*boundary_files)
        inside_a = make_incident(39.30, -76.62, 3)
        inside_b = make_incident(39.30, -76.57, 3)
        outside = make_incident(39.36, -76.70, 3)
        assigned, dropped = assign_neighborhoods([inside_a, inside_b, outside], nbs)
        assert [i.neighborhood_id for i in assigned] == ["A", "B"]
        assert dropped == 1

    def test_assigned_point_satisfies_containment(self, boundary_files):
        nbs = load_neighborhoods(*boundary_files)
        by_id = {nb.id: nb for nb in nbs}
        incidents = [make_incident(39.28 + 0.001 * i, -76.64 + 0.002 * i, 3)
                     for i in range(20)]
        assigned, _ = assign_neighborhoods(incidents, nbs)
        for inc in assigned:
            assert in_neighborhood(by_id[inc.neighborhood_id],
                                   (inc.lat, inc.lon))

    def test_overlap_first_match_wins(self, boundary_files):
        nbs = load_neighborhoods(*boundary_files)
        overlapping = [nbs[1], nbs[1], nbs[0]]  # duplicate B first
        inc = make_incident(39.30, -76.57, 3)
        assigned, _ = assign_neighborhoods([inc], overlapping)
        assert assigned[0].neighborhood_id == "B"

    def test_empty_neighborhoods_fatal(self):
        with pytest.raises(IngestError):
            assign_neighborhoods([make_incident(39.3, -76.6, 3)], [])


    def test_matches_first_match_oracle(self):
        # A few hundred overlapping star-shaped polygons, some with holes or
        # a second part; every 10th neighborhood repeats an earlier one under
        # a new id, so input order alone decides which of the two wins.
        rng = np.random.default_rng(4)
        parts_of, neighborhoods = [], []
        for k in range(200):
            if k % 10 == 9:
                parts = parts_of[int(rng.integers(k))]
            else:
                parts = []
                for _ in range(1 + (k % 7 == 0)):
                    lat0 = rng.uniform(39.25, 39.32)
                    lon0 = rng.uniform(-76.66, -76.57)
                    radius = rng.uniform(0.004, 0.02)
                    rings = [star_ring(rng, lat0, lon0, radius,
                                       int(rng.integers(3, 16)))]
                    if k % 5 == 0:
                        rings.append(star_ring(rng, lat0, lon0, 0.3 * radius, 5))
                    parts.append(rings)
            parts_of.append(parts)
            neighborhoods.append(Neighborhood(
                id=f"N{k}",
                polygons=tuple(Polygon(r[0], r[1:]) for r in parts),
                pct_black=0.3, pct_white=0.6, pct_neither=0.1,
                median_income=50_000.0, poverty_rate=0.1))
        # Points around all the polygons, and around each neighborhood's
        # first part, snapped onto its bounding box among others.
        all_rings = [ring for parts in parts_of for rings in parts
                     for ring in rings]
        points = probe_points(rng, all_rings, 300)
        for parts in parts_of:
            points += probe_points(rng, parts[0], 4)
        incidents = [make_incident(*p, 3) for p in points]

        expected = []
        for inc in incidents:
            for nb, parts in zip(neighborhoods, parts_of):
                if any(oracle_point_in_polygon((inc.lat, inc.lon), rings)
                       for rings in parts):
                    expected.append(nb.id)
                    break
        assigned, dropped = assign_neighborhoods(incidents, neighborhoods)
        assert [inc.neighborhood_id for inc in assigned] == expected
        assert dropped == len(incidents) - len(expected)
        assert 0 < dropped < len(incidents)

    def test_no_incidents(self, boundary_files):
        nbs = load_neighborhoods(*boundary_files)
        assert assign_neighborhoods([], nbs) == ([], 0)


class TestPartitionByMonth:
    def test_two_months(self):
        incidents = [make_incident(39.3, -76.6, 2), make_incident(39.3, -76.6, 3)]
        slices = partition_by_month(incidents, "Baltimore", 2019)
        assert [(s.month, len(s.incidents)) for s in slices] == [(2, 1), (3, 1)]

    def test_empty(self):
        assert partition_by_month([], "Baltimore", 2019) == []

    def test_columns(self):
        rows = [CrimeIncident(str(i), lat, -76.6, datetime(2019, m, 1), f"N{i}")
                for i, (lat, m) in enumerate(((39.3, 4), (39.31, 2),
                                              (39.32, 4)))]
        slices = partition_by_month(rows, "Baltimore", 2019)
        assert [(s.city, s.year, s.month) for s in slices] == [
            ("Baltimore", 2019, 2), ("Baltimore", 2019, 4)]
        assert [s.incidents.tolist() for s in slices] == [
            [[39.31, -76.6]], [[39.3, -76.6], [39.32, -76.6]]]
        assert all(s.incidents.dtype == np.float64 for s in slices)
        assert [s.neighborhood_ids.tolist() for s in slices] == [
            ["N1"], ["N0", "N2"]]

    def test_single_month(self):
        incidents = [make_incident(39.3, -76.6, 7, day=d % 28 + 1)
                     for d in range(100)]
        slices = partition_by_month(incidents, "Baltimore", 2019)
        assert len(slices) == 1
        assert len(slices[0].incidents) == 100

    def test_size_conservation(self):
        incidents = [make_incident(39.3, -76.6, m % 11 + 2) for m in range(57)]
        filtered = filter_valid(incidents, BALTIMORE_BBOX)
        slices = partition_by_month(filtered, "Baltimore", 2019)
        assert sum(len(s.incidents) for s in slices) == len(filtered)


def test_hull_bbox(boundary_files):
    nbs = load_neighborhoods(*boundary_files)
    box = hull_bbox(nbs)
    assert box.lat_min == pytest.approx(39.27)
    assert box.lat_max == pytest.approx(39.34)
    assert box.lon_min == pytest.approx(-76.66)
    assert box.lon_max == pytest.approx(-76.54)


def test_hull_bbox_stops_at_the_pole(tmp_path):
    feature = square_feature("P", 89.0, 89.995, 179.0, 179.995)
    bpath = tmp_path / "polar.geojson"
    bpath.write_text(json.dumps({"type": "FeatureCollection",
                                 "features": [feature]}))
    dpath = tmp_path / "polar.csv"
    dpath.write_text("id,pct_black,pct_white,median_income,poverty_rate\n"
                     "P,0.1,0.8,40000,0.1\n")
    box = hull_bbox(load_neighborhoods(str(bpath), str(dpath)))
    assert (box.lat_min, box.lat_max) == (pytest.approx(88.99), 90.0)
    assert (box.lon_min, box.lon_max) == (pytest.approx(178.99), 180.0)


# --- the per-object ingest steps this module replaced, kept as oracles -------

def oracle_parse_date(raw: str) -> datetime | None:
    """The strptime loop over DATE_FORMATS."""
    raw = raw.strip()
    for fmt in DATE_FORMATS:
        try:
            return datetime.strptime(raw, fmt)
        except ValueError:
            continue
    return None


def oracle_parse_crime_csv(path, mapping):
    """parse_crime_csv as csv.DictReader rows and LatLon range checks; the
    rows as (id, lat, lon, timestamp) tuples."""
    rows, dropped = [], 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for key in ("id", "lat", "lon", "date"):
            if mapping[key] not in header:
                raise IngestError(f"mapped column {mapping[key]!r} missing")
        for row in reader:
            try:
                location = LatLon(float(row[mapping["lat"]]),
                                  float(row[mapping["lon"]]))
            except (TypeError, ValueError):
                dropped += 1
                continue
            ts = oracle_parse_date(row[mapping["date"]] or "")
            if ts is None or row[mapping["id"]] is None:
                dropped += 1
                continue
            rows.append((str(row[mapping["id"]]), location.lat, location.lon,
                         ts))
    return rows, dropped


def oracle_assign(incidents, parts_of):
    """Each incident's first containing neighborhood (an index into
    parts_of, whose entries are polygons as lists of (lat, lon) rings), or
    -1: polygons walked in order, each testing only the incidents still
    unassigned inside its bounding box, with the per-edge loop."""
    lat = np.array([inc.lat for inc in incidents]).reshape(-1)
    lon = np.array([inc.lon for inc in incidents]).reshape(-1)
    owner = np.full(len(incidents), -1)
    for k, parts in enumerate(parts_of):
        for rings in parts:
            verts = [v for ring in rings for v in ring]
            lat_min, lat_max = min(v[0] for v in verts), max(v[0] for v in verts)
            lon_min, lon_max = min(v[1] for v in verts), max(v[1] for v in verts)
            near = np.flatnonzero((owner < 0)
                                  & (lat >= lat_min) & (lat <= lat_max)
                                  & (lon >= lon_min) & (lon <= lon_max))
            inside = loop_points_in_polygon(lat[near], lon[near], rings)
            owner[near[inside]] = k
    return owner.tolist()


# Digits of other scripts, which strptime's \d reads as their values.
UNICODE_DIGITS = {"3": "٣", "5": "５", "7": "१", "9": "৯",
                  "0": "٠", "1": "１"}


@st.composite
def date_like(draw):
    """Strings near the DATE_FORMATS: 1-2 digit fields, Feb 29 and 30,
    second 60, repeated or odd blanks, Unicode digits, stray text. About
    one in ten of them parses."""
    def pick(usual, odd):
        return draw(st.sampled_from(usual) if draw(st.booleans())
                    or draw(st.booleans()) else st.sampled_from(odd))

    year = pick(["2019", "2020", "2000"], ["1900", "0000", "19", "20190"])
    month = pick(["2", "02", "3", "12"], ["1", "13", "0", "00", "123"])
    day = pick(["28", "29", "30", "1", "01", " 5", "15"],
               ["31", "0", "32", "  5", "305"])
    date = draw(st.sampled_from([f"{year}-{month}-{day}",
                                 f"{month}/{day}/{year}"])
                if draw(st.integers(0, 5)) else
                st.just(f"{year}/{month}/{day}"))
    hour = pick(["0", "00", "9", "09", "23"], ["24", "7 ", "099"])
    minute = pick(["0", "5", "05", "59"], ["60", "5 5", ""])
    second = pick(["0", "00", "7", "59"], ["60", "61", "600"])
    clock = draw(st.sampled_from(["", f"{hour}:{minute}",
                                  f"{hour}:{minute}:{second}"])
                 if draw(st.integers(0, 5)) else
                 st.just(f"{hour}:{minute}:{second}:{second}"))
    gap = pick([" ", "  ", "\t", " \t "], ["\u3000", "T", ""])
    text = date + (gap + clock if clock else "")
    if not draw(st.integers(0, 3)):
        text = "".join(UNICODE_DIGITS.get(c, c) if draw(st.booleans()) else c
                       for c in text)
    blanks = st.sampled_from(["", "", " ", "  ", "\t", "\n", "\u00a0"])
    return draw(blanks) + text + draw(blanks) + draw(st.sampled_from(
        [""] * 6 + ["x", " PM", "Z"]))


class TestDateOracle:
    @settings(max_examples=1500, deadline=None)
    @given(st.one_of(date_like(), st.text(max_size=24)))
    def test_regex_equals_strptime(self, raw):
        assert _match_date(raw) == oracle_parse_date(raw)

    @pytest.mark.parametrize("raw,expected", [
        ("2020-02-29", datetime(2020, 2, 29)),
        ("2019-02-29", None),
        ("2019-02-30 10:00", None),
        ("2019-03-15 14:30:60", None),
        ("2019-03-15 14:30:59", datetime(2019, 3, 15, 14, 30, 59)),
        ("3/5/2019 7:05", datetime(2019, 3, 5, 7, 5)),
        ("2019-3- 5", datetime(2019, 3, 5)),
        ("  2019-03-15\t \t14:30  ", datetime(2019, 3, 15, 14, 30)),
        ("٢٠١٩-03-15", datetime(2019, 3, 15)),
        ("2019-03-15T14:30", None),
        ("", None),
    ])
    def test_examples(self, raw, expected):
        assert _match_date(raw) == oracle_parse_date(raw) == expected


CSV_NAMES = ["id", "lat", "lon", "date", "type", "x"]
CSV_FIELDS = ["7", "a,b", 'q"uote', "two\nlines", "", " ", "39.3", "-76.6",
              " 39.31 ", "nan", "inf", "-inf", "91", "-180.5", "1e1", "x",
              "2019-03-15 14:30", "03/20/2019 09:15", "2019-02-30",
              "2019-03-15 14:30:60", " 2019-03-15 ", "2019-3-5 7:05"]


@st.composite
def crime_csv_text(draw):
    """A crime CSV: the mapped names in a header that may repeat names or
    carry others, then rows of any length among blank lines."""
    header = draw(st.permutations(CSV_NAMES[:4]))
    header += draw(st.lists(st.sampled_from(CSV_NAMES), max_size=3))
    header = draw(st.permutations(header))
    rows = draw(st.lists(st.lists(st.sampled_from(CSV_FIELDS),
                                  max_size=len(header) + 2), max_size=25))
    lines = [header] + rows
    out = []
    for row in lines:
        buf = _csv_line(row)
        out.append(buf)
        if draw(st.integers(0, 5)) == 0:
            out.append(draw(st.sampled_from(["\n", "\r\n"])))
    return "".join(out)


def _csv_line(row):
    import io
    buf = io.StringIO()
    csv.writer(buf).writerow(row)
    return buf.getvalue()


class TestParseOracle:
    MAPPING = {"id": "id", "lat": "lat", "lon": "lon", "date": "date"}

    @settings(max_examples=300, deadline=None)
    @given(crime_csv_text(), st.booleans())
    def test_equals_dictreader(self, tmp_path_factory, text, with_type):
        path = tmp_path_factory.mktemp("csv") / "crimes.csv"
        path.write_text(text, encoding="utf-8", newline="")
        # A mapping that still names a type column: ignored.
        mapping = dict(self.MAPPING, **({"type": "type"} if with_type else {}))
        incidents, dropped = parse_crime_csv(str(path), mapping)
        rows, expected_dropped = oracle_parse_crime_csv(str(path), mapping)
        assert [tuple(i) for i in incidents] == [r + (None,) for r in rows]
        assert dropped == expected_dropped

    def test_dictreader_edge_cases(self, tmp_path):
        path = tmp_path / "edge.csv"
        path.write_text(
            "lat,id,lat,lon,date\n"                   # "lat" repeated
            "\n"                                       # blank: skipped
            "0,1,39.3,-76.6,2019-03-15 14:30,extra\n"  # extra field ignored
            "0,2,39.3,-76.6\n"                         # short: no date
            "0,3,39.3\n"                               # short: no lon
            '0,"4,5",39.3,-76.6,"2019-03-15\n14:30"\n'  # quoted comma, newline
            "0,6,nan,-76.6,2019-03-15\n"
            "0,7,39.3,-181,2019-03-15\n", encoding="utf-8")
        incidents, dropped = parse_crime_csv(str(path), self.MAPPING)
        assert [(i.id, i.timestamp) for i in incidents] == [
            ("1", datetime(2019, 3, 15, 14, 30)),
            ("4,5", datetime(2019, 3, 15, 14, 30))]
        assert dropped == 4
        assert oracle_parse_crime_csv(str(path), self.MAPPING) == (
            [tuple(i)[:4] for i in incidents], dropped)

    def test_short_row_without_id_is_dropped(self, tmp_path):
        # DictReader reads a missing id field as None: the row has no id, and
        # is dropped rather than kept with the id "None".
        path = tmp_path / "short.csv"
        path.write_text("lat,lon,date,id\n39.3,-76.6,2019-03-15\n"
                        "39.3,-76.6,2019-03-15,\n", encoding="utf-8")
        incidents, dropped = parse_crime_csv(str(path), self.MAPPING)
        assert [i.id for i in incidents] == [""] and dropped == 1
        assert oracle_parse_crime_csv(str(path), self.MAPPING) == (
            [tuple(i)[:4] for i in incidents], dropped)


class TestAssignOracle:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 12))
    def test_equals_per_polygon_loop(self, seed, n_neighborhoods):
        # Star polygons on a grid of offsets (horizontal edges), some with
        # holes or a second part; every 4th neighborhood repeats an earlier
        # one, so that overlaps are decided by input order. Points fall on
        # vertices, on vertex latitudes, on horizontal edges and on the
        # boxes' edges.
        rng = np.random.default_rng(seed)
        parts_of = []
        for k in range(n_neighborhoods):
            if k % 4 == 3:
                parts_of.append(parts_of[int(rng.integers(k))])
                continue
            parts = []
            for _ in range(1 + (rng.random() < 0.3)):
                lat0 = rng.uniform(39.28, 39.30)
                lon0 = rng.uniform(-76.62, -76.60)
                radius = rng.uniform(0.004, 0.02)
                step = radius / 4 if rng.random() < 0.6 else None
                rings = [star_ring(rng, lat0, lon0, radius,
                                   int(rng.integers(6, 16)), step)]
                if rng.random() < 0.4:
                    rings.append(star_ring(rng, lat0, lon0, 0.3 * radius, 6,
                                           0.3 * radius / 4))
                parts.append(rings)
            parts_of.append(parts)
        all_rings = [ring for parts in parts_of for rings in parts
                     for ring in rings]
        points = probe_points(rng, all_rings, 200)
        points += horizontal_edge_points(rng, all_rings, 40)
        incidents = [CrimeIncident(f"c{i}", lat, lon, datetime(2019, 3, 1))
                     for i, (lat, lon) in enumerate(points)]
        neighborhoods = [Neighborhood(
            id=f"N{k}",
            polygons=tuple(Polygon(r[0], r[1:]) for r in parts),
            pct_black=0.3, pct_white=0.6, pct_neither=0.1,
            median_income=50_000.0, poverty_rate=0.1)
            for k, parts in enumerate(parts_of)]

        owner = oracle_assign(incidents, parts_of)
        assigned, dropped = assign_neighborhoods(incidents, neighborhoods)
        assert assigned == [CrimeIncident(*inc[:4], f"N{k}")
                            for inc, k in zip(incidents, owner) if k >= 0]
        assert dropped == owner.count(-1)
