import json

import numpy as np
import pytest
from test_geodata import oracle_point_in_polygon, probe_points, star_ring

from patrolsim.geodata import (BALTIMORE_BBOX, LatLon, Polygon,
                               points_in_polygon)
from patrolsim.ingest import (IngestError, Neighborhood, assign_neighborhoods,
                              coordinates, filter_valid,
                              hull_bbox, load_neighborhoods, parse_crime_csv,
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
        assert incidents[0].location == LatLon(39.31, -76.62)
        assert incidents[0].crime_type == "BURGLARY"

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

    def test_missing_mapped_column_fatal(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,lat,date\n1,39.3,2019-03-15 14:30\n")
        with pytest.raises(IngestError):
            parse_crime_csv(str(path), "generic")

    def test_unknown_preset_fatal(self, crime_csv):
        with pytest.raises(IngestError):
            parse_crime_csv(crime_csv, "no-such-preset")


def make_incident(lat, lon, month, day=10):
    from datetime import datetime
    from patrolsim.ingest import CrimeIncident
    return CrimeIncident(id=f"{lat}-{lon}-{month}", location=LatLon(lat, lon),
                         timestamp=datetime(2019, month, day), city="Baltimore",
                         crime_type="X")


def in_neighborhood(nb, p: LatLon) -> bool:
    """Whether one of the neighborhood's polygons contains the point."""
    return any(points_in_polygon(np.array([p.lat]), np.array([p.lon]),
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
        assert in_neighborhood(nbs[0], LatLon(39.29, -76.64))
        assert in_neighborhood(nbs[0], LatLon(39.29, -76.59))
        assert not in_neighborhood(nbs[0], LatLon(39.29, -76.615))


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
            assert in_neighborhood(by_id[inc.neighborhood_id], inc.location)

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
                id=f"N{k}", name=f"N{k}",
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
        incidents = [make_incident(p.lat, p.lon, 3) for p in points]

        expected = []
        for inc in incidents:
            for nb, parts in zip(neighborhoods, parts_of):
                if any(oracle_point_in_polygon(inc.location, rings)
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
        slices = partition_by_month(incidents)
        assert [(s.month, len(s.incidents)) for s in slices] == [(2, 1), (3, 1)]

    def test_empty(self):
        assert partition_by_month([]) == []

    def test_single_month(self):
        incidents = [make_incident(39.3, -76.6, 7, day=d % 28 + 1)
                     for d in range(100)]
        slices = partition_by_month(incidents)
        assert len(slices) == 1
        assert len(slices[0].incidents) == 100

    def test_size_conservation(self):
        incidents = [make_incident(39.3, -76.6, m % 11 + 2) for m in range(57)]
        filtered = filter_valid(incidents, BALTIMORE_BBOX)
        slices = partition_by_month(filtered)
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
