import os
import xml.etree.ElementTree as ET

import pytest

from patrolsim.metrics import MONTHLY_CSV_HEADER
from patrolsim.plots import Series, emit_plots, line_chart, scatter_chart

SVG_NS = "{http://www.w3.org/2000/svg}"


def assert_well_formed_svg(text):
    root = ET.fromstring(text)
    assert root.tag == f"{SVG_NS}svg"
    return root


def monthly_csv(tmp_path, rows):
    path = tmp_path / "monthly.csv"
    path.write_text(",".join(MONTHLY_CSV_HEADER) + "\n" +
                    "".join(r + "\n" for r in rows))
    return str(path)


ROWS = [
    "Baltimore,2019,2,detected,0,0.3,0.2,0.1,1.5,ok,0.1,0.28,0.028",
    "Baltimore,2019,3,detected,0,0.4,0.1,0.1,4.0,ok,0.3,0.33,0.099",
    "Baltimore,2019,4,detected,0,0.2,0.0,0.1,,infinite_positive_over_zero,0.2,0.44,0.088",
    "Baltimore,2019,5,detected,0,0.0,0.0,0.0,,undefined_zero_over_zero,0.0,0.0,0.0",
]

OBS_HEADER = ("neighborhood_id,city,year,mode,detection_rate,pct_black,"
              "pct_white,median_income,poverty_rate")
OBS_ROWS = [
    "A,Baltimore,2019,detected,0.31,0.9,0.08,32000,0.31",
    "B,Baltimore,2019,detected,0.12,0.05,0.90,78000,0.08",
    "C,Baltimore,2019,detected,0.22,0.45,0.50,51000,0.18",
]


class TestLineChart:
    def test_well_formed(self):
        svg = line_chart([Series("a", [(2, 1.0), (3, 1.4)])], "t", "x", "y")
        assert_well_formed_svg(svg)

    def test_flagged_months_get_markers(self):
        svg = line_chart([Series("a", [(2, 1.0)], gaps=[3.0, 4.0])],
                         "t", "x", "y")
        root = assert_well_formed_svg(svg)
        markers = [el for el in root.iter(f"{SVG_NS}text")
                   if el.text == "×"]
        assert len(markers) == 2

    def test_clipping_adds_legend_entry(self):
        svg = line_chart([Series("a", [(2, 5.0), (3, 500.0)])],
                         "t", "x", "y", y_max=100.0)
        assert "clipped at y=100" in svg

    def test_no_clipping_note_when_under_limit(self):
        svg = line_chart([Series("a", [(2, 5.0), (3, 50.0)])],
                         "t", "x", "y", y_max=100.0)
        assert "clipped" not in svg

    def test_empty_series_still_valid(self):
        assert_well_formed_svg(line_chart([], "t", "x", "y"))

    def test_single_point_rendered_as_circle(self):
        svg = line_chart([Series("a", [(2, 1.0)])], "t", "x", "y")
        root = assert_well_formed_svg(svg)
        assert any(el.tag == f"{SVG_NS}circle" for el in root.iter())

    def test_title_escaped(self):
        svg = line_chart([], 'a < b & "c"', "x", "y")
        assert_well_formed_svg(svg)


class TestScatterChart:
    def test_one_circle_per_point(self):
        pts = [(0.1, 0.2), (0.3, 0.4), (0.5, 0.6)]
        root = assert_well_formed_svg(scatter_chart(pts, "t", "x", "y"))
        circles = [el for el in root.iter(f"{SVG_NS}circle")]
        assert len(circles) == 3

    def test_empty_points_valid(self):
        assert_well_formed_svg(scatter_chart([], "t", "x", "y"))


class TestEmitPlots:
    def test_standard_chart_set(self, tmp_path):
        out = tmp_path / "plots"
        written = emit_plots(monthly_csv(tmp_path, ROWS), str(out))
        names = sorted(os.path.basename(p) for p in written)
        assert names == ["dir_monthly.svg", "gini_trend.svg",
                         "parity_gap_monthly.svg"]
        for path in written:
            with open(path, encoding="utf-8") as fh:
                assert_well_formed_svg(fh.read())

    def test_flagged_dir_months_marked(self, tmp_path):
        out = tmp_path / "plots"
        emit_plots(monthly_csv(tmp_path, ROWS), str(out))
        with open(out / "dir_monthly.svg", encoding="utf-8") as fh:
            root = assert_well_formed_svg(fh.read())
        markers = [el for el in root.iter(f"{SVG_NS}text")
                   if el.text == "×"]
        assert len(markers) == 2  # months 4 and 5 have no finite DIR

    def test_empty_input_writes_nothing(self, tmp_path):
        path = tmp_path / "monthly.csv"
        path.write_text(",".join(MONTHLY_CSV_HEADER) + "\n")
        out = tmp_path / "plots"
        assert emit_plots(str(path), str(out)) == []
        assert not out.exists()

    def test_scatter_from_observations(self, tmp_path):
        obs_path = tmp_path / "observations.csv"
        obs_path.write_text(OBS_HEADER + "\n" +
                            "".join(r + "\n" for r in OBS_ROWS))
        out = tmp_path / "plots"
        written = emit_plots(monthly_csv(tmp_path, ROWS), str(out),
                             observations_csv_path=str(obs_path))
        names = sorted(os.path.basename(p) for p in written)
        assert "scatter_pct_black.svg" in names
        assert "scatter_pct_white.svg" in names
        with open(out / "scatter_pct_black.svg", encoding="utf-8") as fh:
            root = assert_well_formed_svg(fh.read())
        circles = [el for el in root.iter(f"{SVG_NS}circle")]
        assert len(circles) == len(OBS_ROWS)

    def test_missing_observations_file_skipped(self, tmp_path):
        out = tmp_path / "plots"
        written = emit_plots(monthly_csv(tmp_path, ROWS), str(out),
                             observations_csv_path=str(tmp_path / "nope.csv"))
        assert len(written) == 3

    def test_one_line_per_replicate(self, tmp_path):
        # Rows come in (cell, month, replicate) order.
        rows = [f"Baltimore,2019,{m},detected,{rep},0.3,0.2,0.1,1.5,ok,"
                f"0.1,0.28,0.028" for m in (2, 3, 4) for rep in (0, 1)]
        out = tmp_path / "plots"
        emit_plots(monthly_csv(tmp_path, rows), str(out))
        with open(out / "gini_trend.svg", encoding="utf-8") as fh:
            root = assert_well_formed_svg(fh.read())
        lines = list(root.iter(f"{SVG_NS}polyline"))
        assert len(lines) == 2
        for line in lines:
            xs = [float(p.split(",")[0])
                  for p in line.get("points").split()]
            assert len(xs) == 3
            assert all(a < b for a, b in zip(xs, xs[1:]))
        labels = [el.text for el in root.iter(f"{SVG_NS}text")]
        assert "Baltimore 2019 detected" in labels
        assert "Baltimore 2019 detected r1" in labels

    def test_missing_monthly_csv_fatal(self, tmp_path):
        with pytest.raises(OSError):
            emit_plots(str(tmp_path / "absent.csv"), str(tmp_path / "plots"))
