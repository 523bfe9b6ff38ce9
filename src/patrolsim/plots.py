"""Static SVG charts, hand-rolled: monthly DIR and parity-gap lines, Gini
trend, and detection-rate scatter plots. No graphics library; every file
is a standalone well-formed SVG document.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field

from .ingest import read_csv_rows

WIDTH, HEIGHT = 720, 440
MARGIN = 60

SERIES_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
                 "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")


@dataclass
class Series:
    label: str
    points: list[tuple[float, float]]  # (x, y)
    gaps: list[float] = field(default_factory=list)  # x of flagged values


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


class Chart:
    """One SVG document: its titles and a frame ticked at five points on
    each axis, with a linear mapping from data space to the frame. A
    zero-length range is widened to length 1."""

    def __init__(self, title: str, x_label: str, y_label: str,
                 x_range: tuple[float, float], y_range: tuple[float, float]):
        (self.x0, x1), (self.y0, y1) = x_range, y_range
        self.x1 = x1 if x1 != self.x0 else self.x0 + 1.0
        self.y1 = y1 if y1 != self.y0 else self.y0 + 1.0
        self.parts = [
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n',
            f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" '
            f'font-size="16" font-family="sans-serif">{_esc(title)}</text>\n',
            f'<text x="{WIDTH / 2}" y="{HEIGHT - 8}" text-anchor="middle" '
            f'font-size="12" font-family="sans-serif">{_esc(x_label)}</text>\n',
            f'<text x="16" y="{HEIGHT / 2}" text-anchor="middle" font-size="12" '
            f'font-family="sans-serif" transform="rotate(-90 16 {HEIGHT / 2})">'
            f'{_esc(y_label)}</text>\n',
            f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
            f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="#333"/>\n',
        ]
        for i in range(5):
            xv = self.x0 + i * (self.x1 - self.x0) / 4
            yv = self.y0 + i * (self.y1 - self.y0) / 4
            self.add(f'<text x="{self.px(xv):.1f}" y="{HEIGHT - MARGIN + 18}" '
                     f'text-anchor="middle" font-size="10" '
                     f'font-family="sans-serif">{xv:.3g}</text>\n')
            self.add(f'<text x="{MARGIN - 6}" y="{self.py(yv):.1f}" '
                     f'text-anchor="end" font-size="10" '
                     f'font-family="sans-serif">{yv:.3g}</text>\n')

    def px(self, x: float) -> float:
        return MARGIN + (x - self.x0) / (self.x1 - self.x0) * (WIDTH - 2 * MARGIN)

    def py(self, y: float) -> float:
        return HEIGHT - MARGIN - (y - self.y0) / (self.y1 - self.y0) * (HEIGHT - 2 * MARGIN)

    def add(self, fragment: str) -> None:
        self.parts.append(fragment)

    def render(self) -> str:
        return "".join(self.parts) + "</svg>\n"


def line_chart(series: list[Series], title: str, x_label: str, y_label: str,
               y_max: float | None = None) -> str:
    """One line per series (a dot for a single point), with an x at the top
    edge for each of its gaps; y values above `y_max` are drawn at it."""
    xs = [x for s in series for x, _ in s.points] + \
         [x for s in series for x in s.gaps] or [0.0, 1.0]
    ys = [y for s in series for _, y in s.points] or [0.0, 1.0]
    clipped = y_max is not None and max(ys) > y_max
    top = y_max if clipped else max(ys)
    chart = Chart(title, x_label, y_label, (min(xs), max(xs)),
                  (min(min(ys), 0.0), top))
    legend = []
    for s, color in zip(series, itertools.cycle(SERIES_COLORS)):
        pts = [(chart.px(x), chart.py(min(y, top))) for x, y in s.points]
        if len(pts) == 1:
            chart.add(f'<circle cx="{pts[0][0]:.1f}" cy="{pts[0][1]:.1f}" '
                      f'r="3" fill="{color}"/>\n')
        elif pts:
            path = " ".join(f"{x:.1f},{y:.1f}" for x, y in pts)
            chart.add(f'<polyline points="{path}" fill="none" '
                      f'stroke="{color}" stroke-width="1.5"/>\n')
        for gx in s.gaps:
            chart.add(f'<text x="{chart.px(gx):.1f}" y="{MARGIN - 4}" '
                      f'text-anchor="middle" font-size="11" fill="{color}" '
                      f'font-family="sans-serif">&#215;</text>\n')
        legend.append((s.label + (" (x = flagged)" if s.gaps else ""), color))
    if clipped:
        legend.append((f"clipped at y={y_max:g}", "#333"))
    for i, (label, color) in enumerate(legend):
        y = MARGIN + 14 + 16 * i
        chart.add(f'<rect x="{WIDTH - MARGIN - 160}" y="{y - 9}" width="10" '
                  f'height="10" fill="{color}"/>\n')
        chart.add(f'<text x="{WIDTH - MARGIN - 146}" y="{y}" font-size="11" '
                  f'font-family="sans-serif">{_esc(label)}</text>\n')
    return chart.render()


def scatter_chart(points: list[tuple[float, float]], title: str,
                  x_label: str, y_label: str) -> str:
    xs = [x for x, _ in points] or [0.0, 1.0]
    ys = [y for _, y in points] or [0.0, 1.0]
    chart = Chart(title, x_label, y_label, (min(xs), max(xs)),
                  (min(ys), max(ys)))
    for x, y in points:
        chart.add(f'<circle cx="{chart.px(x):.1f}" cy="{chart.py(y):.1f}" '
                  f'r="2.5" fill="{SERIES_COLORS[0]}" fill-opacity="0.6"/>\n')
    return chart.render()


def _monthly_row(row: dict) -> tuple[str, float, dict[str, float | None]]:
    """(series key, month, values) of one monthly.csv row; an empty DIR or
    parity gap is read as None, and the Gini must be a number. One line per
    cell and replicate; replicate 0 keeps the cell's name."""
    rep = int(row["replicate"])
    key = (f"{row['city']} {row['year']} {row['mode']}"
           + (f" r{rep}" if rep else ""))
    values = {column: None if row[column] == "" else float(row[column])
              for column in ("dir", "parity_gap")}
    return key, float(row["month"]), dict(values, gini=float(row["gini"]))


def emit_plots(monthly_csv_path: str, out_dir: str,
               observations_csv_path: str | None = None,
               y_max: float | None = 100.0) -> list[str]:
    """Render the standard chart set from a monthly-metrics CSV.

    Returns the list of files written; empty input produces none. A row
    either file cannot be read from is an IngestError naming the line.
    Both files are read before the first chart is written, so a file that
    cannot be read leaves no chart.
    """
    rows = read_csv_rows(monthly_csv_path, _monthly_row, "a monthly row")
    if not rows:
        return []
    obs = []
    if observations_csv_path and os.path.exists(observations_csv_path):
        obs = read_csv_rows(observations_csv_path, lambda o: {
            column: float(o[column])
            for column in ("pct_black", "pct_white", "detection_rate")},
            "an observations row")

    def cell_series(column: str) -> list[Series]:
        series: dict[str, Series] = {}
        for key, month, values in rows:
            s = series.setdefault(key, Series(key, []))
            if values[column] is None:
                s.gaps.append(month)
            else:
                s.points.append((month, values[column]))
        return list(series.values())

    charts = [
        ("dir_monthly.svg", line_chart(
            cell_series("dir"), "Monthly disparate impact ratio", "month",
            "DIR", y_max)),
        ("parity_gap_monthly.svg", line_chart(
            cell_series("parity_gap"), "Monthly demographic parity gap",
            "month", "Black - White rate")),
        ("gini_trend.svg", line_chart(
            cell_series("gini"), "Monthly Gini over group detection rates",
            "month", "Gini")),
    ]
    for column, filename, xl in (
            ("pct_black", "scatter_pct_black.svg", "share Black (fraction)"),
            ("pct_white", "scatter_pct_white.svg", "share White (fraction)")
            ) if obs else ():
        charts.append((filename, scatter_chart(
            [(o[column], o["detection_rate"]) for o in obs],
            f"Neighborhood detection rate vs {xl}", xl,
            "detection rate (fraction)")))
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for filename, svg in charts:
        path = os.path.join(out_dir, filename)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(svg)
        written.append(path)
    return written
