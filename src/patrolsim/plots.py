"""Static SVG charts, hand-rolled: monthly DIR and parity-gap lines, Gini
trend, and detection-rate scatter plots. No graphics library; every file
is a standalone well-formed SVG document.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from .ingest import read_csv_rows

WIDTH, HEIGHT = 720, 440
MARGIN = 60

SERIES_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
                 "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")


@dataclass
class Series:
    label: str
    points: list[tuple[float, float]]  # (x, y); y may be omitted via gaps
    gaps: list[float] | None = None    # x positions with flagged (plotted-as-gap) values


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


class SvgCanvas:
    def __init__(self, title: str, x_label: str, y_label: str):
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
        ]

    def add(self, fragment: str) -> None:
        self.parts.append(fragment)

    def render(self) -> str:
        return "".join(self.parts) + "</svg>\n"


class Axes:
    """Linear mapping from data space to the plot rectangle, with ticks."""

    def __init__(self, canvas: SvgCanvas, x_range: tuple[float, float],
                 y_range: tuple[float, float]):
        self.canvas = canvas
        x0, x1 = x_range
        y0, y1 = y_range
        if x1 == x0:
            x1 = x0 + 1.0
        if y1 == y0:
            y1 = y0 + 1.0
        self.x0, self.x1, self.y0, self.y1 = x0, x1, y0, y1
        self._frame()

    def px(self, x: float) -> float:
        return MARGIN + (x - self.x0) / (self.x1 - self.x0) * (WIDTH - 2 * MARGIN)

    def py(self, y: float) -> float:
        return HEIGHT - MARGIN - (y - self.y0) / (self.y1 - self.y0) * (HEIGHT - 2 * MARGIN)

    def _frame(self) -> None:
        c = self.canvas
        c.add(f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
              f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="#333"/>\n')
        for i in range(5):
            xv = self.x0 + i * (self.x1 - self.x0) / 4
            yv = self.y0 + i * (self.y1 - self.y0) / 4
            c.add(f'<text x="{self.px(xv):.1f}" y="{HEIGHT - MARGIN + 18}" '
                  f'text-anchor="middle" font-size="10" font-family="sans-serif">'
                  f'{xv:.3g}</text>\n')
            c.add(f'<text x="{MARGIN - 6}" y="{self.py(yv):.1f}" '
                  f'text-anchor="end" font-size="10" font-family="sans-serif">'
                  f'{yv:.3g}</text>\n')

    def polyline(self, pts: list[tuple[float, float]], color: str) -> None:
        if len(pts) == 1:
            x, y = pts[0]
            self.canvas.add(f'<circle cx="{self.px(x):.1f}" cy="{self.py(y):.1f}" '
                            f'r="3" fill="{color}"/>\n')
            return
        path = " ".join(f"{self.px(x):.1f},{self.py(y):.1f}" for x, y in pts)
        self.canvas.add(f'<polyline points="{path}" fill="none" '
                        f'stroke="{color}" stroke-width="1.5"/>\n')

    def marker(self, x: float, color: str) -> None:
        """Gap marker at the top edge for flagged (non-finite) values."""
        self.canvas.add(f'<text x="{self.px(x):.1f}" y="{MARGIN - 4}" '
                        f'text-anchor="middle" font-size="11" fill="{color}" '
                        f'font-family="sans-serif">&#215;</text>\n')

    def scatter(self, pts: list[tuple[float, float]], color: str) -> None:
        for x, y in pts:
            self.canvas.add(f'<circle cx="{self.px(x):.1f}" cy="{self.py(y):.1f}" '
                            f'r="2.5" fill="{color}" fill-opacity="0.6"/>\n')


def _legend(canvas: SvgCanvas, entries: list[tuple[str, str]]) -> None:
    y = MARGIN + 14
    for label, color in entries:
        canvas.add(f'<rect x="{WIDTH - MARGIN - 160}" y="{y - 9}" width="10" '
                   f'height="10" fill="{color}"/>\n')
        canvas.add(f'<text x="{WIDTH - MARGIN - 146}" y="{y}" font-size="11" '
                   f'font-family="sans-serif">{_esc(label)}</text>\n')
        y += 16


def line_chart(series: list[Series], title: str, x_label: str, y_label: str,
               y_max: float | None = None) -> str:
    canvas = SvgCanvas(title, x_label, y_label)
    xs = [x for s in series for x, _ in s.points] + \
         [x for s in series for x in (s.gaps or [])]
    ys = [y for s in series for _, y in s.points]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    if not ys:
        ys = [0.0, 1.0]
    top = max(ys)
    clipped = False
    if y_max is not None and top > y_max:
        top = y_max
        clipped = True
    axes = Axes(canvas, (min(xs), max(xs)), (min(min(ys), 0.0), top))
    entries = []
    for s, color in zip(series, itertools.cycle(SERIES_COLORS)):
        pts = [(x, min(y, top)) for x, y in s.points]
        if pts:
            axes.polyline(pts, color)
        for gx in (s.gaps or []):
            axes.marker(gx, color)
        label = s.label + (" (x = flagged)" if s.gaps else "")
        entries.append((label, color))
    if clipped:
        entries.append((f"clipped at y={y_max:g}", "#333"))
    _legend(canvas, entries)
    return canvas.render()


def scatter_chart(points: list[tuple[float, float]], title: str,
                  x_label: str, y_label: str) -> str:
    canvas = SvgCanvas(title, x_label, y_label)
    xs = [x for x, _ in points] or [0.0, 1.0]
    ys = [y for _, y in points] or [0.0, 1.0]
    axes = Axes(canvas, (min(xs), max(xs)), (min(ys), max(ys)))
    axes.scatter(points, SERIES_COLORS[0])
    return canvas.render()


def _monthly_row(row: dict) -> tuple[str, float, dict[str, float | None]]:
    """(series key, month, values) of one monthly.csv row, an empty value
    read as None. One line per cell and replicate; replicate 0 keeps the
    cell's name."""
    rep = int(row["replicate"])
    key = (f"{row['city']} {row['year']} {row['mode']}"
           + (f" r{rep}" if rep else ""))
    return key, float(row["month"]), {
        column: None if row[column] == "" else float(row[column])
        for column in ("dir", "parity_gap", "gini")}


def emit_plots(monthly_csv_path: str, out_dir: str,
               observations_csv_path: str | None = None,
               y_max: float | None = 100.0) -> list[str]:
    """Render the standard chart set from a monthly-metrics CSV.

    Returns the list of files written; empty input produces none. A row
    either file cannot be read from is an IngestError naming the line.
    """
    rows = read_csv_rows(monthly_csv_path, _monthly_row, "a monthly row")
    written: list[str] = []
    if not rows:
        return written
    os.makedirs(out_dir, exist_ok=True)

    def cell_series(column: str, flag_aware: bool) -> list[Series]:
        series: dict[str, Series] = {}
        for key, month, values in rows:
            s = series.setdefault(key, Series(key, [], [] if flag_aware else None))
            value = values[column]
            if value is None:
                if flag_aware:
                    s.gaps.append(month)
                continue
            s.points.append((month, value))
        return list(series.values())

    charts = [
        ("dir_monthly.svg", cell_series("dir", True),
         "Monthly disparate impact ratio", "month", "DIR", y_max),
        ("parity_gap_monthly.svg", cell_series("parity_gap", True),
         "Monthly demographic parity gap", "month", "Black - White rate", None),
        ("gini_trend.svg", cell_series("gini", False),
         "Monthly Gini over group detection rates", "month", "Gini", None),
    ]
    for filename, series, title, xl, yl, ym in charts:
        path = os.path.join(out_dir, filename)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(line_chart(series, title, xl, yl, y_max=ym))
        written.append(path)

    if observations_csv_path and os.path.exists(observations_csv_path):
        obs = read_csv_rows(observations_csv_path, lambda o: {
            column: float(o[column])
            for column in ("pct_black", "pct_white", "detection_rate")},
            "an observations row")
        for column, filename, xl in (
                ("pct_black", "scatter_pct_black.svg", "share Black (fraction)"),
                ("pct_white", "scatter_pct_white.svg", "share White (fraction)")):
            pts = [(o[column], o["detection_rate"]) for o in obs]
            if not pts:
                continue
            path = os.path.join(out_dir, filename)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(scatter_chart(
                    pts, f"Neighborhood detection rate vs {xl}",
                    xl, "detection rate (fraction)"))
            written.append(path)
    return written
