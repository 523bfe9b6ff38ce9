"""Bundled synthetic city: a two-cluster fixture with configurable racial
geography, so the whole pipeline and test suite run without any real
dataset.

Cluster A sits at (-0.5, 0) in normalized coordinates and is
majority-Black; cluster B sits at (+0.5, 0) and is majority-White. Each
cluster is wrapped in a square neighborhood polygon carrying ACS-style
covariates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .gan import denormalize_coords
from .geodata import BoundingBox, Polygon
from .ingest import MONTHS, MonthSlice, Neighborhood
from .ranges import check_ranges
from .simulate import derive_seed

SYNTH_BBOX = BoundingBox(39.20, 39.37, -76.71, -76.53)

CLUSTER_A = (-0.5, 0.0)
CLUSTER_B = (0.5, 0.0)
CLUSTER_HALF_WIDTH = 0.4  # normalized units, square neighborhood extent


@dataclass(frozen=True)
class SyntheticCityConfig:
    incidents_per_month: Annotated[int, "[0, 1e5]"] = 60
    weight_a: Annotated[float, "[0, 1]"] = 0.5  # share in cluster A
    # Cluster spread, normalized; at 1 the sampler keeps 9% of its draws.
    sigma: Annotated[float, "(0, 1]"] = 0.08
    # Each neighborhood's pct_white is 0.95 - pct_black.
    pct_black_a: Annotated[float, "[0, 0.95]"] = 0.90
    pct_black_b: Annotated[float, "[0, 0.95]"] = 0.05
    seed: int = 0
    __post_init__ = check_ranges


def _square_polygon(center: tuple[float, float], half: float,
                    bbox: BoundingBox) -> Polygon:
    cu, cv = center
    corners = [(cu - half, cv - half), (cu - half, cv + half),
               (cu + half, cv + half), (cu + half, cv - half)]
    return Polygon([denormalize_coords(u, v, bbox) for u, v in corners])


def synthetic_neighborhoods(cfg: SyntheticCityConfig) -> list[Neighborhood]:
    bbox = SYNTH_BBOX
    half = CLUSTER_HALF_WIDTH
    return [
        Neighborhood(
            id="A",
            polygons=(_square_polygon(CLUSTER_A, half, bbox),),
            pct_black=cfg.pct_black_a,
            pct_white=1.0 - cfg.pct_black_a - 0.05,
            pct_neither=0.05,
            median_income=32_000.0, poverty_rate=0.31),
        Neighborhood(
            id="B",
            polygons=(_square_polygon(CLUSTER_B, half, bbox),),
            pct_black=cfg.pct_black_b,
            pct_white=1.0 - cfg.pct_black_b - 0.05,
            pct_neither=0.05,
            median_income=78_000.0, poverty_rate=0.08),
    ]


def _sample_cluster_point(center: tuple[float, float], sigma: float,
                          rng: np.random.Generator) -> tuple[float, float]:
    # Rejection-sample so every incident stays inside its neighborhood square.
    cu, cv = center
    half = CLUSTER_HALF_WIDTH
    while True:
        u = cu + sigma * rng.standard_normal()
        v = cv + sigma * rng.standard_normal()
        if abs(u - cu) < half * 0.98 and abs(v - cv) < half * 0.98:
            return u, v


def synthetic_month_slice(city: str, year: int, month: int,
                          cfg: SyntheticCityConfig) -> MonthSlice:
    """The month's incidents: the first round(incidents_per_month *
    weight_a) in cluster A, the rest in cluster B."""
    rng = np.random.default_rng(derive_seed(cfg.seed, "synth", city, year, month))
    in_a = np.arange(cfg.incidents_per_month) < round(
        cfg.incidents_per_month * cfg.weight_a)
    uv = np.array([_sample_cluster_point(CLUSTER_A if a else CLUSTER_B,
                                         cfg.sigma, rng)
                   for a in in_a.tolist()], dtype=float).reshape(-1, 2)
    lat, lon = denormalize_coords(uv[:, 0], uv[:, 1], SYNTH_BBOX)
    return MonthSlice(city, year, month, np.column_stack((lat, lon)),
                      np.where(in_a, "A", "B"))


def synthetic_year(city: str, year: int,
                   cfg: SyntheticCityConfig) -> list[MonthSlice]:
    return [synthetic_month_slice(city, year, m, cfg) for m in MONTHS]
