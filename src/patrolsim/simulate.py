"""One-month simulation runs: patrol deployment, and each crime's group
and Noisy-OR detection.

Two modes. Detected: patrols are sampled from a GAN trained on the month's
incident coordinates. Reported: each crime is independently reported with
the citizen reporting probability, and patrols are drawn from the reported
crimes' locations (configurable alternative reading: a report simply counts
as a detection).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Annotated, Literal

import numpy as np

from .gan import GanModel, sample_patrol
from .geodata import count_within
from .ingest import RACE_GROUPS, MonthSlice, Neighborhood
from .ranges import check_ranges

# How reported mode places patrols: from the reported-crime locations, or
# treating a citizen report directly as a detection.
PATROL_FROM_REPORTS = "patrol_from_reports"
REPORT_IS_DETECTION = "report_is_detection"


@dataclass(frozen=True)
class SimConfig:
    # Noisy-OR compares every crime with every patrol.
    n_officers: Annotated[int, "[1, 1e4]"] = 60
    radius_ft: Annotated[float, "(0, 1e6]"] = 700.0
    p_officer: Annotated[float, "(0, 1]"] = 0.85
    reporting_prob: Annotated[float, "(0, 1]"] = 0.521
    expected_value: bool = False
    reported_mode_semantics: Literal[
        "patrol_from_reports", "report_is_detection"] = PATROL_FROM_REPORTS
    __post_init__ = check_ranges


@dataclass(frozen=True, eq=False)
class MonthOutcomes:
    """A month's crimes as columns, in slice order. A crime's group indexes
    RACE_GROUPS; its credit is what it adds to its group's detected count.
    The patrols and report draws behind them are not kept."""
    groups: np.ndarray
    credits: np.ndarray

    def __len__(self) -> int:
        return len(self.groups)


@dataclass(frozen=True)
class MonthRunResult:
    outcomes: MonthOutcomes


def derive_seed(master_seed: int, *parts) -> int:
    """Stable per-month RNG seed from the master seed and run coordinates.

    Hash-derived so months are independent and reorderable.
    """
    text = f"{master_seed}|" + "|".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def month_run_seed(master_seed: int, city: str, year: int, month: int,
                   mode: str, replicate: int) -> int:
    """The seed of one replicate of a (city, year, month, mode) run."""
    return derive_seed(derive_seed(master_seed, "rep", replicate),
                       city, year, month, mode)


def draw_groups(neighborhood_ids, neighborhoods: dict[str, Neighborhood],
                u: np.ndarray) -> np.ndarray:
    """Each crime's group, drawn with the uniform `u[i]` from its
    neighborhood's shares as `Generator.choice(3, p=shares)` draws it: the
    number of entries <= u of `cdf = p.cumsum(); cdf /= cdf[-1]`, where
    `p = shares / shares.sum()`."""
    names, rows = np.unique(np.asarray(neighborhood_ids, dtype=str),
                            return_inverse=True)
    shares = np.array([[nb.pct_black, nb.pct_white, nb.pct_neither]
                       for nb in map(neighborhoods.__getitem__,
                                     names.tolist())])
    totals = shares.sum(axis=1, keepdims=True)
    if not ((shares >= 0).all() and (totals > 0).all()):
        raise ValueError("neighborhood group shares must be non-negative "
                         "with a positive total")
    cdf = (shares / totals).cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return (cdf[rows] <= u[:, None]).sum(axis=1)


def noisy_or(crimes: np.ndarray, patrols: np.ndarray,
             sim_cfg: SimConfig) -> np.ndarray:
    """1 - (1 - p)^k per crime row, over the k patrol rows in the radius."""
    counts = count_within(crimes, patrols, sim_cfg.radius_ft)
    # Python's float ** per k: np.power differs from it in the last bit.
    return np.array([1.0 - (1.0 - sim_cfg.p_officer) ** k
                     for k in range(counts.max(initial=0) + 1)])[counts]


def draw_outcomes(probs: np.ndarray, sample: bool, rng: np.random.Generator,
                  neighborhood_ids=None, neighborhoods=None):
    """(groups, credits): per crime, one uniform for its group (given
    `neighborhood_ids`), then, if `sample`, one for its 0/1 credit
    `u < probs[i]`, all from one `rng.random` call; else credits are probs."""
    u = rng.random((len(probs), (neighborhood_ids is not None) + sample))
    groups = (None if neighborhood_ids is None
              else draw_groups(neighborhood_ids, neighborhoods, u[:, 0]))
    return groups, (u[:, -1] < probs).astype(float) if sample else probs


def _month_result(slice_: MonthSlice,
                  neighborhoods: dict[str, Neighborhood], probs: np.ndarray,
                  sample: bool, rng: np.random.Generator) -> MonthRunResult:
    return MonthRunResult(MonthOutcomes(*draw_outcomes(
        probs, sample, rng, slice_.neighborhood_ids, neighborhoods)))


def run_month_detected(slice_: MonthSlice,
                       neighborhoods: dict[str, Neighborhood],
                       model: GanModel, sim_cfg: SimConfig,
                       seed: int) -> MonthRunResult:
    """Detected mode: `model`, the patrol GAN trained on the month, places
    patrols; the draws come from the month-run's `seed`."""
    if not len(slice_.incidents):
        raise ValueError("cannot run on an empty month slice")
    rng = np.random.default_rng(derive_seed(seed, "sim"))
    patrols = sample_patrol(model, sim_cfg.n_officers, rng)
    probs = noisy_or(slice_.incidents, patrols, sim_cfg)
    return _month_result(slice_, neighborhoods, probs,
                         not sim_cfg.expected_value, rng)


def run_month_reported(slice_: MonthSlice,
                       neighborhoods: dict[str, Neighborhood],
                       sim_cfg: SimConfig, seed: int) -> MonthRunResult:
    """Reported mode: citizen reports seed the detection pipeline; the
    draws come from the month-run's `seed`."""
    if not len(slice_.incidents):
        raise ValueError("cannot run on an empty month slice")
    rng = np.random.default_rng(derive_seed(seed, "sim"))
    # One report draw per crime, by position: crimes may share an id.
    reported = rng.random(len(slice_.incidents)) < sim_cfg.reporting_prob
    if sim_cfg.reported_mode_semantics == REPORT_IS_DETECTION:
        credits = (np.full(len(reported), sim_cfg.reporting_prob)
                   if sim_cfg.expected_value else reported.astype(float))
        return _month_result(slice_, neighborhoods, credits, False, rng)
    crimes = slice_.incidents
    reporters = np.flatnonzero(reported)
    # With no reporters this draws nothing and places no patrol.
    pick = rng.choice(len(reporters), replace=False,
                      size=min(sim_cfg.n_officers, len(reporters)))
    patrols = crimes[reporters[pick]]
    return _month_result(slice_, neighborhoods,
                         noisy_or(crimes, patrols, sim_cfg),
                         not sim_cfg.expected_value, rng)
