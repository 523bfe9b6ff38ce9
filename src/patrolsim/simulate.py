"""One-month simulation runs: race assignment, patrol deployment, and
Noisy-OR detection per crime.

Two modes. Detected: patrols are sampled from a GAN trained on the month's
incident coordinates. Reported: each crime is independently reported with
the citizen reporting probability, and patrols are drawn from the reported
crimes' locations (configurable alternative reading: a report simply counts
as a detection).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .gan import GanModel, TrainConfig, sample_patrol, train_gan
from .geodata import BoundingBox, LatLon, count_within
from .ingest import RACE_GROUPS, CrimeIncident, MonthSlice, Neighborhood

# How reported mode places patrols: from the reported-crime locations, or
# treating a citizen report directly as a detection.
PATROL_FROM_REPORTS = "patrol_from_reports"
REPORT_IS_DETECTION = "report_is_detection"


@dataclass(frozen=True)
class SimConfig:
    n_officers: int = 60
    radius_ft: float = 700.0
    p_officer: float = 0.85
    reporting_prob: float = 0.521
    seed: int = 0
    expected_value: bool = False
    reported_mode_semantics: str = PATROL_FROM_REPORTS

    def __post_init__(self):
        if self.n_officers < 1:
            raise ValueError("n_officers must be >= 1")
        if self.radius_ft <= 0:
            raise ValueError("radius_ft must be positive")
        if not 0.0 < self.p_officer <= 1.0:
            raise ValueError("p_officer must be in (0, 1]")
        if not 0.0 < self.reporting_prob <= 1.0:
            raise ValueError("reporting_prob must be in (0, 1]")
        if self.reported_mode_semantics not in (PATROL_FROM_REPORTS,
                                                REPORT_IS_DETECTION):
            raise ValueError("bad reported_mode_semantics")


@dataclass(frozen=True)
class DetectionOutcome:
    """One crime's result. `credit` is what it adds to its group's detected
    count: its detection probability under `SimConfig.expected_value`,
    otherwise its 0/1 Bernoulli draw."""
    neighborhood_id: str
    group: str
    credit: float
    reported: bool | None = None


@dataclass
class MonthRunResult:
    city: str
    year: int
    month: int
    mode: str
    outcomes: list[DetectionOutcome]
    patrol_points: list[LatLon]
    mode_collapsed: bool = False


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


def assign_race(incident: CrimeIncident,
                neighborhoods: dict[str, Neighborhood],
                rng: np.random.Generator) -> str:
    """Categorical draw from the containing neighborhood's group proportions."""
    nb = neighborhoods.get(incident.neighborhood_id)
    if nb is None:
        raise KeyError(f"incident {incident.id} has unknown neighborhood "
                       f"{incident.neighborhood_id!r}")
    probs = np.array([nb.pct_black, nb.pct_white, nb.pct_neither])
    probs = probs / probs.sum()
    return RACE_GROUPS[rng.choice(len(RACE_GROUPS), p=probs)]


def noisy_or(crimes: list[LatLon], patrols: list[LatLon],
             sim_cfg: SimConfig) -> list[tuple[int, float]]:
    """(k, 1 - (1 - p)^k) per crime, over the k patrols within the radius."""
    counts = count_within(crimes, patrols, sim_cfg.radius_ft).tolist()
    return [(k, 1.0 - (1.0 - sim_cfg.p_officer) ** k) for k in counts]


def _credit(prob: float, sim_cfg: SimConfig,
            rng: np.random.Generator) -> float:
    """`prob` under expected_value (no draw), otherwise a 0/1 draw."""
    return prob if sim_cfg.expected_value else float(rng.random() < prob)


def _evaluate_detections(slice_: MonthSlice,
                         neighborhoods: dict[str, Neighborhood],
                         patrol_points: list[LatLon],
                         sim_cfg: SimConfig,
                         rng: np.random.Generator,
                         reported: list[bool] | None = None,
                         ) -> list[DetectionOutcome]:
    """One outcome per crime; `reported[i]`, if given, is the i-th crime's
    report."""
    detection = noisy_or([inc.location for inc in slice_.incidents],
                         patrol_points, sim_cfg)
    if reported is None:
        reported = [None] * len(slice_.incidents)
    outcomes = []
    for inc, (_, prob), rep in zip(slice_.incidents, detection, reported):
        group = assign_race(inc, neighborhoods, rng)
        outcomes.append(DetectionOutcome(
            inc.neighborhood_id or "", group, _credit(prob, sim_cfg, rng),
            rep))
    return outcomes


def evaluate_labeled(labeled: list[tuple[LatLon, str]],
                     patrol_points: list[LatLon], sim_cfg: SimConfig,
                     rng: np.random.Generator) -> list[DetectionOutcome]:
    """Outcomes of crimes whose groups are already drawn (the debias
    conditions); they carry no neighborhood."""
    detection = noisy_or([loc for loc, _ in labeled], patrol_points, sim_cfg)
    return [DetectionOutcome("", group, _credit(prob, sim_cfg, rng))
            for (_, group), (_, prob) in zip(labeled, detection)]


def run_month_detected(slice_: MonthSlice,
                       neighborhoods: dict[str, Neighborhood],
                       gan_cfg: TrainConfig, sim_cfg: SimConfig,
                       bbox: BoundingBox, replicate: int = 0,
                       model: GanModel | None = None) -> MonthRunResult:
    """Detected mode: GAN trained on the month's coordinates places patrols.

    A pre-trained model may be supplied (debias experiment retrains on a
    rebalanced set); otherwise the GAN is trained here on the slice.
    `replicate` and the master seed `sim_cfg.seed` give the month-run's
    seed (`month_run_seed`), as in reported mode.
    """
    if not slice_.incidents:
        raise ValueError("cannot run on an empty month slice")
    seed = month_run_seed(sim_cfg.seed, slice_.city, slice_.year,
                          slice_.month, "detected", replicate)
    mode_collapsed = False
    if model is None:
        model, history = train_gan([i.location for i in slice_.incidents],
                                   replace(gan_cfg, seed=seed), bbox)
        mode_collapsed = history.mode_collapsed
    rng = np.random.default_rng(derive_seed(seed, "sim"))
    patrols = sample_patrol(model, sim_cfg.n_officers, rng)
    outcomes = _evaluate_detections(slice_, neighborhoods, patrols, sim_cfg,
                                    rng)
    return MonthRunResult(slice_.city, slice_.year, slice_.month, "detected",
                          outcomes, patrols, mode_collapsed)


def run_month_reported(slice_: MonthSlice,
                       neighborhoods: dict[str, Neighborhood],
                       sim_cfg: SimConfig, replicate: int = 0) -> MonthRunResult:
    """Reported mode: citizen reports seed the detection pipeline."""
    if not slice_.incidents:
        raise ValueError("cannot run on an empty month slice")
    seed = month_run_seed(sim_cfg.seed, slice_.city, slice_.year,
                          slice_.month, "reported", replicate)
    rng = np.random.default_rng(derive_seed(seed, "sim"))
    # One report draw per crime, by position: crimes may share an id.
    reported = (rng.random(len(slice_.incidents))
                < sim_cfg.reporting_prob).tolist()

    if sim_cfg.reported_mode_semantics == REPORT_IS_DETECTION:
        outcomes = []
        for inc, rep in zip(slice_.incidents, reported):
            group = assign_race(inc, neighborhoods, rng)
            credit = (sim_cfg.reporting_prob if sim_cfg.expected_value
                      else float(rep))
            outcomes.append(DetectionOutcome(inc.neighborhood_id or "",
                                             group, credit, rep))
        return MonthRunResult(slice_.city, slice_.year, slice_.month,
                              "reported", outcomes, [])

    reported_locs = [inc.location
                     for inc, rep in zip(slice_.incidents, reported) if rep]
    if reported_locs:
        n_patrol = min(sim_cfg.n_officers, len(reported_locs))
        pick = rng.choice(len(reported_locs), size=n_patrol, replace=False)
        patrols = [reported_locs[i] for i in pick]
    else:
        patrols = []
    outcomes = _evaluate_detections(slice_, neighborhoods, patrols, sim_cfg,
                                    rng, reported)
    return MonthRunResult(slice_.city, slice_.year, slice_.month, "reported",
                          outcomes, patrols)
