"""Monthly fairness metrics and annual aggregates.

DIR = Black rate / White rate; parity gap = Black rate - White rate; Gini
over the vector of defined per-group detection rates; bias amplification
score = parity gap x Gini. A zero White rate with a positive Black rate is
flagged infinite rather than patched with an epsilon.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

import numpy as np

from .ingest import RACE_GROUPS

DIR_OK = "ok"
DIR_UNDEFINED = "undefined_zero_over_zero"
DIR_INFINITE = "infinite_positive_over_zero"


@dataclass(frozen=True)
class GroupRates:
    detected: dict[str, float]
    total: dict[str, int]

    def rate(self, group: str) -> float | None:
        n = self.total.get(group, 0)
        if n == 0:
            return None
        return self.detected[group] / n

    def defined_rates(self) -> list[float]:
        out = []
        for g in RACE_GROUPS:
            r = self.rate(g)
            if r is not None:
                out.append(r)
        return out


@dataclass
class MonthlyBiasRecord:
    city: str
    year: int
    month: int
    mode: str
    rates: GroupRates
    dir_value: float | None
    dir_flag: str
    parity_gap: float | None
    gini: float
    bas: float | None
    replicate: int = 0


@dataclass
class AnnualSummary:
    city: str
    year: int
    mode: str
    avg_dir: float | None
    max_dir: float | None
    avg_parity_gap: float | None
    avg_gini: float | None
    avg_bas: float | None
    months_dir_above_1: int
    months_counted: int


def group_rates(groups: np.ndarray, credits: np.ndarray) -> GroupRates:
    """Per-group crime counts of the group indices into RACE_GROUPS, and
    detected counts that sum the crimes' credits in input order."""
    n = len(RACE_GROUPS)
    detected = np.bincount(groups, weights=credits, minlength=n).tolist()
    total = np.bincount(groups, minlength=n).tolist()
    return GroupRates(dict(zip(RACE_GROUPS, detected)),
                      dict(zip(RACE_GROUPS, total)))


def disparate_impact_ratio(rates: GroupRates) -> tuple[float | None, str]:
    """Black rate over White rate, with flags for the zero-denominator cases."""
    black, white = rates.rate("Black"), rates.rate("White")
    if black is None or white is None:
        return None, DIR_UNDEFINED
    if white == 0.0:
        if black == 0.0:
            return None, DIR_UNDEFINED
        return None, DIR_INFINITE
    return black / white, DIR_OK


def parity_gap(rates: GroupRates) -> float | None:
    black, white = rates.rate("Black"), rates.rate("White")
    if black is None or white is None:
        return None
    return black - white


def gini(rate_values: list[float]) -> float:
    """Normalized mean absolute difference of the defined rates.

    Sorted O(n log n) form; all-zero vectors give 0 by convention.
    """
    n = len(rate_values)
    if n == 0:
        raise ValueError("gini needs at least one rate")
    total = sum(rate_values)
    if total == 0.0:
        return 0.0
    xs = sorted(rate_values)
    weighted = sum((2 * (i + 1) - n - 1) * x for i, x in enumerate(xs))
    return weighted / (n * total)


def bias_amplification_score(gap: float | None, gini_value: float) -> float | None:
    if gap is None:
        return None
    return gap * gini_value


def monthly_record(city: str, year: int, month: int, mode: str,
                   rates: GroupRates, replicate: int = 0) -> MonthlyBiasRecord:
    dir_value, dir_flag = disparate_impact_ratio(rates)
    gap = parity_gap(rates)
    defined = rates.defined_rates()
    g = gini(defined) if defined else 0.0
    return MonthlyBiasRecord(city, year, month, mode, rates, dir_value,
                             dir_flag, gap, g,
                             bias_amplification_score(gap, g), replicate)


def annual_summary(records: list[MonthlyBiasRecord]) -> AnnualSummary:
    """Aggregate one (city, year, mode) cell's monthly records.

    Only finite-DIR months feed the DIR mean, max, and the above-1 count;
    infinite and undefined flags are excluded so the summary never invents
    a magnitude for a zero denominator.
    """
    keys = {(r.city, r.year, r.mode) for r in records}
    if len(keys) != 1:
        raise ValueError("annual_summary expects records from one (city, year, mode)")
    city, year, mode = keys.pop()

    finite_dirs = [r.dir_value for r in records if r.dir_flag == DIR_OK]
    gaps = [r.parity_gap for r in records if r.parity_gap is not None]
    ginis = [r.gini for r in records]
    bases = [r.bas for r in records if r.bas is not None]
    above = sum(1 for r in records
                if r.dir_flag == DIR_OK and r.dir_value > 1.0)

    def mean(xs):
        return sum(xs) / len(xs) if xs else None

    return AnnualSummary(
        city=city, year=year, mode=mode,
        avg_dir=mean(finite_dirs),
        max_dir=max(finite_dirs) if finite_dirs else None,
        avg_parity_gap=mean(gaps),
        avg_gini=mean(ginis),
        avg_bas=mean(bases),
        months_dir_above_1=above,
        months_counted=len(finite_dirs),
    )


MONTHLY_CSV_HEADER = ("city", "year", "month", "mode", "replicate",
                      "rate_black", "rate_white", "rate_neither", "dir",
                      "dir_flag", "parity_gap", "gini", "bas")
ANNUAL_CSV_HEADER = tuple(f.name for f in fields(AnnualSummary))


def monthly_csv_row(r: MonthlyBiasRecord) -> tuple:
    return (r.city, r.year, r.month, r.mode, r.replicate,
            r.rates.rate("Black"), r.rates.rate("White"),
            r.rates.rate("Neither"), r.dir_value, r.dir_flag, r.parity_gap,
            r.gini, r.bas)


def annual_csv_row(s: AnnualSummary) -> tuple:
    return astuple(s)
