"""OLS regression, Pearson/Spearman correlations, and Student-t p-values
for the neighborhood-level socioeconomic analysis.

The regression models pooled per-neighborhood detection rate on %Black,
median income (raw dollars), and poverty rate, with an intercept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ingest import Neighborhood

RANK_DEFICIENCY_TOL = 1e-10


@dataclass(frozen=True)
class NeighborhoodObservation:
    neighborhood_id: str
    city: str
    year: int
    mode: str
    detection_rate: float
    pct_black: float
    pct_white: float
    median_income: float
    poverty_rate: float


@dataclass(frozen=True)
class OlsFit:
    coefficients: np.ndarray
    std_errors: np.ndarray
    t_stats: np.ndarray
    p_values: np.ndarray
    r_squared: float
    dof: int


class RankDeficientError(ValueError):
    def __init__(self, column: int):
        super().__init__(f"design matrix is rank deficient at column {column}")
        self.column = column


# Continued-fraction settings of `_betainc_half`.
BETA_CF_EPS = math.ulp(1.0)
BETA_CF_TINY = 1e-300
BETA_CF_MAX_ITER = 1000


def _log_gamma_ratio_half(a: float) -> float:
    """ln(Gamma(a + 1/2) / Gamma(a)).

    Each lgamma value is about a ln a, so their difference is off by about
    ulp(a ln a): 2e-13 at a = 270 (dof 540). From a = 25 on, the Stirling
    series of the difference is used; its first omitted term,
    31/(18432 a^9), is below 5e-16 there.
    """
    if a < 25.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    r = 1.0 / (a * a)
    return 0.5 * math.log(a) - (
        1 / 8 - r * (1 / 192 - r * (1 / 640 - r * 17 / 14336))) / a


def _lentz_floor(v: float) -> float:
    return v if abs(v) >= BETA_CF_TINY else BETA_CF_TINY


def _betainc_half(a: float, u: float) -> float:
    """Regularized incomplete beta I_x(a, 1/2) at x = 1/(1 + u), u > 0.

    Continued fraction evaluated by the modified Lentz method (Numerical
    Recipes, 3rd ed., 6.4), on the side of x where it converges quickly:
    I_x(a, b) = 1 - I_{1-x}(b, a). Taking u = t^2/dof in place of x keeps
    ln x and ln(1 - x) accurate when x is near 1 or 0.

    Relative error against 40-digit values: below 2e-13 up to a = 500
    (t from 0.01 to 1e5). Past that it grows about linearly in a (1.3e-12
    at a = 10,000), because on the direct side the fraction's value is
    about 1/u.
    """
    log1p_u = math.log1p(u)
    x = 1.0 / (1.0 + u)
    # ln(x^a (1-x)^(1/2) / B(a, 1/2)), with B(a, 1/2) = sqrt(pi) G(a)/G(a+1/2).
    log_front = (-a * log1p_u + 0.5 * (math.log(u) - log1p_u)
                 - 0.5 * math.log(math.pi) + _log_gamma_ratio_half(a))
    if x < (a + 1.0) / (a + 2.5):
        p, q, z, flip = a, 0.5, x, False
    else:
        p, q, z, flip = 0.5, a, u / (1.0 + u), True
    c = 1.0
    d = 1.0 / _lentz_floor(1.0 - (p + q) * z / (p + 1.0))
    h = d
    for m in range(1, BETA_CF_MAX_ITER + 1):
        m2 = 2 * m
        for coef in (m * (q - m) * z / ((p + m2 - 1.0) * (p + m2)),
                     -(p + m) * (p + q + m) * z / ((p + m2) * (p + m2 + 1.0))):
            d = 1.0 / _lentz_floor(1.0 + coef * d)
            c = _lentz_floor(1.0 + coef / c)
            h *= d * c
        if abs(d * c - 1.0) <= BETA_CF_EPS:
            break
    else:
        raise ArithmeticError(
            f"incomplete beta continued fraction did not converge within "
            f"{BETA_CF_MAX_ITER} iterations (a={a}, u={u})")
    part = math.exp(log_front) * h / p
    return 1.0 - part if flip else part


def student_t_cdf(t: float, dof: int) -> float:
    """CDF of Student's t via the regularized incomplete beta function:
    P(T <= -|t|) = I_x(dof/2, 1/2) / 2 at x = dof / (dof + t^2)."""
    if dof < 1:
        raise ValueError("dof must be >= 1")
    if math.isnan(t):
        return math.nan
    u = t * t / dof
    if u == 0.0:
        return 0.5
    tail = 0.0 if math.isinf(u) else 0.5 * _betainc_half(dof / 2.0, u)
    return 1.0 - tail if t > 0 else tail


def _two_sided_p(t: float, dof: int) -> float:
    return 2.0 * student_t_cdf(-abs(t), dof)


def _check_rank(x: np.ndarray) -> None:
    """Greedy Gram-Schmidt on unit-normalized columns; reports the first
    column whose residual drops below the pivot threshold."""
    n, k = x.shape
    basis: list[np.ndarray] = []
    for j in range(k):
        col = x[:, j].astype(float)
        norm0 = np.linalg.norm(col)
        if norm0 == 0.0:
            raise RankDeficientError(j)
        col = col / norm0
        for b in basis:
            col = col - (b @ col) * b
        resid = np.linalg.norm(col)
        if resid < RANK_DEFICIENCY_TOL:
            raise RankDeficientError(j)
        basis.append(col / resid)


def ols_fit(x: np.ndarray, y: np.ndarray) -> OlsFit:
    """Least squares via QR, with classical standard errors and t tests.

    x must already include the intercept column.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, k = x.shape
    if n <= k:
        raise ValueError(f"need more observations ({n}) than regressors ({k})")
    if y.min() == y.max():
        raise ValueError("regression undefined for a constant response")
    _check_rank(x)

    q, r = np.linalg.qr(x)
    beta = np.linalg.solve(r, q.T @ y)
    resid = y - x @ beta
    dof = n - k
    sigma2 = float(resid @ resid) / dof
    r_inv = np.linalg.solve(r, np.eye(k))
    cov = sigma2 * (r_inv @ r_inv.T)
    se = np.sqrt(np.diag(cov))
    with np.errstate(divide="ignore"):
        t_stats = np.where(se > 0, beta / se, np.inf)
    p_values = np.array([_two_sided_p(float(t), dof) for t in t_stats])
    r_squared = 1.0 - float(resid @ resid) / float(((y - y.mean()) ** 2).sum())
    return OlsFit(beta, se, t_stats, p_values, r_squared, dof)


def _rankdata(x: np.ndarray) -> np.ndarray:
    """Average ranks, ties sharing the mean rank."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x), dtype=float)
    i = 0
    sorted_x = x[order]
    while i < len(x):
        j = i
        while j + 1 < len(x) and sorted_x[j + 1] == sorted_x[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def pearson(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Product-moment correlation and its two-sided t-test p-value."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    if n < 3:
        raise ValueError("need at least 3 observations")
    if x.min() == x.max() or y.min() == y.max():
        raise ValueError("correlation undefined for a constant vector")
    xc = x - x.mean()
    yc = y - y.mean()
    r = float(xc @ yc) / float(np.sqrt(float(xc @ xc) * float(yc @ yc)))
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        return r, 0.0
    t = r * np.sqrt((n - 2) / (1.0 - r * r))
    return r, _two_sided_p(float(t), n - 2)


def spearman(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Rank correlation: Pearson on average-ranked data."""
    return pearson(_rankdata(np.asarray(x, dtype=float)),
                   _rankdata(np.asarray(y, dtype=float)))


# One month-run's crimes by neighborhood: its (city, year, mode), the
# sorted ids, each id's credits summed in crime order, each id's count.
NeighborhoodTally = tuple[tuple[str, int, str], np.ndarray, np.ndarray,
                          np.ndarray]


def tally_neighborhoods(cell: tuple[str, int, str], neighborhood_ids,
                        credits: np.ndarray) -> NeighborhoodTally:
    ids, unit = np.unique(neighborhood_ids, return_inverse=True)
    return (cell, ids, np.bincount(unit, weights=credits), np.bincount(unit))


def build_neighborhood_dataset(
        tallies: list[NeighborhoodTally],
        neighborhoods: dict[str, dict[str, Neighborhood]],
        ) -> tuple[list[NeighborhoodObservation], int]:
    """One observation per (neighborhood, city, year, mode) with that unit's
    pooled detection rate across months (its credit sums added in the order
    of `tallies`, over its crime count) and the covariates of
    `neighborhoods[city][id]`; an id the city lacks is excluded.

    Returns (observations, excluded_count).
    """
    pooled: dict[tuple[str, str, int, str], tuple[float, int]] = {}
    for (city, year, mode), ids, hits, counts in tallies:
        for nb_id, hit, n in zip(ids.tolist(), hits.tolist(),
                                 counts.tolist()):
            total, count = pooled.get((nb_id, city, year, mode), (0.0, 0))
            pooled[nb_id, city, year, mode] = (total + hit, count + n)
    observations = []
    excluded = 0
    for (nb_id, city, year, mode), (hit, n) in sorted(pooled.items()):
        nb = neighborhoods[city].get(nb_id)
        if nb is None:
            excluded += 1
            continue
        observations.append(NeighborhoodObservation(
            neighborhood_id=nb_id, city=city, year=year, mode=mode,
            detection_rate=hit / n,
            pct_black=nb.pct_black, pct_white=nb.pct_white,
            median_income=nb.median_income, poverty_rate=nb.poverty_rate))
    return observations, excluded


def regression_design(observations: list[NeighborhoodObservation],
                      ) -> tuple[np.ndarray, np.ndarray]:
    x = np.array([[1.0, o.pct_black, o.median_income, o.poverty_rate]
                  for o in observations]).reshape(-1, 4)
    y = np.array([o.detection_rate for o in observations])
    return x, y


def significance_stars(p: float) -> str:
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


REGRESSION_VARIABLES = ("Intercept", "pct_black", "median_income", "poverty_rate")
CORRELATION_PREDICTORS = ("pct_black", "pct_white", "median_income", "poverty_rate")
REGRESSION_CSV_HEADER = ("variable", "coefficient", "se", "t", "p", "stars")
CORRELATIONS_CSV_HEADER = ("predictor", "pearson_r", "pearson_p",
                           "spearman_rho", "spearman_p")


def regression_rows(fit: OlsFit) -> list[tuple]:
    """One row per regressor, in REGRESSION_VARIABLES order."""
    return [(name, b, se, t, p, significance_stars(p))
            for name, b, se, t, p in zip(REGRESSION_VARIABLES,
                                         fit.coefficients, fit.std_errors,
                                         fit.t_stats, fit.p_values)]


def correlation_rows(observations: list[NeighborhoodObservation],
                     ) -> list[tuple]:
    """One row per predictor of the pooled detection rate."""
    rates = np.array([o.detection_rate for o in observations])
    rows = []
    for name in CORRELATION_PREDICTORS:
        values = np.array([getattr(o, name) for o in observations])
        rows.append((name, *pearson(values, rates), *spearman(values, rates)))
    return rows
