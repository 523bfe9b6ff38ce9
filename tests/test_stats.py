import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolsim import cli, stats
from patrolsim.ingest import Neighborhood
from patrolsim.stats import (CORRELATION_PREDICTORS, CORRELATIONS_CSV_HEADER,
                             REGRESSION_CSV_HEADER, NeighborhoodObservation,
                             RankDeficientError, build_neighborhood_dataset,
                             correlation_rows, ols_fit, pearson,
                             regression_design, regression_rows,
                             significance_stars, spearman, student_t_cdf,
                             tally_neighborhoods)


def gaussian_elimination_ols(x, y):
    """Independent normal-equations oracle: solve (X'X) b = X'y by
    Gauss-Jordan with partial pivoting, no numpy.linalg."""
    a = (x.T @ x).tolist()
    rhs = (x.T @ y).tolist()
    k = len(rhs)
    for col in range(k):
        pivot = max(range(col, k), key=lambda r: abs(a[r][col]))
        a[col], a[pivot] = a[pivot], a[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        scale = a[col][col]
        a[col] = [v / scale for v in a[col]]
        rhs[col] /= scale
        for row in range(k):
            if row == col:
                continue
            factor = a[row][col]
            a[row] = [v - factor * w for v, w in zip(a[row], a[col])]
            rhs[row] -= factor * rhs[col]
    return np.array(rhs)


class TestStudentTCdf:
    def test_zero_is_half(self):
        for dof in (1, 5, 100):
            assert student_t_cdf(0.0, dof) == 0.5

    def test_cauchy_quartile(self):
        # dof=1 is Cauchy: CDF(1) = 1/2 + arctan(1)/pi = 0.75.
        assert student_t_cdf(1.0, 1) == pytest.approx(0.75, abs=1e-10)

    def test_cauchy_closed_form(self):
        for t in (-3.0, -0.5, 0.7, 2.0, 10.0):
            expected = 0.5 + np.arctan(t) / np.pi
            assert student_t_cdf(t, 1) == pytest.approx(expected, abs=1e-14)

    @given(st.floats(-1e8, 1e8))
    @settings(max_examples=300, deadline=None)
    def test_closed_forms_dof_1_and_2(self, t):
        assert student_t_cdf(t, 1) == pytest.approx(
            0.5 + math.atan(t) / math.pi, abs=1e-14)
        assert student_t_cdf(t, 2) == pytest.approx(
            0.5 + t / (2 * math.sqrt(2 + t * t)), abs=1e-14)

    def test_critical_value_dof_10(self):
        assert student_t_cdf(2.228, 10) == pytest.approx(0.975, abs=1e-3)

    @pytest.mark.parametrize("dof,critical", [
        (1, 12.706), (2, 4.303), (5, 2.571), (10, 2.228), (30, 2.042),
        (120, 1.980)])
    def test_two_sided_5pct_critical_values(self, dof, critical):
        # Tabulated to three decimals, so the true value lies within 5e-4.
        assert 2 * student_t_cdf(-(critical - 5e-4), dof) > 0.05
        assert 2 * student_t_cdf(-(critical + 5e-4), dof) < 0.05

    @given(st.floats(-1e6, 1e6), st.integers(1, 2000))
    @settings(max_examples=300, deadline=None)
    def test_symmetry(self, t, dof):
        assert student_t_cdf(-t, dof) == pytest.approx(
            1.0 - student_t_cdf(t, dof), abs=1e-15)

    def test_normal_limit(self):
        from math import erf, sqrt
        for t in (-2.0, -1.0, 0.5, 1.96):
            normal = 0.5 * (1 + erf(t / sqrt(2)))
            assert student_t_cdf(t, 1000) == pytest.approx(normal, abs=1e-3)

    def test_monotone(self):
        ts = np.linspace(-4, 4, 41)
        vals = [student_t_cdf(float(t), 7) for t in ts]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_bad_dof(self):
        with pytest.raises(ValueError):
            student_t_cdf(1.0, 0)

    def test_infinite_t(self):
        # ols_fit turns a zero standard error into t = inf, hence p = 0.
        for dof in (1, 2, 540):
            assert student_t_cdf(math.inf, dof) == 1.0
            assert student_t_cdf(-math.inf, dof) == 0.0
            assert stats._two_sided_p(math.inf, dof) == 0.0

    def test_nan_stays_nan(self):
        assert math.isnan(student_t_cdf(math.nan, 5))

    def test_unconverged_fraction_raises(self, monkeypatch):
        monkeypatch.setattr(stats, "BETA_CF_MAX_ITER", 2)
        with pytest.raises(ArithmeticError, match="did not converge"):
            student_t_cdf(1.5, 540)

    @pytest.mark.parametrize("a", [0.5, 1, 2.5, 12, 24.5, 25, 25.5, 270,
                                   1000, 2500.5, 50000])
    def test_log_gamma_ratio_half_exact(self, a):
        # Gamma(n + 1/2) = (2n)! sqrt(pi) / (4^n n!), so the ratio is a
        # quotient of integers that true division rounds once. Two lgamma
        # values differenced are off by 2e-13 at a = 270 (dof 540).
        n = int(a)
        if a == n:
            exact = (math.log(math.comb(2 * n, n) * n / 4 ** n)
                     + 0.5 * math.log(math.pi))
        else:
            exact = (math.log(4 ** n / math.comb(2 * n, n))
                     - 0.5 * math.log(math.pi))
        assert stats._log_gamma_ratio_half(a) == pytest.approx(exact,
                                                               abs=1e-14)

    def test_matches_scipy_betainc(self):
        special = pytest.importorskip("scipy.special")
        # x = dof/(dof + t^2) rounds t^2 away when t^2 << dof, and betainc
        # then forms 1 - x itself: near p = 1 that puts scipy 3.4e-12 off
        # the true value at dof 968, t = 0.0117 (checked with mpmath). Its
        # complement form is given 1 - x directly.
        worst = 0.0
        for dof in [*range(1, 61), *range(67, 1000, 13), 1000]:
            for t in np.geomspace(0.01, 1e5, 40):
                t2 = t * t
                p = float(special.betainc(dof / 2, 0.5, dof / (dof + t2)))
                if p >= 0.5:
                    p = 1.0 - float(special.betainc(0.5, dof / 2,
                                                    t2 / (dof + t2)))
                if p >= 1e-300:
                    ours = 2 * student_t_cdf(-float(t), dof)
                    worst = max(worst, abs(ours - p) / p)
        assert worst <= 1e-12


class TestOls:
    def test_exact_linear_fit(self):
        rng = np.random.default_rng(1)
        x = np.column_stack([np.ones(20), rng.standard_normal(20),
                             rng.standard_normal(20), rng.standard_normal(20)])
        beta_true = np.array([1.0, 2.0, 0.0, 0.0])
        y = x @ beta_true
        fit = ols_fit(x, y)
        assert np.allclose(fit.coefficients, beta_true, atol=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_matches_gaussian_elimination_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(10, 60))
            x = np.column_stack([np.ones(n), rng.standard_normal((n, 3))])
            y = rng.standard_normal(n)
            fit = ols_fit(x, y)
            oracle = gaussian_elimination_ols(x, y)
            assert np.max(np.abs(fit.coefficients - oracle)) < 1e-8

    def test_monte_carlo_coefficient_recovery(self):
        rng = np.random.default_rng(3)
        n = 300
        beta_true = np.array([0.07, -0.10, 0.0, 0.09])
        x = np.column_stack([np.ones(n), rng.standard_normal((n, 3))])
        y = x @ beta_true + rng.normal(0, 0.05, n)
        fit = ols_fit(x, y)
        for b, se, truth in zip(fit.coefficients, fit.std_errors, beta_true):
            assert abs(b - truth) < 3 * se

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(4)
        x = np.column_stack([np.ones(40), rng.standard_normal((40, 2))])
        y = rng.standard_normal(40)
        fit = ols_fit(x, y)
        resid = y - x @ fit.coefficients
        assert np.max(np.abs(x.T @ resid)) < 1e-8

    def test_dof(self):
        rng = np.random.default_rng(5)
        x = np.column_stack([np.ones(25), rng.standard_normal((25, 3))])
        fit = ols_fit(x, rng.standard_normal(25))
        assert fit.dof == 21

    def test_duplicate_column_fatal(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal(20)
        x = np.column_stack([np.ones(20), z, 2.0 * z])
        with pytest.raises(RankDeficientError) as err:
            ols_fit(x, rng.standard_normal(20))
        assert err.value.column == 2

    def test_zero_column_fatal(self):
        x = np.column_stack([np.ones(10), np.zeros(10)])
        with pytest.raises(RankDeficientError) as err:
            ols_fit(x, np.arange(10.0))
        assert err.value.column == 1

    def test_linear_combination_fatal(self):
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal((2, 15))
        x = np.column_stack([np.ones(15), a, b, a + b])
        with pytest.raises(RankDeficientError) as err:
            ols_fit(x, rng.standard_normal(15))
        assert err.value.column == 3

    def test_too_few_observations_fatal(self):
        with pytest.raises(ValueError):
            ols_fit(np.ones((3, 4)), np.zeros(3))

    @pytest.mark.parametrize("rate,n", [(0.0, 40), (1.0, 40), (0.1, 540)])
    def test_constant_response_fatal(self, rate, n):
        # Every pooled rate equal (e.g. all 1 at a wide radius under
        # expected_value): the residuals are rounding noise, and t-statistics
        # built from them would earn significance stars. At 540 rows of 0.1
        # the mean is off by an ulp, so the total sum of squares is not 0.
        rng = np.random.default_rng(9)
        x = np.column_stack([np.ones(n), rng.uniform(0, 1, n),
                             rng.uniform(2e4, 9e4, n), rng.uniform(0, 0.4, n)])
        with pytest.raises(ValueError, match="constant"):
            ols_fit(x, np.full(n, rate))

    def test_se_against_textbook_formula(self):
        rng = np.random.default_rng(8)
        n = 50
        x = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        y = rng.standard_normal(n)
        fit = ols_fit(x, y)
        resid = y - x @ fit.coefficients
        sigma2 = resid @ resid / (n - 3)
        cov = sigma2 * np.linalg.inv(x.T @ x)
        assert np.allclose(fit.std_errors, np.sqrt(np.diag(cov)), atol=1e-10)


def loop_rankdata(x):
    """Average ranks by a walk over the stably sorted values, each run of
    equal values sharing the mean of its positions: the reference that
    `stats._rankdata` must match bit for bit."""
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


class TestRankdata:
    # A small pool makes ties common; 0.0 and -0.0 tie, and each NaN
    # ranks on its own, after every number.
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, math.nan, 1.0, -1.0, 2.5,
                                     math.inf, -math.inf, 1e-300])
                    | st.floats(allow_nan=True), max_size=40))
    def test_matches_loop_bitwise(self, values):
        x = np.array(values, dtype=float)
        assert stats._rankdata(x).tobytes() == loop_rankdata(x).tobytes()

    def test_ties_and_signed_zero(self):
        x = np.array([2.0, -0.0, math.nan, 0.0, 2.0, -1.0, math.nan])
        assert stats._rankdata(x).tolist() == [4.5, 2.5, 6.0, 2.5, 4.5, 1.0,
                                               7.0]


class TestCorrelations:
    def test_perfect_positive(self):
        x = np.arange(10.0)
        r, p = pearson(x, 3 * x + 1)
        assert r == pytest.approx(1.0)
        assert p == 0.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(30)
        y = rng.standard_normal(30)
        r1, p1 = pearson(x, y)
        r2, p2 = pearson(5.0 * x - 2.0, 0.1 * y + 7.0)
        assert r1 == pytest.approx(r2, abs=1e-12)
        assert p1 == pytest.approx(p2, abs=1e-12)

    def test_sign_flip(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(30)
        y = rng.standard_normal(30)
        r1, _ = pearson(x, y)
        r2, _ = pearson(x, -y)
        assert r1 == pytest.approx(-r2, abs=1e-12)

    def test_spearman_monotone_invariance(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(40)
        y = rng.standard_normal(40)
        rho1, p1 = spearman(x, y)
        rho2, p2 = spearman(np.exp(x), y ** 3)
        assert rho1 == pytest.approx(rho2, abs=1e-12)
        assert p1 == pytest.approx(p2, abs=1e-12)

    def test_cubic_relationship(self):
        x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        y = x ** 3
        rho, _ = spearman(x, y)
        r, _ = pearson(x, y)
        assert rho == pytest.approx(1.0)
        assert r == pytest.approx(34.0 / np.sqrt(1300.0), abs=1e-12)

    def test_ties_use_mean_ranks(self):
        x = np.array([1.0, 2.0, 2.0, 3.0])
        y = np.array([10.0, 20.0, 30.0, 40.0])
        rho, _ = spearman(x, y)
        # Hand computation with ranks (1, 2.5, 2.5, 4).
        assert rho == pytest.approx(0.9486832980505138, abs=1e-12)

    def test_constant_vector_fatal(self):
        with pytest.raises(ValueError):
            pearson(np.ones(5), np.arange(5.0))

    def test_constant_vector_with_inexact_mean_fatal(self):
        # The mean of 540 copies of 0.1 is off by an ulp, so the centred
        # vector is not 0 and r would be computed from rounding noise.
        x = np.random.default_rng(14).uniform(0, 1, 540)
        with pytest.raises(ValueError, match="constant"):
            pearson(x, np.full(540, 0.1))

    def test_too_short_fatal(self):
        with pytest.raises(ValueError):
            pearson(np.array([1.0, 2.0]), np.array([3.0, 4.0]))

    def test_pearson_p_matches_t_formula(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(25)
        y = 0.4 * x + rng.standard_normal(25)
        r, p = pearson(x, y)
        t = r * np.sqrt(23 / (1 - r * r))
        assert p == pytest.approx(2 * student_t_cdf(-abs(t), 23), abs=1e-14)


def make_nb(nb_id, pct_black, income=50_000.0, poverty=0.2):
    from patrolsim.ingest import Polygon
    poly = Polygon([(39.20, -76.71), (39.37, -76.71),
                    (39.37, -76.53), (39.20, -76.53)])
    return Neighborhood(id=nb_id, polygons=(poly,),
                        pct_black=pct_black, pct_white=1.0 - pct_black,
                        pct_neither=0.0, median_income=income,
                        poverty_rate=poverty)


def month_tally(outcomes, city="B", year=2019, mode="detected"):
    """The tally of a month-run of (neighborhood id, credit) pairs."""
    ids, credits = zip(*outcomes)
    return tally_neighborhoods((city, year, mode), np.array(ids),
                               np.array(credits, dtype=float))


def out(nb_id, credit):
    return nb_id, credit


class TestBuildDataset:
    NBS = {"B": {"A": make_nb("A", 0.9), "B": make_nb("B", 0.1)}}

    def test_tally_is_per_neighborhood(self):
        tally = tally_neighborhoods(("B", 2019, "reported"),
                                    np.array(["B", "A", "B"]),
                                    np.array([0.25, 1.0, 0.5]))
        cell, ids, hits, counts = tally
        assert cell == ("B", 2019, "reported")
        assert ids.tolist() == ["A", "B"]
        assert hits.tolist() == [1.0, 0.75]
        assert counts.tolist() == [1, 2]

    def test_pooling_across_months(self):
        results = [month_tally([out("A", 1.0), out("A", 0.0)]),
                   month_tally([out("A", 1.0), out("A", 1.0)])]
        obs, excluded = build_neighborhood_dataset(results, self.NBS)
        assert excluded == 0
        assert len(obs) == 1
        assert obs[0].detection_rate == pytest.approx(0.75)
        assert obs[0].pct_black == pytest.approx(0.9)

    @staticmethod
    def loop_sum(values):
        total = 0.0
        for v in values:
            total += v
        return total

    def pooled(self, months):
        return build_neighborhood_dataset(
            [month_tally(outs) for outs in months], self.NBS)[0]

    def test_pooled_rate_sums_credits_in_input_order(self):
        # Each month's credits of a unit are added one by one in crime
        # order, as a loop would, and then the month sums one by one in
        # month order; a pairwise sum (np.sum) differs in the last bits.
        rng = np.random.default_rng(3)
        months = [[out(nb, c) for nb, c in zip(rng.choice(["A", "B"], 150),
                                               rng.random(150).tolist())]
                  for _ in range(3)]
        obs = self.pooled(months)
        assert len(obs) == 2
        for o in obs:
            hits = [[c for nb, c in outs if nb == o.neighborhood_id]
                    for outs in months]
            total = self.loop_sum(map(self.loop_sum, hits))
            assert o.detection_rate == total / sum(map(len, hits))

    def test_pooled_rate_of_draws_is_the_one_pass_sum(self):
        # With 0/1 credits every partial sum is an exact integer, so the
        # month sums pool to the one-pass sum over all crimes, bit for bit.
        rng = np.random.default_rng(4)
        months = [[out(nb, c) for nb, c in zip(
            rng.choice(["A", "B"], n),
            (rng.random(n) < 0.3).astype(float).tolist())]
                  for n in (150, 1, 77, 300)]
        obs = self.pooled(months)
        assert len(obs) == 2
        for o in obs:
            hits = [c for outs in months for nb, c in outs
                    if nb == o.neighborhood_id]
            assert o.detection_rate == self.loop_sum(hits) / len(hits)

    def test_unknown_neighborhood_excluded(self):
        results = [month_tally([out("A", 1.0), out("ghost", 1.0)])]
        obs, excluded = build_neighborhood_dataset(results, self.NBS)
        assert len(obs) == 1
        assert excluded == 1

    def test_expected_mode(self):
        # Credits under expected_value are the crimes' probabilities.
        results = [month_tally([out("A", 0.2), out("A", 0.6)])]
        obs, _ = build_neighborhood_dataset(results, self.NBS)
        assert obs[0].detection_rate == pytest.approx(0.4)

    def test_separate_cells_stay_separate(self):
        results = [month_tally([out("A", 1.0)], mode="detected"),
                   month_tally([out("A", 0.0)], mode="reported")]
        obs, _ = build_neighborhood_dataset(results, self.NBS)
        assert len(obs) == 2
        assert {o.mode for o in obs} == {"detected", "reported"}

    def test_empty_design_has_four_columns(self):
        # An empty dataset fails in ols_fit on its count, not on the shape.
        x, y = regression_design([])
        assert x.shape == (0, 4) and y.shape == (0,)
        with pytest.raises(ValueError, match=r"need more observations "
                           r"\(0\) than regressors \(4\)"):
            ols_fit(x, y)

    def test_design_matrix_shape(self):
        results = [month_tally([out("A", 1.0), out("B", 0.0)])]
        obs, _ = build_neighborhood_dataset(results, self.NBS)
        x, y = regression_design(obs)
        assert x.shape == (2, 4)
        assert np.array_equal(x[:, 0], np.ones(2))
        assert y.shape == (2,)


class TestReports:
    def test_stars(self):
        assert significance_stars(0.0001) == "***"
        assert significance_stars(0.005) == "**"
        assert significance_stars(0.03) == "*"
        assert significance_stars(0.2) == ""

    @staticmethod
    def written_lines(tmp_path, header, rows):
        """A table as the CLI writes it, line by line."""
        cli._write_csv(str(tmp_path), "t.csv", header, rows)
        return (tmp_path / "t.csv").read_text(encoding="utf-8").splitlines()

    def test_regression_csv_shape(self, tmp_path):
        rng = np.random.default_rng(14)
        x = np.column_stack([np.ones(30), rng.standard_normal((30, 3))])
        fit = ols_fit(x, rng.standard_normal(30))
        lines = self.written_lines(tmp_path, REGRESSION_CSV_HEADER,
                                   regression_rows(fit))
        assert len(lines) == 5
        assert lines[0] == "variable,coefficient,se,t,p,stars"
        assert lines[1].startswith("Intercept,")

    def test_regression_csv_fields_are_plain_floats(self, tmp_path):
        rng = np.random.default_rng(14)
        x = np.column_stack([np.ones(30), rng.standard_normal((30, 3))])
        fit = ols_fit(x, rng.standard_normal(30))
        lines = self.written_lines(tmp_path, REGRESSION_CSV_HEADER,
                                   regression_rows(fit))
        for line in lines[1:]:
            for value in line.split(",")[1:5]:
                float(value)  # raises on a numpy repr such as np.float64(...)

    def test_correlations_csv_shape(self, tmp_path):
        rng = np.random.default_rng(15)
        obs = [NeighborhoodObservation(
            neighborhood_id=f"n{i}", city="B", year=2019, mode="detected",
            detection_rate=float(rng.uniform(0, 1)),
            pct_black=float(rng.uniform(0, 1)),
            pct_white=float(rng.uniform(0, 1)),
            median_income=float(rng.uniform(20_000, 90_000)),
            poverty_rate=float(rng.uniform(0, 0.4))) for i in range(12)]
        lines = self.written_lines(tmp_path, CORRELATIONS_CSV_HEADER,
                                   correlation_rows(obs))
        assert len(lines) == 1 + len(CORRELATION_PREDICTORS)
        # Each row bundles Pearson's and Spearman's results for its predictor.
        rates = np.array([o.detection_rate for o in obs])
        columns = {name: np.array([getattr(o, name) for o in obs])
                   for name in CORRELATION_PREDICTORS}
        assert correlation_rows(obs) == [
            (name, *pearson(x, rates), *spearman(x, rates))
            for name, x in columns.items()]
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 5
            assert -1.0 <= float(fields[1]) <= 1.0
