import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patrolsim import cli
from patrolsim.metrics import (ANNUAL_CSV_HEADER, DIR_INFINITE, DIR_OK,
                               DIR_UNDEFINED, MONTHLY_CSV_HEADER, GroupRates,
                               annual_csv_row, annual_summary,
                               bias_amplification_score,
                               disparate_impact_ratio, gini, group_rates,
                               monthly_csv_row, monthly_record, parity_gap)
from patrolsim.ingest import RACE_GROUPS


def gini_double_loop(xs):
    """Literal mean-absolute-difference definition, O(n^2)."""
    n = len(xs)
    total = sum(xs)
    if total == 0.0:
        return 0.0
    acc = 0.0
    for a in xs:
        for b in xs:
            acc += abs(a - b)
    return acc / (2 * n * total)


def rates_of(black=(0, 0), white=(0, 0), neither=(0, 0)):
    detected = {"Black": float(black[0]), "White": float(white[0]),
                "Neither": float(neither[0])}
    total = {"Black": black[1], "White": white[1], "Neither": neither[1]}
    return GroupRates(detected, total)


def outcome(group, credit):
    return RACE_GROUPS.index(group), credit


def rates_from(outcomes):
    """group_rates of (group index, credit) pairs."""
    return group_rates(np.array([g for g, _ in outcomes], dtype=int),
                       np.array([c for _, c in outcomes], dtype=float))


class TestGroupRates:
    def test_counts(self):
        outs = [outcome("Black", 1.0), outcome("Black", 0.0),
                outcome("White", 1.0)]
        r = rates_from(outs)
        assert r.rate("Black") == pytest.approx(0.5)
        assert r.rate("White") == pytest.approx(1.0)
        assert r.rate("Neither") is None

    def test_expected_mode_sums_probabilities(self):
        # Credits under expected_value are the crimes' probabilities.
        outs = [outcome("Black", 0.3), outcome("Black", 0.5)]
        r = rates_from(outs)
        assert r.rate("Black") == pytest.approx(0.4)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32), st.integers(0, 400))
    def test_sums_credits_in_input_order(self, seed, n):
        # Added one by one from 0.0, as a loop over the crimes would; a
        # pairwise sum (np.sum) differs in the last bits.
        rng = np.random.default_rng(seed)
        outcomes = list(zip(rng.integers(0, 3, n).tolist(),
                            rng.random(n).tolist()))
        detected = [0.0] * len(RACE_GROUPS)
        for g, credit in outcomes:
            detected[g] += credit
        r = rates_from(outcomes)
        assert [r.detected[g] for g in RACE_GROUPS] == detected
        assert [r.total[g] for g in RACE_GROUPS] == [
            sum(g == k for k, _ in outcomes) for g in range(3)]

    def test_defined_rates_skips_absent_groups(self):
        r = rates_of(black=(1, 2), white=(0, 0), neither=(1, 4))
        assert r.defined_rates() == [0.5, 0.25]


class TestDisparateImpactRatio:
    def test_table_values(self):
        # 3.44%/6.70% and 4.93%/1.59% from a published comparison.
        low = rates_of(black=(344, 10_000), white=(670, 10_000))
        high = rates_of(black=(493, 10_000), white=(159, 10_000))
        v1, f1 = disparate_impact_ratio(low)
        v2, f2 = disparate_impact_ratio(high)
        assert f1 == f2 == DIR_OK
        assert v1 == pytest.approx(0.513, abs=0.001)
        assert v2 == pytest.approx(3.101, abs=0.01)

    def test_zero_over_zero_undefined(self):
        v, f = disparate_impact_ratio(rates_of(black=(0, 5), white=(0, 5)))
        assert v is None and f == DIR_UNDEFINED

    def test_positive_over_zero_infinite(self):
        v, f = disparate_impact_ratio(rates_of(black=(2, 5), white=(0, 5)))
        assert v is None and f == DIR_INFINITE

    def test_absent_group_undefined(self):
        v, f = disparate_impact_ratio(rates_of(black=(2, 5)))
        assert v is None and f == DIR_UNDEFINED

    def test_equal_rates_give_one(self):
        v, f = disparate_impact_ratio(rates_of(black=(3, 10), white=(6, 20)))
        assert f == DIR_OK and v == pytest.approx(1.0)


class TestParityGap:
    def test_table_values(self):
        low = rates_of(black=(344, 10_000), white=(670, 10_000))
        high = rates_of(black=(493, 10_000), white=(159, 10_000))
        assert parity_gap(low) == pytest.approx(-0.0326, abs=1e-4)
        assert parity_gap(high) == pytest.approx(0.0334, abs=1e-4)

    def test_none_when_group_absent(self):
        assert parity_gap(rates_of(black=(1, 2))) is None

    def test_sign_matches_dir(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            nb, nw = rng.integers(1, 50, 2)
            r = rates_of(black=(rng.integers(0, nb + 1), nb),
                         white=(rng.integers(0, nw + 1), nw))
            v, f = disparate_impact_ratio(r)
            gap = parity_gap(r)
            if f == DIR_OK:
                assert (v > 1.0) == (gap > 0.0)
                assert (v == 1.0) == (gap == 0.0)


class TestGini:
    def test_equal_rates_zero(self):
        assert gini([0.2, 0.2, 0.2]) == pytest.approx(0.0, abs=1e-15)

    def test_one_zero_pair(self):
        assert gini([1.0, 0.0]) == pytest.approx(0.5)

    def test_two_rate_example(self):
        assert gini([0.0344, 0.0670]) == pytest.approx(0.1607, abs=1e-4)

    def test_all_zero_convention(self):
        assert gini([0.0, 0.0, 0.0]) == 0.0

    def test_empty_fatal(self):
        with pytest.raises(ValueError):
            gini([])

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n = rng.integers(1, 8)
            xs = list(rng.uniform(0.0, 1.0, n))
            assert abs(gini(xs) - gini_double_loop(xs)) < 1e-12

    # Subnormal inputs are left out: scaled by 0.5, [0.0, 5e-324] underflows
    # to [0.0, 0.0], whose Gini is 0 by convention.
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0, allow_subnormal=False), min_size=1,
                    max_size=6),
           st.floats(0.1, 100.0))
    def test_scale_invariant(self, xs, scale):
        if sum(xs) == 0.0:
            return
        assert gini([x * scale for x in xs]) == pytest.approx(gini(xs), abs=1e-9)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    def test_bounded(self, xs):
        g = gini(xs)
        assert 0.0 - 1e-12 <= g <= 1.0


class TestBas:
    def test_product(self):
        assert bias_amplification_score(-0.0326, 0.1607) == \
            pytest.approx(-0.00524, abs=1e-5)

    def test_none_gap(self):
        assert bias_amplification_score(None, 0.3) is None


class TestMonthlyRecord:
    def test_fields_consistent(self):
        outs = ([outcome("Black", 1.0)] * 3 + [outcome("Black", 0.0)] * 7 +
                [outcome("White", 1.0)] * 6 + [outcome("White", 0.0)] * 4 +
                [outcome("Neither", 1.0)] * 1 + [outcome("Neither", 0.0)] * 9)
        rec = monthly_record("Baltimore", 2019, 5, "detected",
                             rates_from(outs))
        assert rec.dir_value == pytest.approx(0.5)
        assert rec.dir_flag == DIR_OK
        assert rec.parity_gap == pytest.approx(-0.3)
        assert rec.gini == pytest.approx(gini_double_loop([0.3, 0.6, 0.1]), abs=1e-12)
        assert rec.bas == pytest.approx(rec.parity_gap * rec.gini)

    def test_no_outcomes_at_all(self):
        rec = monthly_record("B", 2019, 2, "detected", rates_from([]))
        assert rec.dir_value is None
        assert rec.dir_flag == DIR_UNDEFINED
        assert rec.gini == 0.0


def record_with_dir(dir_value, flag=DIR_OK, month=2):
    rates = rates_of(black=(1, 2), white=(1, 2))
    return type(monthly_record("B", 2019, month, "detected", rates))(
        city="B", year=2019, month=month, mode="detected", rates=rates,
        dir_value=dir_value, dir_flag=flag, parity_gap=0.1, gini=0.2, bas=0.02)


class TestAnnualSummary:
    def test_mean_max_count(self):
        recs = [record_with_dir(v, month=m)
                for m, v in zip((2, 3, 4), (0.5, 1.5, 2.0))]
        s = annual_summary(recs)
        assert s.avg_dir == pytest.approx(4.0 / 3.0)
        assert s.max_dir == pytest.approx(2.0)
        assert s.months_dir_above_1 == 2
        assert s.months_counted == 3

    def test_flagged_months_excluded(self):
        recs = [record_with_dir(0.8, month=2),
                record_with_dir(None, flag=DIR_INFINITE, month=3),
                record_with_dir(None, flag=DIR_UNDEFINED, month=4)]
        s = annual_summary(recs)
        assert s.avg_dir == pytest.approx(0.8)
        assert s.months_counted == 1
        assert s.months_dir_above_1 == 0

    def test_above_count_bounded_by_counted(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            recs = []
            for m in range(2, 13):
                if rng.uniform() < 0.3:
                    recs.append(record_with_dir(None, flag=DIR_INFINITE, month=m))
                else:
                    recs.append(record_with_dir(float(rng.uniform(0, 3)), month=m))
            s = annual_summary(recs)
            assert s.months_dir_above_1 <= s.months_counted <= 11

    def test_mixed_cells_fatal(self):
        a = record_with_dir(1.0, month=2)
        b = record_with_dir(1.0, month=3)
        b.city = "Other"
        with pytest.raises(ValueError):
            annual_summary([a, b])

    def test_all_flagged(self):
        recs = [record_with_dir(None, flag=DIR_UNDEFINED, month=m)
                for m in (2, 3)]
        s = annual_summary(recs)
        assert s.avg_dir is None and s.max_dir is None
        assert s.months_counted == 0


def written(tmp_path, header, rows):
    """`rows` as the CLI's CSV writer writes them, read back by the csv
    module: the header and the list of row dicts."""
    cli._write_csv(str(tmp_path), "t.csv", header, rows)
    with open(tmp_path / "t.csv", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames, list(reader)


class TestCsvRows:
    def test_monthly_row_field_count(self, tmp_path):
        rec = monthly_record("B", 2019, 2, "detected",
                             rates_of(black=(1, 2), white=(1, 4)))
        assert len(monthly_csv_row(rec)) == len(MONTHLY_CSV_HEADER)
        header, rows = written(tmp_path, MONTHLY_CSV_HEADER,
                               [monthly_csv_row(rec)])
        assert header == list(MONTHLY_CSV_HEADER)
        assert None not in rows[0] and None not in rows[0].values()

    def test_none_serialized_empty(self, tmp_path):
        rec = monthly_record("B", 2019, 2, "detected", rates_from([]))
        _, rows = written(tmp_path, MONTHLY_CSV_HEADER, [monthly_csv_row(rec)])
        assert rows[0]["dir"] == ""
        assert rows[0]["dir_flag"] == DIR_UNDEFINED

    def test_annual_row_field_count(self, tmp_path):
        s = annual_summary([record_with_dir(1.2)])
        assert len(annual_csv_row(s)) == len(ANNUAL_CSV_HEADER)
        header, rows = written(tmp_path, ANNUAL_CSV_HEADER, [annual_csv_row(s)])
        assert header == list(ANNUAL_CSV_HEADER)
        assert None not in rows[0] and None not in rows[0].values()
        assert float(rows[0]["avg_dir"]) == 1.2

    def test_round_trip_precision(self, tmp_path):
        rec = monthly_record("B", 2019, 2, "detected",
                             rates_of(black=(1, 3), white=(1, 7)))
        _, rows = written(tmp_path, MONTHLY_CSV_HEADER, [monthly_csv_row(rec)])
        assert float(rows[0]["dir"]) == rec.dir_value
        assert float(rows[0]["gini"]) == rec.gini
