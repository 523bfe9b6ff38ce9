"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Formula oracles, invariants, and directional reproductions only; headline
study numbers depend on the original city datasets and are out of scope.
"""

import contextlib
import json
import sys
import time

import numpy as np
import pytest

from patrolsim.cli import main
from patrolsim.gan import (TrainConfig, denormalize_coords, normalize_coords,
                           sample_patrol, train_gan)
from patrolsim.geodata import BoundingBox, count_within
from patrolsim.metrics import (DIR_OK, GroupRates, bias_amplification_score,
                               disparate_impact_ratio, gini, parity_gap)
from patrolsim.neuralnet import (BatchNorm, Dense, Dropout, LeakyReLU,
                                 Sigmoid, Tanh, bce_grad, bce_loss)
from patrolsim.simulate import SimConfig, noisy_or
from patrolsim.stats import ols_fit, pearson, spearman, student_t_cdf
from patrolsim.synthetic import SYNTH_BBOX
from test_geodata import LatLon, bbox_center, distance_feet

BBOX = SYNTH_BBOX
CENTER = np.array([[bbox_center(BBOX).lat, bbox_center(BBOX).lon]])


def uniform_points(rng, n):
    """n (lat, lon) rows drawn uniformly in BBOX, latitude first per row."""
    return np.array([(rng.uniform(BBOX.lat_min, BBOX.lat_max),
                      rng.uniform(BBOX.lon_min, BBOX.lon_max))
                     for _ in range(n)])


def to_points(uv):
    return np.column_stack(denormalize_coords(uv[:, 0], uv[:, 1], BBOX))


@contextlib.contextmanager
def criterion(number, description):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}", file=sys.__stdout__)
        raise
    elapsed = time.time() - start
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.1f}s)",
          file=sys.__stdout__)


# --- 1: metric oracles ------------------------------------------------------

def dir_oracle(rb, rw):
    if rw == 0.0:
        return None
    return rb / rw


def gini_oracle(xs):
    total = sum(xs)
    if total == 0.0:
        return 0.0
    acc = 0.0
    for a in xs:
        for b in xs:
            acc += abs(a - b)
    return acc / (2 * len(xs) * total)


def test_criterion_1_metric_oracles():
    with criterion(1, "metric formulas match brute-force oracles"):
        rng = np.random.default_rng(100)
        for _ in range(1000):
            rb, rw, rn = rng.uniform(0.0, 1.0, 3)
            rates = GroupRates({"Black": rb * 10, "White": rw * 10,
                                "Neither": rn * 10},
                               {"Black": 10, "White": 10, "Neither": 10})
            value, flag = disparate_impact_ratio(rates)
            expect = dir_oracle(rb, rw)
            if expect is not None:
                assert flag == DIR_OK
                assert abs(value - expect) < 1e-12
            gap = parity_gap(rates)
            assert abs(gap - (rb - rw)) < 1e-12
            g = gini([rb, rw, rn])
            assert abs(g - gini_oracle([rb, rw, rn])) < 1e-12
            assert abs(bias_amplification_score(gap, g) - gap * g) < 1e-12

        low = GroupRates({"Black": 0.0344 * 1e4, "White": 0.0670 * 1e4,
                          "Neither": 0.0}, {"Black": 10_000, "White": 10_000,
                                            "Neither": 0})
        value, flag = disparate_impact_ratio(low)
        assert flag == DIR_OK
        assert abs(value - 0.513) < 0.001
        assert abs(parity_gap(low) - (-0.033)) < 5e-4


# --- 2: Noisy-OR ------------------------------------------------------------

def test_criterion_2_noisy_or():
    with criterion(2, "Noisy-OR closed form equals product loop"):
        for p in (0.1, 0.5, 0.85, 1.0):
            for k in range(21):
                product = 1.0
                for _ in range(k):
                    product *= (1.0 - p)
                closed = 1.0 - (1.0 - p) ** k
                assert abs(closed - (1.0 - product)) < 1e-12
        cfg = SimConfig(radius_ft=700.0, p_officer=0.85)
        assert count_within(CENTER, CENTER, 700.0).tolist() == [1]
        [prob] = noisy_or(CENTER, CENTER, cfg)
        assert prob == pytest.approx(0.85, abs=1e-12)


# --- 3: spatial index -------------------------------------------------------

def test_criterion_3_spatial_index():
    with criterion(3, "count_within equals brute force on 1000 pts x 100 probes"):
        rng = np.random.default_rng(101)
        points = uniform_points(rng, 1000)
        probes = uniform_points(rng, 100)
        for radius in (400.0, 700.0, 1500.0):
            brute = [{i for i, p in enumerate(points.tolist())
                      if distance_feet(LatLon(*probe), LatLon(*p)) <= radius}
                     for probe in probes.tolist()]
            for probe, ids in zip(probes, brute):
                hits = count_within(points, probe[None, :], radius)
                assert {i for i, k in enumerate(hits) if k} == ids
            counts = count_within(probes, points, radius)
            assert counts.tolist() == [len(ids) for ids in brute]


# --- 4: gradient checks -----------------------------------------------------

FD_H = 1e-5


def fd_input_grad(forward, x):
    grad = np.zeros_like(x)
    for idx in np.ndindex(*x.shape):
        xp, xm = x.copy(), x.copy()
        xp[idx] += FD_H
        xm[idx] -= FD_H
        grad[idx] = (forward(xp) - forward(xm)) / (2 * FD_H)
    return grad


def max_rel_error(a, b):
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    return float(np.max(np.abs(a - b) / scale))


def test_criterion_4_gradient_checks():
    with criterion(4, "all layers pass finite-difference checks (50 instances)"):
        rng = np.random.default_rng(102)
        for _ in range(50):
            # Dense: input gradient.
            dense = Dense(4, 3, rng)
            x = rng.standard_normal((5, 4))
            out = dense.forward(x, True)
            grad = dense.backward(np.ones_like(out))
            fd = fd_input_grad(lambda xp: dense.forward(xp, True).sum(), x)
            assert max_rel_error(grad, fd) < 1e-4

            # Activations and dropout at inference (identity path).
            for layer in (LeakyReLU(0.2), Tanh(), Sigmoid(), Dropout(0.3)):
                x = rng.standard_normal((4, 3)) * 2
                x[np.abs(x) < 1e-3] = 0.5  # keep clear of the ReLU kink
                out = layer.forward(x, False)
                grad = layer.backward(np.ones_like(out))
                fd = fd_input_grad(lambda xp: layer.forward(xp, False).sum(), x)
                assert max_rel_error(grad, fd) < 1e-4

            # BatchNorm with a general downstream gradient.
            bn = BatchNorm(3)
            bn.gamma[...] = rng.uniform(0.5, 1.5, 3)
            bn.beta[...] = rng.standard_normal(3)
            x = rng.standard_normal((6, 3))
            g = rng.standard_normal((6, 3))
            bn.forward(x, True)
            grad = bn.backward(g)

            def bn_loss(xp):
                fresh = BatchNorm(3)
                fresh.gamma[...] = bn.gamma
                fresh.beta[...] = bn.beta
                return float((fresh.forward(xp, True) * g).sum())

            assert max_rel_error(grad, fd_input_grad(bn_loss, x)) < 1e-4

            # BCE head.
            p = rng.uniform(0.05, 0.95, (5, 1))
            t = rng.integers(0, 2, (5, 1)).astype(float)
            grad = bce_grad(p, t)
            fd = fd_input_grad(lambda pp: bce_loss(pp, t), p)
            assert max_rel_error(grad, fd) < 1e-4


# --- 5: GAN sanity ----------------------------------------------------------

def test_criterion_5_gan_sanity():
    with criterion(5, "GAN mean within 0.1 of single-Gaussian fixture; "
                      "60 patrols in bbox"):
        rng = np.random.default_rng(103)
        uv = np.clip(rng.normal((0.2, -0.1), 0.05, size=(500, 2)), -0.99, 0.99)
        model, _ = train_gan(to_points(uv), TrainConfig(epochs=200), BBOX,
                             104)
        samples = model.generate_normalized(2000, np.random.default_rng(105))
        data_mean = uv.mean(axis=0)
        gen_mean = samples.mean(axis=0)
        assert np.all(np.abs(gen_mean - data_mean) < 0.1)
        patrols = sample_patrol(model, 60, np.random.default_rng(106))
        assert patrols.shape == (60, 2)
        assert all(BBOX.contains(LatLon(*p)) for p in patrols.tolist())


# --- 6: conditional GAN -----------------------------------------------------

def test_criterion_6_conditional_gan():
    with criterion(6, "conditional sample means separate by sign on the "
                      "first coordinate"):
        rng = np.random.default_rng(107)
        uv, groups = [], []
        for center, group, count in (((-0.5, 0.0), 0, 200),   # Black
                                     ((0.5, 0.0), 1, 200),    # White
                                     ((0.0, 0.5), 2, 100)):   # Neither
            uv.append(np.clip(rng.normal(center, 0.06, size=(count, 2)),
                              -0.99, 0.99))
            groups += [group] * count
        model, _ = train_gan(to_points(np.vstack(uv)),
                             TrainConfig(epochs=200), BBOX, 108,
                             np.array(groups))
        means = {}
        for group, label in enumerate(("Black", "White")):
            pts = sample_patrol(model, 500, np.random.default_rng(109),
                                group)
            us, _ = normalize_coords(pts[:, 0], pts[:, 1], BBOX)
            means[label] = float(np.mean(us))
        assert means["Black"] < 0.0 < means["White"]


# --- 7: debias direction ----------------------------------------------------

def test_criterion_7_debias_direction(tmp_path):
    with criterion(7, "debiased DIR strictly exceeds biased DIR"):
        out = tmp_path / "out"
        config = {
            "seed": 7,
            "output_dir": str(out),
            "cells": [],
            # Wide radius and a large officer sample keep evaluation noise
            # well below the rebalancing effect; expected-value detection
            # removes the Bernoulli draw entirely.
            "sim": {"expected_value": True, "radius_ft": 3000.0,
                    "n_officers": 200},
            "train": {"epochs": 200},
            "data": {"synthetic": {"incidents_per_month": 60,
                                   "weight_a": 0.10, "sigma": 0.05,
                                   "seed": 7}},
            "debias": {"city": "Synth", "year": 2020,
                       "replace_fraction": 0.30},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["debias", "--config", str(path)]) == 0
        rows = {}
        with open(out / "debias.csv", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            for line in fh:
                fields = dict(zip(header, line.strip().split(",")))
                rows[fields["condition"]] = fields
        biased_flag = rows["biased"]["dir_flag"]
        debiased_flag = rows["debiased"]["dir_flag"]
        assert biased_flag == DIR_OK
        if debiased_flag == "infinite_positive_over_zero":
            return  # infinite exceeds any finite biased DIR
        assert debiased_flag == DIR_OK
        assert float(rows["debiased"]["dir"]) > float(rows["biased"]["dir"])


# --- 8: monotonicity sweeps -------------------------------------------------

def test_criterion_8_monotonicity():
    with criterion(8, "expected detections non-decreasing in radius and "
                      "officer count"):
        rng = np.random.default_rng(110)
        crimes = uniform_points(rng, 200)
        patrols = uniform_points(rng, 120)

        def total(patrol_subset, radius):
            cfg = SimConfig(radius_ft=radius, p_officer=0.85)
            return sum(noisy_or(crimes, patrol_subset, cfg).tolist())

        radius_totals = [total(patrols[:60], r)
                         for r in (400.0, 700.0, 1000.0, 1500.0)]
        assert all(a <= b for a, b in zip(radius_totals, radius_totals[1:]))

        officer_totals = [total(patrols[:n], 700.0) for n in (30, 60, 90, 120)]
        assert all(a <= b for a, b in zip(officer_totals, officer_totals[1:]))


# --- 9: statistics ----------------------------------------------------------

def test_criterion_9_statistics():
    with criterion(9, "OLS recovery, residual orthogonality, correlation "
                      "identities, Cauchy CDF"):
        rng = np.random.default_rng(111)
        n = 300
        beta_true = np.array([0.07, -0.10, 0.0, 0.09])
        x = np.column_stack([np.ones(n), rng.standard_normal((n, 3))])
        y = x @ beta_true + rng.normal(0, 0.05, n)
        fit = ols_fit(x, y)
        for b, se, truth in zip(fit.coefficients, fit.std_errors, beta_true):
            assert abs(b - truth) < 3 * se
        resid = y - x @ fit.coefficients
        assert np.max(np.abs(x.T @ resid)) < 1e-8

        z = rng.standard_normal(40)
        r, _ = pearson(z, z)
        assert abs(r - 1.0) < 1e-12
        w = rng.standard_normal(40)
        rho1, _ = spearman(z, w)
        rho2, _ = spearman(np.exp(z), w ** 3 + w)
        assert abs(rho1 - rho2) < 1e-12

        assert abs(student_t_cdf(1.0, 1) - 0.75) < 1e-10


# --- 10: end-to-end determinism ---------------------------------------------

def run_all(tmp_path, out_name, epochs=8):
    out = tmp_path / out_name
    config = {
        "seed": 5,
        "replicates": 1,
        "output_dir": str(out),
        "cells": [{"city": "Synth", "year": 2020, "mode": "detected"},
                  {"city": "Synth", "year": 2020, "mode": "reported"}],
        "sim": {},
        "train": {"epochs": epochs},
        "data": {"synthetic": {"incidents_per_month": 25, "seed": 5}},
        "debias": {"city": "Synth", "year": 2020},
    }
    path = tmp_path / f"{out_name}.json"
    path.write_text(json.dumps(config))
    assert main(["all", "--config", str(path)]) == 0
    return out


def test_criterion_10_end_to_end_determinism(tmp_path):
    with criterion(10, "repeated `all` runs are byte-identical"):
        out1 = run_all(tmp_path, "run1")
        out2 = run_all(tmp_path, "run2")
        for name in ("monthly.csv", "annual.csv", "debias.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# --- 11: grid cardinality ---------------------------------------------------

def grid_rows(tmp_path, replicates, out_name):
    out = tmp_path / out_name
    cells = [{"city": city, "year": year, "mode": mode}
             for city in ("SynthA", "SynthB")
             for year in (2019, 2020)
             for mode in ("detected", "reported")]
    config = {
        "seed": 3,
        "replicates": replicates,
        "output_dir": str(out),
        "cells": cells,
        "sim": {"expected_value": True},
        "train": {"epochs": 2},
        "data": {"synthetic": {"incidents_per_month": 20, "seed": 3}},
    }
    path = tmp_path / f"{out_name}.json"
    path.write_text(json.dumps(config))
    assert main(["grid", "--config", str(path)]) == 0
    with open(out / "monthly.csv", encoding="utf-8") as fh:
        return len(fh.read().strip().split("\n")) - 1


def test_criterion_11_grid_cardinality(tmp_path):
    with criterion(11, "8-cell grid emits 88 monthly rows (264 with 3 "
                       "replicates)"):
        assert grid_rows(tmp_path, 1, "r1") == 88
        assert grid_rows(tmp_path, 3, "r3") == 264
