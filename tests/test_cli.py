import csv
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import patrolsim
from patrolsim import cli, ingest, metrics, simulate
from patrolsim.cli import (ConfigError, build_plan, load_config, main,
                           run_grid, run_sensitivity)
from patrolsim.geodata import LatLon

SYNTH_CONFIG = {
    "seed": 7,
    "replicates": 1,
    "cells": [{"city": "Synth", "year": 2020, "mode": "detected"}],
    "sim": {"expected_value": True},
    "train": {"epochs": 3},
    "data": {"synthetic": {"incidents_per_month": 25, "seed": 7}},
}


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def count_loads(monkeypatch):
    """Record each (city, year) that cli.load_city_year is asked for."""
    calls = []
    real = cli.load_city_year

    def counting(plan, city, year, *files):
        calls.append((city, year))
        return real(plan, city, year, *files)
    monkeypatch.setattr(cli, "load_city_year", counting)
    return calls


def write_city(tmp_path, crimes):
    """Files of a one-neighborhood city and their `data.cities` binding;
    `crimes` are (id, date) rows placed inside the neighborhood."""
    ring = [[-76.65, 39.28], [-76.65, 39.33], [-76.60, 39.33],
            [-76.60, 39.28], [-76.65, 39.28]]
    (tmp_path / "bounds.geojson").write_text(json.dumps(
        {"type": "FeatureCollection", "features": [
            {"type": "Feature", "properties": {"id": "Good"},
             "geometry": {"type": "Polygon", "coordinates": [ring]}}]}))
    (tmp_path / "demo.csv").write_text(
        "id,pct_black,pct_white,median_income,poverty_rate\n"
        "Good,0.5,0.4,40000,0.2\n")
    (tmp_path / "crime.csv").write_text("id,lat,lon,date,type\n" + "".join(
        f"{ident},39.30,-76.62,{date},THEFT\n" for ident, date in crimes))
    return {"boundaries": "bounds.geojson", "demographics": "demo.csv",
            "crime_csv": "crime.csv"}


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def city_config(tmp_path, binding, years):
    return dict(SYNTH_CONFIG, output_dir=str(tmp_path / "out"),
                data_dir=str(tmp_path), data={"cities": {"Gen": binding}},
                cells=[{"city": "Gen", "year": y, "mode": "reported"}
                       for y in years])


def synth_config(tmp_path, out_dir, **overrides):
    config = json.loads(json.dumps(SYNTH_CONFIG))
    config["output_dir"] = str(out_dir)
    config.update(overrides)
    return write_config(tmp_path, config)


class TestConfig:
    def test_missing_file_exit_code(self, tmp_path):
        assert main(["grid", "--config", str(tmp_path / "nope.json")]) == 1

    def test_invalid_json_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["grid", "--config", str(path)]) == 1

    def test_bad_cell_mode(self, tmp_path):
        config = dict(SYNTH_CONFIG,
                      cells=[{"city": "S", "year": 2020, "mode": "psychic"}])
        assert main(["grid", "--config", write_config(tmp_path, config)]) == 1

    def test_bad_replicates(self):
        with pytest.raises(ConfigError):
            build_plan(dict(SYNTH_CONFIG, replicates=0))

    def test_non_numeric_seed_exit_code(self, tmp_path):
        config = dict(SYNTH_CONFIG, seed="abc")
        assert main(["grid", "--config", write_config(tmp_path, config)]) == 1

    @pytest.mark.parametrize("key,value", [
        ("replicates", 2.5), ("replicates", "2"), ("replicates", True),
        ("seed", 7.5), ("seed", True),
    ])
    def test_strict_top_level_ints(self, tmp_path, key, value):
        config = dict(SYNTH_CONFIG, output_dir=str(tmp_path / "out"))
        config[key] = value
        with pytest.raises(ConfigError):
            build_plan(config)
        assert main(["grid", "--config", write_config(tmp_path, config)]) == 1
        assert not (tmp_path / "out").exists()

    def test_seed_flag_overrides(self, tmp_path):
        path = write_config(tmp_path, SYNTH_CONFIG)
        plan = build_plan(load_config(path, {"seed": 42, "output_dir": None}))
        assert plan.seed == 42
        assert plan.out_dir == "out"

    @pytest.mark.parametrize("block,key,value", [
        ("sim", "radius", 300.0),             # typo of radius_ft
        ("sim", "expected_value", "false"),   # bool("false") is True
        ("sim", "n_officers", 2.5),
        ("sim", "radius_ft", "700"),
        ("train", "epochs", 2.5),
        ("train", "batch_size", 2.5),
        ("train", "batch_size", 1),           # batch norm needs 2 rows
        ("train", "batch_size", 0),
        ("train", "lr", -1.0),
        ("data.synthetic", "sedd", 3),        # typo of seed
        ("data.synthetic", "incidents_per_month", 25.7),
        ("data.synthetic", "pct_black_a", 0.99),  # pct_white would be < 0
        ("cells.0", "year", 2020.5),
        ("cells.0", "year", "2020"),
        ("", "plot_y_max", "50"),
        ("", "sensitivity", {"parameter": "radius_ft", "values": [300],
                             "base_cell": {"city": "Synth", "year": 2020,
                                           "mode": "detected"},
                             "step": 100}),   # unknown key
        ("", "data_dir", 5),
        ("", "replicate", 3),                 # typo of replicates
        ("data", "synthetc", {}),             # typo of synthetic
    ])
    def test_strict_blocks(self, tmp_path, block, key, value):
        # `block` is the dotted path of the object that holds `key`. Every
        # block is checked, even one the command does not use (sensitivity
        # under grid), before any data loads.
        config = json.loads(json.dumps(SYNTH_CONFIG))
        target = config
        for part in filter(None, block.split(".")):
            target = target[int(part) if part.isdigit() else part]
        target[key] = value
        config["output_dir"] = str(tmp_path / "out")
        with pytest.raises(ConfigError):
            build_plan(config)
        assert main(["grid", "--config", write_config(tmp_path, config)]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("block", [
        {"year": 2020},                                   # no city
        {"city": "Synth", "year": "2020x"},
        {"city": "Synth", "year": 2020, "replace_fraction": 1.5},
        {"city": "Synth", "year": 2020, "cty": 1},        # unknown key
    ])
    def test_strict_debias_block(self, tmp_path, block):
        config = dict(SYNTH_CONFIG, debias=block,
                      output_dir=str(tmp_path / "out"))
        with pytest.raises(ConfigError):
            build_plan(config)
        assert main(["debias", "--config", write_config(tmp_path, config)]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra", [
        {"bbox": "abc"},
        {"bbox": [39.37, 39.2, -76.71, -76.53]},   # latitudes inverted
        {"column_mapping": "nope"},                 # no such preset
    ])
    def test_bad_city_binding(self, tmp_path, extra):
        # Checked with the rest of the config: exit 1, nothing written.
        binding = write_city(tmp_path, [("1", "2019-03-15 14:30")])
        config = city_config(tmp_path, {**binding, **extra}, [2019])
        with pytest.raises(ConfigError):
            build_plan(config)
        assert main(["grid", "--config", write_config(tmp_path, config)]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_config_error(self, tmp_path, monkeypatch,
                                            jobs):
        calls = count_loads(monkeypatch)
        out = tmp_path / "out"
        assert main(["grid", "--config", synth_config(tmp_path, out),
                     "--jobs", jobs]) == 1
        assert calls == []
        assert not out.exists()

    def test_output_dir_must_be_a_string(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = dict(SYNTH_CONFIG, output_dir=5)
        with pytest.raises(ConfigError):
            build_plan(config)
        assert main(["grid", "--config", write_config(tmp_path, config)]) == 1
        assert not (tmp_path / "5").exists()

    def test_debias_block_defaults(self):
        plan = build_plan(dict(SYNTH_CONFIG,
                               debias={"city": "Synth", "year": 2020}))
        assert plan.debias == cli.DebiasSpec("Synth", 2020, 0.30)
        assert build_plan(SYNTH_CONFIG).debias is None

    def test_defaults_filled(self, tmp_path):
        plan = build_plan(load_config(write_config(tmp_path, {})))
        assert plan.replicates == 1
        assert plan.cells == []
        assert plan.out_dir == "out"


class TestGrid:
    def test_synthetic_grid_outputs(self, tmp_path):
        out = tmp_path / "out"
        path = synth_config(tmp_path, out)
        assert main(["grid", "--config", path]) == 0
        with open(out / "monthly.csv", encoding="utf-8") as fh:
            lines = fh.read().strip().split("\n")
        assert len(lines) == 1 + 11  # header + months 2..12
        with open(out / "annual.csv", encoding="utf-8") as fh:
            assert len(fh.read().strip().split("\n")) == 2

    def test_replicates_multiply_rows(self, tmp_path):
        out = tmp_path / "out"
        path = synth_config(tmp_path, out, replicates=3)
        assert main(["grid", "--config", path]) == 0
        with open(out / "monthly.csv", encoding="utf-8") as fh:
            lines = fh.read().strip().split("\n")
        assert len(lines) == 1 + 33

    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["grid", "--config", synth_config(tmp_path, out1)]) == 0
        assert main(["grid", "--config", synth_config(tmp_path, out2)]) == 0
        for name in ("monthly.csv", "annual.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_jobs_flag_same_output(self, tmp_path):
        out1, out2 = tmp_path / "serial", tmp_path / "par"
        assert main(["grid", "--config", synth_config(tmp_path, out1)]) == 0
        assert main(["grid", "--config", synth_config(tmp_path, out2),
                     "--jobs", "2"]) == 0
        assert (out1 / "monthly.csv").read_bytes() == \
            (out2 / "monthly.csv").read_bytes()

    def test_seed_changes_output(self, tmp_path):
        out1, out2 = tmp_path / "s7", tmp_path / "s8"
        cfg = json.loads(json.dumps(SYNTH_CONFIG))
        cfg["sim"] = {}  # stochastic detection draws
        cfg["output_dir"] = str(out1)
        p1 = write_config(tmp_path, cfg, "c1.json")
        cfg["output_dir"] = str(out2)
        p2 = write_config(tmp_path, cfg, "c2.json")
        assert main(["grid", "--config", p1]) == 0
        assert main(["grid", "--config", p2, "--seed", "8"]) == 0
        assert (out1 / "monthly.csv").read_bytes() != \
            (out2 / "monthly.csv").read_bytes()

    def test_manifest_fields(self, tmp_path):
        out = tmp_path / "out"
        assert main(["grid", "--config", synth_config(tmp_path, out)]) == 0
        with open(out / "manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["seed"] == 7
        assert manifest["cells"] == [["Synth", 2020, "detected"]]
        assert "Synth-2020" in manifest["data_checksums"]
        assert len(manifest["per_run_seeds"]) == 11

    def test_manifest_lists_only_runs_that_happened(self, tmp_path,
                                                   monkeypatch):
        config = json.loads(json.dumps(SYNTH_CONFIG))
        config["output_dir"] = str(tmp_path / "out")
        plan = build_plan(config)
        full = cli.load_city_year(plan, "Synth", 2020)
        no_may = replace(full, slices=[s for s in full.slices if s.month != 5])
        monkeypatch.setattr(cli, "load_city_year", lambda *args: no_may)
        assert run_grid(plan).failures == 0
        with open(tmp_path / "out" / "manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["skipped_month_runs"] == ["Synth/2020/5/detected"]
        assert manifest["failed_month_runs"] == {}
        assert sorted(manifest["per_run_seeds"]) == sorted(
            f"Synth/2020/{m}/detected/r0" for m in range(2, 13) if m != 5)

    def test_failed_month_keeps_other_runs(self, tmp_path, monkeypatch):
        real = simulate.run_month_detected

        def diverge_in_may(slice_, *args, **kwargs):
            if slice_.month == 5:
                raise FloatingPointError("overflow in GAN loss")
            return real(slice_, *args, **kwargs)
        monkeypatch.setattr(simulate, "run_month_detected", diverge_in_may)
        out = tmp_path / "out"
        assert main(["grid", "--config", synth_config(tmp_path, out)]) == 3
        with open(out / "monthly.csv", encoding="utf-8") as fh:
            rows = fh.read().strip().split("\n")[1:]
        assert [int(r.split(",")[2]) for r in rows] == [2, 3, 4] + list(range(6, 13))
        with open(out / "manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["failed_month_runs"] == {
            "Synth/2020/5/detected/r0": "FloatingPointError: overflow in GAN loss"}
        assert (out / "annual.csv").exists()

    def test_one_incident_month_fails(self, tmp_path):
        # One incident cannot fill a batch-norm batch, so the GAN would
        # place patrols from its random initial weights.
        out = tmp_path / "out"
        path = synth_config(tmp_path, out, data={
            "synthetic": {"incidents_per_month": 1, "seed": 7}})
        assert main(["grid", "--config", path]) == 3
        with open(out / "manifest.json", encoding="utf-8") as fh:
            failed = json.load(fh)["failed_month_runs"]
        assert sorted(failed) == sorted(f"Synth/2020/{m}/detected/r0"
                                        for m in range(2, 13))
        assert all(v.startswith("ValueError: cannot train GAN on 1 point")
                   for v in failed.values())

    def test_city_year_loads_once(self, tmp_path, monkeypatch):
        calls = count_loads(monkeypatch)
        out = tmp_path / "out"
        path = synth_config(tmp_path, out, cells=[
            {"city": "Synth", "year": 2020, "mode": "detected"},
            {"city": "Synth", "year": 2020, "mode": "reported"}])
        assert main(["grid", "--config", path]) == 0
        assert calls == [("Synth", 2020)]
        with open(out / "monthly.csv", encoding="utf-8") as fh:
            assert len(fh.read().strip().split("\n")) == 1 + 22

    def test_manifest_seed_is_the_run_seed(self, tmp_path, monkeypatch):
        # A detected month-run trains its GAN on the month-run's seed.
        runs, seeds = [], []
        real_run, real_train = simulate.run_month_detected, simulate.train_gan

        def run(slice_, nbs, train_cfg, sim_cfg, bbox, replicate=0):
            runs.append(f"Synth/2020/{slice_.month}/detected/r{replicate}")
            return real_run(slice_, nbs, train_cfg, sim_cfg, bbox, replicate)

        def train(points, cfg, bbox):
            seeds.append(cfg.seed)
            return real_train(points, cfg, bbox)
        monkeypatch.setattr(simulate, "run_month_detected", run)
        monkeypatch.setattr(simulate, "train_gan", train)
        out = tmp_path / "out"
        assert main(["grid", "--config",
                     synth_config(tmp_path, out, replicates=2)]) == 0
        with open(out / "manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert len(set(runs)) == 22
        assert manifest["per_run_seeds"] == dict(zip(runs, seeds))

    def test_city_files_read_once(self, tmp_path, monkeypatch):
        # One crime CSV holds both years; each year keeps only its own rows.
        reads = Counter()
        for name in ("parse_crime_csv", "load_neighborhoods"):
            def counting(*args, _real=getattr(ingest, name), _name=name):
                reads[_name] += 1
                return _real(*args)
            monkeypatch.setattr(ingest, name, counting)
        binding = write_city(tmp_path, [
            ("1", "2019-03-15 14:30"), ("2", "2019-04-02 09:00"),
            ("3", "2019-04-20 22:10"), ("4", "2020-05-01 08:00"),
            ("5", "2020-06-11 17:45")])
        plan = build_plan(city_config(tmp_path, binding, [2019, 2020]))
        runs = run_grid(plan)
        assert runs.failures == 0
        assert reads == {"parse_crime_csv": 1, "load_neighborhoods": 1}
        assert {key: sum(len(s.incidents) for s in data.slices)
                for key, data in runs.loaded.items()} == {("Gen", 2019): 3,
                                                          ("Gen", 2020): 2}

    def test_empty_plan_succeeds(self, tmp_path):
        config = dict(SYNTH_CONFIG, cells=[])
        config["output_dir"] = str(tmp_path / "out")
        assert main(["grid", "--config", write_config(tmp_path, config)]) == 0

    def test_missing_data_binding_exit_code(self, tmp_path):
        config = dict(SYNTH_CONFIG, data={"cities": {}})
        config["output_dir"] = str(tmp_path / "out")
        path = write_config(tmp_path, config)
        # Per-cell load failures are tolerated within the grid; the
        # run exits 3 so callers can tell a degraded grid from success.
        assert main(["grid", "--config", path]) == 3

    @pytest.mark.parametrize("ring", [
        # Two distinct vertices once the ring is closed.
        [[-76.60, 39.30], [-76.58, 39.31], [-76.60, 39.30], [-76.60, 39.30]],
        # Zero height: every vertex on one latitude.
        [[-76.60, 39.30], [-76.58, 39.30], [-76.59, 39.30], [-76.60, 39.30]],
    ])
    def test_bad_boundary_ring_is_data_error(self, tmp_path, caplog, ring):
        good = [[-76.65, 39.28], [-76.65, 39.33], [-76.60, 39.33],
                [-76.60, 39.28], [-76.65, 39.28]]
        features = [{"type": "Feature", "properties": {"id": fid},
                     "geometry": {"type": "Polygon", "coordinates": [coords]}}
                    for fid, coords in (("Good", good), ("Flat", ring))]
        (tmp_path / "bounds.geojson").write_text(json.dumps(
            {"type": "FeatureCollection", "features": features}))
        (tmp_path / "demo.csv").write_text(
            "id,pct_black,pct_white,median_income,poverty_rate\n"
            "Good,0.5,0.4,40000,0.2\nFlat,0.5,0.4,40000,0.2\n")
        (tmp_path / "crime.csv").write_text(
            "id,lat,lon,date,type\n1,39.30,-76.62,2019-03-15 14:30,THEFT\n")
        binding = {"boundaries": "bounds.geojson", "demographics": "demo.csv",
                   "crime_csv": "crime.csv"}
        config = dict(SYNTH_CONFIG, output_dir=str(tmp_path / "out"),
                      data_dir=str(tmp_path),
                      data={"cities": {"Gen": binding}},
                      cells=[{"city": "Gen", "year": 2019, "mode": "reported"}])
        path = write_config(tmp_path, config)
        assert main(["ingest", "--config", path]) == 2
        assert "'Flat'" in caplog.text and "Traceback" not in caplog.text
        caplog.clear()
        # In a grid, a cell that fails to load is a run failure, logged
        # with its cause while the other cells still run.
        assert main(["grid", "--config", path]) == 3
        assert "Gen 2019 failed to load" in caplog.text
        assert "'Flat'" in caplog.text and "Traceback" not in caplog.text

    def test_reported_mode_runs(self, tmp_path):
        out = tmp_path / "out"
        config = json.loads(json.dumps(SYNTH_CONFIG))
        config["cells"] = [{"city": "Synth", "year": 2020, "mode": "reported"}]
        config["output_dir"] = str(out)
        assert main(["grid", "--config", write_config(tmp_path, config)]) == 0
        with open(out / "monthly.csv", encoding="utf-8") as fh:
            lines = fh.read().strip().split("\n")
        assert len(lines) == 12
        assert all(",reported," in line for line in lines[1:])

    def test_annual_row_pools_replicates(self, tmp_path):
        config = json.loads(json.dumps(SYNTH_CONFIG))
        config.update(output_dir=str(tmp_path / "out"), replicates=2,
                      cells=[{"city": "Synth", "year": 2020,
                              "mode": "reported"}])
        runs = run_grid(build_plan(config))
        assert {r.replicate for r in runs.records[0]} == {0, 1}
        rows = read_rows(tmp_path / "out" / "annual.csv")
        pooled = metrics.annual_summary(runs.records[0])
        assert rows == [{k: cli._field(v) for k, v in zip(
            metrics.ANNUAL_CSV_HEADER, metrics.annual_csv_row(pooled))}]
        assert int(rows[0]["months_counted"]) == sum(
            r.dir_flag == metrics.DIR_OK for r in runs.records[0])

    @pytest.mark.parametrize("demographics", [
        "id,pct_black,pct_white,median_income,poverty_rate\n"
        "Good,0.5,0.4,n/a,0.2\n",
        "id,pct_black,pct_white,median_income\nGood,0.5,0.4,40000\n",
    ], ids=["non-numeric", "missing-column"])
    def test_malformed_demographics_is_data_error(self, tmp_path, caplog,
                                                  demographics):
        crimes = [(str(i), f"2019-{m:02d}-15 12:00")
                  for m in (3, 4) for i in range(5)]
        bindings = {}
        for city in ("Fine", "Bad"):
            (tmp_path / city).mkdir()
            binding = write_city(tmp_path / city, crimes)
            bindings[city] = {k: f"{city}/{v}" for k, v in binding.items()}
        (tmp_path / "Bad" / "demo.csv").write_text(demographics)
        config = dict(SYNTH_CONFIG, output_dir=str(tmp_path / "out"),
                      data_dir=str(tmp_path), data={"cities": bindings},
                      cells=[{"city": c, "year": 2019, "mode": "reported"}
                             for c in ("Bad", "Fine")],
                      debias={"city": "Bad", "year": 2019})
        path = write_config(tmp_path, config)
        assert main(["ingest", "--config", path]) == 2
        assert main(["debias", "--config", path]) == 2
        # The bad file's row, named by its id.
        assert "'Good'" in caplog.text and "Traceback" not in caplog.text
        caplog.clear()
        # In a grid the cell fails to load and the other cell still runs.
        assert main(["grid", "--config", path]) == 3
        assert "Bad 2019 failed to load" in caplog.text
        assert "Traceback" not in caplog.text
        assert {(r["city"], r["month"]) for r in read_rows(
            tmp_path / "out" / "monthly.csv")} == {("Fine", "3"), ("Fine", "4")}

    def test_city_with_a_comma(self, tmp_path):
        out = tmp_path / "out"
        path = synth_config(tmp_path, out, cells=[
            {"city": "Springfield, IL", "year": 2020, "mode": "reported"}])
        assert main(["all", "--config", path]) == 0
        for name in ("monthly.csv", "observations.csv"):
            rows = read_rows(out / name)
            assert rows and {r["city"] for r in rows} == {"Springfield, IL"}
            assert all(None not in r for r in rows)
        assert len(list((out / "plots").glob("*.svg"))) == 5


class TestSensitivity:
    def base_config(self, tmp_path, out, values):
        config = json.loads(json.dumps(SYNTH_CONFIG))
        config["output_dir"] = str(out)
        config["sensitivity"] = {
            "parameter": "radius_ft",
            "values": values,
            "base_cell": {"city": "Synth", "year": 2020, "mode": "detected"},
        }
        return write_config(tmp_path, config)

    def test_sweep_rows_and_monotone_totals(self, tmp_path):
        out = tmp_path / "out"
        path = self.base_config(tmp_path, out, [300, 700, 1500])
        assert main(["sensitivity", "--config", path]) == 0
        with open(out / "sensitivity.csv", encoding="utf-8") as fh:
            lines = fh.read().strip().split("\n")
        assert len(lines) == 4
        totals = [float(line.split(",")[6]) for line in lines[1:]]
        assert totals == sorted(totals)  # larger radius detects more

    def test_sweep_loads_once_and_writes_no_subgrids(self, tmp_path,
                                                     monkeypatch):
        calls = count_loads(monkeypatch)
        out = tmp_path / "out"
        path = self.base_config(tmp_path, out, [300, 700, 1500])
        assert main(["sensitivity", "--config", path]) == 0
        assert calls == [("Synth", 2020)]
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json",
                                                         "sensitivity.csv"]

    def test_manifest_names_failed_runs_per_value(self, tmp_path):
        # One incident a month cannot train the GAN of a detected cell.
        out = tmp_path / "out"
        config = json.loads(json.dumps(SYNTH_CONFIG))
        config["data"]["synthetic"]["incidents_per_month"] = 1
        config["output_dir"] = str(out)
        config["sensitivity"] = {
            "parameter": "radius_ft", "values": [300, 700.0],
            "base_cell": {"city": "Synth", "year": 2020, "mode": "detected"}}
        path = write_config(tmp_path, config)
        assert main(["sensitivity", "--config", path]) == 3
        with open(out / "manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["cells"] == [["Synth", 2020, "detected"]]
        assert sorted(manifest["failed_month_runs"]) == sorted(
            f"radius_ft={value}/Synth/2020/{m}/detected/r0"
            for value in ("300", "700.0") for m in range(2, 13))
        assert all(v.startswith("ValueError: cannot train GAN on 1 point")
                   for v in manifest["failed_month_runs"].values())
        assert sorted(manifest["per_run_seeds"]) == sorted(
            f"Synth/2020/{m}/detected/r0" for m in range(2, 13))

    def test_jobs_flag_same_output(self, tmp_path):
        out1, out2 = tmp_path / "serial", tmp_path / "par"
        assert main(["sensitivity", "--config",
                     self.base_config(tmp_path, out1, [300, 1500])]) == 0
        assert main(["sensitivity", "--config",
                     self.base_config(tmp_path, out2, [300, 1500]),
                     "--jobs", "2"]) == 0
        assert (out1 / "sensitivity.csv").read_bytes() == \
            (out2 / "sensitivity.csv").read_bytes()

    def test_values_written_as_given(self, tmp_path):
        out = tmp_path / "out"
        config = json.loads(json.dumps(SYNTH_CONFIG))
        config["output_dir"] = str(out)
        config["sensitivity"] = {
            "parameter": "radius_ft", "values": [300, 700.0],
            "base_cell": {"city": "Synth", "year": 2020, "mode": "reported"}}
        assert main(["sensitivity", "--config",
                     write_config(tmp_path, config)]) == 0
        with open(out / "sensitivity.csv", encoding="utf-8") as fh:
            rows = fh.read().strip().split("\n")[1:]
        assert [r.split(",")[:2] for r in rows] == [["radius_ft", "300"],
                                                    ["radius_ft", "700.0"]]

    def test_row_pools_replicates(self, tmp_path):
        config = json.loads(json.dumps(SYNTH_CONFIG))
        base = {"city": "Synth", "year": 2020, "mode": "reported"}
        config.update(output_dir=str(tmp_path / "out"), replicates=2,
                      cells=[base], sensitivity={
                          "parameter": "radius_ft", "values": [700.0],
                          "base_cell": base})
        path = write_config(tmp_path, config)
        assert main(["grid", "--config", path]) == 0
        assert main(["sensitivity", "--config", path]) == 0
        [annual] = read_rows(tmp_path / "out" / "annual.csv")
        [row] = read_rows(tmp_path / "out" / "sensitivity.csv")
        for key in ("avg_dir", "max_dir", "avg_parity_gap", "avg_gini",
                    "months_counted"):
            assert row[key] == annual[key]
        monthly = read_rows(tmp_path / "out" / "monthly.csv")
        assert {r["replicate"] for r in monthly} == {"0", "1"}
        assert int(row["months_counted"]) == sum(
            r["dir_flag"] == metrics.DIR_OK for r in monthly)

    def test_non_integral_officer_sweep_fatal(self):
        config = json.loads(json.dumps(SYNTH_CONFIG))
        config["sensitivity"] = {"parameter": "n_officers", "values": [30, 2.5],
                                 "base_cell": {"city": "Synth", "year": 2020,
                                               "mode": "detected"}}
        with pytest.raises(ConfigError):
            run_sensitivity(build_plan(config))

    def test_values_must_be_a_list(self, tmp_path):
        out = tmp_path / "out"
        path = self.base_config(tmp_path, out, 300)
        assert main(["sensitivity", "--config", path]) == 1
        assert not out.exists()

    def test_missing_block_fatal(self, tmp_path):
        out = tmp_path / "out"
        path = synth_config(tmp_path, out)
        assert main(["sensitivity", "--config", path]) == 1

    def test_bad_parameter(self, tmp_path):
        config = json.loads(json.dumps(SYNTH_CONFIG))
        config["sensitivity"] = {"parameter": "phase_of_moon", "values": [1],
                                 "base_cell": {"city": "Synth", "year": 2020,
                                               "mode": "detected"}}
        with pytest.raises(ConfigError):
            run_sensitivity(build_plan(config))

    def test_negative_value_fatal(self, tmp_path):
        config = json.loads(json.dumps(SYNTH_CONFIG))
        config["sensitivity"] = {"parameter": "radius_ft", "values": [-5],
                                 "base_cell": {"city": "Synth", "year": 2020,
                                               "mode": "detected"}}
        with pytest.raises(ConfigError):
            run_sensitivity(build_plan(config))


class TestDebias:
    @pytest.mark.parametrize("expected", [False, True])
    def test_condition_rates_sum_credits(self, expected):
        # Credits are the Noisy-OR probabilities under expected_value and
        # 0/1 draws from the condition's generator otherwise.
        rng = np.random.default_rng(5)
        groups = simulate.RACE_GROUPS
        labeled = [(LatLon(39.30 + 0.01 * u, -76.62 + 0.01 * v),
                    groups[int(g)])
                   for u, v, g in zip(rng.uniform(-1, 1, 80),
                                      rng.uniform(-1, 1, 80),
                                      rng.integers(0, 3, 80))]
        patrols = [loc for loc, _ in labeled[::8]]
        cfg = simulate.SimConfig(radius_ft=600.0, expected_value=expected)
        rates = cli._evaluate_condition(labeled, patrols, cfg,
                                        np.random.default_rng(3))
        probs = [p for _, p in simulate.noisy_or(
            [loc for loc, _ in labeled], patrols, cfg)]
        draws = np.random.default_rng(3)
        credits = (probs if expected
                   else [float(draws.random() < p) for p in probs])
        assert rates == metrics.group_rates(
            [simulate.DetectionOutcome("", group, credit)
             for (_, group), credit in zip(labeled, credits)])
        assert len(set(probs)) > 2


def read_manifest(out):
    with open(out / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


class TestDebiasManifest:
    def test_standalone_debias_writes_manifest(self, tmp_path):
        out = tmp_path / "out"
        path = synth_config(tmp_path, out, cells=[],
                            debias={"city": "Synth", "year": 2020})
        assert main(["debias", "--config", path]) == 0
        plan = build_plan(load_config(path))
        manifest = read_manifest(out)
        assert manifest["version"] == patrolsim.__version__
        assert manifest["seed"] == 7
        assert manifest["debias"] == {
            "data_checksums": {"Synth-2020": plan.synthetic_checksum},
            "seed": simulate.derive_seed(7, "debias", "Synth", 2020)}

    def test_all_adds_debias_to_the_grid_manifest(self, tmp_path):
        grid_out, all_out = tmp_path / "grid", tmp_path / "all"
        assert main(["grid", "--config", synth_config(tmp_path, grid_out)]) == 0
        path = synth_config(tmp_path, all_out,
                            debias={"city": "Synth", "year": 2020})
        assert main(["all", "--config", path]) == 0
        grid, manifest = read_manifest(grid_out), read_manifest(all_out)
        debias = manifest.pop("debias")
        assert manifest == grid
        assert debias["seed"] == simulate.derive_seed(7, "debias", "Synth",
                                                      2020)
        assert debias["data_checksums"] == grid["data_checksums"]


class TestStatsCommand:
    def test_outputs_written(self, tmp_path):
        out = tmp_path / "out"
        path = synth_config(tmp_path, out)
        assert main(["stats", "--config", path]) == 0
        assert (out / "observations.csv").exists()
        assert (out / "correlations.csv").exists()
        with open(out / "observations.csv", encoding="utf-8") as fh:
            lines = fh.read().strip().split("\n")
        assert len(lines) == 3  # two synthetic neighborhoods


class TestPlotsCommand:
    def test_plots_after_grid(self, tmp_path):
        out = tmp_path / "out"
        path = synth_config(tmp_path, out)
        assert main(["grid", "--config", path]) == 0
        assert main(["plots", "--config", path]) == 0
        plot_dir = out / "plots"
        for name in ("dir_monthly.svg", "parity_gap_monthly.svg",
                     "gini_trend.svg"):
            assert (plot_dir / name).exists()

    def test_plots_without_grid_noop(self, tmp_path):
        out = tmp_path / "out"
        path = synth_config(tmp_path, out)
        assert main(["plots", "--config", path]) == 0
        assert not (out / "plots").exists()


class TestAll:
    def test_full_pipeline(self, tmp_path):
        out = tmp_path / "out"
        path = synth_config(tmp_path, out)
        assert main(["all", "--config", path]) == 0
        for name in ("monthly.csv", "annual.csv", "manifest.json",
                     "observations.csv", "correlations.csv"):
            assert (out / name).exists()
        assert (out / "plots" / "dir_monthly.svg").exists()

    def test_debias_reuses_grid_data(self, tmp_path, monkeypatch):
        calls = count_loads(monkeypatch)
        out = tmp_path / "out"
        path = synth_config(tmp_path, out,
                            debias={"city": "Synth", "year": 2020})
        assert main(["all", "--config", path]) == 0
        assert calls == [("Synth", 2020)]
        assert (out / "debias.csv").exists()

    def test_ingest_summary(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = synth_config(tmp_path, out)
        assert main(["ingest", "--config", path]) == 0
        with open(out / "ingest_summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        assert summary["Synth-2020"]["months"] == 11
        assert summary["Synth-2020"]["incidents"] == 25 * 11
        assert summary["Synth-2020"]["neighborhoods"] == 2

    def test_ingest_fails_on_the_first_cell(self, tmp_path):
        # Cities load in cell order, so the error names the first unbound
        # city whatever the string hash seed.
        config = {"output_dir": str(tmp_path / "out"),
                  "cells": [{"city": city, "year": 2020, "mode": "reported"}
                            for city in ("Zed", "Abe")]}
        path = write_config(tmp_path, config)
        for hash_seed in range(6):
            proc = subprocess.run(
                [sys.executable, "-m", "patrolsim.cli", "ingest",
                 "--config", path], capture_output=True, text=True,
                env=dict(os.environ, PYTHONHASHSEED=str(hash_seed),
                         PYTHONPATH=os.pathsep.join(sys.path)))
            assert proc.returncode == 2
            assert "no data binding for city 'Zed'" in proc.stderr


class TestStatsOutputs:
    def test_undefined_correlations_leave_the_header(self, tmp_path):
        # Two synthetic neighborhoods are too few to correlate.
        out = tmp_path / "out"
        assert main(["stats", "--config", synth_config(tmp_path, out)]) == 0
        assert (out / "correlations.csv").read_text(encoding="utf-8") == \
            "predictor,pearson_r,pearson_p,spearman_rho,spearman_p\n"
        assert not (out / "regression.csv").exists()


class TestCsvWriter:
    def test_fields(self, tmp_path):
        cli._write_csv(str(tmp_path), "t.csv", ("a", "b", "c", "d", "e", "f"),
                       [(np.float64(0.1), np.float32(0.5), None, 3,
                         "Springfield, IL", 'a "b"')])
        assert (tmp_path / "t.csv").read_text(encoding="utf-8") == (
            "a,b,c,d,e,f\n0.1,0.5,,3,\"Springfield, IL\",\"a \"\"b\"\"\"\n")


def test_planning_imports_no_scipy(tmp_path):
    # Only p-values need scipy; a command's set-up must not import it.
    code = ("import sys\n"
            "from patrolsim.cli import build_plan, load_config\n"
            f"build_plan(load_config({write_config(tmp_path, SYNTH_CONFIG)!r}))\n"
            "assert 'scipy' not in sys.modules, 'scipy imported'\n")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))


class TestRunGridApi:
    def test_returns_sorted_records(self, tmp_path):
        config = json.loads(json.dumps(SYNTH_CONFIG))
        config["output_dir"] = str(tmp_path / "out")
        plan = build_plan(load_config(write_config(tmp_path, config)))
        runs = run_grid(plan)
        assert runs.failures == 0
        assert [r.month for r in runs.records[0]] == list(range(2, 13))
        assert [r.month for r in runs.results[0]] == list(range(2, 13))
        assert runs.failed == [{}]
        assert set(runs.loaded["Synth", 2020].neighborhoods) == {"A", "B"}
