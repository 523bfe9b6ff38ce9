import csv
import gc
import io
import json
import os
import pickle
import subprocess
import sys
import weakref
from collections import Counter
from dataclasses import fields, replace
from operator import attrgetter

import numpy as np
import pytest

import patrolsim
from patrolsim import cli, gan, ingest, metrics, simulate, stats
from patrolsim.cli import (ConfigError, build_plan, load_config, main,
                           run_grid, run_sensitivity)
from patrolsim.geodata import Polygon

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


def count_reads(monkeypatch):
    """Count the calls of the two ingest functions that read a city's files."""
    reads = Counter()
    for name in ("parse_crime_csv", "load_neighborhoods"):
        def counting(*args, _real=getattr(ingest, name), _name=name):
            reads[_name] += 1
            return _real(*args)
        monkeypatch.setattr(ingest, name, counting)
    return reads


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


def fine_and_bad_config(tmp_path):
    """A config of two one-neighborhood cities, "Bad" and "Fine", each with
    five crimes in March and April 2019 and no bbox; the caller spoils the
    files of Bad, the debias city."""
    crimes = [(str(i), f"2019-{m:02d}-15 12:00")
              for m in (3, 4) for i in range(5)]
    bindings = {}
    for city in ("Fine", "Bad"):
        (tmp_path / city).mkdir()
        binding = write_city(tmp_path / city, crimes)
        bindings[city] = {k: f"{city}/{v}" for k, v in binding.items()}
    return dict(SYNTH_CONFIG, output_dir=str(tmp_path / "out"),
                data_dir=str(tmp_path), data={"cities": bindings},
                cells=[{"city": c, "year": 2019, "mode": "reported"}
                       for c in ("Bad", "Fine")],
                debias={"city": "Bad", "year": 2019})


def assert_only_bad_fails(tmp_path, caplog, config, *named):
    """`ingest` and `debias` exit 2 with an error holding each of `named`;
    in a grid, and under `all` without the debias block, Bad fails to load,
    named alike, and Fine still runs. Nothing logs a traceback."""
    path = write_config(tmp_path, config)
    assert main(["ingest", "--config", path]) == 2
    assert main(["debias", "--config", path]) == 2
    assert all(text in caplog.text for text in named), caplog.text
    assert "Traceback" not in caplog.text
    config = {k: v for k, v in config.items() if k != "debias"}
    for command, path in (("grid", path),
                          ("all", write_config(tmp_path, config))):
        caplog.clear()
        assert main([command, "--config", path]) == 3
        assert "Bad 2019 failed to load" in caplog.text
        assert all(text in caplog.text for text in named)
        assert "Traceback" not in caplog.text
        assert {(r["city"], r["month"]) for r in read_rows(
            tmp_path / "out" / "monthly.csv")} == {("Fine", "3"),
                                                   ("Fine", "4")}


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
        assert plan.train_cfg == build_plan(load_config(path)).train_cfg

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
        ("sim", "seed", 5),                   # only the top-level seed
        ("train", "seed", 5),
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

    @pytest.mark.parametrize("mode", ["detected", "reported"])
    def test_bbox_past_the_pole_is_config_error(self, tmp_path, monkeypatch,
                                                mode):
        # Both corners of a configured box must be valid coordinates, so a
        # box past the pole fails at plan time, before any data loads,
        # whether or not the cell would sample a patrol from it.
        calls = count_loads(monkeypatch)
        binding = write_city(tmp_path, [(str(i), "2019-03-15 14:30")
                                        for i in range(8)])
        config = city_config(tmp_path, {**binding,
                                        "bbox": [39.2, 95.0, -76.71, -76.53]},
                             [2019])
        config["cells"] = [{"city": "Gen", "year": 2019, "mode": mode}]
        assert main(["grid", "--config", write_config(tmp_path, config)]) == 1
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_boundary_vertex_near_the_pole_loads(self, tmp_path, capsys):
        # Without a configured bbox the box is the polygons' hull padded by
        # 0.01 degrees, which stops at the pole.
        binding = write_city(tmp_path, [("1", "2019-03-15 14:30")])
        ring = [[-76.65, 39.28], [-76.65, 89.995], [-76.60, 89.995],
                [-76.60, 39.28], [-76.65, 39.28]]
        (tmp_path / "bounds.geojson").write_text(json.dumps(
            {"type": "FeatureCollection", "features": [
                {"type": "Feature", "properties": {"id": "Good"},
                 "geometry": {"type": "Polygon", "coordinates": [ring]}}]}))
        config = city_config(tmp_path, binding, [2019])
        assert main(["ingest", "--config",
                     write_config(tmp_path, config)]) == 0
        assert json.loads(capsys.readouterr().out)["Gen-2019"]["incidents"] \
            == 1

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

    def test_synthetic_checksum_is_of_the_city_generated(self):
        # Without a seed of its own the synthetic city takes the master
        # seed, so --seed 1 and --seed 2 generate different incidents.
        def checksum(seed, synthetic):
            return build_plan(dict(SYNTH_CONFIG, seed=seed, data={
                "synthetic": synthetic})).synthetic_checksum
        block = {"incidents_per_month": 25}
        assert checksum(1, block) != checksum(2, block)
        # A default written out hashes as the default left out.
        assert checksum(1, block) == checksum(1, {**block, "seed": 1}) \
            == checksum(1, {**block, "sigma": 0.08})
        assert checksum(1, {**block, "seed": 2}) == checksum(2, block)

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

    def test_diverging_training_fails_only_its_month_run(self, tmp_path,
                                                         monkeypatch):
        # May's training turns a weight NaN after its first update; the
        # next forward pass raises, and the other months still run.
        may = simulate.month_run_seed(7, "Synth", 2020, 5, "detected", 0)
        seeds = []

        class PoisoningAdam(gan.Adam):
            def step(self, grads):
                super().step(grads)
                if seeds[-1] == may:
                    self.params[0][0, 0] = np.nan

        def train(points, cfg, bbox, seed, _real=gan.train_gan):
            seeds.append(seed)
            return _real(points, cfg, bbox, seed)
        clean, out = tmp_path / "clean", tmp_path / "out"
        assert main(["grid", "--config", synth_config(tmp_path, clean)]) == 0
        monkeypatch.setattr(gan, "Adam", PoisoningAdam)
        monkeypatch.setattr(gan, "train_gan", train)
        assert main(["grid", "--config", synth_config(tmp_path, out)]) == 3
        assert read_manifest(out)["failed_month_runs"] == {
            "Synth/2020/5/detected/r0":
                "FloatingPointError: non-finite activations in forward pass"}
        assert read_rows(out / "monthly.csv") == [
            row for row in read_rows(clean / "monthly.csv")
            if row["month"] != "5"]

    def test_pool_has_no_more_workers_than_month_runs(self, tmp_path,
                                                      monkeypatch):
        # Under fork a pool starts all of its workers at once. The stand-in
        # pool records its size and maps in this process.
        import concurrent.futures
        workers = []

        class InProcessPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InProcessPool)
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        assert main(["grid", "--config", synth_config(tmp_path, serial)]) == 0
        assert main(["grid", "--config", synth_config(tmp_path, pooled),
                     "--jobs", "64"]) == 0
        assert workers == [11]
        for name in ("monthly.csv", "annual.csv", "manifest.json"):
            assert (serial / name).read_bytes() == (pooled / name).read_bytes()

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
        # A detected month-run trains its GAN on the seed that manifest.json
        # records for it, and draws from that seed too.
        trained, drawn = [], []
        real_run, real_train = simulate.run_month_detected, gan.train_gan

        def run(slice_, nbs, model, sim_cfg, seed):
            drawn.append(seed)
            return real_run(slice_, nbs, model, sim_cfg, seed)

        def train(points, cfg, bbox, seed):
            trained.append(seed)
            return real_train(points, cfg, bbox, seed)
        monkeypatch.setattr(simulate, "run_month_detected", run)
        monkeypatch.setattr(gan, "train_gan", train)
        out = tmp_path / "out"
        assert main(["grid", "--config",
                     synth_config(tmp_path, out, replicates=2)]) == 0
        with open(out / "manifest.json", encoding="utf-8") as fh:
            seeds = json.load(fh)["per_run_seeds"]
        runs = [f"Synth/2020/{m}/detected/r{rep}"
                for m in range(2, 13) for rep in (0, 1)]
        assert trained == drawn and len(set(trained)) == 22
        assert seeds == dict(zip(runs, trained))
        assert seeds["Synth/2020/5/detected/r1"] == simulate.month_run_seed(
            7, "Synth", 2020, 5, "detected", 1)

    def test_city_files_read_once(self, tmp_path, monkeypatch):
        # One crime CSV holds both years; each year keeps only its own rows.
        reads = count_reads(monkeypatch)
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

    def test_month_run_result_does_not_grow_with_its_crimes(self):
        # A month-run returns tallies, which a --jobs worker pickles back:
        # their size depends on the neighborhoods, not on the crimes.
        sizes = []
        for n in (100, 2000):
            config = dict(SYNTH_CONFIG, data={"synthetic": {
                "incidents_per_month": n, "seed": 7}})
            plan = build_plan(config)
            data = cli.load_city_year(plan, "Synth", 2020)
            [slice_] = [s for s in data.slices if s.month == 2]
            assert len(slice_.incidents) == n
            assert set(slice_.neighborhood_ids.tolist()) == {"A", "B"}
            out = cli._task((cli.Cell("Synth", 2020, "reported"), slice_,
                             data.neighborhoods, data.bbox, plan.train_cfg,
                             [plan.sim_cfg], 0, 1))
            assert not isinstance(out, str), out
            sizes.append(len(pickle.dumps(out)))
        assert abs(sizes[1] - sizes[0]) <= 64, sizes

    def test_month_run_tasks_carry_no_polygons(self, tmp_path, monkeypatch):
        # Under --jobs > 1 each task is pickled whole; the polygons stay in
        # the load that assigns crimes to them.
        pickled = set()

        class Recorder(pickle.Pickler):
            def reducer_override(self, obj):
                pickled.add(type(obj))
                return NotImplemented

        def recording(args, _real=cli._task):
            Recorder(io.BytesIO()).dump(args)
            return _real(args)
        monkeypatch.setattr(cli, "_task", recording)
        binding = write_city(tmp_path, [("1", "2019-03-15 14:30"),
                                        ("2", "2019-04-02 09:00")])
        runs = run_grid(build_plan(city_config(tmp_path, binding, [2019])))
        assert runs.failures == 0 and len(runs.attempted) == 2
        assert ingest.Neighborhood in pickled
        assert Polygon not in pickled

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
        "id,pct_black,pct_white,pct_neither,median_income,poverty_rate\n"
        "Good,0,0,0,40000,0.2\n",
        "id,pct_black,pct_white,median_income,poverty_rate\n"
        "Good,0.5,0.4,40000,0.2\nGood,0.1,0.8,40000,0.2\n",
        "id,pct_black,pct_white,median_income,poverty_rate\n"
        "Good,0.5,0.4,nan,0.2\n",
        "id,pct_black,pct_white,median_income,poverty_rate\n"
        "Good,0.5,0.4,-666666666,0.2\n",
    ], ids=["non-numeric", "missing-column", "zero-shares", "duplicate-id",
            "nan-income", "census-missing-income"])
    def test_malformed_demographics_is_data_error(self, tmp_path, caplog,
                                                  demographics):
        config = fine_and_bad_config(tmp_path)
        (tmp_path / "Bad" / "demo.csv").write_text(demographics)
        # The bad file's row, named by its id.
        assert_only_bad_fails(tmp_path, caplog, config, "'Good'")

    @pytest.mark.parametrize("bad", [
        "geometry-null", "string-coordinate", "features-null", "feature-null",
        "not-utf-8", "csv-field-too-large", "boundaries-not-utf-8",
        "demographics-not-utf-8", "demographics-without-id", "features-empty",
        "no-shared-id"])
    def test_malformed_city_file_is_data_error(self, tmp_path, caplog, bad):
        # A GeoJSON member set to null, a coordinate that is a string, a
        # city file that is not UTF-8 or not CSV, a demographics file
        # without an id column, or no boundary feature with a demographics
        # row (and no bbox to stand in for their hull): the error names the
        # file (and the feature or line), or both files when none joins.
        config = fine_and_bad_config(tmp_path)
        bounds, demo, crime_csv = (tmp_path / "Bad" / name for name in (
            "bounds.geojson", "demo.csv", "crime.csv"))
        collection = json.loads(bounds.read_text())
        if bad == "geometry-null":
            collection["features"][0]["geometry"] = None
        elif bad == "string-coordinate":
            collection["features"][0]["geometry"]["coordinates"][0][1] = \
                ["-76.65", "39.33"]
        elif bad == "features-null":
            collection["features"] = None
        elif bad == "feature-null":
            collection["features"].insert(0, None)
        elif bad == "features-empty":
            collection["features"] = []
        elif bad == "not-utf-8":
            with open(crime_csv, "ab") as fh:
                fh.write(b"99,39.30,-76.62,2019-03-15 12:00,CAF\xc9\n")
        elif bad == "csv-field-too-large":
            with open(crime_csv, "a", encoding="utf-8") as fh:
                fh.write('99,39.30,-76.62,2019-03-15 12:00,"'
                         + "x" * 200_000 + '"\n')
        elif bad == "demographics-without-id":
            demo.write_text(demo.read_text().replace("id,", "ident,", 1))
        elif bad == "no-shared-id":
            demo.write_text(demo.read_text().replace("Good", "Elsewhere"))
        bounds.write_text(json.dumps(collection))
        named_file = {"boundaries-not-utf-8": bounds, "not-utf-8": crime_csv,
                      "csv-field-too-large": crime_csv,
                      "geometry-null": bounds, "string-coordinate": bounds,
                      "features-null": bounds, "feature-null": bounds,
                      }.get(bad, demo)
        if bad.endswith("-not-utf-8"):
            named_file.write_bytes(named_file.read_bytes().replace(
                b"Good", b"G\xf6od", 1))
        named = {"geometry-null": "'Good'", "string-coordinate": "'Good'",
                 "features-null": '"features"', "feature-null": "feature 0",
                 "not-utf-8": "line 12", "csv-field-too-large": "line 12",
                 "boundaries-not-utf-8": "utf-8",
                 "demographics-not-utf-8": f"{demo}, line 2: not UTF-8",
                 "demographics-without-id": f"{demo}, line 2: ",
                 }.get(bad, str(bounds))
        assert_only_bad_fails(tmp_path, caplog, config, named,
                              str(named_file))

    def test_null_properties_drop_the_feature(self, tmp_path, caplog, capsys):
        # RFC 7946 allows "properties": null: a feature without the id
        # property, dropped with a warning.
        binding = write_city(tmp_path, [("1", "2019-03-15 14:30")])
        collection = json.loads((tmp_path / "bounds.geojson").read_text())
        extra = json.loads(json.dumps(collection["features"][0]))
        extra["properties"] = None
        collection["features"].insert(0, extra)
        (tmp_path / "bounds.geojson").write_text(json.dumps(collection))
        config = city_config(tmp_path, binding, [2019])
        assert main(["ingest", "--config",
                     write_config(tmp_path, config)]) == 0
        summary = json.loads(capsys.readouterr().out)["Gen-2019"]
        assert (summary["neighborhoods"], summary["incidents"]) == (1, 1)
        assert "boundary id '' has no demographics row; dropped" in caplog.text

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

    @pytest.mark.parametrize("values", [[700], [300, 700, 1500]])
    def test_one_training_per_month_run(self, tmp_path, monkeypatch, values):
        # The GAN of a detected (month, replicate) serves every sweep value.
        seeds = Counter()
        real = gan.train_gan

        def train(points, cfg, bbox, seed):
            seeds[seed] += 1
            return real(points, cfg, bbox, seed)
        monkeypatch.setattr(gan, "train_gan", train)
        config = dict(SYNTH_CONFIG, output_dir=str(tmp_path / "out"),
                      replicates=2, sensitivity={
                          "parameter": "radius_ft", "values": values,
                          "base_cell": SYNTH_CONFIG["cells"][0]})
        assert main(["sensitivity", "--config",
                     write_config(tmp_path, config)]) == 0
        assert len(seeds) == 11 * 2 and set(seeds.values()) == {1}
        assert len(read_rows(tmp_path / "out" / "sensitivity.csv")) == \
            len(values)

    @pytest.mark.parametrize("mode, semantics", [
        ("detected", simulate.PATROL_FROM_REPORTS),
        ("reported", simulate.PATROL_FROM_REPORTS),
        ("reported", simulate.REPORT_IS_DETECTION)])
    @pytest.mark.parametrize("parameter, values", [
        ("radius_ft", [400, 1500.0]), ("n_officers", [5, 60]),
        ("reporting_prob", [0.3, 0.9])])
    def test_rows_match_a_grid_at_each_value(self, tmp_path, mode, semantics,
                                             parameter, values):
        # A value's row holds what a grid run with sim.<parameter> set to
        # that value writes in annual.csv, at --jobs 1 and 2 alike.
        cell = {"city": "Synth", "year": 2020, "mode": mode}
        config = dict(SYNTH_CONFIG, cells=[cell], train={"epochs": 1},
                      sim=dict(SYNTH_CONFIG["sim"],
                               reported_mode_semantics=semantics),
                      sensitivity={"parameter": parameter, "values": values,
                                   "base_cell": cell})
        sweeps = []
        for jobs in ("1", "2"):
            out = tmp_path / f"sweep{jobs}"
            path = write_config(tmp_path, dict(config, output_dir=str(out)))
            assert main(["sensitivity", "--config", path, "--jobs", jobs]) == 0
            sweeps.append([(out / name).read_bytes()
                           for name in ("sensitivity.csv", "manifest.json")])
        assert sweeps[0] == sweeps[1]
        rows = read_rows(tmp_path / "sweep1" / "sensitivity.csv")
        assert [row["value"] for row in rows] == list(map(str, values))
        for row, value in zip(rows, values):
            out = tmp_path / f"grid-{value}"
            path = write_config(tmp_path, dict(
                config, output_dir=str(out),
                sim=dict(config["sim"], **{parameter: value})))
            assert main(["grid", "--config", path]) == 0
            annual, = read_rows(out / "annual.csv")
            assert {k: row[k] for k in annual if k in row} == {
                k: annual[k] for k in annual if k in row}
            assert len({k for k in annual if k in row}) == 5

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
        locations = np.column_stack([39.30 + 0.01 * rng.uniform(-1, 1, 80),
                                     -76.62 + 0.01 * rng.uniform(-1, 1, 80)])
        groups = rng.integers(0, 3, 80)
        patrols = locations[::8]
        cfg = simulate.SimConfig(radius_ft=600.0, expected_value=expected)
        rates = cli._evaluate_condition(locations, groups, patrols, cfg,
                                        np.random.default_rng(3))
        probs = simulate.noisy_or(locations, patrols, cfg).tolist()
        draws = np.random.default_rng(3)
        credits = (probs if expected
                   else [float(draws.random() < p) for p in probs])
        detected = {g: 0.0 for g in simulate.RACE_GROUPS}
        for g, credit in zip(groups.tolist(), credits):
            detected[simulate.RACE_GROUPS[g]] += credit
        assert rates.detected == detected
        assert rates.total == dict(zip(simulate.RACE_GROUPS,
                                       np.bincount(groups).tolist()))
        assert len(set(probs)) > 2


def read_manifest(out):
    with open(out / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)


class TestDebiasManifest:
    def test_standalone_debias_writes_manifest(self, tmp_path, monkeypatch):
        # Trainings run biased, conditional, debiased: flag only the first,
        # so each condition's flag is seen to come from its own training.
        calls = []

        def detect(model, real, seed):
            calls.append(model.conditional)
            return len(calls) == 1

        monkeypatch.setattr(gan, "_detect_mode_collapse", detect)
        out = tmp_path / "out"
        path = synth_config(tmp_path, out, cells=[],
                            debias={"city": "Synth", "year": 2020})
        assert main(["debias", "--config", path]) == 0
        assert calls == [False, True, False]
        plan = build_plan(load_config(path))
        manifest = read_manifest(out)
        assert manifest["version"] == patrolsim.__version__
        assert manifest["seed"] == 7
        assert manifest["debias"] == {
            "data_checksums": {"Synth-2020": plan.synthetic_checksum},
            "seed": simulate.derive_seed(7, "debias", "Synth", 2020),
            "mode_collapsed": {"biased": True, "debiased": False}}

    def test_collapse_flags_are_json_booleans_and_rerun_identically(
            self, tmp_path):
        written = []
        for name in ("first", "rerun"):
            out = tmp_path / name
            path = synth_config(tmp_path, out, cells=[],
                                debias={"city": "Synth", "year": 2020})
            assert main(["debias", "--config", path]) == 0
            written.append((out / "manifest.json").read_bytes())
        assert written[0] == written[1]
        flags = json.loads(written[0])["debias"]["mode_collapsed"]
        assert sorted(flags) == ["biased", "debiased"]
        assert all(type(flag) is bool for flag in flags.values())

    def test_each_model_is_freed_before_the_next_training(self, tmp_path,
                                                          monkeypatch):
        models, alive = [], []
        real = gan.train_gan

        def tracking(*args, **kwargs):
            gc.collect()
            alive.append(sum(ref() is not None for ref in models))
            model, collapsed = real(*args, **kwargs)
            models.append(weakref.ref(model))
            return model, collapsed

        monkeypatch.setattr(gan, "train_gan", tracking)
        path = synth_config(tmp_path, tmp_path / "out", cells=[],
                            debias={"city": "Synth", "year": 2020})
        assert main(["debias", "--config", path]) == 0
        # Biased, conditional, debiased: none alive when the next starts.
        assert alive == [0, 0, 0]

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
        assert all(type(flag) is bool
                   for flag in debias["mode_collapsed"].values())


class TestStatsCommand:
    def test_outputs_written(self, tmp_path):
        out = tmp_path / "out"
        path = synth_config(tmp_path, out)
        assert main(["grid", "--config", path]) == 0
        assert main(["stats", "--config", path]) == 0
        assert (out / "observations.csv").exists()
        assert (out / "correlations.csv").exists()
        with open(out / "observations.csv", encoding="utf-8") as fh:
            lines = fh.read().strip().split("\n")
        assert len(lines) == 3  # two synthetic neighborhoods

    def test_grid_then_stats_equals_all(self, tmp_path):
        config = dict(SYNTH_CONFIG, data_dir=str(tmp_path),
                      data={"cities": {"Grid": write_grid_city(tmp_path)}},
                      cells=[{"city": "Grid", "year": 2020,
                              "mode": "detected"}])
        staged, whole = tmp_path / "staged", tmp_path / "all"
        path = write_config(tmp_path, dict(config, output_dir=str(staged)))
        assert main(["grid", "--config", path]) == 0
        assert main(["stats", "--config", path]) == 0
        assert main(["all", "--config", write_config(
            tmp_path, dict(config, output_dir=str(whole)))]) == 0
        for name in ("observations.csv", "regression.csv", "correlations.csv"):
            assert (staged / name).read_bytes() == (whole / name).read_bytes()
        assert len(read_rows(staged / "regression.csv")) == 4
        assert len(read_rows(staged / "correlations.csv")) == 4

    def test_trains_no_gan(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        path = synth_config(tmp_path, out)
        assert main(["grid", "--config", path]) == 0
        written = {p.name: p.stat().st_mtime_ns for p in out.iterdir()}

        def no_training(*args, **kwargs):
            raise AssertionError("stats trained a GAN")
        monkeypatch.setattr(gan, "train_gan", no_training)
        assert main(["stats", "--config", path]) == 0
        # The grid's files are read, not rewritten.
        assert {p.name: p.stat().st_mtime_ns for p in out.iterdir()
                if p.name in written} == written
        assert (out / "correlations.csv").exists()

    @pytest.mark.parametrize("row", ["A,S,2020,detected,0.5,0.1,0.2,3,0.1,9",
                                     "A,S,2020,detected,0.5,0.1,0.2,3",
                                     "A,S,2020,detected,half,0.1,0.2,3,0.1"])
    def test_malformed_observations_are_a_data_error(self, tmp_path, row,
                                                     caplog):
        out = tmp_path / "out"
        out.mkdir()
        (out / "observations.csv").write_text(
            ",".join(f.name for f in fields(stats.NeighborhoodObservation))
            + f"\n{row}\n", encoding="utf-8")
        assert main(["stats", "--config", synth_config(tmp_path, out)]) == 2
        assert "observations.csv, line 2: not an observations row" in \
            caplog.text
        assert sorted(p.name for p in out.iterdir()) == ["observations.csv"]

    def test_alone_warns_and_writes_nothing(self, tmp_path, caplog):
        out = tmp_path / "out"
        out.mkdir()
        assert main(["stats", "--config", synth_config(tmp_path, out)]) == 0
        assert "no observations.csv" in caplog.text
        assert list(out.iterdir()) == []

    def test_no_observations_skips_on_their_count(self, tmp_path, caplog):
        # A city with no crimes gives an empty observations.csv; the
        # regression is skipped for want of observations, not on a shape.
        config = {"seed": 1, "output_dir": str(tmp_path / "out"),
                  "cells": [{"city": "Synth", "year": 2020,
                             "mode": "reported"}],
                  "data": {"synthetic": {"incidents_per_month": 0}}}
        assert main(["all", "--config", write_config(tmp_path, config)]) == 0
        assert read_rows(tmp_path / "out" / "observations.csv") == []
        assert ("regression skipped: need more observations (0) than "
                "regressors (4)") in caplog.text
        assert "not enough values to unpack" not in caplog.text


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

    @pytest.mark.parametrize("name,text", [
        ("monthly.csv", "city,year,month\nS,2020\n"),
        ("monthly.csv", ",".join(metrics.MONTHLY_CSV_HEADER)
         + "\nS,2020,x,detected,0,0.3,0.2,0.1,1.5,ok,0.1,0.28,0.028\n"),
        ("observations.csv", ",".join(
            f.name for f in fields(stats.NeighborhoodObservation))
         + "\nA,S,2020,detected,0.5,half,0.2,3,0.1\n"),
    ])
    def test_malformed_input_is_a_data_error(self, tmp_path, caplog, name,
                                             text):
        out = tmp_path / "out"
        out.mkdir()
        (out / "monthly.csv").write_text(
            ",".join(metrics.MONTHLY_CSV_HEADER)
            + "\nS,2020,3,detected,0,0.3,0.2,0.1,1.5,ok,0.1,0.28,0.028\n",
            encoding="utf-8")
        (out / name).write_text(text, encoding="utf-8")
        assert main(["plots", "--config", synth_config(tmp_path, out)]) == 2
        assert f"{name}, line 2: not a" in caplog.text
        assert "Traceback" not in caplog.text

    def test_plots_without_grid_noop(self, tmp_path):
        out = tmp_path / "out"
        path = synth_config(tmp_path, out)
        assert main(["plots", "--config", path]) == 0
        assert not (out / "plots").exists()

    def test_empty_monthly_csv_is_logged(self, tmp_path, caplog):
        # A city with no crimes gives a monthly.csv with no rows, so there
        # is nothing to plot; the log says so, naming the file.
        out = tmp_path / "out"
        config = {"seed": 1, "output_dir": str(out),
                  "cells": [{"city": "Synth", "year": 2020,
                             "mode": "reported"}],
                  "data": {"synthetic": {"incidents_per_month": 0}}}
        assert main(["all", "--config", write_config(tmp_path, config)]) == 0
        assert read_rows(out / "monthly.csv") == []
        assert not (out / "plots").exists()
        assert (f"{out / 'monthly.csv'} has no rows; nothing to plot"
                in caplog.text)


@pytest.mark.parametrize("fault", ["not-utf-8", "field-too-large"])
@pytest.mark.parametrize("command,name", [("stats", "observations.csv"),
                                          ("plots", "monthly.csv"),
                                          ("plots", "observations.csv")])
def test_unreadable_grid_csv_is_a_data_error(tmp_path, caplog, command, name,
                                             fault):
    # A byte that is not UTF-8, or a field over csv's 131,072-character
    # limit, on line 3 of a file the grid wrote: exit 2 with a short
    # message naming the file and the line, as for a crime CSV.
    out = tmp_path / "out"
    out.mkdir()
    rows = {"monthly.csv": (metrics.MONTHLY_CSV_HEADER,
                            "S,2020,3,detected,0,0.3,0.2,0.1,1.5,ok,0.1,"
                            "0.28,0.028"),
            "observations.csv": (
                [f.name for f in fields(stats.NeighborhoodObservation)],
                "A,S,2020,detected,0.5,0.1,0.2,3,0.1")}
    for file_name, (header, row) in rows.items():
        # Enough rows that the decoder reads more than line 3 at once.
        lines = [",".join(header).encode()] + [row.encode()] * 200
        if file_name == name:
            lines[2] = (b"\xc9" if fault == "not-utf-8"
                        else b"x" * 200_000) + lines[2][1:]
        (out / file_name).write_bytes(b"\n".join(lines) + b"\n")
    assert main([command, "--config", synth_config(tmp_path, out)]) == 2
    (error,) = [r.getMessage() for r in caplog.records
                if r.levelname == "ERROR"]
    assert f"{out / name}, line 3: " in error
    assert len(error) < len(str(out / name)) + 100
    assert "Traceback" not in caplog.text


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

    def test_debias_year_outside_the_grid_reads_files_once(self, tmp_path,
                                                            monkeypatch):
        reads = count_reads(monkeypatch)
        binding = write_city(tmp_path, [("1", "2019-03-15 14:30")] + [
            (str(i), f"2020-0{i % 3 + 3}-11 17:45") for i in range(2, 42)])
        config = dict(city_config(tmp_path, binding, [2019]),
                      debias={"city": "Gen", "year": 2020})
        assert main(["all", "--config", write_config(tmp_path, config)]) == 0
        assert reads == {"parse_crime_csv": 1, "load_neighborhoods": 1}
        assert (tmp_path / "out" / "debias.csv").exists()

    @pytest.mark.parametrize("debias_city", ["Bad", "Unbound"])
    def test_debias_city_year_that_fails_to_load(self, tmp_path, caplog,
                                                 debias_city):
        # The grid runs and writes its files; then debias raises the load
        # error of its city-year (exit 2), and stats and plots do not run.
        # Bad is also a grid cell, whose failure the grid logs and counts;
        # Unbound has no data binding.
        config = fine_and_bad_config(tmp_path)
        config["debias"]["city"] = debias_city
        demo = tmp_path / "Bad" / "demo.csv"
        demo.write_text(demo.read_text().replace("Good", "Elsewhere"))
        assert main(["all", "--config", write_config(tmp_path, config)]) == 2
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == [
            "annual.csv", "manifest.json", "monthly.csv", "observations.csv"]
        manifest = read_manifest(out)
        assert "debias" not in manifest
        assert list(manifest["data_checksums"]) == ["Fine-2019"]
        assert {r["city"] for r in read_rows(out / "monthly.csv")} == {"Fine"}
        error = [r.getMessage() for r in caplog.records
                 if r.levelname == "ERROR"][-1]
        named = str(demo) if debias_city == "Bad" else "'Unbound'"
        assert error.startswith("data error: ") and named in error
        assert "Traceback" not in caplog.text

    @pytest.mark.parametrize("command", ["grid", "all", "grid-unbound"])
    def test_parsed_files_end_with_the_loading(self, tmp_path, monkeypatch,
                                               command):
        # The parsed crime rows and the boundary polygons are freed before
        # the first month-run starts: under `all` with a debias city-year
        # outside the grid too, and when a cell's load error is kept for
        # the grid to log. Only CityYearData reaches the month-runs.
        class Rows(list):
            pass
        refs, alive = [], []
        real_parse, real_load = ingest.parse_crime_csv, \
            ingest.load_neighborhoods
        real_run = cli._run_one_month

        def parse(*args):
            rows, dropped = real_parse(*args)
            rows = Rows(rows)
            refs.append(weakref.ref(rows))
            return rows, dropped

        def load(*args):
            nbs = real_load(*args)
            refs.extend(weakref.ref(p) for nb in nbs for p in nb.polygons)
            return nbs

        def run(*args):
            alive.append(sum(ref() is not None for ref in refs))
            return real_run(*args)
        monkeypatch.setattr(ingest, "parse_crime_csv", parse)
        monkeypatch.setattr(ingest, "load_neighborhoods", load)
        monkeypatch.setattr(cli, "_run_one_month", run)
        binding = write_city(tmp_path, [("1", "2019-03-15 14:30")] + [
            (str(i), f"2020-0{i % 3 + 3}-11 17:45") for i in range(2, 42)])
        config = city_config(tmp_path, binding, [2019])
        if command == "all":
            config["debias"] = {"city": "Gen", "year": 2020}
        if command == "grid-unbound":
            config["cells"].append(
                {"city": "Unbound", "year": 2019, "mode": "reported"})
        assert main([command.split("-")[0], "--config",
                     write_config(tmp_path, config), "--jobs", "1"]) \
            == (3 if command == "grid-unbound" else 0)
        assert len(refs) == 2
        assert alive == [0]

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
        path = synth_config(tmp_path, out)
        assert main(["grid", "--config", path]) == 0
        assert main(["stats", "--config", path]) == 0
        assert (out / "correlations.csv").read_text(encoding="utf-8") == \
            "predictor,pearson_r,pearson_p,spearman_rho,spearman_p\n"
        assert not (out / "regression.csv").exists()


    def test_covariates_come_from_the_results_city(self, tmp_path):
        # Two cities whose neighborhoods share the id "Good": each
        # observation carries its own city's demographics.
        crimes = [(str(i), f"2019-{m:02d}-15 12:00")
                  for m in (3, 4, 5) for i in range(5)]
        bindings = {}
        for city, pct_black in (("East", 0.5), ("West", 0.1)):
            (tmp_path / city).mkdir()
            binding = write_city(tmp_path / city, crimes)
            (tmp_path / city / "demo.csv").write_text(
                "id,pct_black,pct_white,median_income,poverty_rate\n"
                f"Good,{pct_black},0.4,40000,0.2\n")
            bindings[city] = {k: f"{city}/{v}" for k, v in binding.items()}
        config = dict(SYNTH_CONFIG, output_dir=str(tmp_path / "out"),
                      data_dir=str(tmp_path), data={"cities": bindings},
                      cells=[{"city": c, "year": 2019, "mode": "reported"}
                             for c in ("East", "West")])
        path = write_config(tmp_path, config)
        assert main(["grid", "--config", path]) == 0
        assert main(["stats", "--config", path]) == 0
        rows = read_rows(tmp_path / "out" / "observations.csv")
        assert {(r["city"], r["pct_black"]) for r in rows} == {
            ("East", "0.5"), ("West", "0.1")}


class TestCsvWriter:
    def test_fields(self, tmp_path):
        cli._write_csv(str(tmp_path), "t.csv", ("a", "b", "c", "d", "e", "f"),
                       [(np.float64(0.1), np.float32(0.5), None, 3,
                         "Springfield, IL", 'a "b"')])
        assert (tmp_path / "t.csv").read_text(encoding="utf-8") == (
            "a,b,c,d,e,f\n0.1,0.5,,3,\"Springfield, IL\",\"a \"\"b\"\"\"\n")

    def test_observations_round_trip(self, tmp_path):
        # Every line break in a field is quoted, a lone "\r" too, so that a
        # CSV reader reads each id back whole and no later row shifts.
        ids = ["a,b", 'q"q', "n\nl", "cr\rx", "crlf\r\n", "Čerešňová 東"]
        observations = [stats.NeighborhoodObservation(
            nb_id, "Gen\r", 2020, "detected", k / 7, k * 5 % 6 / 10,
            k * k % 5 / 10, 30000.0 + 1000 * k * k, k % 3 / 10 + 0.05)
            for k, nb_id in enumerate(ids)]
        columns = [f.name for f in fields(stats.NeighborhoodObservation)]
        cli._write_csv(str(tmp_path), "observations.csv", columns,
                       map(attrgetter(*columns), observations))
        assert [tuple(row.values()) for row in read_rows(
            tmp_path / "observations.csv")] == [
                tuple(repr(v) if type(v) is float else str(v)
                      for v in attrgetter(*columns)(o))
                for o in observations]
        # stats reads the same observations back and fits them.
        config = dict(SYNTH_CONFIG, output_dir=str(tmp_path), cells=[])
        assert main(["stats", "--config", write_config(tmp_path, config)]) == 0
        assert len(read_rows(tmp_path / "regression.csv")) == 4
        assert len(read_rows(tmp_path / "correlations.csv")) == 4


def test_planning_imports_no_scipy(tmp_path):
    # Only p-values need scipy; a command's set-up must not import it.
    code = ("import sys\n"
            "from patrolsim.cli import build_plan, load_config\n"
            f"build_plan(load_config({write_config(tmp_path, SYNTH_CONFIG)!r}))\n"
            "assert 'scipy' not in sys.modules, 'scipy imported'\n")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))


def test_cli_import_loads_no_process_pool():
    # The pool is imported only when a command runs on more than one job.
    code = ("import sys\n"
            "import patrolsim.cli\n"
            "loaded = [m for m in ('concurrent.futures.process',\n"
            "                      'multiprocessing') if m in sys.modules]\n"
            "assert not loaded, loaded\n")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))


def test_grid_and_debias_load_no_plots(tmp_path):
    # cli imports plots only in the command that plots.
    config = dict(SYNTH_CONFIG, output_dir=str(tmp_path / "out"),
                  debias={"city": "Synth", "year": 2020})
    path = write_config(tmp_path, config)
    code = ("import sys\n"
            "from patrolsim.cli import main\n"
            f"assert main(['grid', '--config', {path!r}]) == 0\n"
            f"assert main(['debias', '--config', {path!r}]) == 0\n"
            "assert 'patrolsim.plots' not in sys.modules, 'plots loaded'\n")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))


def write_grid_city(tmp_path, side=3):
    """Files of a city of side x side square neighborhoods with varied
    demographics and four crimes in each per month, and its binding."""
    features, demo, crimes = [], [], []
    step = 0.004
    for i in range(side):
        for j in range(side):
            ident = f"N{i}{j}"
            lat, lon = 39.28 + i * step, -76.66 + j * step
            ring = [[lon, lat], [lon, lat + step], [lon + step, lat + step],
                    [lon + step, lat], [lon, lat]]
            features.append({"type": "Feature", "properties": {"id": ident},
                             "geometry": {"type": "Polygon",
                                          "coordinates": [ring]}})
            k = i * side + j
            demo.append(f"{ident},{(k * 7 % 9) / 10},{(k * 4 % 9) / 10 / 2},"
                        f"{30000 + (k * 5 % 9) * 4000},{(k * 2 % 9) / 30}\n")
            crimes += [f"{k}-{m}-{c},{lat + step * (c + 1) / 5},"
                       f"{lon + step * (4 - c) / 5},2020-{m:02d}-15 12:00,THEFT\n"
                       for m in range(1, 13) for c in range(4)]
    (tmp_path / "bounds.geojson").write_text(json.dumps(
        {"type": "FeatureCollection", "features": features}))
    (tmp_path / "demo.csv").write_text(
        "id,pct_black,pct_white,median_income,poverty_rate\n" + "".join(demo))
    (tmp_path / "crime.csv").write_text("id,lat,lon,date,type\n"
                                        + "".join(crimes))
    return {"boundaries": "bounds.geojson", "demographics": "demo.csv",
            "crime_csv": "crime.csv"}


def test_all_runs_without_scipy(tmp_path):
    # p-values come from stats' own incomplete beta function: `all`
    # writes finite ones with scipy unimportable.
    out = tmp_path / "out"
    config = dict(SYNTH_CONFIG, output_dir=str(out), data_dir=str(tmp_path),
                  data={"cities": {"Grid": write_grid_city(tmp_path)}},
                  cells=[{"city": "Grid", "year": 2020, "mode": "detected"}])
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from patrolsim.cli import main\n"
            f"sys.exit(main(['all', '--config', "
            f"{write_config(tmp_path, config)!r}]))\n")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    regression = read_rows(out / "regression.csv")
    correlations = read_rows(out / "correlations.csv")
    assert len(regression) == 4 and len(correlations) == 4
    p_values = [float(r["p"]) for r in regression] + [
        float(r[k]) for r in correlations for k in ("pearson_p", "spearman_p")]
    assert all(0.0 <= p <= 1.0 for p in p_values)


class TestRunGridApi:
    def test_returns_sorted_records(self, tmp_path):
        config = json.loads(json.dumps(SYNTH_CONFIG))
        config["output_dir"] = str(tmp_path / "out")
        plan = build_plan(load_config(write_config(tmp_path, config)))
        runs = run_grid(plan)
        assert runs.failures == 0
        assert [r.month for r in runs.records[0]] == list(range(2, 13))
        assert len(runs.tallies[0]) == len(runs.totals[0]) == 11
        assert runs.failed == {}
        assert set(runs.loaded["Synth", 2020].neighborhoods) == {"A", "B"}
