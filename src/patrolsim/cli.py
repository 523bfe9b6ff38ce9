"""Experiment orchestration: the full grid, sensitivity sweeps, the debias
experiment, statistics, and plot emission, driven by one JSON config.

Subcommands: ingest, grid, sensitivity, debias, stats, plots, all.
Exit codes: 0 success, 1 config error, 2 data error, 3 run failure(s).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import re
import sys
from dataclasses import (asdict, dataclass, field, fields, is_dataclass,
                         replace)
from operator import attrgetter
from typing import Annotated, Literal, get_origin, get_type_hints

import numpy as np

from . import __version__, gan, ingest, metrics, simulate, stats
from .gan import TrainConfig
from .geodata import BALTIMORE_BBOX, BoundingBox
from .ingest import IngestError, MonthSlice, Neighborhood
from .ranges import check_ranges
from .simulate import SimConfig, derive_seed
from .synthetic import (SYNTH_BBOX, SyntheticCityConfig,
                        synthetic_neighborhoods, synthetic_year)

log = logging.getLogger("patrolsim")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_RUN = 3


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class Cell:
    city: str
    year: int
    mode: Literal["detected", "reported"]
    __post_init__ = check_ranges


@dataclass(frozen=True)
class DebiasSpec:
    city: str
    year: int
    replace_fraction: Annotated[float, "[0, 1)"] = 0.30
    __post_init__ = check_ranges


@dataclass(frozen=True)
class CityBinding:
    """One `data.cities` entry, with paths relative to the data root. Its
    "<year>" keys, kept in `years`, name that year's crime CSV."""
    boundaries: str
    demographics: str
    crime_csv: str = ""
    id_property: str = "id"
    column_mapping: object = "generic"  # a preset name or a column object
    bbox: list = field(default_factory=list)
    years: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.bbox:
            if len(self.bbox) != 4 or any(type(v) not in (int, float)
                                          for v in self.bbox):
                raise ValueError("bbox must be [lat_min, lat_max, lon_min, "
                                 f"lon_max], got {self.bbox!r}")
            BoundingBox(*self.bbox)
        mapping = self.column_mapping
        if type(mapping) is str:
            mapping = ingest.COLUMN_PRESETS.get(mapping)
        if type(mapping) is not dict or any(
                type(mapping.get(key)) is not str
                for key in ("id", "lat", "lon", "date")):
            raise ValueError(f"column_mapping must be one of "
                             f"{sorted(ingest.COLUMN_PRESETS)} or name the id, "
                             f"lat, lon and date columns, "
                             f"got {self.column_mapping!r}")


@dataclass
class Sensitivity:
    """The `sensitivity` block: `parameter` takes each of `values` on
    `base_cell`. `values` stay as written, for sensitivity.csv."""
    parameter: Literal["radius_ft", "n_officers", "reporting_prob"]
    values: Annotated[list, "[1, 100]"]
    base_cell: Cell
    # The plan's sim config with each value in turn; set by build_plan.
    sim_cfgs: list[SimConfig] = field(default_factory=list, init=False)
    __post_init__ = check_ranges


@dataclass
class ExperimentPlan:
    seed: int
    cells: list[Cell]
    replicates: Annotated[int, "[1, 1e3]"]
    sim_cfg: SimConfig
    train_cfg: TrainConfig
    synthetic: SyntheticCityConfig | None
    cities: dict[str, CityBinding]
    debias: DebiasSpec | None
    sensitivity: Sensitivity | None
    plot_y_max: Annotated[float, "(0, 1e6]"]
    out_dir: str
    data_dir: str  # the root of the `data.cities` paths
    synthetic_checksum: str  # "" without a data.synthetic block
    __post_init__ = check_ranges


_JSON_TYPES = {int: "an integer", float: "a finite number", str: "a string",
               bool: "true or false", list: "a list", dict: "an object"}


def _json_value(name: str, value, kind: type):
    """`value` checked to be of the JSON type `kind`: a float is finite, an
    integer in float range is taken (as a float) for one, a bool is never a
    number, a `Literal` is a string and a dict for a dataclass is parsed by
    `parse_block`; `object` takes any value, for the dataclass to check."""
    if is_dataclass(kind):
        return parse_block(kind, name, value)
    if kind is object:
        return value
    kind = str if get_origin(kind) is Literal else kind
    if kind is float and type(value) is int and abs(value) < 1e308:
        return float(value)
    if type(value) is not kind or kind is float and not math.isfinite(value):
        raise ConfigError(f"{name} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _check_keys(name: str, block: dict, keys) -> None:
    """A ConfigError for any key of `block` not in `keys`; the message
    lists `keys` in the order given."""
    unknown = sorted(set(block) - set(keys))
    if unknown:
        raise ConfigError(f"{name}: unknown keys {unknown}, "
                          f"expected {list(keys)}")


def parse_block(cls: type, name: str, raw, **fixed):
    """Build the config dataclass `cls` from its JSON block `raw`.

    Every key must name a field other than those in `fixed` (which are
    passed as given), and each value must have the JSON type of its field's
    annotation. A field without a default is required (a TypeError from
    `cls`), and `cls` checks ranges in `__post_init__` (a ValueError); both
    are raised as ConfigError.
    """
    kinds = get_type_hints(cls)
    _check_keys(name, _json_value(name, raw, dict),
                sorted(f.name for f in fields(cls)
                       if f.init and f.name not in fixed))
    values = {key: _json_value(f"{name} {key}", value, kinds[key])
              for key, value in raw.items()}
    try:
        return cls(**values, **fixed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def load_config(path: str, overrides: dict | None = None) -> dict:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    # CLI flags override config keys.
    for key, value in (overrides or {}).items():
        if value is not None:
            config[key] = value
    return config


TOP_LEVEL_KEYS = ("cells", "data", "data_dir", "debias", "output_dir",
                  "plot_y_max", "replicates", "seed", "sensitivity", "sim",
                  "train")
DATA_KEYS = ("cities", "synthetic")


def build_plan(config: dict) -> ExperimentPlan:
    """Check the whole config and build the plan from it; loads no data."""
    _check_keys("config", config, TOP_LEVEL_KEYS)
    seed = _json_value("seed", config.get("seed", 0), int)
    replicates = _json_value("replicates", config.get("replicates", 1), int)
    y_max = _json_value("plot_y_max", config.get("plot_y_max", 100.0), float)
    cells = [parse_block(Cell, "cell", raw)
             for raw in _json_value("cells", config.get("cells", []), list)]
    sim = config.get("sim", {})
    sim_cfg = parse_block(SimConfig, "sim", sim)
    train_cfg = parse_block(TrainConfig, "train", config.get("train", {}))
    data = _json_value("data", config.get("data", {}), dict)
    _check_keys("data", data, DATA_KEYS)
    data_dir = (_json_value("data_dir", config.get("data_dir", ""), str)
                or os.environ.get("PATROLSIM_DATA_DIR", "."))
    synthetic, synthetic_checksum = None, ""
    if "synthetic" in data:
        # The synthetic city's seed defaults to the top-level seed.
        raw = data["synthetic"]
        synthetic = parse_block(
            SyntheticCityConfig, "data.synthetic",
            {"seed": seed, **raw} if isinstance(raw, dict) else raw)
        # The config the city is generated from, defaults and seed included.
        synthetic_checksum = "synthetic:" + hashlib.sha256(json.dumps(
            asdict(synthetic), sort_keys=True).encode()).hexdigest()[:16]
    cities = {}
    for city, raw in _json_value("data.cities", data.get("cities", {}),
                                 dict).items():
        name = f"data.cities {city}"
        raw = _json_value(name, raw, dict)
        cities[city] = parse_block(
            CityBinding, name, {k: v for k, v in raw.items()
                                if not k.isdigit()},
            years={k: _json_value(f"{name} {k}", v, str)
                   for k, v in raw.items() if k.isdigit()})
    debias = (parse_block(DebiasSpec, "debias", config["debias"])
              if "debias" in config else None)
    sensitivity = None
    if "sensitivity" in config:
        sensitivity = parse_block(Sensitivity, "sensitivity",
                                  config["sensitivity"])
        sensitivity.sim_cfgs = [
            parse_block(SimConfig, "sensitivity",
                        {**sim, sensitivity.parameter: value})
            for value in sensitivity.values]
    out_dir = _json_value("output_dir", config.get("output_dir", "out"), str)
    try:
        return ExperimentPlan(seed, cells, replicates, sim_cfg, train_cfg,
                              synthetic, cities, debias, sensitivity, y_max,
                              out_dir, data_dir, synthetic_checksum)
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from exc


# --- data resolution ------------------------------------------------------

@dataclass
class CityYearData:
    """A loaded city-year. Its neighborhoods carry no polygons: only
    assignment reads them, and a month-run task would pickle them."""
    slices: list[MonthSlice]
    neighborhoods: dict[str, Neighborhood]
    bbox: BoundingBox
    checksum: str


def _without_polygons(nbs: list[Neighborhood]) -> dict[str, Neighborhood]:
    return {nb.id: replace(nb, polygons=()) for nb in nbs}


def _file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def load_city_year(plan: ExperimentPlan, city: str, year: int,
                   files: dict | None = None) -> CityYearData:
    """Resolve one (city, year) to month slices + neighborhoods.

    A 'synthetic' data block generates the bundled two-cluster city;
    otherwise the city's `data.cities` binding names its files. Commands
    load through `load_city_years`, whose loads share the parsed files.
    """
    if plan.synthetic is not None:
        nbs = synthetic_neighborhoods(plan.synthetic)
        return CityYearData(synthetic_year(city, year, plan.synthetic),
                            _without_polygons(nbs), SYNTH_BBOX,
                            plan.synthetic_checksum)

    binding = plan.cities.get(city)
    if binding is None:
        raise IngestError(f"no data binding for city {city!r}")
    crime_csv = binding.years.get(str(year), binding.crime_csv)
    if not crime_csv:
        raise IngestError(f"data binding for {city} missing 'crime_csv'")
    crime_path = os.path.join(plan.data_dir, crime_csv)
    files = {} if files is None else files
    if ("boundaries", city) not in files:
        files["boundaries", city] = ingest.load_neighborhoods(
            os.path.join(plan.data_dir, binding.boundaries),
            os.path.join(plan.data_dir, binding.demographics),
            binding.id_property)
    nbs = files["boundaries", city]
    if binding.bbox:
        bbox = BoundingBox(*binding.bbox)
    elif city.lower() == "baltimore":
        bbox = BALTIMORE_BBOX
    else:
        bbox = ingest.hull_bbox(nbs)
    if ("crimes", city, crime_path) not in files:
        files["crimes", city, crime_path] = (ingest.parse_crime_csv(
            crime_path, binding.column_mapping)[0],
            _file_sha256(crime_path))
    parsed, checksum = files["crimes", city, crime_path]
    incidents = [i for i in parsed if i.timestamp.year == year]
    incidents = ingest.filter_valid(incidents, bbox)
    incidents, _ = ingest.assign_neighborhoods(incidents, nbs)
    slices = ingest.partition_by_month(incidents, city, year)
    return CityYearData(slices, _without_polygons(nbs), bbox, checksum)


def load_city_years(plan: ExperimentPlan, keys
                    ) -> dict[tuple[str, int], CityYearData | Exception]:
    """Each distinct (city, year) of `keys`, in order, loaded: its
    CityYearData, or the IngestError or OSError that stopped its load.

    The loads share one cache of parsed crime CSVs and boundaries, so each
    file is read once; the cache ends here, and only CityYearData is kept.
    """
    files: dict = {}
    loaded: dict = {}
    for key in dict.fromkeys(keys):
        try:
            loaded[key] = load_city_year(plan, *key, files)
        except (IngestError, OSError) as exc:
            loaded[key] = exc
    # A kept error's traceback holds the frames that held the cache.
    files.clear()
    return loaded


# --- month-run execution --------------------------------------------------

def _run_one_month(cell: Cell, slice_: MonthSlice,
                   neighborhoods: dict[str, Neighborhood], bbox: BoundingBox,
                   train_cfg: TrainConfig, sim_cfgs: list[SimConfig],
                   replicate: int, seed: int,
                   ) -> list[tuple[metrics.MonthlyBiasRecord,
                                   stats.NeighborhoodTally, float]]:
    """One (cell, month, replicate) under each sim config in turn, as its
    (record, neighborhood tally, credit total in crime order). `seed` is
    the month-run's: a detected cell trains its GAN once on it, and the run
    under each sim config draws from it."""
    model = (gan.train_gan(slice_.incidents, train_cfg, bbox, seed)[0]
             if cell.mode == "detected" else None)
    outputs = []
    for sim_cfg in sim_cfgs:
        if model is None:
            result = simulate.run_month_reported(slice_, neighborhoods,
                                                 sim_cfg, seed)
        else:
            result = simulate.run_month_detected(slice_, neighborhoods,
                                                 model, sim_cfg, seed)
        out = result.outcomes
        rates = metrics.group_rates(out.groups, out.credits)
        # np.cumsum adds the credits in crime order; np.sum adds pairwise.
        outputs.append((
            metrics.monthly_record(cell.city, cell.year, slice_.month,
                                   cell.mode, rates, replicate),
            stats.tally_neighborhoods((cell.city, cell.year, cell.mode),
                                      slice_.neighborhood_ids, out.credits),
            float(np.cumsum(out.credits)[-1])))
    return outputs


def _run_key(cell: Cell, month: int, replicate: int) -> str:
    return f"{cell.city}/{cell.year}/{month}/{cell.mode}/r{replicate}"


def _task(args):
    """One month-run; an exception becomes its "ExcType: message" so that
    the other month-runs still finish."""
    cell, slice_, *_, replicate, _seed = args
    try:
        return _run_one_month(*args)
    except Exception as exc:  # noqa: BLE001 - recorded per run, exit 3
        log.exception("month-run %s failed",
                      _run_key(cell, slice_.month, replicate))
        return f"{type(exc).__name__}: {exc}"


@dataclass
class MonthRuns:
    """What `run_months` ran. `records[i]`, `tallies[i]` and `totals[i]`
    belong to the i-th sim config, in (cell, month, replicate) order;
    `attempted` lists the (cell, month, replicate, seed) runs, and `failed`
    maps the key of each one that raised, under every sim config, to its
    error. `loaded` holds the cells' city-years that loaded."""
    records: list[list[metrics.MonthlyBiasRecord]]
    tallies: list[list[stats.NeighborhoodTally]]
    totals: list[list[float]]
    failed: dict[str, str]
    attempted: list[tuple[Cell, int, int, int]]
    loaded: dict[tuple[str, int], CityYearData]
    skipped: list[str]
    failures: int


def run_months(plan: ExperimentPlan, cells: list[Cell],
               sim_cfgs: list[SimConfig], jobs: int,
               loaded: dict | None = None) -> MonthRuns:
    """Run every (cell, month, replicate) under each sim config, serially or
    on `jobs` processes; results keep that order whatever `jobs` is.

    The cells' city-years come from `loaded`, a `load_city_years` batch, or
    are loaded in one batch here. A cell that failed to load and a month-run
    that raises count as failures; every other run still runs. Only here is
    a month-run's seed derived from the master seed.
    """
    keys = dict.fromkeys((c.city, c.year) for c in cells)
    if loaded is None:
        loaded = load_city_years(plan, keys)
    for key in keys:
        if isinstance(loaded[key], Exception):
            log.error("%s %s failed to load: %s", *key, loaded[key])
    loaded = {key: loaded[key] for key in keys
              if not isinstance(loaded[key], Exception)}
    skipped: list[str] = []
    tasks = []
    for cell in cells:
        data = loaded.get((cell.city, cell.year))
        if data is None:
            continue
        by_month = {s.month: s for s in data.slices if len(s.incidents)}
        for month in ingest.MONTHS:
            if month not in by_month:
                skipped.append(f"{cell.city}/{cell.year}/{month}/{cell.mode}")
                continue
            tasks += [(cell, by_month[month], data.neighborhoods, data.bbox,
                       plan.train_cfg, sim_cfgs, rep,
                       simulate.month_run_seed(plan.seed, cell.city, cell.year,
                                               month, cell.mode, rep))
                      for rep in range(plan.replicates)]

    if jobs > 1 and len(tasks) > 1:
        # Imported here, so that a command on one job does not load it.
        from concurrent.futures import ProcessPoolExecutor
        # Under fork the pool starts all its workers at once.
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            outputs = list(pool.map(_task, tasks))
    else:
        outputs = [_task(task) for task in tasks]

    attempted = [(cell, slice_.month, rep, seed)
                 for cell, slice_, *_, rep, seed in tasks]
    failed = {_run_key(*run[:3]): out for run, out in zip(attempted, outputs)
              if isinstance(out, str)}
    ran = [out for out in outputs if not isinstance(out, str)]
    records, tallies, totals = ([[outs[k][j] for outs in ran]
                                 for k in range(len(sim_cfgs))]
                                for j in range(3))
    load_failures = sum((c.city, c.year) not in loaded for c in cells)
    return MonthRuns(records, tallies, totals, failed, attempted, loaded,
                     skipped, load_failures + len(failed))


def _annual_summaries(cells: list[Cell],
                      records: list[metrics.MonthlyBiasRecord],
                      ) -> list[metrics.AnnualSummary]:
    """One summary per cell that has records, over all of its replicates."""
    summaries = []
    for cell in cells:
        cell_records = [r for r in records if (r.city, r.year, r.mode)
                        == (cell.city, cell.year, cell.mode)]
        if cell_records:
            summaries.append(metrics.annual_summary(cell_records))
    return summaries


def run_grid(plan: ExperimentPlan, jobs: int = 1,
             loaded: dict | None = None) -> MonthRuns:
    """Run every (cell, month, replicate) of the plan and write monthly.csv,
    annual.csv, observations.csv and manifest.json; `loaded` is as for
    `run_months`."""
    runs = run_months(plan, plan.cells, [plan.sim_cfg], jobs, loaded)
    os.makedirs(plan.out_dir, exist_ok=True)
    if plan.cells:
        _write_csv(plan.out_dir, "monthly.csv", metrics.MONTHLY_CSV_HEADER,
                   map(metrics.monthly_csv_row, runs.records[0]))
        _write_csv(plan.out_dir, "annual.csv", metrics.ANNUAL_CSV_HEADER,
                   map(metrics.annual_csv_row,
                       _annual_summaries(plan.cells, runs.records[0])))
        observations, excluded = stats.build_neighborhood_dataset(
            runs.tallies[0], {city: data.neighborhoods
                              for (city, _), data in runs.loaded.items()})
        columns = [f.name for f in fields(stats.NeighborhoodObservation)]
        _write_csv(plan.out_dir, "observations.csv", columns,
                   map(attrgetter(*columns), observations))
        log.info("%d observations, %d with an unknown neighborhood excluded",
                 len(observations), excluded)
        _write_manifest(plan, plan.cells, runs, runs.failed)
    return runs


_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def _field(value) -> str:
    """How a value is written in a CSV field: None as empty, any float
    (numpy's too) as its shortest round-trip repr, the rest as str, quoted
    as in RFC 4180 when it holds a comma, a quote, "\r" or "\n" (csv.writer
    leaves a lone "\r" unquoted, and a reader ends the row there)."""
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    text = str(value)
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES(text) else text


def _write_csv(out_dir: str, name: str, header, rows) -> None:
    """Write out_dir/name: the header, then one "\n"-ended line per row of
    values, each written as `_field` writes it."""
    with open(os.path.join(out_dir, name), "w", encoding="utf-8",
              newline="") as fh:
        for row in (header, *rows):
            fh.write(",".join(map(_field, row)) + "\n")


def _write_json(out_dir: str, name: str, obj) -> None:
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)


def _write_manifest(plan: ExperimentPlan, cells: list[Cell], runs: MonthRuns,
                    failed: dict[str, str], debias: dict | None = None) -> None:
    """manifest.json of the month-runs of `cells`, where `failed` maps each
    failed run's key to its error, and of the debias experiment, given the
    facts `run_debias_experiment` returned."""
    manifest = {
        "version": __version__,
        "seed": plan.seed,
        "replicates": plan.replicates,
        "cells": [[c.city, c.year, c.mode] for c in cells],
        "data_checksums": {f"{city}-{year}": data.checksum
                           for (city, year), data in runs.loaded.items()},
        "skipped_month_runs": runs.skipped,
        "failed_month_runs": failed,
        "per_run_seeds": {_run_key(c, m, rep): seed
                          for c, m, rep, seed in runs.attempted},
    }
    if debias is not None:
        manifest["debias"] = debias
    _write_json(plan.out_dir, "manifest.json", manifest)


# --- sensitivity ----------------------------------------------------------


def run_sensitivity(plan: ExperimentPlan, jobs: int = 1) -> int:
    """Sweep one parameter over its value list on the base cell, and write
    sensitivity.csv and manifest.json."""
    sweep = plan.sensitivity
    if sweep is None:
        raise ConfigError("config has no 'sensitivity' block")
    cell = sweep.base_cell
    runs = run_months(plan, [cell], sweep.sim_cfgs, jobs)
    os.makedirs(plan.out_dir, exist_ok=True)
    rows = []
    for value, records, sums in zip(sweep.values, runs.records, runs.totals):
        if not records:
            continue
        s = metrics.annual_summary(records)  # all replicates of the cell
        # The month-runs' credit totals, added in order.
        total_detected = np.bincount(np.zeros(len(sums), int), weights=sums)[0]
        rows.append((sweep.parameter, value, s.avg_dir, s.max_dir,
                     s.avg_parity_gap, s.avg_gini, total_detected,
                     s.months_counted))
    _write_csv(plan.out_dir, "sensitivity.csv",
               ("parameter", "value", "avg_dir", "max_dir", "avg_parity_gap",
                "avg_gini", "total_detected", "months_counted"), rows)
    _write_manifest(plan, [cell], runs, {
        f"{sweep.parameter}={value}/{key}": error
        for value in sweep.values for key, error in runs.failed.items()})
    return runs.failures


# --- debias experiment ----------------------------------------------------

def run_debias_experiment(plan: ExperimentPlan,
                          loaded: dict | None = None) -> dict:
    """Biased vs rebalanced training comparison on one city-year; writes
    debias.csv and returns the facts that manifest.json records of it.

    Biased condition trains the patrol GAN on the raw pooled incidents;
    debiased first trains the conditional GAN on race-labeled incidents,
    replaces a fraction of the training set with group-balanced synthetic
    points, and retrains the patrol GAN on the result. Both conditions are
    evaluated against the same crimes, each as soon as its model is
    trained, and no trained model outlives the next training. The
    city-year comes from `loaded`, a `load_city_years` batch (the one `all`
    loads before its grid), or is loaded here; a load error is raised.
    """
    if plan.debias is None:
        raise ConfigError("config has no 'debias' block")
    key = city, year = plan.debias.city, plan.debias.year
    data = (loaded or load_city_years(plan, [key]))[key]
    if isinstance(data, Exception):
        raise data
    if not sum(len(s.incidents) for s in data.slices):
        raise IngestError(f"no incidents for debias cell {city} {year}")

    seed = derive_seed(plan.seed, "debias", city, year)
    rng = np.random.default_rng(seed)
    crimes = np.concatenate([s.incidents for s in data.slices])
    groups = simulate.draw_groups(
        np.concatenate([s.neighborhood_ids for s in data.slices]),
        data.neighborhoods, rng.random(len(crimes)))

    rows = []
    collapsed = {}

    def condition(name: str, points: np.ndarray) -> None:
        """Train the patrol GAN on `points` and evaluate its patrols, with
        the condition's own rng; the model is dropped on return."""
        model, collapsed[name] = gan.train_gan(points, plan.train_cfg,
                                               data.bbox, seed)
        eval_rng = np.random.default_rng(derive_seed(seed, "eval", name))
        patrols = gan.sample_patrol(model, plan.sim_cfg.n_officers, eval_rng)
        rates = _evaluate_condition(crimes, groups, patrols, plan.sim_cfg,
                                    eval_rng)
        rows.append((name, *metrics.disparate_impact_ratio(rates),
                     rates.rate("Black") or 0.0, rates.rate("White") or 0.0,
                     metrics.parity_gap(rates)))

    condition("biased", crimes)
    cond_model, _ = gan.train_gan(crimes, plan.train_cfg, data.bbox, seed,
                                  groups)
    rebalanced = gan.rebalance_training_set(crimes, cond_model, rng,
                                            plan.debias.replace_fraction)
    del cond_model
    condition("debiased", rebalanced)

    os.makedirs(plan.out_dir, exist_ok=True)
    _write_csv(plan.out_dir, "debias.csv",
               ("condition", "dir", "dir_flag", "rate_black", "rate_white",
                "parity_gap"), rows)
    # The conditional GAN runs no collapse check, so it has no flag.
    return {"data_checksums": {f"{city}-{year}": data.checksum},
            "seed": seed, "mode_collapsed": collapsed}


def _evaluate_condition(crimes, groups, patrols, sim_cfg: SimConfig,
                        rng: np.random.Generator) -> metrics.GroupRates:
    probs = simulate.noisy_or(crimes, patrols, sim_cfg)
    _, credits = simulate.draw_outcomes(probs, not sim_cfg.expected_value, rng)
    return metrics.group_rates(groups, credits)


# --- stats ----------------------------------------------------------------

def run_stats(plan: ExperimentPlan, jobs: int) -> int:
    """OLS regression and correlations of the observations.csv that grid
    wrote; without one, a warning and nothing written."""
    path = os.path.join(plan.out_dir, "observations.csv")
    if not os.path.exists(path):
        log.warning("no observations.csv in %s; nothing to fit", plan.out_dir)
        return 0
    kinds = get_type_hints(stats.NeighborhoodObservation)
    observations = ingest.read_csv_rows(
        path, lambda row: stats.NeighborhoodObservation(
            **{key: kinds[key](value) for key, value in row.items()}),
        "an observations row")
    try:
        _write_csv(plan.out_dir, "regression.csv", stats.REGRESSION_CSV_HEADER,
                   stats.regression_rows(stats.ols_fit(
                       *stats.regression_design(observations))))
    except (stats.RankDeficientError, ValueError) as exc:
        log.warning("regression skipped: %s", exc)
    try:
        correlations = stats.correlation_rows(observations)
    except ValueError as exc:
        log.warning("correlations skipped: %s", exc)
        correlations = []
    _write_csv(plan.out_dir, "correlations.csv",
               stats.CORRELATIONS_CSV_HEADER, correlations)
    return 0


# --- subcommand wiring ----------------------------------------------------
# Each command returns its failure count; main maps a nonzero count to exit 3.

def run_ingest(plan: ExperimentPlan, jobs: int) -> int:
    loaded = load_city_years(plan, [(c.city, c.year) for c in plan.cells])
    summary = {}
    for (city, year), data in loaded.items():
        if isinstance(data, Exception):
            raise data
        summary[f"{city}-{year}"] = {
            "months": len(data.slices),
            "incidents": sum(len(s.incidents) for s in data.slices),
            "neighborhoods": len(data.neighborhoods),
            "checksum": data.checksum,
        }
    os.makedirs(plan.out_dir, exist_ok=True)
    _write_json(plan.out_dir, "ingest_summary.json", summary)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def run_plots(plan: ExperimentPlan, jobs: int) -> int:
    monthly = os.path.join(plan.out_dir, "monthly.csv")
    if not os.path.exists(monthly):
        log.warning("no monthly.csv in %s; nothing to plot", plan.out_dir)
        return 0
    # Imported here, so that only a command that plots loads it.
    from . import plots
    if not plots.emit_plots(monthly, os.path.join(plan.out_dir, "plots"),
                            os.path.join(plan.out_dir, "observations.csv"),
                            y_max=plan.plot_y_max):
        log.warning("%s has no rows; nothing to plot", monthly)
    return 0


def run_debias(plan: ExperimentPlan, jobs: int) -> int:
    debias = run_debias_experiment(plan)
    _write_json(plan.out_dir, "manifest.json", {
        "version": __version__, "seed": plan.seed, "debias": debias})
    return 0


def run_all(plan: ExperimentPlan, jobs: int) -> int:
    # The grid's city-years and the debias one load in one batch.
    keys = [(c.city, c.year) for c in plan.cells]
    if plan.debias:
        keys.append((plan.debias.city, plan.debias.year))
    loaded = load_city_years(plan, keys)
    runs = run_grid(plan, jobs, loaded)
    if plan.debias:
        # The grid's manifest, rewritten with the debias facts added.
        _write_manifest(plan, plan.cells, runs, runs.failed,
                        run_debias_experiment(plan, loaded))
    return runs.failures + run_stats(plan, jobs) + run_plots(plan, jobs)


COMMANDS = {
    "ingest": run_ingest,
    "grid": lambda plan, jobs: run_grid(plan, jobs).failures,
    "sensitivity": run_sensitivity,
    "debias": run_debias,
    "stats": run_stats,
    "plots": run_plots,
    "all": run_all,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="patrolsim",
        description="Patrol placement simulation and detection-bias audit")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel month-runs (default 1)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=None, help="override output_dir")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)

    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        plan = build_plan(load_config(args.config, {"seed": args.seed,
                                                    "output_dir": args.out}))
        failures = COMMANDS[args.command](plan, args.jobs)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return EXIT_CONFIG
    except (IngestError, OSError) as exc:
        log.error("data error: %s", exc)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - run failures map to exit 3
        log.exception("run failure: %s", exc)
        return EXIT_RUN
    return EXIT_RUN if failures else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
