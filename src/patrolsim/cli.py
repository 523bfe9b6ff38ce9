"""Experiment orchestration: the full grid, sensitivity sweeps, the debias
experiment, statistics, and plot emission, driven by one JSON config.

Subcommands: ingest, grid, sensitivity, debias, stats, plots, all.
Exit codes: 0 success, 1 config error, 2 data error, 3 run failure(s).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import (astuple, dataclass, field, fields, is_dataclass,
                         replace)
from typing import get_type_hints

import numpy as np

from . import __version__, gan, ingest, metrics, plots, simulate, stats
from .gan import TrainConfig
from .geodata import BALTIMORE_BBOX, BoundingBox
from .ingest import IngestError, MonthSlice, Neighborhood
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
    mode: str

    def __post_init__(self):
        if self.mode not in ("detected", "reported"):
            raise ValueError(f"mode must be detected or reported, "
                             f"got {self.mode!r}")


@dataclass(frozen=True)
class DebiasSpec:
    city: str
    year: int
    replace_fraction: float = 0.30

    def __post_init__(self):
        if not 0.0 <= self.replace_fraction < 1.0:
            raise ValueError(f"replace_fraction must be in [0, 1), "
                             f"got {self.replace_fraction!r}")


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


SENSITIVITY_PARAMS = ("radius_ft", "n_officers", "reporting_prob")


@dataclass
class Sensitivity:
    """The `sensitivity` block: `parameter` takes each of `values` on
    `base_cell`. `values` stay as written, for sensitivity.csv."""
    parameter: str
    values: list
    base_cell: Cell
    # The plan's sim config with each value in turn; set by build_plan.
    sim_cfgs: list[SimConfig] = field(default_factory=list, init=False)

    def __post_init__(self):
        if self.parameter not in SENSITIVITY_PARAMS:
            raise ValueError(f"parameter must be one of {SENSITIVITY_PARAMS}")
        if not self.values:
            raise ValueError("values must be a non-empty list")


@dataclass
class ExperimentPlan:
    seed: int
    cells: list[Cell]
    replicates: int
    sim_cfg: SimConfig
    train_cfg: TrainConfig
    synthetic: SyntheticCityConfig | None
    cities: dict[str, CityBinding]
    debias: DebiasSpec | None
    sensitivity: Sensitivity | None
    plot_y_max: float
    out_dir: str
    data_dir: str  # the root of the `data.cities` paths
    synthetic_checksum: str  # "" without a data.synthetic block


_JSON_TYPES = {int: "an integer", float: "a number", str: "a string",
               bool: "true or false", list: "a list", dict: "an object"}


def _json_value(name: str, value, kind: type):
    """`value` checked to be of the JSON type `kind`: an integer is taken
    (as a float) for a float, a bool is never a number, and a dict for a
    dataclass is parsed by `parse_block`; `object` takes any value, for the
    dataclass to check."""
    if is_dataclass(kind):
        return parse_block(kind, name, value)
    if kind is object:
        return value
    if kind is float and type(value) is int:
        return float(value)
    if type(value) is not kind:
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
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
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
    if replicates < 1:
        raise ConfigError("replicates must be >= 1")
    y_max = _json_value("plot_y_max", config.get("plot_y_max", 100.0), float)
    if not y_max > 0:
        raise ConfigError(f"plot_y_max must be positive, got {y_max!r}")
    cells = [parse_block(Cell, "cell", raw)
             for raw in _json_value("cells", config.get("cells", []), list)]
    sim = config.get("sim", {})
    sim_cfg = parse_block(SimConfig, "sim", sim, seed=seed)
    train_cfg = parse_block(TrainConfig, "train", config.get("train", {}),
                            seed=seed)
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
        # The block as written, so the checksum ignores defaulted keys.
        synthetic_checksum = "synthetic:" + hashlib.sha256(json.dumps(
            raw, sort_keys=True).encode()).hexdigest()[:16]
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
                        {**sim, sensitivity.parameter: value}, seed=seed)
            for value in sensitivity.values]
    out_dir = _json_value("output_dir", config.get("output_dir", "out"), str)
    return ExperimentPlan(seed, cells, replicates, sim_cfg, train_cfg,
                          synthetic, cities, debias, sensitivity, y_max,
                          out_dir, data_dir, synthetic_checksum)


# --- data resolution ------------------------------------------------------

@dataclass
class CityYearData:
    slices: list[MonthSlice]
    neighborhoods: dict[str, Neighborhood]
    bbox: BoundingBox
    checksum: str


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
    otherwise the city's `data.cities` binding names its files. Pass one
    `files` dict to the loads of several years, and each city's boundaries
    and each crime CSV are read only once.
    """
    if plan.synthetic is not None:
        neighborhoods = {nb.id: nb
                         for nb in synthetic_neighborhoods(plan.synthetic)}
        slices = synthetic_year(city, year, plan.synthetic)
        return CityYearData(slices, neighborhoods, SYNTH_BBOX,
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
            crime_path, binding.column_mapping, city)[0],
            _file_sha256(crime_path))
    parsed, checksum = files["crimes", city, crime_path]
    incidents = [i for i in parsed if i.timestamp.year == year]
    incidents = ingest.filter_valid(incidents, bbox)
    incidents, _ = ingest.assign_neighborhoods(incidents, nbs)
    slices = ingest.partition_by_month(incidents)
    return CityYearData(slices, {nb.id: nb for nb in nbs}, bbox, checksum)


# --- month-run execution --------------------------------------------------

def _run_one_month(cell: Cell, slice_: MonthSlice,
                   neighborhoods: dict[str, Neighborhood], bbox: BoundingBox,
                   train_cfg: TrainConfig, sim_cfg: SimConfig,
                   replicate: int) -> tuple[simulate.MonthRunResult,
                                            metrics.MonthlyBiasRecord]:
    if cell.mode == "detected":
        result = simulate.run_month_detected(slice_, neighborhoods, train_cfg,
                                             sim_cfg, bbox, replicate)
    else:
        result = simulate.run_month_reported(slice_, neighborhoods, sim_cfg,
                                             replicate)
    rates = metrics.group_rates(result.outcomes)
    record = metrics.monthly_record(cell.city, cell.year, slice_.month,
                                    cell.mode, rates, replicate)
    return result, record


def _run_key(cell: Cell, month: int, replicate: int) -> str:
    return f"{cell.city}/{cell.year}/{month}/{cell.mode}/r{replicate}"


def _task(args):
    """One month-run; an exception becomes its "ExcType: message" so that
    the other month-runs still finish."""
    try:
        return _run_one_month(*args)
    except Exception as exc:  # noqa: BLE001 - recorded per run, exit 3
        log.exception("month-run %s failed",
                      _run_key(args[0], args[1].month, args[-1]))
        return f"{type(exc).__name__}: {exc}"


@dataclass
class MonthRuns:
    """What `run_months` ran. `results[i]`, `records[i]` and `failed[i]`
    belong to the i-th sim config, in (cell, month, replicate) order;
    `attempted` lists the (cell, month, replicate) runs of each sim config."""
    results: list[list[simulate.MonthRunResult]]
    records: list[list[metrics.MonthlyBiasRecord]]
    failed: list[dict[str, str]]
    attempted: list[tuple[Cell, int, int]]
    loaded: dict[tuple[str, int], CityYearData]
    skipped: list[str]
    failures: int


def run_months(plan: ExperimentPlan, cells: list[Cell],
               sim_cfgs: list[SimConfig], jobs: int) -> MonthRuns:
    """Run every (sim config, cell, month, replicate), serially or on `jobs`
    processes; results keep that order whatever `jobs` is.

    Each distinct (city, year) loads once. A cell that fails to load and a
    month-run that raises count as failures; every other run still runs.
    """
    loaded: dict[tuple[str, int], CityYearData] = {}
    files: dict = {}
    for key in dict.fromkeys((c.city, c.year) for c in cells):
        try:
            loaded[key] = load_city_year(plan, *key, files)
        except (IngestError, OSError) as exc:
            log.error("%s %s failed to load: %s", *key, exc)
    skipped: list[str] = []
    inputs = []
    for cell in cells:
        data = loaded.get((cell.city, cell.year))
        if data is None:
            continue
        by_month = {s.month: s for s in data.slices if s.incidents}
        for month in ingest.MONTHS:
            if month not in by_month:
                skipped.append(f"{cell.city}/{cell.year}/{month}/{cell.mode}")
                continue
            inputs += [(cell, by_month[month], data, rep)
                       for rep in range(plan.replicates)]

    tasks = [(cell, slice_, data.neighborhoods, data.bbox, plan.train_cfg,
              sim_cfg, rep)
             for sim_cfg in sim_cfgs for cell, slice_, data, rep in inputs]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outputs = list(pool.map(_task, tasks))
    else:
        outputs = [_task(task) for task in tasks]

    attempted = [(cell, slice_.month, rep) for cell, slice_, _, rep in inputs]
    results, records, failed = [], [], []
    for k in range(len(sim_cfgs)):
        outs = outputs[k * len(inputs):(k + 1) * len(inputs)]
        failed.append({_run_key(*run): out for run, out in zip(attempted, outs)
                       if isinstance(out, str)})
        ran = [out for out in outs if not isinstance(out, str)]
        results.append([result for result, _ in ran])
        records.append([record for _, record in ran])
    load_failures = sum((c.city, c.year) not in loaded for c in cells)
    return MonthRuns(results, records, failed, attempted, loaded, skipped,
                     load_failures + sum(map(len, failed)))


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


def run_grid(plan: ExperimentPlan, jobs: int = 1) -> MonthRuns:
    """Run every (cell, month, replicate) of the plan and write monthly.csv,
    annual.csv and manifest.json."""
    runs = run_months(plan, plan.cells, [plan.sim_cfg], jobs)
    os.makedirs(plan.out_dir, exist_ok=True)
    if plan.cells:
        _write_csv(plan.out_dir, "monthly.csv", metrics.MONTHLY_CSV_HEADER,
                   map(metrics.monthly_csv_row, runs.records[0]))
        _write_csv(plan.out_dir, "annual.csv", metrics.ANNUAL_CSV_HEADER,
                   map(metrics.annual_csv_row,
                       _annual_summaries(plan.cells, runs.records[0])))
        _write_manifest(plan, plan.cells, runs, runs.failed[0])
    return runs


def _field(value) -> str:
    """How a value is written in a CSV field: None as empty, any float
    (numpy's too) as its shortest round-trip repr, the rest as str."""
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(out_dir: str, name: str, header, rows) -> None:
    """Write out_dir/name: the header, then one line per row of values;
    a field holding a comma, quote or newline is quoted."""
    with open(os.path.join(out_dir, name), "w", encoding="utf-8",
              newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(_field, row) for row in rows)


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
        "per_run_seeds": {
            _run_key(c, m, rep): simulate.month_run_seed(
                plan.sim_cfg.seed, c.city, c.year, m, c.mode, rep)
            for c, m, rep in runs.attempted
        },
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
    for value, results, records in zip(sweep.values, runs.results,
                                       runs.records):
        if not records:
            continue
        s = metrics.annual_summary(records)  # all replicates of the cell
        total_detected = sum(sum(o.credit for o in r.outcomes)
                             for r in results)
        rows.append((sweep.parameter, value, s.avg_dir, s.max_dir,
                     s.avg_parity_gap, s.avg_gini, float(total_detected),
                     s.months_counted))
    _write_csv(plan.out_dir, "sensitivity.csv",
               ("parameter", "value", "avg_dir", "max_dir", "avg_parity_gap",
                "avg_gini", "total_detected", "months_counted"), rows)
    _write_manifest(plan, [cell], runs, {
        f"{sweep.parameter}={value}/{key}": error
        for value, failed in zip(sweep.values, runs.failed)
        for key, error in failed.items()})
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
    evaluated against the same crimes. A city-year in `loaded` (the grid's,
    under `all`) is not loaded again.
    """
    if plan.debias is None:
        raise ConfigError("config has no 'debias' block")
    city, year = plan.debias.city, plan.debias.year
    data = (loaded or {}).get((city, year)) or load_city_year(plan, city, year)
    incidents = [inc for s in data.slices for inc in s.incidents]
    if not incidents:
        raise IngestError(f"no incidents for debias cell {city} {year}")

    seed = derive_seed(plan.sim_cfg.seed, "debias", city, year)
    rng = np.random.default_rng(seed)
    labeled = [(inc.location,
                simulate.assign_race(inc, data.neighborhoods, rng))
               for inc in incidents]

    train_cfg = replace(plan.train_cfg, seed=seed)

    biased_model, _ = gan.train_gan([p for p, _ in labeled], train_cfg,
                                    data.bbox)
    cond_model, _ = gan.train_gan([p for p, _ in labeled], train_cfg,
                                  data.bbox, [lab for _, lab in labeled])
    rebalanced = gan.rebalance_training_set(labeled, cond_model, rng,
                                            plan.debias.replace_fraction)
    debiased_model, _ = gan.train_gan([p for p, _ in rebalanced], train_cfg,
                                      data.bbox)

    os.makedirs(plan.out_dir, exist_ok=True)
    rows = []
    for name, model in (("biased", biased_model), ("debiased", debiased_model)):
        eval_rng = np.random.default_rng(derive_seed(seed, "eval", name))
        patrols = gan.sample_patrol(model, plan.sim_cfg.n_officers, eval_rng)
        rates = _evaluate_condition(labeled, patrols, plan.sim_cfg, eval_rng)
        rows.append((name, *metrics.disparate_impact_ratio(rates),
                     rates.rate("Black") or 0.0, rates.rate("White") or 0.0,
                     metrics.parity_gap(rates)))
    _write_csv(plan.out_dir, "debias.csv",
               ("condition", "dir", "dir_flag", "rate_black", "rate_white",
                "parity_gap"), rows)
    return {"data_checksums": {f"{city}-{year}": data.checksum},
            "seed": seed}


def _evaluate_condition(labeled, patrols, sim_cfg: SimConfig,
                        rng: np.random.Generator) -> metrics.GroupRates:
    return metrics.group_rates(
        simulate.evaluate_labeled(labeled, patrols, sim_cfg, rng))


# --- stats ----------------------------------------------------------------

def run_stats(plan: ExperimentPlan, jobs: int = 1,
              runs: MonthRuns | None = None) -> int:
    """Neighborhood dataset, OLS regression, and correlations.

    Re-runs the grid deterministically when invoked standalone; `all`
    passes the grid's month-runs through.
    """
    if runs is None:
        runs = run_grid(plan, jobs)
    neighborhoods = {nb_id: nb for data in runs.loaded.values()
                     for nb_id, nb in data.neighborhoods.items()}
    observations, excluded = stats.build_neighborhood_dataset(
        runs.results[0], neighborhoods)
    os.makedirs(plan.out_dir, exist_ok=True)

    _write_csv(plan.out_dir, "observations.csv",
               [f.name for f in fields(stats.NeighborhoodObservation)],
               map(astuple, observations))
    log.info("stats: %d observations, %d zero-crime units excluded",
             len(observations), excluded)

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
    return runs.failures


# --- subcommand wiring ----------------------------------------------------
# Each command returns its failure count; main maps a nonzero count to exit 3.

def run_ingest(plan: ExperimentPlan, jobs: int) -> int:
    summary, files = {}, {}
    for city, year in dict.fromkeys((c.city, c.year) for c in plan.cells):
        data = load_city_year(plan, city, year, files)
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
    plots.emit_plots(monthly, os.path.join(plan.out_dir, "plots"),
                     os.path.join(plan.out_dir, "observations.csv"),
                     y_max=plan.plot_y_max)
    return 0


def run_debias(plan: ExperimentPlan, jobs: int) -> int:
    debias = run_debias_experiment(plan)
    _write_json(plan.out_dir, "manifest.json", {
        "version": __version__, "seed": plan.seed, "debias": debias})
    return 0


def run_all(plan: ExperimentPlan, jobs: int) -> int:
    runs = run_grid(plan, jobs)
    if plan.debias:
        # The grid's manifest, rewritten with the debias facts added.
        _write_manifest(plan, plan.cells, runs, runs.failed[0],
                        run_debias_experiment(plan, runs.loaded))
    failures = run_stats(plan, jobs, runs)
    return failures + run_plots(plan, jobs)


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
