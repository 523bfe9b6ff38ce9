"""Experiment orchestration: the full grid, sensitivity sweeps, the debias
experiment, statistics, and plot emission, driven by one JSON config.

Subcommands: ingest, grid, sensitivity, debias, stats, plots, all.
Exit codes: 0 success, 1 config error, 2 data error, 3 run failure(s).
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import gan, ingest, metrics, plots, simulate, stats
from .gan import TrainConfig
from .geodata import BALTIMORE_BBOX, BoundingBox
from .ingest import IngestError, MonthSlice, Neighborhood
from .simulate import SimConfig, derive_seed
from .synthetic import SyntheticCityConfig, synthetic_neighborhoods, synthetic_year

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


@dataclass
class ExperimentPlan:
    cells: list[Cell]
    replicates: int
    sim_cfg: SimConfig
    train_cfg: TrainConfig
    out_dir: str
    config: dict


def _dict_to_sim_cfg(d: dict, seed: int, mode: str = "detected") -> SimConfig:
    return SimConfig(
        n_officers=int(d.get("n_officers", 60)),
        radius_ft=float(d.get("radius_ft", 700.0)),
        p_officer=float(d.get("p_officer", 0.85)),
        reporting_prob=float(d.get("reporting_prob", 0.521)),
        mode=mode,
        seed=seed,
        expected_value=bool(d.get("expected_value", False)),
        reported_mode_semantics=d.get("reported_mode_semantics",
                                      simulate.PATROL_FROM_REPORTS),
    )


def _dict_to_train_cfg(d: dict, seed: int) -> TrainConfig:
    return TrainConfig(
        epochs=int(d.get("epochs", 200)),
        batch_size=int(d.get("batch_size", 64)),
        lr=float(d.get("lr", 2e-4)),
        beta1=float(d.get("beta1", 0.5)),
        beta2=float(d.get("beta2", 0.999)),
        seed=seed,
    )


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
    config.setdefault("seed", 0)
    config.setdefault("replicates", 1)
    config.setdefault("output_dir", "out")
    config.setdefault("sim", {})
    config.setdefault("train", {})
    config.setdefault("cells", [])
    config.setdefault("data", {})
    return config


def build_plan(config: dict) -> ExperimentPlan:
    cells = []
    for raw in config.get("cells", []):
        try:
            cell = Cell(str(raw["city"]), int(raw["year"]), str(raw["mode"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad cell entry {raw!r}: {exc}") from exc
        if cell.mode not in ("detected", "reported"):
            raise ConfigError(f"bad mode in cell {raw!r}")
        cells.append(cell)
    seed = int(config.get("seed", 0))
    try:
        sim_cfg = _dict_to_sim_cfg(config.get("sim", {}), seed)
        train_cfg = _dict_to_train_cfg(config.get("train", {}), seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    replicates = int(config.get("replicates", 1))
    if replicates < 1:
        raise ConfigError("replicates must be >= 1")
    return ExperimentPlan(cells, replicates, sim_cfg, train_cfg,
                          str(config.get("output_dir", "out")), config)


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


def _data_root(config: dict) -> str:
    return config.get("data_dir") or os.environ.get("PATROLSIM_DATA_DIR", ".")


def load_city_year(config: dict, city: str, year: int) -> CityYearData:
    """Resolve one (city, year) to month slices + neighborhoods.

    A 'synthetic' data block generates the bundled two-cluster city;
    otherwise per-city file bindings are read from data.cities.
    """
    data = config["data"]
    if "synthetic" in data:
        raw = dict(data["synthetic"])
        cfg = SyntheticCityConfig(
            incidents_per_month=int(raw.get("incidents_per_month", 60)),
            weight_a=float(raw.get("weight_a", 0.5)),
            sigma=float(raw.get("sigma", 0.08)),
            pct_black_a=float(raw.get("pct_black_a", 0.90)),
            pct_black_b=float(raw.get("pct_black_b", 0.05)),
            seed=int(raw.get("seed", config.get("seed", 0))))
        from .synthetic import SYNTH_BBOX
        neighborhoods = {nb.id: nb for nb in synthetic_neighborhoods(cfg)}
        slices = synthetic_year(city, year, cfg)
        checksum = "synthetic:" + hashlib.sha256(
            json.dumps(raw, sort_keys=True).encode()).hexdigest()[:16]
        return CityYearData(slices, neighborhoods, SYNTH_BBOX, checksum)

    cities = data.get("cities", {})
    if city not in cities:
        raise IngestError(f"no data binding for city {city!r}")
    binding = cities[city]
    root = _data_root(config)

    def resolve(key: str) -> str:
        try:
            return os.path.join(root, binding[key])
        except KeyError as exc:
            raise IngestError(f"data binding for {city} missing {key!r}") from exc

    crime_path = resolve(str(year)) if str(year) in binding else resolve("crime_csv")
    nbs = ingest.load_neighborhoods(resolve("boundaries"),
                                    resolve("demographics"),
                                    binding.get("id_property", "id"))
    if "bbox" in binding and binding["bbox"]:
        bbox = BoundingBox(*binding["bbox"])
    elif city.lower() == "baltimore":
        bbox = BALTIMORE_BBOX
    else:
        bbox = ingest.hull_bbox(nbs)
    incidents, _ = ingest.parse_crime_csv(
        crime_path, binding.get("column_mapping", "generic"), city)
    incidents = [i for i in incidents if i.timestamp.year == year]
    incidents = ingest.filter_valid(incidents, bbox)
    incidents, _ = ingest.assign_neighborhoods(incidents, nbs)
    slices = ingest.partition_by_month(incidents)
    checksum = _file_sha256(crime_path)
    return CityYearData(slices, {nb.id: nb for nb in nbs}, bbox, checksum)


# --- grid execution -------------------------------------------------------

def _run_one_month(cell: Cell, slice_: MonthSlice,
                   neighborhoods: dict[str, Neighborhood], bbox: BoundingBox,
                   train_cfg: TrainConfig, sim_cfg: SimConfig,
                   replicate: int) -> tuple[simulate.MonthRunResult,
                                            metrics.MonthlyBiasRecord]:
    cfg = replace(sim_cfg, mode=cell.mode,
                  seed=derive_seed(sim_cfg.seed, "rep", replicate))
    if cell.mode == "detected":
        result = simulate.run_month_detected(slice_, neighborhoods, train_cfg,
                                             cfg, bbox)
    else:
        result = simulate.run_month_reported(slice_, neighborhoods, cfg)
    rates = metrics.group_rates(result.outcomes, expected=cfg.expected_value)
    record = metrics.monthly_record(cell.city, cell.year, slice_.month,
                                    cell.mode, rates, replicate)
    return result, record


def _task(args):
    return args[0], _run_one_month(*args[1])


def run_grid(plan: ExperimentPlan, jobs: int = 1,
             ) -> tuple[list[metrics.MonthlyBiasRecord],
                        list[metrics.AnnualSummary],
                        list[simulate.MonthRunResult],
                        dict[str, Neighborhood], int]:
    """Execute every (cell, month, replicate) and write monthly/annual CSVs.

    Results merge in deterministic (cell, month, replicate) order regardless
    of completion order. Per-cell failures are logged and the grid continues;
    the returned failure count drives the process exit code.
    """
    os.makedirs(plan.out_dir, exist_ok=True)
    tasks = []
    all_neighborhoods: dict[str, Neighborhood] = {}
    manifest_data: dict[str, str] = {}
    failures = 0
    skipped: list[str] = []
    for ci, cell in enumerate(plan.cells):
        try:
            data = load_city_year(plan.config, cell.city, cell.year)
        except (IngestError, OSError) as exc:
            log.error("cell %s failed to load: %s", cell, exc)
            failures += 1
            continue
        all_neighborhoods.update(data.neighborhoods)
        manifest_data[f"{cell.city}-{cell.year}"] = data.checksum
        by_month = {s.month: s for s in data.slices if s.incidents}
        for month in range(2, 13):
            if month not in by_month:
                skipped.append(f"{cell.city}/{cell.year}/{month}/{cell.mode}")
                continue
            for rep in range(plan.replicates):
                tasks.append(((ci, month, rep),
                              (cell, by_month[month], data.neighborhoods,
                               data.bbox, plan.train_cfg, plan.sim_cfg, rep)))

    outputs: dict[tuple, tuple] = {}
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for key, value in pool.map(_task, tasks):
                outputs[key] = value
    else:
        for task in tasks:
            key, value = _task(task)
            outputs[key] = value

    records: list[metrics.MonthlyBiasRecord] = []
    results: list[simulate.MonthRunResult] = []
    for key in sorted(outputs):
        result, record = outputs[key]
        results.append(result)
        records.append(record)

    summaries = []
    for cell in plan.cells:
        for rep in range(plan.replicates):
            cell_records = [r for r in records
                            if (r.city, r.year, r.mode, r.replicate)
                            == (cell.city, cell.year, cell.mode, rep)]
            if cell_records:
                summaries.append(metrics.annual_summary(cell_records))

    if plan.cells:
        _write_lines(os.path.join(plan.out_dir, "monthly.csv"),
                     [metrics.MONTHLY_CSV_HEADER]
                     + [metrics.monthly_csv_row(r) for r in records])
        _write_lines(os.path.join(plan.out_dir, "annual.csv"),
                     [metrics.ANNUAL_CSV_HEADER]
                     + [metrics.annual_csv_row(s) for s in summaries])
        _write_manifest(plan, manifest_data, skipped,
                        [(plan.cells[ci], m, rep) for (ci, m, rep), _ in tasks])
    return records, summaries, results, all_neighborhoods, failures


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_manifest(plan: ExperimentPlan, data_checksums: dict[str, str],
                    skipped: list[str], runs: list[tuple[Cell, int, int]],
                    ) -> None:
    from . import __version__
    manifest = {
        "version": __version__,
        "seed": int(plan.config.get("seed", 0)),
        "replicates": plan.replicates,
        "cells": [[c.city, c.year, c.mode] for c in plan.cells],
        "data_checksums": data_checksums,
        "skipped_month_runs": skipped,
        "per_run_seeds": {
            f"{c.city}/{c.year}/{m}/{c.mode}/r{rep}": derive_seed(
                derive_seed(plan.sim_cfg.seed, "rep", rep),
                c.city, c.year, m, c.mode)
            for c, m, rep in runs
        },
    }
    with open(os.path.join(plan.out_dir, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


# --- sensitivity ----------------------------------------------------------

SENSITIVITY_PARAMS = ("radius_ft", "n_officers", "reporting_prob")


def run_sensitivity(plan: ExperimentPlan, jobs: int = 1) -> int:
    """Sweep one parameter over its value list on the base cell."""
    spec = plan.config.get("sensitivity")
    if not spec:
        raise ConfigError("config has no 'sensitivity' block")
    parameter = spec.get("parameter")
    if parameter not in SENSITIVITY_PARAMS:
        raise ConfigError(f"sensitivity parameter must be one of {SENSITIVITY_PARAMS}")
    values = spec.get("values") or []
    if not values or any(float(v) <= 0 for v in values):
        raise ConfigError("sensitivity values must be positive and non-empty")
    base = spec.get("base_cell")
    if not base:
        raise ConfigError("sensitivity block needs base_cell")
    cell = Cell(str(base["city"]), int(base["year"]), str(base["mode"]))

    os.makedirs(plan.out_dir, exist_ok=True)
    lines = ["parameter,value,avg_dir,max_dir,avg_parity_gap,avg_gini,"
             "total_detected,months_counted"]
    failures = 0
    for value in values:
        sim_dict = dict(plan.config["sim"])
        sim_dict[parameter] = value
        sub = copy.deepcopy(plan.config)
        sub["sim"] = sim_dict
        sub["cells"] = [{"city": cell.city, "year": cell.year, "mode": cell.mode}]
        sub_plan = build_plan(sub)
        sub_plan.out_dir = os.path.join(plan.out_dir, f"_sens_{parameter}_{value}")
        records, summaries, results, _, fail = run_grid(sub_plan, jobs)
        failures += fail
        if not summaries:
            continue
        s = summaries[0]
        total_detected = sum(
            (sum(o.detection_prob for o in r.outcomes)
             if sub_plan.sim_cfg.expected_value
             else sum(o.detected for o in r.outcomes))
            for r in results)
        lines.append(",".join([
            parameter, str(value),
            "" if s.avg_dir is None else repr(s.avg_dir),
            "" if s.max_dir is None else repr(s.max_dir),
            "" if s.avg_parity_gap is None else repr(s.avg_parity_gap),
            "" if s.avg_gini is None else repr(s.avg_gini),
            repr(float(total_detected)), str(s.months_counted)]))
    _write_lines(os.path.join(plan.out_dir, "sensitivity.csv"), lines)
    return failures


# --- debias experiment ----------------------------------------------------

def run_debias_experiment(plan: ExperimentPlan) -> int:
    """Biased vs rebalanced training comparison on one city-year.

    Biased condition trains the patrol GAN on the raw pooled incidents;
    debiased first trains the conditional GAN on race-labeled incidents,
    replaces a fraction of the training set with group-balanced synthetic
    points, and retrains the patrol GAN on the result. Both conditions are
    evaluated against the same crimes.
    """
    spec = plan.config.get("debias")
    if not spec:
        raise ConfigError("config has no 'debias' block")
    city, year = str(spec["city"]), int(spec["year"])
    replace_fraction = float(spec.get("replace_fraction", 0.30))
    data = load_city_year(plan.config, city, year)
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
    cond_model, _ = gan.train_conditional_gan(labeled, train_cfg, data.bbox)
    rebalanced = gan.rebalance_training_set(labeled, cond_model, rng,
                                            replace_fraction)
    debiased_model, _ = gan.train_gan([p for p, _ in rebalanced], train_cfg,
                                      data.bbox)

    os.makedirs(plan.out_dir, exist_ok=True)
    lines = ["condition,dir,dir_flag,rate_black,rate_white,parity_gap"]
    for name, model in (("biased", biased_model), ("debiased", debiased_model)):
        eval_rng = np.random.default_rng(derive_seed(seed, "eval", name))
        patrols = gan.sample_patrol(model, plan.sim_cfg.n_officers, eval_rng)
        rates = _evaluate_condition(labeled, patrols, plan.sim_cfg, eval_rng)
        dir_value, dir_flag = metrics.disparate_impact_ratio(rates)
        gap = metrics.parity_gap(rates)
        lines.append(",".join([
            name,
            "" if dir_value is None else repr(dir_value), dir_flag,
            repr(rates.rate("Black") or 0.0), repr(rates.rate("White") or 0.0),
            "" if gap is None else repr(gap)]))
    _write_lines(os.path.join(plan.out_dir, "debias.csv"), lines)
    return 0


def _evaluate_condition(labeled, patrols, sim_cfg: SimConfig,
                        rng: np.random.Generator) -> metrics.GroupRates:
    detection = simulate.noisy_or([loc for loc, _ in labeled], patrols,
                                  sim_cfg)
    detected = {g: 0.0 for g in simulate.RACE_GROUPS}
    total = {g: 0 for g in simulate.RACE_GROUPS}
    for (_, group), (_, prob) in zip(labeled, detection):
        total[group] += 1
        if sim_cfg.expected_value:
            detected[group] += prob
        else:
            detected[group] += float(rng.random() < prob)
    return metrics.GroupRates(detected, total)


# --- stats ----------------------------------------------------------------

def run_stats(plan: ExperimentPlan, jobs: int = 1,
              results: list[simulate.MonthRunResult] | None = None,
              neighborhoods: dict[str, Neighborhood] | None = None) -> int:
    """Neighborhood dataset, OLS regression, and correlations.

    Re-runs the grid deterministically when invoked standalone; `all`
    passes the in-memory results through.
    """
    failures = 0
    if results is None:
        _, _, results, neighborhoods, failures = run_grid(plan, jobs)
    observations, excluded = stats.build_neighborhood_dataset(
        results, neighborhoods or {}, expected=plan.sim_cfg.expected_value)
    os.makedirs(plan.out_dir, exist_ok=True)

    obs_lines = ["neighborhood_id,city,year,mode,detection_rate,pct_black,"
                 "pct_white,median_income,poverty_rate"]
    for o in observations:
        obs_lines.append(f"{o.neighborhood_id},{o.city},{o.year},{o.mode},"
                         f"{o.detection_rate!r},{o.pct_black!r},{o.pct_white!r},"
                         f"{o.median_income!r},{o.poverty_rate!r}")
    _write_lines(os.path.join(plan.out_dir, "observations.csv"), obs_lines)
    log.info("stats: %d observations, %d zero-crime units excluded",
             len(observations), excluded)

    try:
        x, y = stats.regression_design(observations)
        fit = stats.ols_fit(x, y)
        with open(os.path.join(plan.out_dir, "regression.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write(stats.regression_csv(fit))
    except (stats.RankDeficientError, ValueError) as exc:
        log.warning("regression skipped: %s", exc)
    try:
        with open(os.path.join(plan.out_dir, "correlations.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write(stats.correlations_csv(observations))
    except ValueError as exc:
        log.warning("correlations skipped: %s", exc)
    return failures


# --- subcommand wiring ----------------------------------------------------

def cmd_ingest(plan: ExperimentPlan, jobs: int) -> int:
    summary = {}
    for cell in {(c.city, c.year) for c in plan.cells}:
        data = load_city_year(plan.config, cell[0], cell[1])
        summary[f"{cell[0]}-{cell[1]}"] = {
            "months": len(data.slices),
            "incidents": sum(len(s.incidents) for s in data.slices),
            "neighborhoods": len(data.neighborhoods),
            "checksum": data.checksum,
        }
    os.makedirs(plan.out_dir, exist_ok=True)
    with open(os.path.join(plan.out_dir, "ingest_summary.json"), "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_grid(plan: ExperimentPlan, jobs: int) -> int:
    _, _, _, _, failures = run_grid(plan, jobs)
    return EXIT_RUN if failures else EXIT_OK


def cmd_sensitivity(plan: ExperimentPlan, jobs: int) -> int:
    return EXIT_RUN if run_sensitivity(plan, jobs) else EXIT_OK


def cmd_debias(plan: ExperimentPlan, jobs: int) -> int:
    return EXIT_RUN if run_debias_experiment(plan) else EXIT_OK


def cmd_stats(plan: ExperimentPlan, jobs: int) -> int:
    return EXIT_RUN if run_stats(plan, jobs) else EXIT_OK


def cmd_plots(plan: ExperimentPlan, jobs: int) -> int:
    monthly = os.path.join(plan.out_dir, "monthly.csv")
    if not os.path.exists(monthly):
        log.warning("no monthly.csv in %s; nothing to plot", plan.out_dir)
        return EXIT_OK
    y_max = plan.config.get("plot_y_max", 100.0)
    plots.emit_plots(monthly, os.path.join(plan.out_dir, "plots"),
                     os.path.join(plan.out_dir, "observations.csv"),
                     y_max=y_max)
    return EXIT_OK


def cmd_all(plan: ExperimentPlan, jobs: int) -> int:
    records, summaries, results, neighborhoods, failures = run_grid(plan, jobs)
    if plan.config.get("debias"):
        failures += run_debias_experiment(plan)
    failures += run_stats(plan, jobs, results=results,
                          neighborhoods=neighborhoods)
    cmd_plots(plan, jobs)
    return EXIT_RUN if failures else EXIT_OK


COMMANDS = {
    "ingest": cmd_ingest,
    "grid": cmd_grid,
    "sensitivity": cmd_sensitivity,
    "debias": cmd_debias,
    "stats": cmd_stats,
    "plots": cmd_plots,
    "all": cmd_all,
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
        config = load_config(args.config,
                             {"seed": args.seed, "output_dir": args.out})
        plan = build_plan(config)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return EXIT_CONFIG
    try:
        return COMMANDS[args.command](plan, max(1, args.jobs))
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return EXIT_CONFIG
    except (IngestError, OSError) as exc:
        log.error("data error: %s", exc)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - run failures map to exit 3
        log.exception("run failure: %s", exc)
        return EXIT_RUN


if __name__ == "__main__":
    sys.exit(main())
