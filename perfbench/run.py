"""patrolsim benchmark: workloads run through the ``patrolsim`` CLI.

    python3 perfbench/run.py --workload synth-grid --seed 1 --seconds 30 --trace 0

Each timed run is the CLI in a fresh process with a fresh output directory,
one at a time (a closed loop with one client). Runs repeat until the next
one would pass ``--seconds``. Every run's outputs are checked; see
``README.md`` for the workloads, metrics and checks.

With ``--trace 0`` the last stdout line reports the end-to-end metrics as
medians over the runs. With ``--trace 1`` untraced and traced runs alternate
(both ``--jobs 1``); the traced run executes in-process under
``tracer.py`` and the line reports the per-layer metrics. Lines before it
record the environment and the sample counts. Everything written goes under
``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
import citygen  # noqa: E402

# Every command is killed once the benchmark run has lasted --seconds plus
# this margin, which covers the last timed command's overrun, the synth-grid
# --jobs 2 check and the setup probes. Set in main().
DEADLINE_MARGIN_S = 140.0
deadline = math.inf
SETUP_PROBES = 5
DIR_FLAGS = ("ok", "undefined_zero_over_zero", "infinite_positive_over_zero")
MONTHS = range(2, 13)

# Workload sizes. GAN work per run is fixed by the configs below; the seed
# moves incident positions and group labels, not the amount of work.
GRID_INCIDENTS_PER_MONTH = 128   # two full batches of 64 per epoch
GRID_EPOCHS = 1
# Timed commands run with --jobs 1. For synth-grid, one --jobs 2 command per
# benchmark run is checked against them byte for byte; its time is recorded
# but not gated, because BLAS oversubscription makes it unsteady (README).
GRID_CHECK_JOBS = 2
DEBIAS_EPOCHS = 4

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))
PER_LAYER_UNITS = {
    "cli.month_run.p50_ms": "ms", "gan.step_ms": "ms",
    "ingest.assign_us_per_incident": "us",
    "geodata.pip_hit_ratio": "ratio", "geodata.radius_hit_ratio": "ratio",
    "neuralnet.dense_gflop": "GFLOP-computed",
    "neuralnet.dense_gflops": "GFLOP/s", "plots.svg_bytes": "bytes",
    "failed_frac": "ratio", "trace.overhead_s": "s",
}


def per_layer_unit(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    return "s" if name.endswith((".s", "_s")) else "count"


# --- workloads ----------------------------------------------------------------

def grid_config(seed: int, work: Path) -> dict:
    return {"seed": seed, "replicates": 1,
            "cells": [{"city": "Synth", "year": y, "mode": m}
                      for y in (2019, 2020) for m in ("detected", "reported")],
            "sim": {}, "train": {"epochs": GRID_EPOCHS},
            "data": {"synthetic": {"incidents_per_month": GRID_INCIDENTS_PER_MONTH,
                                   "seed": seed}}}


def city_config(seed: int, work: Path) -> dict:
    city_dir = work / "city"
    citygen.generate_city(str(city_dir), seed)
    return {"seed": seed, "replicates": 1,
            "cells": [{"city": "Gentown", "year": y, "mode": "reported"}
                      for y in citygen.YEARS],
            "sim": {}, "train": {}, "data": citygen.city_binding(str(city_dir))}


def debias_config(seed: int, work: Path) -> dict:
    # Shaped like acceptance criterion 7, with fewer epochs.
    return {"seed": seed, "replicates": 1, "cells": [],
            "sim": {"expected_value": True, "radius_ft": 3000.0,
                    "n_officers": 200},
            "train": {"epochs": DEBIAS_EPOCHS},
            "data": {"synthetic": {"incidents_per_month": 60, "weight_a": 0.10,
                                   "sigma": 0.05, "seed": seed}},
            "debias": {"city": "Synth", "year": 2020, "replace_fraction": 0.30}}


@dataclass(frozen=True)
class Workload:
    name: str
    make_config: object
    command: str


WORKLOADS = {
    "synth-grid": Workload("synth-grid", grid_config, "grid"),
    "city-all": Workload("city-all", city_config, "all"),
    "debias": Workload("debias", debias_config, "debias"),
}


# --- output checks ----------------------------------------------------------

def read_csvs(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _rows(data: bytes) -> list[list[str]]:
    return [line.split(",") for line in data.decode("utf-8").splitlines()]


def month_ops(config: dict) -> list[tuple[str, ...]]:
    return [(c["city"], str(c["year"]), str(m), c["mode"], str(r))
            for c in config["cells"] for m in MONTHS
            for r in range(config["replicates"])]


def check_months(csvs: dict[str, bytes], ref: dict[str, bytes] | None,
                 ops: list[tuple[str, ...]], problems: list[str]) -> int:
    """Failed month-runs: missing row, bad DIR flag, or a row that differs
    from the reference run's."""
    rows = _rows(csvs.get("monthly.csv", b""))
    if not rows:
        problems.append("monthly.csv missing or empty")
        return len(ops)
    header, body = rows[0], rows[1:]
    if len(body) != len(ops):
        problems.append(f"monthly.csv has {len(body)} rows, expected {len(ops)}")
    flag = header.index("dir_flag")
    got = {tuple(r[:5]): r for r in body}
    want = {tuple(r[:5]): r for r in _rows(ref["monthly.csv"])[1:]} if ref else {}
    failed = 0
    for op in ops:
        row = got.get(op)
        if row is None or row[flag] not in DIR_FLAGS or (ref and want.get(op) != row):
            failed += 1
    if failed:
        problems.append(f"{failed} month-runs missing, invalid or changed")
    return failed


def check_debias(csvs: dict[str, bytes], problems: list[str]) -> int:
    """Failed debias conditions: missing row or invalid DIR, flag or rates.

    The direction (debiased above biased) is not checked: at the short
    training used here it does not hold.
    """
    rows = _rows(csvs.get("debias.csv", b""))
    by_name = {r[0]: dict(zip(rows[0], r)) for r in rows[1:]} if rows else {}
    failed = 0
    for name in ("biased", "debiased"):
        row = by_name.get(name)
        ok = row is not None and row["dir_flag"] in DIR_FLAGS
        if ok:
            dir_text = row["dir"]
            if row["dir_flag"] == "ok":
                ok = _is_float(dir_text) and math.isfinite(float(dir_text)) \
                    and float(dir_text) >= 0.0
            else:
                ok = dir_text == ""
            ok = ok and all(_is_float(row[k]) and 0.0 <= float(row[k]) <= 1.0
                            for k in ("rate_black", "rate_white"))
        failed += not ok
    if failed:
        problems.append(f"{failed} debias conditions missing, invalid or changed")
    return failed


def check_outputs(wl: Workload, config: dict, out: Path, code: int,
                  ref: dict[str, bytes] | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one run's output directory."""
    problems: list[str] = []
    csvs = read_csvs(out)
    if wl.command == "debias":
        attempted = 2
        failed = check_debias(csvs, problems)
    else:
        ops = month_ops(config)
        attempted = len(ops)
        failed = check_months(csvs, ref, ops, problems)
    if wl.command == "all":
        for name in ("observations.csv", "regression.csv", "correlations.csv"):
            if name not in csvs:
                problems.append(f"{name} missing")
        if len(list((out / "plots").glob("*.svg"))) < 3:
            problems.append("fewer than 3 plots")
    if ref is not None and csvs != ref:
        differing = sorted(n for n in set(csvs) | set(ref)
                           if csvs.get(n) != ref.get(n))
        problems.append(f"CSVs differ from the reference run: {differing}")
    if code != 0:
        problems.append(f"exit code {code}")
    if code != 0 or (problems and not failed):
        failed = attempted
    return attempted, failed, problems


def count_nonnumeric(out: Path) -> int:
    """Non-empty fields of numeric columns in the stats CSVs that do not
    parse as numbers (numpy 2 writes ``np.float64(...)`` reprs)."""
    text_cols = {"variable", "stars", "predictor", "neighborhood_id", "city",
                 "mode"}
    count = 0
    for name in ("regression.csv", "correlations.csv", "observations.csv"):
        path = out / name
        if not path.exists():
            continue
        rows = _rows(path.read_bytes())
        for row in rows[1:]:
            for col, value in zip(rows[0], row):
                if col not in text_cols and value and not _is_float(value):
                    count += 1
    return count


def check_planted(events: list[list], planted: dict, problems: list[str]) -> None:
    """Compare the traced ingest counters with the generator's planted counts."""
    years = planted["years"]
    valid = planted["rows"] - planted["malformed"]
    seen = set()
    for event in events:
        kind, rest = event[0], event[1:]
        seen.add(kind)
        if kind == "parse_crime_csv":
            ok = rest == [valid, planted["malformed"]]
        elif kind == "filter_valid":
            y = years[str(rest[0])]
            ok = rest[1:] == [y["rows"], y["rows"] - y["january"] - y["outside_bbox"]]
        elif kind == "assign_neighborhoods":
            y = years[str(rest[0])]
            ok = rest[1:] == [y["assigned"], y["outside_polygons"]]
        else:
            ok = rest[1] == years[str(rest[0])]["per_month"]
        if not ok:
            problems.append(f"ingest counts differ from planted: {event[:4]}")
    missing = {"parse_crime_csv", "filter_valid", "assign_neighborhoods",
               "partition_by_month"} - seen
    if missing:
        problems.append(f"no ingest events for {sorted(missing)}")


# --- running ----------------------------------------------------------------

@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, label: str, result: tuple[int, int, list[str]]) -> None:
        self.attempted += result[0]
        self.failed += result[1]
        self.problems += [f"{label}: {p}" for p in result[2]]


def child_env() -> dict[str, str]:
    """The inherited environment with the checkout's source on the path.

    BLAS thread settings are passed through unchanged on purpose.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_process(args: list[str], log: Path) -> Sample:
    """Run one process to completion; wall, CPU and peak RSS of its tree.

    CPU and RSS come from wait4, which includes every descendant the
    process waited for (the pool workers of ``--jobs``).
    """
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=fh, stderr=subprocess.STDOUT,
                                cwd=ROOT, env=child_env(),
                                start_new_session=True)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), os.killpg,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0, proc.returncode)


def patrolsim_args(wl: Workload, config_path: Path, out: Path,
                   jobs: int) -> list[str]:
    return ["-m", "patrolsim.cli", wl.command, "--config", str(config_path),
            "--out", str(out), "--jobs", str(jobs)]


def run_checked(wl: Workload, config: dict, args: list[str], out: Path,
                log: Path, ref: dict[str, bytes] | None, tally: Tally,
                label: str) -> tuple[Sample, dict[str, bytes]]:
    """Run one patrolsim command, check its outputs against ``ref`` and
    return its sample and CSVs. ``args`` must write to ``out``."""
    sample = run_process(args, log)
    tally.add(label, check_outputs(wl, config, out, sample.code, ref))
    return sample, read_csvs(out)


def repeat_for(seconds: float, once) -> None:
    """Call ``once(i)`` until the next call would end after ``seconds``.

    ``once`` returns the wall time it took; at least one call is made.
    """
    start = time.perf_counter()
    walls: list[float] = []
    while True:
        walls.append(once(len(walls)))
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return


def tail(values: list[float]) -> str:
    """Median plus the highest percentile with at least ten runs beyond it."""
    n = len(values)
    text = f"p50={statistics.median(values):.4f}"
    if n < 11:
        return text + f" (n={n}; a tail percentile needs n >= 11)"
    # The (n - 10)-th smallest value has exactly ten runs above it.
    value = sorted(values)[n - 11]
    return text + f" p{math.floor(100 * (n - 10) / n)}={value:.4f} (n={n})"


def measure_setup(config_path: Path, work: Path, tally: Tally) -> list[float]:
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(config_path)]
    run_process(probe, work / "setup.log")  # warm-up: bytecode compilation
    walls = []
    for _ in range(SETUP_PROBES):
        sample = run_process(probe, work / "setup.log")
        if sample.code != 0:
            tally.problems.append(f"setup probe exited {sample.code}")
        walls.append(sample.wall_s)
    return walls


def run_untraced(wl: Workload, config: dict, config_path: Path, work: Path,
                 seconds: float, tally: Tally) -> tuple[dict, dict]:
    samples: list[Sample] = []
    ref: dict[str, bytes] | None = None

    def once(i: int) -> float:
        nonlocal ref
        out = work / f"run-{i}"
        sample, csvs = run_checked(
            wl, config, [sys.executable] + patrolsim_args(wl, config_path, out, 1),
            out, work / f"run-{i}.log", ref, tally, f"run {i}")
        samples.append(sample)
        if ref is None:
            ref = csvs
        shutil.rmtree(out, ignore_errors=True)
        return sample.wall_s

    repeat_for(seconds, once)
    extra = {}
    if wl.command == "grid":
        out = work / "check-jobs"
        sample, _ = run_checked(
            wl, config,
            [sys.executable] + patrolsim_args(wl, config_path, out, GRID_CHECK_JOBS),
            out, work / "check-jobs.log", ref, tally,
            f"--jobs {GRID_CHECK_JOBS} check")
        shutil.rmtree(out, ignore_errors=True)
        extra[f"jobs{GRID_CHECK_JOBS}_wall_s"] = sample.wall_s
        extra[f"jobs{GRID_CHECK_JOBS}_cpu_s"] = sample.cpu_s
    setup = measure_setup(config_path, work, tally)
    walls = [s.wall_s for s in samples]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(s.cpu_s for s in samples),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
        "setup_s": statistics.median(setup),
    }
    detail = {"runs": len(samples), "wall_s": tail(walls),
              "walls": [round(w, 4) for w in walls],
              "samples": [vars(s) for s in samples], "setup_walls": setup,
              **extra}
    return metrics, detail


def run_traced(wl: Workload, config: dict, config_path: Path, work: Path,
               seconds: float, tally: Tally) -> tuple[dict, dict]:
    plain: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    nonnumeric: list[int] = []
    svg_bytes: list[int] = []
    planted = None
    if wl.command == "all":
        with open(work / "city" / "planted.json", encoding="utf-8") as fh:
            planted = json.load(fh)
    ref: dict[str, bytes] | None = None

    def once(i: int) -> float:
        nonlocal ref
        out = work / f"plain-{i}"
        sample, csvs = run_checked(
            wl, config, [sys.executable] + patrolsim_args(wl, config_path, out, 1),
            out, work / f"plain-{i}.log", ref, tally, f"untraced {i}")
        plain.append(sample.wall_s)
        if ref is None:
            ref = csvs
        shutil.rmtree(out, ignore_errors=True)

        out = work / f"traced-{i}"
        # Removed first, so a tracer that dies cannot leave an older report.
        metrics_path, spans_path = work / "traced-metrics.json", work / "spans.json"
        metrics_path.unlink(missing_ok=True)
        spans_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "tracer.py"),
               "--run-id", f"{wl.name}-{i}", "--metrics", str(metrics_path),
               "--spans", str(spans_path), "--"]
        sample, _ = run_checked(
            wl, config, cmd + patrolsim_args(wl, config_path, out, 1)[2:],
            out, work / f"traced-{i}.log", ref, tally, f"traced {i}")
        traced.append(sample.wall_s)
        try:
            with open(metrics_path, encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, json.JSONDecodeError):
            tally.problems.append(f"traced {i}: no tracer report")
        else:
            if not report["restored"]:
                tally.problems.append(f"traced {i}: wrapped functions not restored")
            if planted is not None:
                problems: list[str] = []
                check_planted(report["events"], planted, problems)
                tally.problems += [f"traced {i}: {p}" for p in problems]
            layers.append(report["layers"])
        nonnumeric.append(count_nonnumeric(out))
        svg_bytes.append(sum(p.stat().st_size for p in out.glob("plots/*.svg")))
        shutil.rmtree(out, ignore_errors=True)
        return plain[-1] + traced[-1]

    repeat_for(seconds, once)
    metrics = {name: statistics.median(d[name] for d in layers)
               for name in (layers[0] if layers else {})}
    metrics["stats.nonnumeric_fields"] = statistics.median(nonnumeric)
    metrics["plots.svg_bytes"] = statistics.median(svg_bytes)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["failed_frac"] = tally.failed / tally.attempted if tally.attempted else 1.0
    detail = {"runs": len(traced), "untraced_wall_s": tail(plain),
              "traced_wall_s": tail(traced)}
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="patrolsim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    global deadline
    deadline = time.monotonic() + args.seconds + DEADLINE_MARGIN_S

    if not (SRC / "patrolsim" / "cli.py").is_file():
        print(f"error: patrolsim source not found under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    env_probe = subprocess.run([sys.executable, str(HERE / "envinfo.py")],
                               cwd=ROOT, env=child_env(), capture_output=True,
                               text=True, check=True)
    environment = json.loads(env_probe.stdout)
    config = wl.make_config(args.seed, work)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=1, sort_keys=True),
                           encoding="utf-8")

    tally = Tally()
    runner = run_traced if args.trace else run_untraced
    metrics, detail = runner(wl, config, config_path, work, args.seconds, tally)
    units = ({n: per_layer_unit(n) for n in metrics} if args.trace
             else dict(END_TO_END))
    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]}
                    for n in sorted(units)},
    }
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seed": args.seed,
                   "trace": args.trace, "environment": environment,
                   "detail": detail, "problems": tally.problems,
                   "result": result}, fh, indent=1, sort_keys=True)
    print("# environment " + json.dumps(environment, sort_keys=True))
    print(f"# {wl.name} seed={args.seed} trace={args.trace} "
          + json.dumps({k: v for k, v in detail.items() if k != "samples"},
                       sort_keys=True))
    for problem in tally.problems[:20]:
        print(f"# problem: {problem}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
