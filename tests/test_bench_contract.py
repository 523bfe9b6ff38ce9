"""The traced benchmark still runs against this source tree.

`perfbench/tracer.py` wraps patrolsim's public functions by name and reads
their arguments and results (the ingest functions, `train_gan`,
`sample_patrol`, `rebalance_training_set`, the month-runs,
`cli._evaluate_condition`, `stats.build_neighborhood_dataset`). These tests
run it the way `perfbench/run.py --trace 1` does, on small workloads, so a
change to those names or shapes fails here. They only read `perfbench/`.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def load_bench():
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module


def traced(tmp_path, command, config):
    """Run one patrolsim command under the tracer; its metrics report."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    metrics = tmp_path / "metrics.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                               if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "tracer.py"), "--run-id", command,
         "--metrics", str(metrics), "--spans", str(tmp_path / "spans.json"),
         "--", command, "--config", str(config_path),
         "--out", str(tmp_path / "out"), "--jobs", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    report = json.loads(metrics.read_text())
    assert report["exit_code"] == 0
    assert report["restored"]
    return report


def check_step_time(tmp_path, layers):
    """`gan.step_ms` is `_train_loop` time less the collapse check's, per
    step: the check has to run inside `_train_loop`."""
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    names = {span[0]: span[1] for span in spans}
    checks = [span for span in spans if span[1] == "gan._detect_mode_collapse"]
    assert checks
    assert all(names[span[4]] == "gan._train_loop" for span in checks)
    assert layers["gan.step_ms"] > 0


def test_city_all_ingest_counts_match_the_planted_city(tmp_path):
    bench = load_bench()
    config = bench.city_config(3, tmp_path)
    report = traced(tmp_path, "all", config)
    planted = json.loads((tmp_path / "city" / "planted.json").read_text())
    problems = []
    bench.check_planted(report["events"], planted, problems)
    assert problems == []
    assert report["layers"]["simulate.crimes_evaluated"] > 0


def test_debias_spans_are_recorded(tmp_path):
    bench = load_bench()
    report = traced(tmp_path, "debias", bench.debias_config(3, tmp_path))
    layers = report["layers"]
    for name in ("gan.sample.s", "gan.rebalance.s",
                 "cli.evaluate_condition.s"):
        assert layers[name] > 0, name
    assert layers["simulate.crimes_evaluated"] > 0
    check_step_time(tmp_path, layers)


def test_synth_grid_traced(tmp_path):
    # The synthetic months of the synth-grid workload: 4 cells of 11
    # months of 128 crimes each.
    bench = load_bench()
    report = traced(tmp_path, "grid", bench.grid_config(3, tmp_path))
    layers = report["layers"]
    assert layers["synthetic.year.s"] > 0
    assert layers["simulate.crimes_evaluated"] == 4 * 11 * 128
    check_step_time(tmp_path, layers)
