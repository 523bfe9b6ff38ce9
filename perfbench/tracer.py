"""In-process span tracer for the traced benchmark run.

Run as a script, it wraps the public functions of every patrolsim module,
a few named private steps and the layer methods of the numpy network, runs
one ``patrolsim`` command in this process, restores every wrapped attribute
and writes the per-layer metrics plus the recorded spans as JSON:

    python3 perfbench/tracer.py --run-id ID --metrics M.json --spans S.json \
        -- grid --config C.json --jobs 1 --out DIR

The source tree is not edited: wrappers replace module and class attributes
for the length of the run. Spans are kept in memory and written at the end;
each has a name, start, end, parent and run id. Two functions called once per
polygon test or per radius candidate are only counted, so that tracing them
does not swamp the run.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import statistics
import sys
import time
import types
from collections import Counter, defaultdict

MODULES = ("cli", "synthetic", "ingest", "geodata", "neuralnet", "gan",
           "simulate", "metrics", "stats", "plots")
# Called once per (incident, polygon) and per radius candidate: counted only.
COUNTED = {"geodata.point_in_polygon": "geodata.pip_tests",
           "geodata.distance_feet": "geodata.radius_candidates"}
PRIVATE_STEPS = (("cli", "_run_one_month"), ("cli", "_evaluate_condition"),
                 ("gan", "_train_loop"), ("gan", "_detect_mode_collapse"))
NET_LAYERS = ("Dense", "BatchNorm", "LeakyReLU", "Dropout", "Tanh", "Sigmoid",
              "Network")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        # One entry per finished call: (name, start, end, parent index).
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self.events: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # --- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn, hook=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid] = (name, start, clock(), parent)
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _replace(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def install(self, package) -> None:
        """Wrap every public function of each module, everywhere it is bound.

        A function imported by name into another module is replaced there
        too, so calls through either name are traced.
        """
        mods = {m: importlib.import_module(f"{package.__name__}.{m}")
                for m in MODULES}
        targets = []
        for m, mod in mods.items():
            for attr, value in list(vars(mod).items()):
                if (isinstance(value, types.FunctionType)
                        and value.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    targets.append((f"{m}.{attr}", value))
        targets += [(f"{m}.{attr}", getattr(mods[m], attr))
                    for m, attr in PRIVATE_STEPS]
        for name, original in targets:
            if name in COUNTED:
                wrapper = self._counter(COUNTED[name], original)
            else:
                wrapper = self._span(name, original, HOOKS.get(name))
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, attr, original, wrapper)

        methods = [(mods["neuralnet"], cls, meth) for cls in NET_LAYERS
                   for meth in ("forward", "backward")]
        methods += [(mods["neuralnet"], "Adam", "step"),
                    (mods["gan"], "GanModel", "__init__")]
        for mod, cls_name, meth in methods:
            cls = getattr(mod, cls_name)
            original = vars(cls)[meth]
            name = f"{mod.__name__.rsplit('.', 1)[1]}.{cls_name}.{meth}"
            self._replace(cls, meth, original,
                          self._span(name, original, HOOKS.get(name)))

    def restore(self) -> bool:
        """Put every original back; True when each one is in place again."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        return all(vars(owner)[attr] is original
                   for owner, attr, original in self._patched)

    # --- output ------------------------------------------------------------

    def dump_spans(self, path: str) -> None:
        base = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start_s", "end_s", "parent",
                                  "run_id"],
                       "spans": [[i, n, round(s - base, 7), round(e - base, 7),
                                  p, self.run_id]
                                 for i, (n, s, e, p) in enumerate(self.spans)]},
                      fh)

    def layer_metrics(self) -> dict[str, float]:
        spans = self.spans
        dur = [e - s for _, s, e, _ in spans]
        child = [0.0] * len(spans)
        by_name: dict[str, list[int]] = defaultdict(list)
        for i, (name, _, _, parent) in enumerate(spans):
            by_name[name].append(i)
            if parent >= 0:
                child[parent] += dur[i]

        def total(*names):
            return sum(dur[i] for n in names for i in by_name.get(n, ()))

        def calls(*names):
            return sum(len(by_name.get(n, ())) for n in names)

        def self_time(*names):
            return sum(dur[i] - child[i] for n in names
                       for i in by_name.get(n, ()))

        def layer_of(i):
            return spans[i][0].split(".", 1)[0]

        def layer_total(layer):
            # Outermost spans of the layer only, so nested calls count once.
            return sum(dur[i] for i, (_, _, _, p) in enumerate(spans)
                       if layer_of(i) == layer
                       and (p < 0 or layer_of(p) != layer))

        train_names = ("gan.train_gan", "gan.train_conditional_gan")
        # Network time inside training: outermost neuralnet spans whose
        # ancestors include a training span.
        net_in_train = 0.0
        for i, (_, _, _, p) in enumerate(spans):
            if layer_of(i) != "neuralnet" or (p >= 0 and layer_of(p) == "neuralnet"):
                continue
            while p >= 0 and spans[p][0] not in train_names:
                p = spans[p][3]
            if p >= 0:
                net_in_train += dur[i]

        c = self.counts
        dense_s = total("neuralnet.Dense.forward", "neuralnet.Dense.backward")
        adam_calls = calls("neuralnet.Adam.step")
        steps = adam_calls // 2  # one discriminator and one generator update
        train_s = total(*train_names)
        month_ms = sorted(dur[i] * 1e3 for i in by_name.get("cli._run_one_month", ()))
        assign_in = c["ingest.assign_in"]

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "cli.load_city_year.s": total("cli.load_city_year"),
            "cli.load_city_year.self_s": self_time("cli.load_city_year"),
            "cli.load_city_year.calls": calls("cli.load_city_year"),
            "cli.run_one_month.s": total("cli._run_one_month"),
            "cli.run_one_month.self_s": self_time("cli._run_one_month"),
            "cli.run_one_month.calls": calls("cli._run_one_month"),
            "cli.month_run.p50_ms": statistics.median(month_ms) if month_ms else 0.0,
            "cli.evaluate_condition.s": total("cli._evaluate_condition"),
            "cli.evaluate_condition.self_s": self_time("cli._evaluate_condition"),
            "synthetic.year.s": total("synthetic.synthetic_year"),
            "synthetic.year.self_s": self_time("synthetic.synthetic_year"),
            "ingest.parse_crime_csv.s": total("ingest.parse_crime_csv"),
            "ingest.rows_parsed": c["ingest.rows_parsed"],
            "ingest.rows_dropped": c["ingest.rows_dropped"],
            "ingest.load_neighborhoods.s": total("ingest.load_neighborhoods"),
            "ingest.assign_neighborhoods.s": total("ingest.assign_neighborhoods"),
            "ingest.assign_us_per_incident":
                ratio(total("ingest.assign_neighborhoods") * 1e6, assign_in),
            "ingest.outside_polygons": c["ingest.outside_polygons"],
            "geodata.pip_tests": c["geodata.pip_tests"],
            "geodata.pip_hit_ratio": ratio(c["ingest.assigned"],
                                           c["geodata.pip_tests"]),
            "geodata.radius_query.s": total("geodata.radius_query"),
            "geodata.radius_query.calls": calls("geodata.radius_query"),
            "geodata.radius_candidates": c["geodata.radius_candidates"],
            "geodata.radius_hit_ratio": ratio(c["geodata.radius_hits"],
                                              c["geodata.radius_candidates"]),
            "neuralnet.dense_fwd.s": total("neuralnet.Dense.forward"),
            "neuralnet.dense_bwd.s": total("neuralnet.Dense.backward"),
            "neuralnet.batchnorm.s": total("neuralnet.BatchNorm.forward",
                                           "neuralnet.BatchNorm.backward"),
            "neuralnet.leakyrelu.s": total("neuralnet.LeakyReLU.forward",
                                           "neuralnet.LeakyReLU.backward"),
            "neuralnet.dropout.s": total("neuralnet.Dropout.forward",
                                         "neuralnet.Dropout.backward"),
            "neuralnet.adam.s": total("neuralnet.Adam.step"),
            "neuralnet.adam.calls": adam_calls,
            "neuralnet.dense_gflop": c["neuralnet.dense_flop"] / 1e9,
            "neuralnet.dense_gflops": ratio(c["neuralnet.dense_flop"] / 1e9, dense_s),
            "gan.train.s": train_s,
            "gan.train.calls": calls(*train_names),
            "gan.steps": steps,
            "gan.step_ms": ratio((total("gan._train_loop")
                                  - total("gan._detect_mode_collapse")) * 1e3, steps),
            "gan.self_s": train_s - net_in_train,
            "gan.mode_collapse.s": total("gan._detect_mode_collapse"),
            "gan.mode_collapse.self_s": self_time("gan._detect_mode_collapse"),
            "gan.sample.s": total("gan.sample_patrol", "gan.sample_conditional"),
            "gan.rebalance.s": total("gan.rebalance_training_set"),
            "gan.rebalance.self_s": self_time("gan.rebalance_training_set"),
            "simulate.run_month.self_s": self_time("simulate.run_month_detected",
                                                   "simulate.run_month_reported"),
            "simulate.assign_race.s": total("simulate.assign_race"),
            "simulate.crimes_evaluated": c["simulate.crimes_evaluated"],
            "metrics.s": layer_total("metrics"),
            "stats.s": layer_total("stats"),
            "stats.observations": c["stats.observations"],
            "plots.s": layer_total("plots"),
        }


# --- counters read from call arguments and results --------------------------

def _year(incidents) -> int | None:
    return incidents[0].timestamp.year if incidents else None


def _on_parse(tr, args, result):
    incidents, dropped = result
    tr.counts["ingest.rows_parsed"] += len(incidents)
    tr.counts["ingest.rows_dropped"] += dropped
    tr.events.append(["parse_crime_csv", len(incidents), dropped])


def _on_filter(tr, args, result):
    tr.events.append(["filter_valid", _year(args[0]), len(args[0]), len(result)])


def _on_assign(tr, args, result):
    assigned, dropped = result
    tr.counts["ingest.assign_in"] += len(args[0])
    tr.counts["ingest.assigned"] += len(assigned)
    tr.counts["ingest.outside_polygons"] += dropped
    tr.events.append(["assign_neighborhoods", _year(args[0]), len(assigned),
                      dropped])


def _on_partition(tr, args, result):
    if result:
        tr.events.append(["partition_by_month", result[0].year,
                          {str(s.month): len(s.incidents) for s in result}])


def _on_radius(tr, args, result):
    tr.counts["geodata.radius_hits"] += len(result)


def _on_month(tr, args, result):
    tr.counts["simulate.crimes_evaluated"] += len(result.outcomes)


def _on_condition(tr, args, result):
    tr.counts["simulate.crimes_evaluated"] += sum(result.total.values())


def _on_dense_fwd(tr, args, result):
    layer, x = args[0], args[1]
    tr.counts["neuralnet.dense_flop"] += 2 * x.shape[0] * layer.w.size


def _on_dense_bwd(tr, args, result):
    layer, grad_out = args[0], args[1]
    # Weight gradient and input gradient: two matmuls of the forward's size.
    tr.counts["neuralnet.dense_flop"] += 4 * grad_out.shape[0] * layer.w.size


def _on_dataset(tr, args, result):
    tr.counts["stats.observations"] += len(result[0])


HOOKS = {
    "ingest.parse_crime_csv": _on_parse,
    "ingest.filter_valid": _on_filter,
    "ingest.assign_neighborhoods": _on_assign,
    "ingest.partition_by_month": _on_partition,
    "geodata.radius_query": _on_radius,
    "simulate.run_month_detected": _on_month,
    "simulate.run_month_reported": _on_month,
    "cli._evaluate_condition": _on_condition,
    "neuralnet.Dense.forward": _on_dense_fwd,
    "neuralnet.Dense.backward": _on_dense_bwd,
    "stats.build_neighborhood_dataset": _on_dataset,
}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--metrics", required=True, help="JSON output path")
    parser.add_argument("--spans", required=True, help="span dump path")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    import patrolsim
    from patrolsim import cli

    tracer = Tracer(args.run_id)
    tracer.install(patrolsim)
    start = time.perf_counter()
    try:
        code = cli.main(command)
    finally:
        elapsed = time.perf_counter() - start
        restored = tracer.restore()
    tracer.dump_spans(args.spans)
    with open(args.metrics, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "restored": restored,
                   "wrapped": len(tracer._patched), "spans": len(tracer.spans),
                   "command_s": elapsed, "events": tracer.events,
                   "layers": tracer.layer_metrics()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
