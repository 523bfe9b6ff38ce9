"""Config ranges: each config number is finite and inside the interval its
field declares, each choice one of its field's `Literal` values, and a
config that breaks either exits 1 before anything runs."""

import json
import math
import os
import subprocess
import sys
from dataclasses import fields, is_dataclass
from typing import Annotated, Literal, get_args, get_origin, get_type_hints

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patrolsim import cli
from patrolsim.cli import ConfigError, build_plan, load_config, main
from patrolsim.gan import TrainConfig
from patrolsim.simulate import SimConfig
from patrolsim.synthetic import SyntheticCityConfig

CONFIG = {
    "seed": 7,
    "replicates": 1,
    "cells": [{"city": "Synth", "year": 2020, "mode": "detected"}],
    "sim": {"expected_value": True},
    "train": {"epochs": 1},
    "data": {"synthetic": {"incidents_per_month": 25, "seed": 7}},
}

CONFIG_CLASSES = (cli.Cell, cli.DebiasSpec, cli.Sensitivity, TrainConfig,
                  SimConfig, SyntheticCityConfig)


def at(config, block):
    """The object at the dotted path `block` of `config`, such as "cells.0"
    ("" for the top level)."""
    for part in filter(None, block.split(".")):
        config = config[int(part) if part.isdigit() else part]
    return config


def with_value(config, block, key, value):
    """A deep copy of `config` with `value` at `key` of `at(config, block)`."""
    config = json.loads(json.dumps(config))
    at(config, block)[key] = value
    return config


def test_config_with_byte_order_mark_loads(tmp_path):
    # Some editors save UTF-8 with a byte-order mark; the crime,
    # demographics and boundary files may start with one too.
    config = dict(CONFIG, output_dir=str(tmp_path / "out"))
    path = tmp_path / "config.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps(config).encode())
    assert load_config(str(path)) == config
    assert main(["ingest", "--config", str(path)]) == 0


def test_config_not_utf8_is_config_error(tmp_path, caplog):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"output_dir": "\xff"}')
    assert main(["grid", "--config", str(path)]) == 1
    assert "config.json" in caplog.text
    assert "Traceback" not in caplog.text


@pytest.mark.parametrize("block,key,value", [
    ("sim", "radius_ft", math.nan),        # unchecked, every rate reads 0.0
    ("train", "lr", 1e30),                 # unchecked, each month-run raises
    ("", "plot_y_max", math.inf),
    ("data.synthetic", "sigma", 1e6),      # unchecked, the synthetic city's
    ("data.synthetic", "sigma", math.inf),  # rejection sampling never ends
])
def test_out_of_range_number_exits_1_naming_it(tmp_path, block, key, value):
    # A subprocess under a timeout, so a value that makes the command run
    # forever fails the test instead of hanging it.
    out = tmp_path / "out"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(with_value(dict(CONFIG, output_dir=str(out)),
                                          block, key, value)))
    proc = subprocess.run(
        [sys.executable, "-m", "patrolsim.cli", "grid", "--config", str(path)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 1, proc.stderr
    assert f"{key} must be" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("block,key,value", [
    # Noisy-OR compares every crime with every patrol: 10^7 officers ran
    # for over 10 minutes.
    ("sim", "n_officers", 10_000_000),
    ("", "replicates", 10**12),            # 12 x 10^12 month-runs a cell
    ("train", "epochs", 10**12),
    ("data.synthetic", "incidents_per_month", 10**12),
    pytest.param("sim", "radius_ft", 10**400, id="sim-radius_ft-10**400"),
])
def test_caps(block, key, value):
    with pytest.raises(ConfigError, match=f"{key} must be"):
        build_plan(with_value(CONFIG, block, key, value))


def test_message_names_key_interval_and_value():
    with pytest.raises(ConfigError,
                       match=r"^train: lr must be in \(0, 1\], got 1e\+30$"):
        build_plan(with_value(CONFIG, "train", "lr", 1e30))
    with pytest.raises(ConfigError, match=r"^cell: mode must be in "
                                          r"\('detected', 'reported'\), "
                                          r"got 'psychic'$"):
        build_plan(with_value(CONFIG, "cells.0", "mode", "psychic"))


@pytest.mark.parametrize("cls,kwargs", [
    (TrainConfig, {"lr": math.inf}),
    (TrainConfig, {"beta2": 1.0}),
    (SimConfig, {"radius_ft": math.nan}),
    (SyntheticCityConfig, {"sigma": 2.0}),
    (cli.DebiasSpec, {"city": "S", "year": 2020, "replace_fraction": -0.1}),
])
def test_direct_construction_is_checked(cls, kwargs):
    with pytest.raises(ValueError):
        cls(**kwargs)


def test_every_config_number_declares_its_interval():
    for cls in CONFIG_CLASSES:
        hints = get_type_hints(cls, include_extras=True)
        for f in fields(cls):
            hint = hints[f.name]
            if f.name in ("seed", "year") or not f.init:
                continue
            assert hint not in (int, float), f"{cls.__name__}.{f.name}"
    # The choices are `Literal`s.
    for cls, name in ((cli.Cell, "mode"), (cli.Sensitivity, "parameter"),
                      (SimConfig, "reported_mode_semantics")):
        assert get_origin(get_type_hints(cls)[name]) is Literal


# --- property test of build_plan -----------------------------------------

def in_interval(value, text):
    """Whether `value` lies in the interval written as `text`, such as
    "(0, 1]"; read here without the checker under test."""
    lo, hi = (float(part) for part in text[1:-1].split(","))
    return ((lo <= value if text[0] == "[" else lo < value)
            and (value <= hi if text[-1] == "]" else value < hi))


def assert_in_range(obj):
    """Every number of the dataclass `obj` and of the dataclasses it holds
    is finite and inside its field's declared interval; a list's interval
    bounds its length, and each choice is one of its Literal's values."""
    hints = get_type_hints(type(obj), include_extras=True)
    for f in fields(obj):
        value, hint = getattr(obj, f.name), hints[f.name]
        if isinstance(value, float):
            assert math.isfinite(value), f.name
        if get_origin(hint) is Annotated:
            [interval] = hint.__metadata__
            size = len(value) if isinstance(value, list) else value
            assert in_interval(size, interval), (f.name, value)
        elif get_origin(hint) is Literal:
            assert value in get_args(hint), (f.name, value)
        for item in value if isinstance(value, (list, dict)) else [value]:
            item = value[item] if isinstance(value, dict) else item
            if is_dataclass(item):
                assert_in_range(item)


FULL_CONFIG = dict(
    CONFIG,
    sim={"n_officers": 60, "radius_ft": 700.0, "p_officer": 0.85,
         "reporting_prob": 0.521, "expected_value": True,
         "reported_mode_semantics": "patrol_from_reports"},
    train={"epochs": 1, "batch_size": 64, "lr": 2e-4, "beta1": 0.5,
           "beta2": 0.999},
    data={"synthetic": {"incidents_per_month": 25, "weight_a": 0.5,
                        "sigma": 0.08, "pct_black_a": 0.9,
                        "pct_black_b": 0.05, "seed": 7}},
    debias={"city": "Synth", "year": 2020, "replace_fraction": 0.3},
    sensitivity={"parameter": "radius_ft", "values": [300, 700.0],
                 "base_cell": {"city": "Synth", "year": 2020,
                               "mode": "detected"}},
    plot_y_max=100.0,
)

# (block, key) of every value FULL_CONFIG sets.
KEYS = [(block, key)
        for block in ("", "sim", "train", "data.synthetic", "debias",
                      "cells.0", "sensitivity", "sensitivity.base_cell")
        for key, value in at(FULL_CONFIG, block).items()
        if not isinstance(value, dict) and key != "cells"]

ODD_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0, 0.0, -0.0, -1, -1.5,
                     1, 2, 10**12, -10**12, 10**400, 1e308, True, False,
                     None, "", "700", [], {}, "detected", "radius_ft",
                     "report_is_detection"]),
    st.integers(), st.floats(), st.text(max_size=3),
    st.lists(st.one_of(st.integers(), st.floats()), max_size=3))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(KEYS), ODD_VALUES), max_size=3))
# Each value a hand-written check once let through or raised on.
@example([(("sim", "radius_ft"), math.nan)])
@example([(("train", "lr"), 1e30)])
@example([(("", "plot_y_max"), math.inf)])
@example([(("data.synthetic", "sigma"), 1e6)])
@example([(("sim", "n_officers"), 10_000_000)])
@example([(("", "replicates"), 10**12)])
@example([(("sensitivity", "values"), [math.inf])])
@example([(("sim", "radius_ft"), 10**400)])
def test_build_plan_refuses_or_keeps_every_number_in_range(changes):
    config = FULL_CONFIG
    for (block, key), value in changes:
        config = with_value(config, block, key, value)
    try:
        plan = build_plan(config)
    except ConfigError:
        return
    assert_in_range(plan)
