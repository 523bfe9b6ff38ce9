"""Importing patrolsim before numpy pins BLAS to one thread per process,
unless the environment already sets a thread count."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import patrolsim

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Reports the thread count of the OpenBLAS that numpy loaded (null when the
# BLAS is not OpenBLAS) and the OPENBLAS_NUM_THREADS the process saw.
CHILD = r"""
import ctypes, json, os
import patrolsim
import numpy


def openblas_threads():
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


print(json.dumps({"threads": openblas_threads(),
                  "env": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""


def run_child(**env_vars) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    src = str(Path(patrolsim.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_vars)
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    report = json.loads(proc.stdout)
    if report["threads"] is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    return report


def test_one_blas_thread_by_default():
    report = run_child()
    assert report == {"threads": 1, "env": "1"}


def test_user_thread_count_wins():
    report = run_child(OPENBLAS_NUM_THREADS="2")
    assert report["env"] == "2"
    if len(os.sched_getaffinity(0)) >= 2:
        assert report["threads"] == 2
