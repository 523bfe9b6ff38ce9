"""Importing patrolsim keeps OpenSSL out of the process and sets glibc's
allocator thresholds; neither changes a digest, a seed or an output."""

import json
import os
import platform
import subprocess
import sys

import pytest

# Runs a one-cell synthetic grid, checks that no OpenSSL was loaded on the
# way, and prints derive_seed of SEED_ARGS and _file_sha256 of a file.
NO_OPENSSL_CHILD = r"""
import json, os, sys
import patrolsim.cli as cli
import numpy.random
from patrolsim.simulate import derive_seed

numpy.random.default_rng(0)
config_path, data_path, seed_args = sys.argv[1:]
assert cli.main(["grid", "--config", config_path]) == 0
assert sys.modules.get("_hashlib") is None, sys.modules.get("_hashlib")
if os.path.exists("/proc/self/maps"):
    with open("/proc/self/maps", encoding="utf-8") as fh:
        crypto = [line for line in fh if "libcrypto" in line]
    assert not crypto, crypto
print(json.dumps({"seeds": [derive_seed(*a) for a in json.loads(seed_args)],
                  "file": cli._file_sha256(data_path)}))
"""

# Reads a JSON list of hex payloads from stdin and prints the hex SHA-256 of
# each through OpenSSL's hashlib; patrolsim is never imported here.
OPENSSL_REFERENCE = r"""
import hashlib, json, sys
assert hashlib.sha256.__name__ == "openssl_sha256", hashlib.sha256
print(json.dumps([hashlib.sha256(bytes.fromhex(a)).hexdigest()
                  for a in json.load(sys.stdin)]))
"""

SEED_ARGS = [[0], [7, "debias", "Synth", 2020], [11, "rep", 3],
             [2**40, "Baltimore", 2019, 12, "reported", "é"]]


def run(code, *args, stdin=None):
    return subprocess.run(
        [sys.executable, "-c", code, *args], input=stdin, check=True,
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))


def openssl_sha256(payloads):
    try:
        return json.loads(run(OPENSSL_REFERENCE, stdin=json.dumps(
            [p.hex() for p in payloads])).stdout)
    except subprocess.CalledProcessError as exc:
        pytest.skip(f"hashlib has no OpenSSL backend here: {exc.stderr}")


def test_no_openssl_and_the_same_digests(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 3, "output_dir": str(tmp_path / "out"),
        "cells": [{"city": "Synth", "year": 2020, "mode": "detected"}],
        "train": {"epochs": 1},
        "data": {"synthetic": {"incidents_per_month": 20, "seed": 3}}}))
    data = tmp_path / "data.bin"
    data.write_bytes(bytes(range(256)) * 5000)  # more than one 1 MiB chunk
    child = json.loads(run(NO_OPENSSL_CHILD, str(config), str(data),
                           json.dumps(SEED_ARGS)).stdout)

    texts = [(f"{a[0]}|" + "|".join(str(p) for p in a[1:])).encode("utf-8")
             for a in SEED_ARGS]
    *seed_digests, file_digest = openssl_sha256(texts + [data.read_bytes()])
    assert child["seeds"] == [int(d[:16], 16) for d in seed_digests]
    assert child["file"] == file_digest


def test_openssl_stays_without_builtin_sha256():
    # Where CPython was built without its own SHA-256, hashlib needs OpenSSL.
    run("import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "import patrolsim\n"
        "assert sys.modules.get('_hashlib', True) is not None\n"
        "import _hashlib\n")


# Imports patrolsim with ctypes.CDLL replaced: "record" wraps the real
# library's mallopt to record each call and its result, and "missing" gives
# a library with no mallopt symbol. Prints the recorded calls.
MALLOPT_CHILD = r"""
import ctypes, json, sys

real_cdll = ctypes.CDLL
calls = []


class RecordingCDLL:
    def __init__(self, name, *args, **kwargs):
        self._lib = real_cdll(name, *args, **kwargs)

    def __getattr__(self, symbol):
        fn = getattr(self._lib, symbol)
        if symbol != "mallopt":
            return fn

        def mallopt(param, value):
            calls.append([param, value, fn(param, value)])
            return calls[-1][-1]
        return mallopt


class NoMalloptCDLL:
    def __init__(self, name, *args, **kwargs):
        pass


ctypes.CDLL = {"record": RecordingCDLL, "missing": NoMalloptCDLL}[sys.argv[1]]
import patrolsim
ctypes.CDLL = real_cdll
print(json.dumps(calls))
"""

M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc")
def test_import_sets_malloc_thresholds():
    proc = run(MALLOPT_CHILD, "record")
    assert json.loads(proc.stdout) == [[M_MMAP_THRESHOLD, 4 << 20, 1],
                                       [M_TRIM_THRESHOLD, 64 << 20, 1]]
    assert proc.stderr == ""


def test_libc_without_mallopt_imports_quietly():
    proc = run(MALLOPT_CHILD, "missing")
    assert json.loads(proc.stdout) == []
    assert proc.stderr == ""
