"""Patrol placement simulator and detection-bias audit toolkit."""

import ctypes
import importlib.util
import os
import sys

# Process settings, made on import. The BLAS threads and the hash backend
# take effect only when patrolsim is imported before numpy. Pool workers
# inherit all three or import patrolsim again.

# One BLAS thread per process: the GAN's matmuls are 64 rows tall, too small
# for a second thread to pay for itself, and `--jobs` workers would otherwise
# oversubscribe the cores. BLAS reads these when numpy loads it; a value
# already set in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

# CPython's own hashes instead of OpenSSL's. numpy.random imports secrets,
# which imports hmac and so hashlib's OpenSSL backend `_hashlib`: that maps
# libcrypto, 3.3 MB resident, into every process, while the only hash
# patrolsim uses is SHA-256. With `_hashlib` blocked, hashlib and hmac fall
# back to the built-in modules (`_sha256` up to 3.11, `_sha2` from 3.12);
# the digests are the same. A `_hashlib` already imported stays.
if any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
    sys.modules.setdefault("_hashlib", None)

# Keep freed memory in the heap. Each GAN month-run frees about 7 MB at its
# end; by default glibc unmaps or trims it, and the next month-run faults it
# in again. An mmap threshold of 4 MiB keeps every GAN array (the largest is
# about 1 MB) on the heap, and a trim threshold of 64 MiB leaves room above
# what a month-run frees. A libc without `mallopt` (glibc has it) is left as
# it is.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_mallopt = getattr(ctypes.CDLL(None) if os.name == "posix" else None,
                   "mallopt", None)
if _mallopt is not None:
    _mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    _mallopt.restype = ctypes.c_int
    _mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    _mallopt(_M_TRIM_THRESHOLD, 64 << 20)
del _mallopt

__version__ = "0.1.0"
