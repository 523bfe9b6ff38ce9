"""Patrol placement simulator and detection-bias audit toolkit."""

import os

# One BLAS thread per process: the GAN's matmuls are 64 rows tall, too small
# for a second thread to pay for itself, and `--jobs` workers would otherwise
# oversubscribe the cores. BLAS reads these when numpy loads it, so this only
# takes effect when patrolsim is imported before numpy; a value already set
# in the environment wins. Pool workers inherit the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
