"""Walk-forward ensemble backtester: actor-critic trading agents (A2C,
DDPG, PPO) on a multi-stock daily environment, selected per quarter by
validation Sharpe ratio and compared against min-variance and index
baselines."""
import os
import sys

# One BLAS thread unless the caller set a thread variable: the small nets
# gain nothing from a pool, whose split of a product changes its rounding
# with the core count. BLAS reads them as numpy loads, so import no numpy
# here, and leave the environment alone once numpy is loaded.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(
        name in os.environ for name in _BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

# The one indicator implementation is numpy; the benchmark's environment
# fingerprint records this name.
KERNEL_BACKEND = "python"

__version__ = "0.1.0"

__all__ = ["KERNEL_BACKEND", "__version__"]
