"""Walk-forward ensemble backtester: actor-critic trading agents (A2C,
DDPG, PPO) on a multi-stock daily environment, selected per quarter by
validation Sharpe ratio and compared against min-variance and index
baselines."""

# The one indicator implementation is numpy; the benchmark's environment
# fingerprint records this name.
KERNEL_BACKEND = "python"

__version__ = "0.1.0"

__all__ = ["KERNEL_BACKEND", "__version__"]
