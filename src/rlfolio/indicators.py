"""MACD, RSI, CCI, and ADX feature blocks for the observation vector.

The smoothing recursions run in the pure-Python kernels of `_kernels_py`;
`KERNEL_BACKEND` names that backend.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputEmpty
from .market_data import PricePanel

from . import _kernels_py as _kernels

KERNEL_BACKEND: str = _kernels.BACKEND


@dataclass(frozen=True)
class IndicatorConfig:
    macd_fast: int = 12
    macd_slow: int = 26
    macd_signal: int = 9
    rsi_period: int = 14
    cci_period: int = 14
    adx_period: int = 14

    def __post_init__(self):
        if not 0 < self.macd_fast < self.macd_slow:
            raise ValueError("need 0 < macd_fast < macd_slow")
        for p in (self.rsi_period, self.cci_period, self.adx_period):
            if p < 1:
                raise ValueError("indicator periods must be >= 1")


class FeaturePanel:
    """The four indicators of a PricePanel as one T x 4D block, so one
    date's features are one row: MACD of every asset, then RSI, CCI and
    ADX. `macd`, `rsi`, `cci` and `adx` are T x D column views of it."""

    def __init__(self, block: np.ndarray):
        self.block = block
        self.macd, self.rsi, self.cci, self.adx = np.hsplit(block, 4)


def _check_series(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise InputEmpty("empty price series")
    return x


def macd(close, fast: int = 12, slow: int = 26, signal: int = 9) -> np.ndarray:
    """MACD line: EMA(fast) - EMA(slow).

    `signal` is accepted for configuration compatibility; the feature block
    uses the MACD line itself.
    """
    close = _check_series(close)
    if not 0 < fast < slow:
        raise ValueError("need 0 < fast < slow")
    alpha_f = 2.0 / (fast + 1.0)
    alpha_s = 2.0 / (slow + 1.0)
    return _kernels.ema(close, alpha_f) - _kernels.ema(close, alpha_s)


def rsi(close, period: int = 14) -> np.ndarray:
    """Wilder-smoothed RSI in [0, 100]; first `period` entries are 50."""
    close = _check_series(close)
    return _kernels.rsi_kernel(close, int(period))


def cci(high, low, close, period: int = 14) -> np.ndarray:
    """Commodity channel index; zero mean deviation maps to 0."""
    high = _check_series(high)
    low = _check_series(low)
    close = _check_series(close)
    tp = (high + low + close) / 3.0
    return _kernels.cci_kernel(tp, int(period))


def adx(high, low, close, period: int = 14) -> np.ndarray:
    """Wilder ADX in [0, 100]; warmup (first 2*period-1 entries) is 0."""
    high = _check_series(high)
    low = _check_series(low)
    close = _check_series(close)
    return _kernels.adx_kernel(high, low, close, int(period))


def build_features(panel: PricePanel,
                   config: IndicatorConfig = IndicatorConfig()) -> FeaturePanel:
    """Compute all four indicator blocks per asset.

    MACD and RSI run on the adjusted close (the trading price); CCI and ADX
    additionally use high/low.
    """
    adj = panel.adj_close
    high = panel.field("high")
    low = panel.field("low")
    feats = FeaturePanel(np.empty((adj.shape[0], 4 * adj.shape[1])))
    for d in range(adj.shape[1]):
        feats.macd[:, d] = macd(adj[:, d], config.macd_fast,
                                config.macd_slow, config.macd_signal)
        feats.rsi[:, d] = rsi(adj[:, d], config.rsi_period)
        feats.cci[:, d] = cci(high[:, d], low[:, d], adj[:, d],
                              config.cci_period)
        feats.adx[:, d] = adx(high[:, d], low[:, d], adj[:, d],
                              config.adx_period)
    return feats
