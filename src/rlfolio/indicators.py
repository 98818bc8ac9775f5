"""MACD, RSI, CCI, and ADX feature blocks for the observation vector.

Each indicator takes time-first arrays: one series of T dates, or a T x D
panel whose columns are assets. Only the smoothing recursions loop, over
dates, each step acting on one row; the series one indicator smooths
alike (MACD's two EMAs, RSI's gain and loss, ADX's TR, +DM and -DM) are
stacked on a last axis and share one loop. Every float operation runs in
the order of the scalar definition, so a panel call equals its
column-by-column calls bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SettingInvalid
from .market_data import PricePanel
from .settings import check_settings, setting


@dataclass(frozen=True)
class IndicatorConfig:
    macd_fast: int = setting(12, "[1, inf)")
    macd_slow: int = setting(26, "[2, inf)")
    rsi_period: int = setting(14, "[1, inf)")
    cci_period: int = setting(14, "[1, inf)")
    adx_period: int = setting(14, "[1, inf)")

    def __post_init__(self):
        check_settings(self)
        if self.macd_fast >= self.macd_slow:
            raise SettingInvalid("macd_fast", "must be below macd_slow")


def _check_series(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("empty price series")
    return x


def _ema(x: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Exponential moving average seeded by the first date, with `alpha`
    broadcast over a date's row."""
    out = np.empty_like(x)
    out[0] = prev = x[0]
    for i in range(1, x.shape[0]):
        out[i] = prev = prev + alpha * (x[i] - prev)
    return out


def _wilder(x: np.ndarray, period: int, first: int) -> np.ndarray:
    """Wilder smoothing: date `first` holds the mean of the `period` dates
    ending there (summed one date at a time), each later date
    (prev * (period - 1) + x) / period; earlier dates are 0."""
    out = np.zeros_like(x)
    acc = 0.0
    for j in range(first - period + 1, first + 1):
        acc = acc + x[j]
    out[first] = prev = acc / period
    for i in range(first + 1, x.shape[0]):
        out[i] = prev = (prev * (period - 1) + x[i]) / period
    return out


def macd(close, fast: int = 12, slow: int = 26) -> np.ndarray:
    """MACD line: EMA(fast) - EMA(slow), both EMAs in one pass over a
    (..., 2) stack of the series."""
    close = _check_series(close)
    ema = _ema(np.stack([close, close], axis=-1),
               np.array([2.0 / (fast + 1.0), 2.0 / (slow + 1.0)]))
    return ema[..., 0] - ema[..., 1]


def rsi(close, period: int = 14) -> np.ndarray:
    """Wilder-smoothed RSI in [0, 100]; first `period` entries are 50."""
    close = _check_series(close)
    period = int(period)
    out = np.full_like(close, 50.0)
    if close.shape[0] <= period:
        return out
    d = np.zeros_like(close)
    d[1:] = close[1:] - close[:-1]
    smoothed = _wilder(np.stack([np.where(d > 0.0, d, 0.0),
                                 np.where(d < 0.0, -d, 0.0)], axis=-1),
                       period, period)[period:]
    gain, loss = smoothed[..., 0], smoothed[..., 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        out[period:] = np.where(
            loss == 0.0, np.where(gain == 0.0, 50.0, 100.0),
            100.0 - 100.0 / (1.0 + gain / loss))
    return out


def cci(high, low, close, period: int = 14) -> np.ndarray:
    """Commodity channel index; zero mean deviation maps to 0."""
    tp = (_check_series(high) + _check_series(low)
          + _check_series(close)) / 3.0
    period = int(period)
    out = np.zeros_like(tp)
    m = tp.shape[0] - period + 1    # number of full windows
    if m <= 0:
        return out
    sma = 0.0
    for k in range(period):
        sma = sma + tp[k:k + m]
    sma = sma / period
    mad = 0.0
    for k in range(period):
        mad = mad + np.abs(tp[k:k + m] - sma)
    mad = mad / period
    with np.errstate(divide="ignore", invalid="ignore"):
        out[period - 1:] = np.where(
            mad > 0.0, (tp[period - 1:] - sma) / (0.015 * mad), 0.0)
    return out


def adx(high, low, close, period: int = 14) -> np.ndarray:
    """Wilder ADX in [0, 100]; warmup (first 2*period-1 entries) is 0."""
    high = _check_series(high)
    low = _check_series(low)
    close = _check_series(close)
    period = int(period)
    n = high.shape[0]
    if n <= 2 * period - 1:
        return np.zeros_like(high)
    up = np.zeros_like(high)
    down = np.zeros_like(high)
    up[1:] = high[1:] - high[:-1]
    down[1:] = low[:-1] - low[1:]
    plus_dm = np.where((up > down) & (up > 0.0), up, 0.0)
    minus_dm = np.where((down > up) & (down > 0.0), down, 0.0)
    tr = np.zeros_like(high)
    tr[1:] = np.maximum(np.maximum(high[1:] - low[1:],
                                   np.abs(high[1:] - close[:-1])),
                        np.abs(low[1:] - close[:-1]))
    smoothed = _wilder(np.stack([tr, plus_dm, minus_dm], axis=-1),
                       period, period)[period:]
    atr, sp, sm = smoothed[..., 0], smoothed[..., 1], smoothed[..., 2]
    dx = np.zeros_like(high)
    with np.errstate(divide="ignore", invalid="ignore"):
        plus_di = np.where(atr > 0.0, 100.0 * sp / atr, 0.0)
        minus_di = np.where(atr > 0.0, 100.0 * sm / atr, 0.0)
        s = plus_di + minus_di
        dx[period:] = np.where(s > 0.0,
                               100.0 * np.abs(plus_di - minus_di) / s, 0.0)
    return _wilder(dx, period, 2 * period - 1)


def build_features(panel: PricePanel,
                   config: IndicatorConfig = IndicatorConfig()) -> np.ndarray:
    """The four indicators of the panel as one T x 4D block, so one date's
    features are one row: MACD of every asset, then RSI, CCI and ADX. Each
    indicator is computed in one call on the panel.

    Every input is on the adjusted basis: MACD and RSI run on the adjusted
    close (the trading price), and CCI and ADX also use high and low scaled
    by adj_close / close, so a split or a dividend moves no indicator.
    """
    adj = panel.adj_close
    scale = adj / panel.field("close")
    high = panel.field("high") * scale
    low = panel.field("low") * scale
    return np.hstack([
        macd(adj, config.macd_fast, config.macd_slow),
        rsi(adj, config.rsi_period),
        cci(high, low, adj, config.cci_period),
        adx(high, low, adj, config.adx_period),
    ])
