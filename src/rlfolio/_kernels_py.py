"""Pure-Python indicator kernels.

The smoothing recursions behind MACD, RSI, CCI and ADX. Each output feeds
the next, so they run as plain sequential loops over one asset's series.
"""
from __future__ import annotations

import numpy as np

BACKEND = "python"


def ema(x: np.ndarray, alpha: float) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=np.float64)
    out = np.empty_like(x)
    n = x.shape[0]
    if n == 0:
        return out
    acc = x[0]
    out[0] = acc
    for i in range(1, n):
        acc = acc + alpha * (x[i] - acc)
        out[i] = acc
    return out


def rsi_kernel(close: np.ndarray, period: int) -> np.ndarray:
    close = np.ascontiguousarray(close, dtype=np.float64)
    n = close.shape[0]
    out = np.empty(n, dtype=np.float64)
    warm = min(period, n)
    out[:warm] = 50.0
    if n <= period:
        return out
    avg_gain = 0.0
    avg_loss = 0.0
    for i in range(1, period + 1):
        d = close[i] - close[i - 1]
        if d > 0.0:
            avg_gain += d
        else:
            avg_loss -= d
    avg_gain /= period
    avg_loss /= period
    for i in range(period, n):
        if i > period:
            d = close[i] - close[i - 1]
            gain = d if d > 0.0 else 0.0
            loss = -d if d < 0.0 else 0.0
            avg_gain = (avg_gain * (period - 1) + gain) / period
            avg_loss = (avg_loss * (period - 1) + loss) / period
        if avg_loss == 0.0 and avg_gain == 0.0:
            out[i] = 50.0
        elif avg_loss == 0.0:
            out[i] = 100.0
        else:
            out[i] = 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)
    return out


def cci_kernel(tp: np.ndarray, period: int) -> np.ndarray:
    tp = np.ascontiguousarray(tp, dtype=np.float64)
    n = tp.shape[0]
    out = np.zeros(n, dtype=np.float64)
    for i in range(period - 1, n):
        sma = 0.0
        for j in range(i - period + 1, i + 1):
            sma += tp[j]
        sma /= period
        mad = 0.0
        for j in range(i - period + 1, i + 1):
            mad += abs(tp[j] - sma)
        mad /= period
        if mad > 0.0:
            out[i] = (tp[i] - sma) / (0.015 * mad)
    return out


def adx_kernel(high: np.ndarray, low: np.ndarray, close: np.ndarray,
               period: int) -> np.ndarray:
    high = np.ascontiguousarray(high, dtype=np.float64)
    low = np.ascontiguousarray(low, dtype=np.float64)
    close = np.ascontiguousarray(close, dtype=np.float64)
    n = high.shape[0]
    out = np.zeros(n, dtype=np.float64)
    if n <= period:
        return out

    plus_dm = np.zeros(n, dtype=np.float64)
    minus_dm = np.zeros(n, dtype=np.float64)
    tr = np.zeros(n, dtype=np.float64)
    for i in range(1, n):
        up = high[i] - high[i - 1]
        down = low[i - 1] - low[i]
        if up > down and up > 0.0:
            plus_dm[i] = up
        if down > up and down > 0.0:
            minus_dm[i] = down
        tr[i] = max(high[i] - low[i],
                    abs(high[i] - close[i - 1]),
                    abs(low[i] - close[i - 1]))

    # Wilder-smoothed averages seeded by the plain mean of the first window.
    atr = 0.0
    sp = 0.0
    sm = 0.0
    for i in range(1, period + 1):
        atr += tr[i]
        sp += plus_dm[i]
        sm += minus_dm[i]
    atr /= period
    sp /= period
    sm /= period

    dx = np.zeros(n, dtype=np.float64)
    for i in range(period, n):
        if i > period:
            atr = (atr * (period - 1) + tr[i]) / period
            sp = (sp * (period - 1) + plus_dm[i]) / period
            sm = (sm * (period - 1) + minus_dm[i]) / period
        if atr > 0.0:
            plus_di = 100.0 * sp / atr
            minus_di = 100.0 * sm / atr
        else:
            plus_di = 0.0
            minus_di = 0.0
        s = plus_di + minus_di
        if s > 0.0:
            dx[i] = 100.0 * abs(plus_di - minus_di) / s

    first = 2 * period - 1
    if n <= first:
        return out
    acc = 0.0
    for i in range(period, first + 1):
        acc += dx[i]
    acc /= period
    out[first] = acc
    for i in range(first + 1, n):
        acc = (acc * (period - 1) + dx[i]) / period
        out[i] = acc
    return out
