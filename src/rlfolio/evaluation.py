"""Performance metrics and the two benchmark strategies.

Metrics follow the usual daily-data conventions: 252 periods per year,
sample (ddof=1) standard deviation, geometric annualization of returns.
"""
from __future__ import annotations

import datetime as dt
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (InputEmpty, InsufficientData, SingularCovariance,
                     ZeroVolatility)
from .market_data import PricePanel, WindowTriple

PERIODS_PER_YEAR = 252


@dataclass(frozen=True)
class EquityCurve:
    dates: tuple[dt.date, ...]
    values: np.ndarray

    def __post_init__(self):
        if len(self.dates) != len(self.values):
            raise ValueError("dates/values length mismatch")
        if len(self.values) and np.any(np.asarray(self.values) <= 0):
            raise ValueError("equity values must be positive")

    def daily_returns(self) -> np.ndarray:
        v = np.asarray(self.values, dtype=float)
        return v[1:] / v[:-1] - 1.0


@dataclass(frozen=True)
class MetricsReport:
    cumulative_return: float
    annual_return: float
    annual_volatility: float
    sharpe: float | None
    max_drawdown: float


def cumulative_return(curve: EquityCurve | np.ndarray) -> float:
    values = curve.values if isinstance(curve, EquityCurve) else np.asarray(curve)
    if len(values) == 0:
        raise InputEmpty("empty equity curve")
    return float(values[-1] / values[0] - 1.0)


def annual_return(curve: EquityCurve | np.ndarray,
                  periods_per_year: int = PERIODS_PER_YEAR) -> float:
    values = curve.values if isinstance(curve, EquityCurve) else np.asarray(curve)
    if len(values) < 2:
        raise InputEmpty("need at least two curve points")
    growth = values[-1] / values[0]
    return float(growth ** (periods_per_year / (len(values) - 1)) - 1.0)


def annual_volatility(daily_returns: np.ndarray,
                      periods_per_year: int = PERIODS_PER_YEAR) -> float:
    r = np.asarray(daily_returns, dtype=float)
    if r.size < 2:
        raise InsufficientData(needed=2, available=r.size)
    return float(r.std(ddof=1) * np.sqrt(periods_per_year))


def sharpe(daily_returns: np.ndarray, rf_annual: float = 0.0,
           periods_per_year: int = PERIODS_PER_YEAR) -> float:
    r = np.asarray(daily_returns, dtype=float)
    vol = annual_volatility(r, periods_per_year)
    if vol == 0.0:
        raise ZeroVolatility("zero return variance")
    return float((r.mean() * periods_per_year - rf_annual) / vol)


def max_drawdown(curve: EquityCurve | np.ndarray) -> float:
    values = curve.values if isinstance(curve, EquityCurve) else np.asarray(curve)
    if len(values) == 0:
        raise InputEmpty("empty equity curve")
    running_max = np.maximum.accumulate(values)
    return float((values / running_max - 1.0).min())


def metrics_report(curve: EquityCurve, rf_annual: float = 0.0,
                   periods_per_year: int = PERIODS_PER_YEAR) -> MetricsReport:
    r = curve.daily_returns()
    try:
        sr = sharpe(r, rf_annual, periods_per_year)
    except (ZeroVolatility, InsufficientData):
        sr = None
    try:
        vol = annual_volatility(r, periods_per_year)
    except InsufficientData:
        vol = 0.0
    return MetricsReport(
        cumulative_return=cumulative_return(curve),
        annual_return=annual_return(curve, periods_per_year),
        annual_volatility=vol,
        sharpe=sr,
        max_drawdown=max_drawdown(curve),
    )


# --- baselines ----------------------------------------------------------------

def min_variance_weights(cov: np.ndarray, ridge: float = 0.0) -> np.ndarray:
    """w = Sigma^-1 1 / (1' Sigma^-1 1), with one clip-and-renormalize pass
    to keep the portfolio long-only."""
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    d = cov.shape[0]
    reg = cov + ridge * np.eye(d)
    try:
        base = np.linalg.solve(reg, np.ones(d))
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(str(exc)) from exc
    total = base.sum()
    if total == 0.0:
        raise SingularCovariance("degenerate normalization")
    w = base / total
    w = np.clip(w, 0.0, None)
    s = w.sum()
    if s == 0.0:
        w = np.full(d, 1.0 / d)
    else:
        w = w / s
    return w


def run_min_variance_baseline(panel: PricePanel, plan: Sequence[WindowTriple],
                              initial_balance: float = 1_000_000.0,
                              lookback: int = PERIODS_PER_YEAR,
                              fee_rate: float = 0.001,
                              ridge: float = 1e-10) -> EquityCurve:
    """Monthly-rebalanced min-variance portfolio over the out-of-sample
    (trade) period, with the same proportional cost model as the agents.

    Fractional shares are allowed; at each rebalance date the covariance is
    estimated from the trailing `lookback` daily returns.
    """
    start = plan[0].trade.start
    end = plan[-1].trade.end
    idx = panel.date_slice(start, end)
    if not idx:
        raise InsufficientData(needed="trade dates", available=0)
    prices = panel.adj_close
    rets = prices[1:] / prices[:-1] - 1.0

    values = []
    dates = []
    shares = None
    cash = initial_balance
    current_month = None
    for t in idx:
        p = prices[t]
        if shares is None:
            value = cash
        else:
            value = cash + float(shares @ p)
        month = (panel.calendar[t].year, panel.calendar[t].month)
        if month != current_month and t >= lookback:
            current_month = month
            window = rets[t - lookback:t]
            cov = np.cov(window, rowvar=False, bias=False)
            w = min_variance_weights(cov, ridge=ridge)
            held = shares * p if shares is not None else np.zeros(panel.D)
            turnover = float(np.abs(w * value - held).sum())
            value -= fee_rate * turnover
            shares = w * value / p
            cash = value - float(shares @ p)
        values.append(value)
        dates.append(panel.calendar[t])
    return EquityCurve(dates=tuple(dates), values=np.array(values))


def run_index_baseline(panel: PricePanel, plan: Sequence[WindowTriple],
                       initial_balance: float = 1_000_000.0,
                       index_series: dict[dt.date, float] | None = None) -> EquityCurve:
    """Buy-and-hold index: either a provided index level series or a
    price-weighted proxy built from the panel."""
    start = plan[0].trade.start
    end = plan[-1].trade.end
    idx = panel.date_slice(start, end)
    if not idx:
        raise InsufficientData(needed="trade dates", available=0)
    dates = [panel.calendar[t] for t in idx]
    if index_series is not None:
        missing = [d for d in dates if d not in index_series]
        if missing:
            raise InsufficientData(needed=f"index level for {missing[0]}",
                                   available=len(index_series))
        levels = np.array([index_series[d] for d in dates], dtype=float)
    else:
        levels = panel.adj_close[list(idx)].sum(axis=1)
    values = initial_balance * levels / levels[0]
    return EquityCurve(dates=tuple(dates), values=values)
