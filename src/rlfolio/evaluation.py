"""Performance metrics and the two benchmark strategies.

Metrics follow the usual daily-data conventions: 252 periods per year,
sample (ddof=1) standard deviation, geometric annualization of returns.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .market_data import PricePanel

PERIODS_PER_YEAR = 252
# added to the min-variance covariance's diagonal so its solve succeeds
MIN_VARIANCE_RIDGE = 1e-10
# the columns of a `comparison.csv` row after the strategy name
METRIC_NAMES = ("cumulative_return", "annual_return", "annual_volatility",
                "sharpe", "max_drawdown")


@dataclass(frozen=True)
class EquityCurve:
    """A strategy's portfolio value on each date of the trade period."""
    values: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.values) & np.greater(self.values, 0)):
            raise ValueError("equity values must be positive and finite")


def daily_returns(values: np.ndarray) -> np.ndarray:
    """Simple return from each value (or row of values) to the next."""
    return values[1:] / values[:-1] - 1.0


def cumulative_return(values: np.ndarray) -> float:
    if len(values) == 0:
        raise ValueError("empty equity curve")
    return float(values[-1] / values[0] - 1.0)


def annual_return(values: np.ndarray) -> float:
    if len(values) < 2:
        raise ValueError("need at least two curve points")
    growth = values[-1] / values[0]
    return float(growth ** (PERIODS_PER_YEAR / (len(values) - 1)) - 1.0)


def annual_volatility(daily_returns: np.ndarray) -> float:
    """Annualized sample standard deviation; 0.0 for fewer than two
    returns."""
    if len(daily_returns) < 2:
        return 0.0
    return float(daily_returns.std(ddof=1) * np.sqrt(PERIODS_PER_YEAR))


def sharpe(daily_returns: np.ndarray) -> float | None:
    """Annualized Sharpe ratio at a zero risk-free rate. None where it is
    undefined: at zero volatility, which includes fewer than two returns."""
    vol = annual_volatility(daily_returns)
    if vol == 0.0:
        return None
    return float(daily_returns.mean() * PERIODS_PER_YEAR / vol)


def max_drawdown(values: np.ndarray) -> float:
    if len(values) == 0:
        raise ValueError("empty equity curve")
    running_max = np.maximum.accumulate(values)
    return float((values / running_max - 1.0).min())


def metrics_report(values: np.ndarray
                   ) -> tuple[float, float, float, float | None, float]:
    """The `METRIC_NAMES` of an equity curve's values, in that order: one
    `comparison.csv` row after the strategy name."""
    r = daily_returns(values)
    return (cumulative_return(values), annual_return(values),
            annual_volatility(r), sharpe(r), max_drawdown(values))


# --- baselines ----------------------------------------------------------------

def min_variance_weights(cov: np.ndarray, ridge: float = 0.0) -> np.ndarray:
    """w = Sigma^-1 1 / (1' Sigma^-1 1), with one clip-and-renormalize pass
    to keep the portfolio long-only."""
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    d = cov.shape[0]
    reg = cov + ridge * np.eye(d)
    base = np.linalg.solve(reg, np.ones(d))
    total = base.sum()
    if total == 0.0:
        raise np.linalg.LinAlgError("degenerate normalization")
    # base / total sums to 1, so the clip keeps a weight of about 1/d or more
    w = np.clip(base / total, 0.0, None)
    return w / w.sum()


def run_min_variance_baseline(panel: PricePanel, rows: range,
                              initial_balance: float, lookback: int,
                              fee_rate: float) -> EquityCurve:
    """Monthly-rebalanced min-variance portfolio over the panel `rows` of the
    out-of-sample (trade) period, with the same proportional cost model as
    the agents.

    Fractional shares are allowed; at each rebalance date the covariance is
    estimated from the trailing `lookback` daily returns.
    """
    prices = panel.adj_close
    rets = daily_returns(prices)

    values = []
    shares = np.zeros(panel.D)           # a fresh portfolio, as in the env
    cash = initial_balance
    current_month = None
    for t in rows:
        p = prices[t]
        value = cash + float(shares @ p)
        month = (panel.calendar[t].year, panel.calendar[t].month)
        if month != current_month and t >= lookback:
            current_month = month
            window = rets[t - lookback:t]
            cov = np.cov(window, rowvar=False, bias=False)
            w = min_variance_weights(cov, ridge=MIN_VARIANCE_RIDGE)
            turnover = float(np.abs(w * value - shares * p).sum())
            value -= fee_rate * turnover
            shares = w * value / p
            cash = value - float(shares @ p)
        values.append(value)
    return EquityCurve(np.array(values))


def run_index_baseline(panel: PricePanel, rows: range, initial_balance: float,
                       index_levels: Sequence[float] | None) -> EquityCurve:
    """Buy-and-hold index over the panel `rows` of the trade period: either
    the provided index level of each of those dates, in calendar order, or
    a price-weighted proxy built from the panel."""
    if index_levels is not None:
        levels = np.array(index_levels, dtype=float)
        if len(levels) != len(rows):
            raise ValueError(f"needed {len(rows)} index levels, available "
                             f"{len(levels)}")
    else:
        levels = panel.adj_close[list(rows)].sum(axis=1)
    values = initial_balance * levels / levels[0]
    return EquityCurve(values)
