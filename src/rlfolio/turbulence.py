"""Financial turbulence: Mahalanobis distance of daily returns from their
trailing history, plus the halt-threshold calibration."""
from __future__ import annotations

import numpy as np

from .errors import UserError
from .evaluation import daily_returns
from .market_data import PricePanel

__all__ = ["DEFAULT_LOOKBACK", "DEFAULT_QUANTILE", "DEFAULT_RIDGE_SCALE",
           "calibrate_threshold", "default_ridge", "rolling_turbulence"]

DEFAULT_LOOKBACK = 252
DEFAULT_QUANTILE = 0.99
DEFAULT_RIDGE_SCALE = 1e-8
# Dates per batched solve in `rolling_turbulence`: its scratch is
# SOLVE_BLOCK * D * D floats (0.46 MB at the paper's D=30), whatever T is.
SOLVE_BLOCK = 64


def default_ridge(sigma: np.ndarray) -> float:
    d = sigma.shape[0]
    return DEFAULT_RIDGE_SCALE * float(np.trace(sigma)) / d


def rolling_turbulence(panel: PricePanel, lookback: int = DEFAULT_LOOKBACK,
                       ridge: float | None = None) -> np.ndarray:
    """Turbulence value per calendar date, shape (T,).

    Date t uses the trailing `lookback` return observations strictly before
    t's return; dates without enough history get 0. `ridge=None` picks the
    trace-scaled default per window. Each date is
    (y - mu) (Sigma + ridge I)^-1 (y - mu)', clamped at 0, over its window's
    mean and covariance, bit for bit what `tests/oracles.quad_form_oracle`
    gives: the statistics are computed date by date, and every
    `SOLVE_BLOCK` dates share one batched solve and quadratic form.
    """
    if lookback < panel.D + 1:
        raise UserError(f"[turbulence] lookback must be at least D + 1 = "
                        f"{panel.D + 1} for D = {panel.D} assets, got "
                        f"{lookback}")
    rets = daily_returns(panel.adj_close)
    if not np.all(np.isfinite(rets)):
        raise UserError("non-finite return vector")
    values = np.zeros(panel.T)
    eye = np.eye(panel.D)
    reg = np.empty((SOLVE_BLOCK, panel.D, panel.D))
    dev = np.empty((SOLVE_BLOCK, 1, panel.D))
    # return r[t-1] belongs to date t; history window is r[t-1-lookback : t-1]
    for start in range(lookback + 1, panel.T, SOLVE_BLOCK):
        dates = range(start, min(start + SOLVE_BLOCK, panel.T))
        for k, t in enumerate(dates):
            window = rets[t - 1 - lookback:t - 1]
            mean = window.mean(axis=0)
            xc = (window - mean).T  # np.cov(window, rowvar=False)'s own steps
            sigma = np.dot(xc, xc.T) * (1 / (lookback - 1))
            r = default_ridge(sigma) if ridge is None else ridge
            np.add(sigma, r * eye, out=reg[k])
            np.subtract(rets[t - 1], mean, out=dev[k, 0])
        n = len(dates)
        solved = np.linalg.solve(reg[:n], dev[:n].transpose(0, 2, 1))
        # each 1 x D by D x 1 product is the dot the solve-then-dot oracle
        # takes, so the bits match (einsum and a summed product add in
        # another order); the clamp is max(0.0, q)
        quad = np.matmul(dev[:n], solved)[:, 0, 0]
        values[start:start + n] = np.where(quad > 0.0, quad, 0.0)
    return values


def calibrate_threshold(values: np.ndarray, quantile: float) -> float:
    """Lower empirical quantile, in (0, 1], of the positive values."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("needed at least one turbulence value, available 0")
    ordered = np.sort(values)
    idx = int(np.ceil(quantile * ordered.size)) - 1
    return float(ordered[max(idx, 0)])
