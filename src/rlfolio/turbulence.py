"""Financial turbulence: Mahalanobis distance of daily returns from their
trailing history."""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import UserError
from .evaluation import daily_returns
from .market_data import PricePanel

__all__ = ["DEFAULT_LOOKBACK", "DEFAULT_RIDGE_SCALE", "default_ridge",
           "rolling_turbulence"]

DEFAULT_LOOKBACK = 252
DEFAULT_RIDGE_SCALE = 1e-8
# Bytes of centred windows per block of dates in `rolling_turbulence`, so its
# scratch stays flat in T: 65 dates at D=8 and 17 at D=30, lookback 252.
_BLOCK_BYTES = 1 << 20


def default_ridge(sigma: np.ndarray) -> np.ndarray:
    """Trace-scaled ridge of each covariance in a (..., D, D) stack."""
    d = sigma.shape[-1]
    return DEFAULT_RIDGE_SCALE * np.trace(sigma, axis1=-2, axis2=-1) / d


def rolling_turbulence(panel: PricePanel,
                       lookback: int = DEFAULT_LOOKBACK) -> np.ndarray:
    """Turbulence value per calendar date, shape (T,).

    Date t uses the trailing `lookback` return observations strictly before
    t's return; dates without enough history get 0. Each window's ridge is
    trace-scaled (`default_ridge`), a `UserError` where it is 0: each
    asset's returns are constant over that window. Each date is
    (y - mu) (Sigma + ridge I)^-1 (y - mu)', clamped at 0, over its window's
    mean and covariance, bit for bit what `tests/oracles.quad_form_oracle`
    gives: each block of dates takes its windows as one strided view of the
    returns and shares one batched mean, covariance, solve and quadratic form.
    """
    if lookback < panel.D + 1:
        raise UserError(f"[turbulence] lookback must be at least D + 1 = "
                        f"{panel.D + 1} for D = {panel.D} assets, got "
                        f"{lookback}")
    rets = daily_returns(panel.adj_close)
    if not np.all(np.isfinite(rets)):
        raise UserError("non-finite return vector")
    values = np.zeros(panel.T)
    if panel.T <= lookback + 1:
        return values
    # date lookback + 1 + s scores return r[lookback + s] against window s,
    # the returns r[s : lookback + s] before it
    windows = sliding_window_view(rets[:-1], lookback, axis=0).swapaxes(1, 2)
    latest, scored = rets[lookback:, None], values[lookback + 1:]
    block = max(1, _BLOCK_BYTES // (8 * lookback * panel.D))
    for s in range(0, len(windows), block):
        window = windows[s:s + block]
        # window.mean(axis=1) and np.cov's own steps, one matrix per date
        mean = np.add.reduce(window, axis=1, keepdims=True) / lookback
        xc = window - mean
        sigma = np.matmul(xc.swapaxes(1, 2), xc) * (1 / (lookback - 1))
        r = default_ridge(sigma)[:, None, None]
        if not r.all():
            day = panel.calendar[lookback + 1 + s + int(np.argmin(r))]
            raise UserError(f"needed price movement in the {lookback} returns "
                            f"before {day} ([turbulence] lookback), "
                            "available none")
        dev = latest[s:s + block] - mean
        solved = np.linalg.solve(sigma + r * np.eye(panel.D),
                                 dev.swapaxes(1, 2))
        # one 1 x D by D x 1 product per date adds in the oracle's dot order
        # (einsum and a summed product do not); the clamp is max(0.0, q)
        quad = np.matmul(dev, solved)[:, 0, 0]
        scored[s:s + block] = np.where(quad > 0.0, quad, 0.0)
    return values

