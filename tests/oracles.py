"""Independent reference implementations used only to check the package.

Everything here is written directly from the defining formulas, step by
step, with no reuse of package code paths.
"""
from __future__ import annotations

import csv
import datetime as dt
import io
import math
from dataclasses import dataclass

import numpy as np

from rlfolio.errors import UserError


def ema_oracle(x, span):
    """Recursive EMA with alpha = 2/(span+1), seeded at the first value."""
    alpha = 2.0 / (span + 1.0)
    out = []
    prev = None
    for v in x:
        prev = v if prev is None else prev + alpha * (v - prev)
        out.append(prev)
    return np.array(out)


def macd_oracle(close, fast, slow):
    return ema_oracle(close, fast) - ema_oracle(close, slow)


def rsi_oracle(close, period):
    n = len(close)
    out = [50.0] * min(period, n)
    if n <= period:
        return np.array(out)
    gains = [max(close[i] - close[i - 1], 0.0) for i in range(1, n)]
    losses = [max(close[i - 1] - close[i], 0.0) for i in range(1, n)]
    avg_g = sum(gains[:period]) / period
    avg_l = sum(losses[:period]) / period
    for i in range(period, n):
        if i > period:
            avg_g = (avg_g * (period - 1) + gains[i - 1]) / period
            avg_l = (avg_l * (period - 1) + losses[i - 1]) / period
        if avg_g == 0.0 and avg_l == 0.0:
            out.append(50.0)
        elif avg_l == 0.0:
            out.append(100.0)
        else:
            rs = avg_g / avg_l
            out.append(100.0 - 100.0 / (1.0 + rs))
    return np.array(out)


def cci_oracle(high, low, close, period):
    n = len(close)
    tp = [(high[i] + low[i] + close[i]) / 3.0 for i in range(n)]
    out = [0.0] * n
    for i in range(period - 1, n):
        window = tp[i - period + 1:i + 1]
        sma = sum(window) / period
        mad = sum(abs(v - sma) for v in window) / period
        if mad != 0.0:
            out[i] = (tp[i] - sma) / (0.015 * mad)
    return np.array(out)


def adx_oracle(high, low, close, period):
    n = len(close)
    out = [0.0] * n
    if n <= period:
        return np.array(out)
    pdm, mdm, tr = [0.0], [0.0], [0.0]
    for i in range(1, n):
        up = high[i] - high[i - 1]
        dn = low[i - 1] - low[i]
        pdm.append(up if (up > dn and up > 0) else 0.0)
        mdm.append(dn if (dn > up and dn > 0) else 0.0)
        tr.append(max(high[i] - low[i], abs(high[i] - close[i - 1]),
                      abs(low[i] - close[i - 1])))
    s_tr = sum(tr[1:period + 1]) / period
    s_p = sum(pdm[1:period + 1]) / period
    s_m = sum(mdm[1:period + 1]) / period
    dx = [0.0] * n
    for i in range(period, n):
        if i > period:
            s_tr = (s_tr * (period - 1) + tr[i]) / period
            s_p = (s_p * (period - 1) + pdm[i]) / period
            s_m = (s_m * (period - 1) + mdm[i]) / period
        pdi = 100.0 * s_p / s_tr if s_tr > 0 else 0.0
        mdi = 100.0 * s_m / s_tr if s_tr > 0 else 0.0
        dx[i] = 100.0 * abs(pdi - mdi) / (pdi + mdi) if pdi + mdi > 0 else 0.0
    first = 2 * period - 1
    if n <= first:
        return np.array(out)
    adx = sum(dx[period:first + 1]) / period
    out[first] = adx
    for i in range(first + 1, n):
        adx = (adx * (period - 1) + dx[i]) / period
        out[i] = adx
    return np.array(out)


def load_bars_oracle(text, schema, rejection_ceiling=1.0):
    """Row-by-row ingest of CSV `text`: each row is checked as it is read
    and kept in a per-ticker dict of dates, the first accepted row of a
    (ticker, date) winning. Rejections carry the row's physical line.
    Returns (assets, calendar, fields, rejected (line, reason) pairs, total
    rows, dropped dates, incomplete tickers); raises as `load_bars` does."""
    value_cols = [schema[name] for name in
                  ("open", "high", "low", "close", "adj_close", "volume")]
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise UserError("no header row")
    missing = [col for col in schema.values() if col not in reader.fieldnames]
    if missing:
        raise UserError(f"header missing columns: {missing}")
    by_asset = {}
    rejected = []
    total = 0
    for raw in reader:
        total += 1
        try:
            date = dt.date.fromisoformat(raw[schema["date"]].strip())
            ticker = raw[schema["ticker"]].strip()
            if not ticker:
                raise ValueError("empty ticker")
            o, h, lo, c, adj, v = (float(raw[col]) for col in value_cols)
        except (AttributeError, TypeError):
            reason = "missing column value"    # a short row's absent cells
        except ValueError as exc:
            reason = str(exc)
        else:
            if not all(math.isfinite(p) and p > 0 for p in (o, h, lo, c, adj)):
                reason = "non-positive or non-finite price"
            elif v < 0 or not math.isfinite(v):
                reason = "negative volume"
            elif not (lo <= min(o, c) and max(o, c) <= h):
                reason = "low/high do not bracket open/close"
            elif date in by_asset.get(ticker, {}):
                reason = "duplicate row"
            else:
                by_asset.setdefault(ticker, {})[date] = (o, h, lo, c, adj, v)
                continue
        rejected.append((reader.line_num, reason))
    if total == 0:
        raise UserError("source has a header but no data rows")
    if len(rejected) / total > rejection_ceiling:
        raise UserError(f"{len(rejected)}/{total} rows rejected, above "
                        f"ceiling {rejection_ceiling:.2%}")
    if not by_asset:
        raise UserError("no valid rows in source")
    assets = sorted(by_asset)
    common = set.intersection(*(set(bars) for bars in by_asset.values()))
    if not common:
        raise UserError("needed a shared trading date, available 0")
    calendar = sorted(common)
    seen = set().union(*by_asset.values())
    incomplete = [a for a in assets if len(by_asset[a]) < len(seen)]
    fields = {name: np.array([[by_asset[a][d][i] for a in assets]
                              for d in calendar])
              for i, name in enumerate(("open", "high", "low", "close",
                                        "adj_close", "volume"))}
    return (assets, calendar, fields, rejected, total,
            len(seen) - len(common), incomplete)


def quad_form_oracle(y, mu, sigma, ridge=0.0):
    """Solve-then-dot evaluation of (y-mu) (Sigma + ridge I)^-1 (y-mu)'."""
    dev = np.asarray(y, float) - np.asarray(mu, float)
    reg = np.asarray(sigma, float) + ridge * np.eye(len(dev))
    return float(dev @ np.linalg.solve(reg, dev))


def resolve_action_oracle(state, action, h_max, fee_rate):
    """Share resolution as a per-asset loop over numpy scalars: the env's
    earlier `resolve_action` body, kept verbatim as the bit-exact reference.
    Returns (sell_shares, buy_shares)."""
    raw = np.clip(np.asarray(action, dtype=float), -1.0, 1.0)
    desired = np.trunc(raw * h_max).astype(np.int64)
    sell = np.minimum(np.maximum(-desired, 0), state.holdings)
    buy_req = np.maximum(desired, 0)

    cash = state.balance + float((state.prices * sell).sum()) * (1.0 - fee_rate)
    buy = np.zeros_like(buy_req)
    for d in np.flatnonzero(buy_req):
        unit = state.prices[d] * (1.0 + fee_rate)
        affordable = int(np.floor(cash / unit))
        k = min(int(buy_req[d]), affordable)
        if k > 0:
            buy[d] = k
            cash -= k * unit
    return sell, buy


def step_oracle(state, next_prices, action, h_max, fee_rate):
    """One step without the turbulence override: trades resolved at the
    state's prices, settled at `next_prices`. Returns (sell, buy, cost,
    balance, holdings, unscaled reward), each value recomputed where it is
    used, as the env's earlier `step_state` did."""
    sell, buy = resolve_action_oracle(state, action, h_max, fee_rate)
    sell_notional = float((state.prices * sell).sum())
    buy_notional = float((state.prices * buy).sum())
    cost = fee_rate * (sell_notional + buy_notional)
    balance = state.balance + sell_notional - buy_notional - cost
    holdings = state.holdings - sell + buy
    reward = ((balance + float(next_prices @ holdings))
              - (state.balance + float(state.prices @ state.holdings)))
    return sell, buy, cost, balance, holdings, reward


def reward_components(state, result):
    """Per-asset decomposition of one step's unscaled reward plus cost.

    r_H sums over untouched holdings, r_S over the shares retained after
    selling (negated), r_B over the post-buy holdings of the buy set, with
    the price change from `state` to `result.next_state`; the accounting
    identity is reward + cost == r_H - r_S + r_B.
    """
    dp = result.next_state.prices - state.prices
    sell, buy = result.plan.sell_shares, result.plan.buy_shares
    hold_mask = (sell == 0) & (buy == 0)
    return {"r_H": float((dp * state.holdings * hold_mask).sum()),
            "r_S": float((dp * (sell - state.holdings) * (sell > 0)).sum()),
            "r_B": float((dp * (state.holdings + buy) * (buy > 0)).sum())}


def mlp_forward_oracle(params, x, n_layers):
    """Explicit matrix arithmetic: tanh hidden layers, identity output."""
    h = np.asarray(x, float)
    for layer in range(n_layers):
        w, b = params[2 * layer], params[2 * layer + 1]
        h = h @ w + b
        if layer < n_layers - 1:
            h = np.tanh(h)
    return h


def max_drawdown_bruteforce(values):
    """O(T^2) search over all (peak, trough) pairs with peak before trough."""
    worst = 0.0
    for i in range(len(values)):
        for j in range(i, len(values)):
            dd = values[j] / values[i] - 1.0
            worst = min(worst, dd)
    return worst


def sharpe_oracle(daily, rf_annual=0.0, periods=252):
    daily = np.asarray(daily, float)
    mean_ann = daily.mean() * periods
    vol_ann = daily.std(ddof=1) * np.sqrt(periods)
    return (mean_ann - rf_annual) / vol_ann


def annual_return_oracle(values, periods=252):
    growth = values[-1] / values[0]
    years = (len(values) - 1) / periods
    return growth ** (1.0 / years) - 1.0


def finite_difference(loss_fn, flat_params, eps=1e-5):
    """Central finite differences of a scalar loss over a flat vector."""
    grad = np.zeros_like(flat_params)
    for i in range(flat_params.size):
        up = flat_params.copy()
        dn = flat_params.copy()
        up[i] += eps
        dn[i] -= eps
        grad[i] = (loss_fn(up) - loss_fn(dn)) / (2 * eps)
    return grad


@dataclass(frozen=True)
class TradeRecord:
    date: dt.date
    asset: str
    side: str  # "buy" | "sell"
    shares: int
    price: float


def trades_oracle(rollout):
    """Every nonzero trade of a `Rollout` as a `TradeRecord`: by date, sells
    before buys, then by asset. Step i of the rollout traded at panel row
    `env.start + i`, which gives its date, asset names and prices. The
    reference for `Rollout.trades`, whose rows hold the same values with
    the date in ISO form."""
    panel, start = rollout.env.panel, rollout.env.start
    shares = np.stack([rollout.sells, rollout.buys], axis=1)  # step, side, asset
    steps, sides, assets = np.nonzero(shares)
    prices = panel.adj_close[start + steps, assets]
    return [TradeRecord(panel.calendar[start + t], panel.assets[d],
                        ("sell", "buy")[k], n, p)
            for t, k, d, n, p in zip(
                steps.tolist(), sides.tolist(), assets.tolist(),
                shares[steps, sides, assets].tolist(), prices.tolist())]
