"""Shared test fixtures: synthetic market data and toy environments."""
from __future__ import annotations

import copy
import datetime as dt
import io

# rlfolio before numpy, so a probe that imports this module first runs BLAS
# on one thread, as the program does
from rlfolio.agents import A2CAgent, AgentConfig
from rlfolio.market_data import BAR_FIELDS, PricePanel
from rlfolio.neural import GaussianPolicy, Mlp
from rlfolio.turbulence import default_ridge

import numpy as np

import oracles


def trading_calendar(start: dt.date, n: int) -> list[dt.date]:
    """n weekdays from `start` onward."""
    dates = []
    d = start
    while len(dates) < n:
        if d.weekday() < 5:
            dates.append(d)
        d += dt.timedelta(days=1)
    return dates


def make_panel(D: int = 3, T: int = 600, seed: int = 0,
               start: dt.date = dt.date(2018, 1, 1),
               drift: float = 0.0002, vol: float = 0.01,
               base_price: float = 100.0) -> PricePanel:
    """Geometric random-walk OHLCV panel with consistent bar invariants."""
    rng = np.random.default_rng(seed)
    rets = rng.normal(drift, vol, size=(T, D))
    close = base_price * np.exp(np.cumsum(rets, axis=0))
    opn = close * np.exp(rng.normal(0, vol / 2, size=(T, D)))
    high = np.maximum(opn, close) * (1 + np.abs(rng.normal(0, vol / 2, (T, D))))
    low = np.minimum(opn, close) * (1 - np.abs(rng.normal(0, vol / 2, (T, D))))
    volume = rng.integers(1_000, 100_000, size=(T, D)).astype(float)
    fields = {"open": opn, "high": high, "low": low, "close": close,
              "adj_close": close.copy(), "volume": volume}
    assets = [f"AST{i}" for i in range(D)]
    return PricePanel(assets, trading_calendar(start, T), fields)


def make_trend_panel(D: int = 2, T: int = 400, step: float = 1.0,
                     start: dt.date = dt.date(2018, 1, 1),
                     base_price: float = 100.0) -> PricePanel:
    """Deterministic monotone uptrend: every field climbs `step` per day."""
    t = np.arange(T)[:, None] * step + base_price
    close = np.tile(t, (1, D))
    fields = {"open": close - 0.2, "high": close + 0.5, "low": close - 0.5,
              "close": close, "adj_close": close.copy(),
              "volume": np.full((T, D), 1000.0)}
    assets = [f"AST{i}" for i in range(D)]
    return PricePanel(assets, trading_calendar(start, T), fields)


def make_split_panel(D: int = 2, T: int = 300, seed: int = 0,
                     split_at: int = 150, dividend_every: int = 60,
                     dividend_yield: float = 0.01
                     ) -> tuple[PricePanel, PricePanel]:
    """Real-shaped raw prices and their adjusted-basis twin.

    The raw panel's open, high, low and close halve on `split_at` (a 2:1
    split) and drop by `dividend_yield` on every `dividend_every`-th date
    (a dividend stream); its adj_close is the back-adjusted close, so
    adj_close != close before the last event. The twin holds the same
    adjusted series with no split or dividend in it: every field on the
    adjusted basis and close == adj_close.
    """
    adjusted = make_panel(D=D, T=T, seed=seed)
    factor = np.ones(T)              # raw price / adjusted price
    factor[:split_at] *= 2.0
    for t in range(dividend_every, T, dividend_every):
        factor[:t] /= 1.0 - dividend_yield
    raw = {name: adjusted.field(name) * factor[:, None]
           for name in ("open", "high", "low", "close")}
    raw["adj_close"] = adjusted.adj_close
    raw["volume"] = adjusted.field("volume")
    return (PricePanel(list(adjusted.assets), list(adjusted.calendar), raw),
            adjusted)


def panel_to_csv(panel: PricePanel) -> str:
    lines = ["date,ticker," + ",".join(BAR_FIELDS)]
    for t, date in enumerate(panel.calendar):
        for d, asset in enumerate(panel.assets):
            vals = ",".join(repr(float(panel.field(f)[t, d]))
                            for f in BAR_FIELDS)
            lines.append(f"{date.isoformat()},{asset},{vals}")
    return "\n".join(lines) + "\n"


def trade_rows(plan) -> range:
    """The panel rows of a plan's whole trade period, first quarter to
    last."""
    return range(plan[0].trade.rows.start, plan[-1].trade.rows.stop)


def window_turbulence(rets: np.ndarray, t: int, lookback: int) -> float:
    """Date t's turbulence as `rolling_turbulence` defines it, from
    `oracles.quad_form_oracle` over the window's `np.cov`, clamped at 0."""
    window = rets[t - 1 - lookback:t - 1]
    sigma = np.cov(window, rowvar=False, bias=False)
    return max(0.0, oracles.quad_form_oracle(rets[t - 1], window.mean(axis=0),
                                             sigma, default_ridge(sigma)))


def csv_stream(text: str) -> io.StringIO:
    return io.StringIO(text)


def float64_twin(obj):
    """A float64 copy of a net (`Mlp` or `GaussianPolicy`) or of an agent.

    The package's nets are float32, and a net over an existing vector keeps
    that vector's dtype; so the twin wraps float64 copies of the vectors, and
    a check of a gradient or hand-computed value runs on it at float64
    precision. An agent's twin is a deep copy (its RNG state included) with
    every net attribute replaced this way."""
    if isinstance(obj, Mlp):
        return Mlp(obj.sizes, flat=obj.flat.astype(np.float64))
    if isinstance(obj, GaussianPolicy):
        sizes = obj.mean_net.sizes
        return GaussianPolicy(sizes[0], obj.action_dim, tuple(sizes[1:-1]),
                              flat=obj.flat.astype(np.float64))
    twin = copy.deepcopy(obj)
    for name, value in vars(twin).items():
        if isinstance(value, (Mlp, GaussianPolicy)):
            setattr(twin, name, float64_twin(value))
    return twin


def advantage(r: float, gamma: float, v_s: float, v_next: float,
              done: bool) -> float:
    """`OnPolicyAgent.compute_advantages` on one transition, with a critic
    that reads V(s) = s: a 1-d observation and a linear float64 critic of
    weight 1 and bias 0, so the hand-picked values pass through unchanged."""
    agent = float64_twin(A2CAgent(1, 1, AgentConfig(gamma=gamma, hidden=())))
    agent.critic.flat[:] = (1.0, 0.0)
    adv, _ = agent.compute_advantages(np.array([[v_s]]), np.array([r]),
                                      np.array([[v_next]]),
                                      np.array([float(done)]))
    return float(adv[0])


class TwoArmedBandit:
    """One-step episodes, constant observation; reward is the sign of the
    (first component of the) action."""

    obs_dim = 1
    action_dim = 1

    def __init__(self, rewarded_sign: float = 1.0):
        self.rewarded_sign = rewarded_sign
        self._obs = np.zeros(1)

    def reset(self) -> np.ndarray:
        return self._obs.copy()

    def step(self, action):
        correct = float(np.sign(action[0])) == np.sign(self.rewarded_sign)
        reward = 1.0 if correct else -1.0
        return self._obs.copy(), reward, True
