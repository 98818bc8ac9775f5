"""Multi-stock trading MDP.

Continuous per-asset actions in [-1, 1] are resolved into integer share
trades at the current adjusted close, transaction costs are charged at a
proportional rate on every trade, and the reward is the resulting change
of portfolio value. A turbulence override liquidates everything and blocks
buying while the index is above its threshold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .market_data import PricePanel
from .settings import check_settings, setting

# divisors of the observation's price block and MACD, RSI, CCI, ADX blocks
PRICE_SCALE = 100.0
FEATURE_SCALES = (100.0, 100.0, 250.0, 100.0)


@dataclass(frozen=True)
class EnvConfig:
    initial_balance: float = setting(1_000_000.0, "(0, 1e15]")
    h_max: int = setting(100, "[1, 9007199254740992]")
    fee_rate: float = setting(0.001, "[0, 1)")
    reward_scale: float = setting(1e-4, "(0, 1]")

    __post_init__ = check_settings


@dataclass(slots=True)
class EnvState:
    """Portfolio at date t and the market inputs read for t.

    `portfolio_value`, balance plus holdings at t's prices, is computed once
    at construction; it stays right because no code mutates `prices` or
    `holdings` in place (a step makes new arrays). Slotted, not frozen: a
    frozen `__init__` sets each field through the slower
    `object.__setattr__`. No code assigns a field after construction, and
    `dataclasses.replace` builds a new state.
    """

    t: int
    balance: float
    holdings: np.ndarray  # int64, non-negative
    prices: np.ndarray  # positive, adj close at t (read-only panel row)
    features: np.ndarray | None = None  # feature row at t (`build_features`)
    turbulence: float = 0.0
    done: bool = False
    portfolio_value: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # np.dot: the BLAS dot that `@` calls, with less dispatch
        self.portfolio_value = self.balance + float(np.dot(self.prices,
                                                           self.holdings))


@dataclass(slots=True)
class StepResult:
    """One transition; slotted and never assigned after construction, as
    `EnvState`."""

    next_state: EnvState
    reward: float  # scaled by config.reward_scale
    reward_unscaled: float
    cost: float
    sell_shares: np.ndarray  # int64 >= 0 per asset
    buy_shares: np.ndarray  # int64 >= 0 per asset
    turbulence_triggered: bool


def resolve_action(state: EnvState, action, h_max: int, fee_rate: float
                   ) -> tuple[np.ndarray, np.ndarray, float]:
    """Turn an action vector into integer (sell, buy) share trades, and the
    sells' notional at the state's prices.

    The action is clipped to [-1, 1] as by `np.clip`, without its wrapper's
    overhead, and desired shares truncated toward zero from raw * h_max (the
    int64 cast truncates); a NaN component desires none. Sells are capped at
    current holdings and credit the balance (net of fees) before buys,
    which are processed in ascending asset index, each capped at what the
    remaining cash affords including the fee. Unaffordable remainder is
    dropped, so the post-trade balance can never go negative. The buy loop
    runs on Python floats and ints, which round exactly as numpy scalars do.
    A notional is `np.add.reduce`, the sum `ndarray.sum` runs, without its
    Python wrapper.
    """
    raw = np.minimum(np.maximum(np.asarray(action, dtype=float), -1.0), 1.0)
    raw[np.isnan(raw)] = 0.0
    desired = (raw * h_max).astype(np.int64)
    sell = np.maximum(-desired, 0)
    np.minimum(sell, state.holdings, out=sell)
    sell_notional = float(np.add.reduce(state.prices * sell))

    cash = state.balance + sell_notional * (1.0 - fee_rate)
    prices = state.prices.tolist()
    buy = [0] * len(prices)
    for d, requested in enumerate(desired.tolist()):
        if requested > 0:
            unit = prices[d] * (1.0 + fee_rate)
            k = max(min(requested, math.floor(cash / unit)), 0)
            if k:
                cash -= k * unit
                buy[d] = k
    return sell, np.array(buy, dtype=np.int64), sell_notional


class TradingEnv:
    """Episode over a contiguous index window [start, end] of the panel.

    Steps run t = start .. end-1; each step trades at date t prices and is
    rewarded at date t+1 prices. A fresh portfolio starts with
    config.initial_balance and zero holdings; `reset` accepts carried-over
    balance/holdings for walk-forward continuation.

    The env keeps its inputs (adjusted close, features, turbulence) only
    for dates [0, end] and reads a date through `market_at` alone, so
    nothing after the window is reachable and one method sees every read: a
    step from the window's last row raises IndexError there, before any
    state changes. The window plan gives each window 2+ panel rows.
    """

    def __init__(self, panel: PricePanel, features: np.ndarray,
                 window: tuple[int, int], config: EnvConfig = EnvConfig(),
                 turbulence: np.ndarray | None = None,
                 turbulence_threshold: float = np.inf):
        self.panel = panel
        self.start, self.end = window
        self.config = config
        self.threshold = turbulence_threshold
        self.state: EnvState | None = None
        self.action_dim = panel.D
        self.obs_dim = 1 + 6 * panel.D
        stop = self.end + 1
        self._prices = panel.adj_close[:stop]
        self._features = features[:stop]
        self._turbulence = (np.zeros(stop) if turbulence is None
                            else turbulence[:stop])
        self._obs_scale = np.repeat(
            [config.initial_balance, PRICE_SCALE, config.h_max,
             *FEATURE_SCALES], [1] + [panel.D] * 6)
        # `observe` fills this row in place; its blocks are views into it
        self._row = np.empty(self.obs_dim)
        self._row_blocks = np.split(self._row[1:], [panel.D, 2 * panel.D])

    def market_at(self, t: int) -> tuple[np.ndarray, np.ndarray, float]:
        """Date t's prices, feature row and turbulence value. Past the
        window end this raises IndexError."""
        return self._prices[t], self._features[t], float(self._turbulence[t])

    def reset(self, balance: float | None = None,
              holdings: np.ndarray | None = None) -> np.ndarray:
        bal = self.config.initial_balance if balance is None else float(balance)
        hold = (np.zeros(self.action_dim, dtype=np.int64) if holdings is None
                else np.asarray(holdings, dtype=np.int64).copy())
        self.state = EnvState(self.start, bal, hold,
                              *self.market_at(self.start))
        return self.observe()

    def step_state(self, state: EnvState, action) -> StepResult:
        """Pure transition: decide trades at t, settle at t+1.

        Above the turbulence threshold the override (Kritzman & Li's halt)
        sells every held share, not capped by h_max, and buys nothing;
        otherwise the action is resolved by `resolve_action`.
        """
        cfg = self.config
        triggered = state.turbulence > self.threshold
        if triggered:
            sell, buy = state.holdings.copy(), np.zeros_like(state.holdings)
            sell_notional = float(np.add.reduce(state.prices * sell))
        else:
            sell, buy, sell_notional = resolve_action(state, action, cfg.h_max,
                                                      cfg.fee_rate)
        buy_notional = float(np.add.reduce(state.prices * buy))
        cost = cfg.fee_rate * (sell_notional + buy_notional)
        balance = state.balance + sell_notional - buy_notional - cost
        holdings = state.holdings - sell
        holdings += buy

        t = state.t + 1
        next_state = EnvState(t, balance, holdings, *self.market_at(t),
                              t >= self.end)
        reward_unscaled = next_state.portfolio_value - state.portfolio_value
        return StepResult(next_state, reward_unscaled * cfg.reward_scale,
                          reward_unscaled, cost, sell, buy, triggered)

    def step(self, action) -> tuple[np.ndarray, float, bool]:
        """Gym-style wrapper over `step_state`; mutates the held state."""
        result = self.step_state(self.state, action)
        self.state = result.next_state
        return self.observe(), result.reward, result.next_state.done

    def observe(self) -> np.ndarray:
        """The held state's balance over `initial_balance`, holdings over
        `h_max`, prices and features over the fixed scales; reads nothing
        else."""
        state = self.state
        row = self._row
        prices, holdings, features = self._row_blocks
        row[0] = state.balance
        prices[...] = state.prices
        holdings[...] = state.holdings
        features[...] = state.features
        return row / self._obs_scale
