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


@dataclass(frozen=True)
class ObsScaling:
    price: float = setting(100.0, "(0, inf)")
    macd: float = setting(100.0, "(0, inf)")
    rsi: float = setting(100.0, "(0, inf)")
    cci: float = setting(250.0, "(0, inf)")
    adx: float = setting(100.0, "(0, inf)")

    __post_init__ = check_settings


@dataclass(frozen=True)
class EnvConfig:
    initial_balance: float = setting(1_000_000.0, "(0, inf)")
    h_max: int = setting(100, "[1, inf)")
    fee_rate: float = setting(0.001, "[0, 1)")
    reward_scale: float = setting(1e-4, "(0, inf)")
    obs_scaling: ObsScaling = field(default_factory=ObsScaling)

    __post_init__ = check_settings


@dataclass(frozen=True)
class EnvState:
    """Portfolio at date t and the market inputs read for t.

    `portfolio_value`, balance plus holdings at t's prices, is computed once
    at construction; it stays right because no code mutates `prices` or
    `holdings` in place (a step makes new arrays).
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
        object.__setattr__(self, "portfolio_value",
                           self.balance + float(self.prices @ self.holdings))


@dataclass(frozen=True)
class TradePlan:
    sell_shares: np.ndarray  # int64 >= 0 per asset
    buy_shares: np.ndarray  # int64 >= 0 per asset


@dataclass(frozen=True)
class StepResult:
    next_state: EnvState
    reward: float  # scaled by config.reward_scale
    reward_unscaled: float
    cost: float
    plan: TradePlan
    turbulence_triggered: bool


def clip_action(raw) -> np.ndarray:
    """`raw` as floats clipped to [-1, 1]; NaN and -0.0 pass through, as
    with `np.clip`, without its wrapper's overhead."""
    return np.minimum(np.maximum(np.asarray(raw, dtype=float), -1.0), 1.0)


def resolve_action(state: EnvState, action, h_max: int,
                   fee_rate: float) -> TradePlan:
    """Turn a [-1, 1] action vector into integer share trades.

    Desired shares are truncated toward zero from raw * h_max; a NaN
    component desires none. Sells are capped at current holdings and
    credit the balance (net of fees) before buys, which are processed in
    ascending asset index, each capped at what the remaining cash affords
    including the fee. Unaffordable remainder is dropped, so the post-trade
    balance can never go negative. The buy loop runs on Python floats and
    ints, which round exactly as numpy scalars do.
    """
    raw = clip_action(action)
    raw[np.isnan(raw)] = 0.0
    desired = np.trunc(raw * h_max).astype(np.int64)
    sell = np.minimum(np.maximum(-desired, 0), state.holdings)

    cash = state.balance + float((state.prices * sell).sum()) * (1.0 - fee_rate)
    prices = state.prices.tolist()
    buy = np.maximum(desired, 0).tolist()
    for d, requested in enumerate(buy):
        if requested:
            unit = prices[d] * (1.0 + fee_rate)
            k = max(min(requested, math.floor(cash / unit)), 0)
            if k:
                cash -= k * unit
            buy[d] = k
    return TradePlan(sell_shares=sell,
                     buy_shares=np.array(buy, dtype=np.int64))


def plan_trades(state: EnvState, action, h_max: int, fee_rate: float,
                threshold: float) -> tuple[TradePlan, bool]:
    """The trades of one step and whether the turbulence override fired.

    Above the threshold the override (Kritzman & Li's halt) sells every
    held share, not capped by h_max, and buys nothing; otherwise the
    action is resolved by `resolve_action`.
    """
    if state.turbulence > threshold:
        return TradePlan(sell_shares=state.holdings.copy(),
                         buy_shares=np.zeros_like(state.holdings)), True
    return resolve_action(state, action, h_max, fee_rate), False


class TradingEnv:
    """Episode over a contiguous index window [start, end] of the panel.

    Steps run t = start .. end-1; each step trades at date t prices and is
    rewarded at date t+1 prices. A fresh portfolio starts with
    config.initial_balance and zero holdings; `reset` accepts carried-over
    balance/holdings for walk-forward continuation.

    The env keeps its inputs (adjusted close, features, turbulence) only
    for dates [0, end] and reads a date through `market_at` alone, so
    nothing after the window is reachable and every read is logged.
    """

    def __init__(self, panel: PricePanel, features: np.ndarray,
                 window: tuple[int, int], config: EnvConfig = EnvConfig(),
                 turbulence: np.ndarray | None = None,
                 turbulence_threshold: float = np.inf):
        if window[1] <= window[0]:
            raise ValueError("needed window of at least 2 dates, available "
                             f"{window[1] - window[0] + 1}")
        if window[0] < 0 or window[1] >= panel.T:
            raise ValueError(f"needed window {window} inside panel, "
                             f"available {panel.T}")
        self.panel = panel
        self.start, self.end = window
        self.config = config
        self.threshold = turbulence_threshold
        self.state: EnvState | None = None
        stop = self.end + 1
        self._prices = panel.adj_close[:stop]
        self._features = features[:stop]
        self._turbulence = (np.zeros(stop) if turbulence is None
                            else turbulence[:stop])
        sc = config.obs_scaling
        self._obs_scale = np.repeat(
            [config.initial_balance, sc.price, config.h_max, sc.macd, sc.rsi,
             sc.cci, sc.adx], [1] + [panel.D] * 6)

    @property
    def D(self) -> int:
        return self.panel.D

    @property
    def obs_dim(self) -> int:
        return 1 + 6 * self.D

    @property
    def action_dim(self) -> int:
        return self.D

    def market_at(self, t: int) -> tuple[np.ndarray, np.ndarray, float]:
        """Date t's prices, feature row and turbulence value; logged in
        `panel.access_log` when tracking is on. Past the window end this
        raises IndexError."""
        if self.panel.access_log is not None:
            self.panel.access_log.append(t)
        return self._prices[t], self._features[t], float(self._turbulence[t])

    def _state_at(self, t: int, balance: float, holdings: np.ndarray,
                  done: bool = False) -> EnvState:
        prices, features, turbulence = self.market_at(t)
        return EnvState(t=t, balance=balance, holdings=holdings,
                        prices=prices, features=features,
                        turbulence=turbulence, done=done)

    def reset(self, balance: float | None = None,
              holdings: np.ndarray | None = None) -> np.ndarray:
        bal = self.config.initial_balance if balance is None else float(balance)
        hold = (np.zeros(self.D, dtype=np.int64) if holdings is None
                else np.asarray(holdings, dtype=np.int64).copy())
        self.state = self._state_at(self.start, bal, hold)
        return self.observe()

    def step_state(self, state: EnvState, action) -> StepResult:
        """Pure transition: resolve trades at t, settle at t+1."""
        if state.done:
            raise RuntimeError(f"episode already done at t={state.t}")
        cfg = self.config
        plan, triggered = plan_trades(state, action, cfg.h_max, cfg.fee_rate,
                                      self.threshold)
        p_t = state.prices
        sell_notional = float((p_t * plan.sell_shares).sum())
        buy_notional = float((p_t * plan.buy_shares).sum())
        cost = cfg.fee_rate * (sell_notional + buy_notional)
        balance = state.balance + sell_notional - buy_notional - cost
        holdings = state.holdings - plan.sell_shares + plan.buy_shares

        t_next = state.t + 1
        next_state = self._state_at(t_next, balance, holdings,
                                    done=t_next >= self.end)
        reward_unscaled = next_state.portfolio_value - state.portfolio_value
        return StepResult(next_state=next_state,
                          reward=reward_unscaled * cfg.reward_scale,
                          reward_unscaled=reward_unscaled,
                          cost=cost, plan=plan,
                          turbulence_triggered=triggered)

    def step(self, action) -> tuple[np.ndarray, float, bool]:
        """Gym-style wrapper over `step_state`; mutates the held state."""
        result = self.step_state(self.state, action)
        self.state = result.next_state
        return self.observe(), result.reward, result.next_state.done

    def observe(self, state: EnvState | None = None) -> np.ndarray:
        """Scaled balance, prices, holdings and features of the state; reads
        nothing beyond the state."""
        state = self.state if state is None else state
        return np.concatenate([[state.balance], state.prices, state.holdings,
                               state.features]) / self._obs_scale
