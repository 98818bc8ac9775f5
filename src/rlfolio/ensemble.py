"""Walk-forward orchestration: retrain, validate by Sharpe, trade the winner.

Each quarter the three agents are retrained on the growing window (warm
started from the previous quarter), scored on the validation window with
the turbulence override active, and the best validation Sharpe trades the
next quarter. Portfolio state carries across quarters.
"""
from __future__ import annotations

import datetime as dt
import logging
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from .agents import AGENT_KINDS, Agent, AgentConfig, train_agent
from .env import EnvConfig, EnvState, TradingEnv
from .errors import InsufficientData, NoScores, ZeroVolatility
from .evaluation import EquityCurve, sharpe
from .indicators import FeaturePanel
from .market_data import PricePanel, WindowPlan, WindowTriple
from .turbulence import calibrate_threshold

logger = logging.getLogger(__name__)

FALLBACK_KIND = "PPO"
SIDES = ("sell", "buy")


@dataclass(frozen=True)
class TradeRecord:
    date: dt.date
    asset: str
    side: str  # "buy" | "sell"
    shares: int
    price: float


@dataclass(frozen=True)
class Rollout:
    """One deterministic pass over an env window: an equity point and a date
    per window date, the final state, and each step's sell and buy shares
    with the price row it traded at."""
    values: np.ndarray
    dates: list[dt.date]
    final: EnvState
    assets: tuple[str, ...]
    sells: list[np.ndarray]
    buys: list[np.ndarray]
    prices: list[np.ndarray]

    def trades(self) -> list[TradeRecord]:
        """Every nonzero trade: by date, sells before buys, then by asset."""
        shares = np.stack([self.sells, self.buys], axis=1)  # step, side, asset
        steps, sides, assets = np.nonzero(shares)
        prices = np.array(self.prices)[steps, assets]
        return [TradeRecord(self.dates[t], self.assets[d], SIDES[k], n, p)
                for t, k, d, n, p in zip(
                    steps.tolist(), sides.tolist(), assets.tolist(),
                    shares[steps, sides, assets].tolist(), prices.tolist())]


@dataclass
class WindowResult:
    """Per-quarter training output shared by all strategy variants."""
    triple: WindowTriple
    agents: dict[str, Agent]
    scores: dict[str, float | None]
    threshold: float


@dataclass(frozen=True)
class StrategyResult:
    """One strategy's out-of-sample run: the kind it picked each quarter,
    its equity curve over every trade date, and its trades."""
    picks: list[str]
    curve: EquityCurve
    trades: list[TradeRecord]


def pick_best(scores: dict[str, float | None]) -> str:
    """Argmax validation Sharpe; ties resolved PPO > A2C > DDPG; undefined
    (zero-volatility) scores never win; all-undefined falls back to PPO."""
    if not scores:
        raise NoScores("no validation scores")
    defined = [k for k in AGENT_KINDS if scores.get(k) is not None]
    if not defined:
        logger.warning("all validation Sharpe scores undefined; "
                       "falling back to %s", FALLBACK_KIND)
        return FALLBACK_KIND
    return max(defined, key=scores.__getitem__)  # first of equal maxima


def _interval_indices(panel: PricePanel, interval) -> tuple[int, int]:
    rng = panel.date_slice(interval.start, interval.end)
    if len(rng) < 2:
        raise InsufficientData(needed=f"2+ dates in {interval}",
                               available=len(rng))
    return rng.start, rng.stop - 1


def run_deterministic(agent: Agent, env: TradingEnv,
                      balance: float | None = None,
                      holdings: np.ndarray | None = None) -> Rollout:
    """Roll the agent's deterministic policy through the env window. Trade
    records are built only on request (`Rollout.trades`), from the share
    and price rows kept per step."""
    env.reset(balance=balance, holdings=holdings)
    calendar = env.panel.calendar
    values = [env.state.portfolio_value]
    dates = [calendar[env.state.t]]
    sells, buys, prices = [], [], []
    while not env.state.done:
        state = env.state
        action = agent.act(env.observe(), mode="deterministic")
        result = env.step_state(state, action)
        sells.append(result.plan.sell_shares)
        buys.append(result.plan.buy_shares)
        prices.append(state.prices)
        env.state = result.next_state
        values.append(env.state.portfolio_value)
        dates.append(calendar[env.state.t])
    return Rollout(np.array(values), dates, env.state, env.panel.assets,
                   sells, buys, prices)


def validate_agent(agent: Agent, env: TradingEnv) -> float:
    """Annualized Sharpe of a deterministic run over the env's window (a
    validation env has the turbulence override active). Raises
    ZeroVolatility when the agent never moves the portfolio."""
    values = run_deterministic(agent, env).values
    return sharpe(values[1:] / values[:-1] - 1.0)


def window_threshold(turbulence: np.ndarray, panel: PricePanel,
                     triple: WindowTriple, quantile: float) -> float:
    """Turbulence threshold from data strictly before the trade interval."""
    trade_start_idx = panel.date_slice(triple.trade.start,
                                       triple.trade.end).start
    pre = turbulence[:trade_start_idx]
    defined = pre[pre > 0]
    if defined.size == 0:
        return np.inf
    return calibrate_threshold(defined, quantile)


def train_and_validate(panel: PricePanel, features: FeaturePanel,
                       turbulence: np.ndarray, plan: WindowPlan,
                       env_config: EnvConfig,
                       agent_configs: dict[str, AgentConfig],
                       seed: int = 0,
                       turbulence_quantile: float = 0.99,
                       phase_callback=None) -> list[WindowResult]:
    """Walk the plan once, producing trained agents and validation scores
    for every quarter. Shared by the ensemble and the always-one-kind
    strategies, so training happens exactly once per (quarter, kind). The
    kinds share one training env and one validation env per quarter: each
    training run and each rollout starts with `reset`."""
    results: list[WindowResult] = []
    previous: dict[str, Agent] = {}
    for triple in plan:
        threshold = window_threshold(turbulence, panel, triple,
                                     turbulence_quantile)
        agents: dict[str, Agent] = {}
        scores: dict[str, float | None] = {}
        if phase_callback:
            phase_callback(triple.index, "train")
        env = TradingEnv(panel, features,
                         _interval_indices(panel, triple.train), env_config)
        for k_idx, kind in enumerate(AGENT_KINDS):
            agent_seed = int(np.random.SeedSequence(
                [seed, triple.index, k_idx]).generate_state(1)[0])
            agents[kind] = train_agent(kind, env, agent_configs[kind],
                                       agent_seed,
                                       warm_start=previous.get(kind))
        if phase_callback:
            phase_callback(triple.index, "validate")
        env = TradingEnv(panel, features,
                         _interval_indices(panel, triple.validation),
                         env_config, turbulence=turbulence,
                         turbulence_threshold=threshold)
        for kind in AGENT_KINDS:
            try:
                scores[kind] = validate_agent(agents[kind], env)
            except ZeroVolatility:
                scores[kind] = None
        previous = agents
        results.append(WindowResult(triple=triple, agents=agents,
                                    scores=scores, threshold=threshold))
    return results


def run_trading(panel: PricePanel, features: FeaturePanel,
                turbulence: np.ndarray, windows: Iterable[WindowResult],
                env_config: EnvConfig,
                pickers: dict[str, Callable[[dict[str, float | None]], str]]
                ) -> dict[str, StrategyResult]:
    """Trade the out-of-sample period once per named picker, reading the
    windows once: each quarter's trade env is built once and every strategy
    rolls its picked agent through it, carrying its own balance and
    holdings across quarter boundaries."""
    # per strategy: picks, dates, values and trades; balance and holdings
    runs = {name: ([], [], [], []) for name in pickers}
    carried = dict.fromkeys(pickers, (None, None))
    for w in windows:
        env = TradingEnv(panel, features,
                         _interval_indices(panel, w.triple.trade),
                         env_config, turbulence=turbulence,
                         turbulence_threshold=w.threshold)
        for name, picker in pickers.items():
            picks, dates, values, trades = runs[name]
            picks.append(picker(w.scores))
            rollout = run_deterministic(w.agents[picks[-1]], env,
                                        *carried[name])
            dates.extend(rollout.dates)
            values.extend(rollout.values)
            trades.extend(rollout.trades())
            carried[name] = rollout.final.balance, rollout.final.holdings
    return {name: StrategyResult(picks, EquityCurve(dates=tuple(dates),
                                                    values=np.array(values)),
                                 trades)
            for name, (picks, dates, values, trades) in runs.items()}
