"""Walk-forward orchestration: retrain, validate by Sharpe, trade the winner.

Each quarter the three agents are retrained on the growing window (warm
started from the previous quarter), scored on the validation window with
the turbulence override active, and the best validation Sharpe trades the
next quarter. Portfolio state carries across quarters.
"""
from __future__ import annotations

import datetime as dt
import logging
from dataclasses import dataclass, field

import numpy as np

from .agents import AGENT_KINDS, Agent, AgentConfig, train_agent
from .env import EnvConfig, EnvState, TradingEnv
from .errors import InsufficientData, NoScores, ZeroVolatility
from .evaluation import EquityCurve, sharpe
from .indicators import FeaturePanel
from .market_data import PricePanel, WindowPlan, WindowTriple
from .turbulence import calibrate_threshold

logger = logging.getLogger(__name__)

TIE_ORDER = ("PPO", "A2C", "DDPG")
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


@dataclass(frozen=True)
class QuarterDecision:
    index: int
    triple: WindowTriple
    scores: dict[str, float | None]
    picked: str
    threshold: float


@dataclass
class EnsembleTrace:
    decisions: list[QuarterDecision] = field(default_factory=list)
    curve: EquityCurve | None = None
    trades: list[TradeRecord] = field(default_factory=list)


@dataclass
class WindowResult:
    """Per-quarter training output shared by all strategy variants."""
    triple: WindowTriple
    agents: dict[str, Agent]
    scores: dict[str, float | None]
    threshold: float


def pick_best(scores: dict[str, float | None]) -> str:
    """Argmax validation Sharpe; ties resolved PPO > A2C > DDPG; undefined
    (zero-volatility) scores count as -inf; all-undefined falls back to PPO."""
    if not scores:
        raise NoScores("no validation scores")
    if all(v is None for v in scores.values()):
        logger.warning("all validation Sharpe scores undefined; "
                       "falling back to %s", FALLBACK_KIND)
        return FALLBACK_KIND
    best_kind, best = None, -np.inf
    ordered = [k for k in TIE_ORDER if k in scores]
    ordered += [k for k in scores if k not in TIE_ORDER]
    for kind in ordered:
        v = scores[kind]
        v = -np.inf if v is None else v
        if v > best:
            best_kind, best = kind, v
    return best_kind


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


def validate_agent(agent: Agent, panel: PricePanel, features: FeaturePanel,
                   turbulence: np.ndarray, window: tuple[int, int],
                   env_config: EnvConfig, threshold: float) -> float:
    """Annualized Sharpe of a deterministic run over the validation window,
    with the turbulence override active. Raises ZeroVolatility when the
    agent never moves the portfolio."""
    env = TradingEnv(panel, features, window, env_config,
                     turbulence=turbulence, turbulence_threshold=threshold)
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
    strategies, so training happens exactly once per (quarter, kind)."""
    results: list[WindowResult] = []
    previous: dict[str, Agent] = {}
    for triple in plan:
        threshold = window_threshold(turbulence, panel, triple,
                                     turbulence_quantile)
        agents: dict[str, Agent] = {}
        scores: dict[str, float | None] = {}
        if phase_callback:
            phase_callback(triple.index, "train")
        for k_idx, kind in enumerate(AGENT_KINDS):
            cfg = agent_configs[kind]
            train_window = _interval_indices(panel, triple.train)
            env = TradingEnv(panel, features, train_window, env_config)
            agent_seed = int(np.random.SeedSequence(
                [seed, triple.index, k_idx]).generate_state(1)[0])
            agents[kind] = train_agent(kind, env, cfg, agent_seed,
                                       warm_start=previous.get(kind))
        if phase_callback:
            phase_callback(triple.index, "validate")
        val_window = _interval_indices(panel, triple.validation)
        for kind in AGENT_KINDS:
            try:
                scores[kind] = validate_agent(agents[kind], panel, features,
                                              turbulence, val_window,
                                              env_config, threshold)
            except ZeroVolatility:
                scores[kind] = None
        previous = agents
        results.append(WindowResult(triple=triple, agents=agents,
                                    scores=scores, threshold=threshold))
    return results


def run_trading(panel: PricePanel, features: FeaturePanel,
                turbulence: np.ndarray, windows: list[WindowResult],
                env_config: EnvConfig, picker=pick_best,
                phase_callback=None) -> EnsembleTrace:
    """Trade the out-of-sample period, one picked agent per quarter,
    carrying balance and holdings across quarter boundaries."""
    trace = EnsembleTrace()
    all_values: list[float] = []
    all_dates: list[dt.date] = []
    balance = None
    holdings = None
    for w in windows:
        picked = picker(w.scores)
        trace.decisions.append(QuarterDecision(
            index=w.triple.index, triple=w.triple, scores=dict(w.scores),
            picked=picked, threshold=w.threshold))
        if phase_callback:
            phase_callback(w.triple.index, "trade")
        window = _interval_indices(panel, w.triple.trade)
        env = TradingEnv(panel, features, window, env_config,
                         turbulence=turbulence,
                         turbulence_threshold=w.threshold)
        rollout = run_deterministic(w.agents[picked], env, balance=balance,
                                    holdings=holdings)
        trace.trades.extend(rollout.trades())
        all_values.extend(rollout.values)
        all_dates.extend(rollout.dates)
        balance = rollout.final.balance
        holdings = rollout.final.holdings
    trace.curve = EquityCurve(dates=tuple(all_dates),
                              values=np.array(all_values))
    return trace

