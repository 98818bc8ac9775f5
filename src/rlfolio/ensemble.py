"""Walk-forward orchestration: retrain, validate by Sharpe, trade the winner.

Each quarter the three agents are retrained on the growing window (warm
started from the previous quarter), scored on the validation window with
the turbulence override active, and the best validation Sharpe trades the
next quarter. Portfolio state carries across quarters.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np
from numpy.random import SeedSequence

from .agents import AGENT_KINDS, Agent, AgentConfig, train_agent
from .env import EnvConfig, EnvState, TradingEnv
from .evaluation import EquityCurve, daily_returns, sharpe
from .market_data import PricePanel, WindowTriple

FALLBACK_KIND = "PPO"
SIDES = ("sell", "buy")
TRADE_COLUMNS = ("date", "asset", "side", "shares", "price")


@dataclass(frozen=True)
class Rollout:
    """One deterministic pass over an env window: an equity point per window
    date, the final state, and each step's sell and buy shares. Step i
    traded at panel row `env.start + i`."""
    values: np.ndarray
    final: EnvState
    env: TradingEnv
    sells: list[np.ndarray]
    buys: list[np.ndarray]

    def trades(self) -> list[tuple]:
        """Every nonzero trade as a `TRADE_COLUMNS` row of Python values (ISO
        date, asset, side, int shares, float price): by date, sells before
        buys, then by asset. Date, asset and price are read from the panel
        row each step traded at."""
        panel, start = self.env.panel, self.env.start
        shares = np.stack([self.sells, self.buys], axis=1)  # step, side, asset
        steps, sides, assets = np.nonzero(shares)
        prices = panel.adj_close[steps + start, assets]
        days = [d.isoformat() for d in panel.calendar[start:self.env.end]]
        return [(days[t], panel.assets[d], SIDES[k], n, p)
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
    its equity curve over every trade date, and its trade rows."""
    picks: list[str]
    curve: EquityCurve
    trades: list[tuple]


def pick_best(scores: dict[str, float | None]) -> str:
    """Argmax validation Sharpe; ties resolved PPO > A2C > DDPG; undefined
    (None) scores never win; all-undefined falls back to PPO."""
    defined = [k for k in AGENT_KINDS if scores.get(k) is not None]
    return max(defined, key=scores.__getitem__, default=FALLBACK_KIND)


def run_deterministic(agent: Agent, env: TradingEnv,
                      balance: float | None = None,
                      holdings: np.ndarray | None = None) -> Rollout:
    """Roll the agent's deterministic policy through the env window. Trade
    rows are built only on request (`Rollout.trades`), from the share rows
    kept per step."""
    env.reset(balance=balance, holdings=holdings)
    values = [env.state.portfolio_value]
    sells, buys = [], []
    while not env.state.done:
        result = env.step_state(env.state, agent.act(env.observe()))
        sells.append(result.sell_shares)
        buys.append(result.buy_shares)
        env.state = result.next_state
        values.append(env.state.portfolio_value)
    return Rollout(np.array(values), env.state, env, sells, buys)


def validate_agent(agent: Agent, env: TradingEnv) -> float | None:
    """Annualized Sharpe of a deterministic run over the env's window (a
    validation env has the turbulence override active). None where it is
    undefined: the agent never moves the portfolio, or the window has two
    dates."""
    return sharpe(daily_returns(run_deterministic(agent, env).values))


def window_threshold(turbulence: np.ndarray, stop: int,
                     quantile: float) -> float:
    """The turbulence threshold of a trade quarter whose first panel row is
    `stop`: the lower empirical `quantile`, in (0, 1], of the positive
    values before `stop`, or inf where there are none."""
    pre = turbulence[:stop]
    ordered = np.sort(pre[pre > 0])
    if ordered.size == 0:
        return np.inf
    idx = int(np.ceil(quantile * ordered.size)) - 1
    return float(ordered[max(idx, 0)])


def train_and_validate(panel: PricePanel, features: np.ndarray,
                       turbulence: np.ndarray, plan: Iterable[WindowTriple],
                       env_config: EnvConfig,
                       agent_configs: dict[str, AgentConfig],
                       seed: int, turbulence_quantile: float
                       ) -> list[WindowResult]:
    """Walk the plan once, producing trained agents and validation scores
    for every quarter. Shared by the ensemble and the always-one-kind
    strategies, so training happens exactly once per (quarter, kind). The
    kinds share one training env and one validation env per quarter: each
    training run and each rollout starts with `reset`."""
    results: list[WindowResult] = []
    previous: dict[str, Agent] = {}
    for triple in plan:
        threshold = window_threshold(turbulence, triple.trade.rows.start,
                                     turbulence_quantile)
        agents: dict[str, Agent] = {}
        rows = triple.train.rows
        env = TradingEnv(panel, features, (rows[0], rows[-1]), env_config)
        for k_idx, kind in enumerate(AGENT_KINDS):
            agent_seed = int(SeedSequence(
                [seed, triple.index, k_idx]).generate_state(1)[0])
            agents[kind] = train_agent(kind, env, agent_configs[kind],
                                       agent_seed,
                                       warm_start=previous.get(kind))
        rows = triple.validation.rows
        env = TradingEnv(panel, features, (rows[0], rows[-1]), env_config,
                         turbulence=turbulence, turbulence_threshold=threshold)
        scores = {kind: validate_agent(agents[kind], env)
                  for kind in AGENT_KINDS}
        previous = agents
        results.append(WindowResult(triple=triple, agents=agents,
                                    scores=scores, threshold=threshold))
    return results


def run_trading(panel: PricePanel, features: np.ndarray,
                turbulence: np.ndarray, windows: Iterable[WindowResult],
                env_config: EnvConfig,
                pickers: dict[str, Callable[[dict[str, float | None]], str]]
                ) -> dict[str, StrategyResult]:
    """Trade the out-of-sample period once per named picker, reading the
    windows once: each quarter's trade env is built once and every strategy
    rolls its picked agent through it, carrying its own balance and
    holdings across quarter boundaries."""
    # per strategy: picks, values and trades; balance and holdings
    runs = {name: ([], [], []) for name in pickers}
    carried = dict.fromkeys(pickers, (None, None))
    for w in windows:
        rows = w.triple.trade.rows
        env = TradingEnv(panel, features, (rows[0], rows[-1]), env_config,
                         turbulence=turbulence,
                         turbulence_threshold=w.threshold)
        for name, picker in pickers.items():
            picks, values, trades = runs[name]
            picks.append(picker(w.scores))
            rollout = run_deterministic(w.agents[picks[-1]], env,
                                        *carried[name])
            values.extend(rollout.values)
            trades.extend(rollout.trades())
            carried[name] = rollout.final.balance, rollout.final.holdings
    return {name: StrategyResult(picks, EquityCurve(np.array(values)), trades)
            for name, (picks, values, trades) in runs.items()}
