import datetime as dt
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlfolio import ensemble
from rlfolio.agents import AgentConfig
from rlfolio.ensemble import (TRADE_COLUMNS, WindowResult, pick_best,
                              run_deterministic, run_trading,
                              train_and_validate, validate_agent,
                              window_threshold)
from rlfolio.env import EnvConfig, TradingEnv
from rlfolio.evaluation import metrics_report
from rlfolio.indicators import build_features
from rlfolio.market_data import build_window_plan
from rlfolio.turbulence import rolling_turbulence

from helpers import make_panel, recorded_reads, trade_rows
from oracles import trades_oracle

TINY = AgentConfig(hidden=(8,), rollout=16, warmup_steps=8, batch_size=4,
                   total_steps=40)
TINY_CONFIGS = {k: TINY for k in ("PPO", "A2C", "DDPG")}
# More steps than a three-month training window has dates, so a first
# quarter that trains on three months runs an episode to its last date.
WHOLE_EPISODE_CONFIGS = {k: replace(TINY, total_steps=70)
                         for k in ("PPO", "A2C", "DDPG")}
ENSEMBLE = {"ensemble": pick_best}
# the backtest's strategies: the ensemble and one always-this-kind picker
ALL_STRATEGIES = {**ENSEMBLE, **{k.lower(): (lambda scores, k=k: k)
                                 for k in ("PPO", "A2C", "DDPG")}}


class StubAgent:
    """Fixed-action policy used to exercise the trading loop in isolation."""

    def __init__(self, action):
        self.action = np.asarray(action, dtype=float)
        self.calls = 0

    def act(self, obs):
        self.calls += 1
        return self.action


class SequenceAgent:
    """Returns the next row of a fixed action table on each call."""

    def __init__(self, actions):
        self.actions = iter(actions)

    def act(self, obs):
        return next(self.actions)


def make_setup(T=600, seed=3, lookback=60,
               in_sample_end=dt.date(2018, 6, 30)):
    panel = make_panel(D=2, T=T, seed=seed, start=dt.date(2017, 1, 1))
    features = build_features(panel)
    turbulence = rolling_turbulence(panel, lookback=lookback)
    plan = build_window_plan(panel, in_sample_end, 3, 3)
    return panel, features, turbulence, plan


def override_env(panel, features, turbulence):
    """Env over dates 100–180 whose turbulence override fires on some."""
    threshold = float(np.quantile(turbulence[turbulence > 0], 0.8))
    return TradingEnv(panel, features, (100, 180),
                      EnvConfig(initial_balance=50_000.0, h_max=10),
                      turbulence=turbulence, turbulence_threshold=threshold)


class TestPickBest:
    def test_simple_argmax(self):
        assert pick_best({"PPO": 0.06, "A2C": 0.03, "DDPG": 0.05}) == "PPO"
        assert pick_best({"PPO": -0.36, "A2C": -0.13, "DDPG": -0.22}) == "A2C"
        assert pick_best({"PPO": 0.1, "A2C": 0.2, "DDPG": 0.35}) == "DDPG"

    def test_tie_resolution_order(self):
        assert pick_best({"PPO": 1.0, "A2C": 1.0, "DDPG": 1.0}) == "PPO"
        assert pick_best({"PPO": 0.0, "A2C": 1.0, "DDPG": 1.0}) == "A2C"

    def test_none_counts_as_worst(self):
        assert pick_best({"PPO": None, "A2C": -5.0, "DDPG": None}) == "A2C"

    def test_all_none_falls_back(self):
        assert pick_best({"PPO": None, "A2C": None, "DDPG": None}) == "PPO"


class TestWindowThreshold:
    """The one turbulence-threshold rule: the lower empirical quantile of
    the positive values before the trade quarter's first row."""

    def test_pre_trade_only(self):
        panel, _, turbulence, plan = make_setup()
        triple = plan[0]
        thr = window_threshold(turbulence, triple.trade.rows.start, 0.99)
        start_idx = panel.date_slice(triple.trade.start,
                                     triple.trade.end).start
        pre = turbulence[:start_idx]
        assert thr <= pre.max()
        assert thr > 0

    def test_no_defined_history_is_inf(self):
        panel, _, _, plan = make_setup()
        stop = plan[0].trade.rows.start
        assert window_threshold(np.zeros(panel.T), stop, 0.99) == np.inf
        assert window_threshold(np.array([]), 0, 0.99) == np.inf

    def test_threshold_grows_with_quantile(self):
        _, _, turbulence, plan = make_setup()
        stop = plan[0].trade.rows.start
        t90 = window_threshold(turbulence, stop, 0.90)
        t99 = window_threshold(turbulence, stop, 0.99)
        assert t90 <= t99

    def test_reads_only_positive_values_before_stop(self):
        _, _, turbulence, plan = make_setup()
        stop = plan[0].trade.rows.start
        thr = window_threshold(turbulence, stop, 0.99)
        later = turbulence.copy()
        later[stop:] = np.linspace(1e6, 1e7, len(later) - stop)
        assert window_threshold(later, stop, 0.99) == thr
        for pad in (np.zeros(5), np.full(5, -1e6)):
            padded = np.concatenate([pad, turbulence])
            assert window_threshold(padded, stop + len(pad), 0.99) == thr

    def test_order_statistics(self):
        values = np.arange(1.0, 101.0)
        assert window_threshold(values, len(values), 0.99) == 99.0

    def test_quantile_one_is_max(self):
        values = np.array([3.0, 7.0, 5.0])
        assert window_threshold(values, len(values), 1.0) == 7.0

    def test_constant_series(self):
        values = np.full(10, 4.2)
        for q in (0.01, 0.5, 0.99, 1.0):
            assert window_threshold(values, len(values), q) == 4.2

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_quantile(self, seed):
        values = np.random.default_rng(seed).exponential(size=50)
        qs = np.linspace(0.05, 1.0, 12)
        ts = [window_threshold(values, len(values), q) for q in qs]
        assert all(a <= b for a, b in zip(ts, ts[1:]))


class TestRunDeterministic:
    def test_curve_one_point_per_date(self):
        panel, features, _, _ = make_setup()
        env = TradingEnv(panel, features, (10, 40),
                         EnvConfig(initial_balance=50_000.0, h_max=10))
        rollout = run_deterministic(StubAgent([0.5, -0.5]), env)
        values, final = rollout.values, rollout.final
        assert len(values) == 31
        assert values[0] == 50_000.0
        assert rollout.env is env
        assert final.t == 40 and final.done

    def test_hold_agent_flat_curve(self):
        panel, features, _, _ = make_setup()
        env = TradingEnv(panel, features, (10, 30),
                         EnvConfig(initial_balance=50_000.0, h_max=10))
        rollout = run_deterministic(StubAgent([0.0, 0.0]), env)
        np.testing.assert_allclose(rollout.values, 50_000.0)
        assert rollout.trades() == []

    def test_carried_state(self):
        panel, features, _, _ = make_setup()
        env = TradingEnv(panel, features, (10, 30),
                         EnvConfig(initial_balance=50_000.0, h_max=10))
        holdings = np.array([3, 4])
        values = run_deterministic(StubAgent([0.0, 0.0]), env,
                                   balance=1000.0, holdings=holdings).values
        p0 = panel.adj_close[10]
        assert values[0] == pytest.approx(1000.0 + 3 * p0[0] + 4 * p0[1])

    def test_trades_equal_per_step_rebuild(self):
        panel, features, turbulence, _ = make_setup()
        actions = np.random.default_rng(5).uniform(-1, 1, size=(80, panel.D))
        trades = run_deterministic(
            SequenceAgent(actions),
            override_env(panel, features, turbulence)).trades()

        # the rows rebuilt step by step, assets by flatnonzero
        env, expected, fired = override_env(panel, features, turbulence), [], 0
        env.reset()
        for action in actions:
            state = env.state
            result = env.step_state(state, action)
            fired += result.turbulence_triggered
            for side, shares in (("sell", result.sell_shares),
                                 ("buy", result.buy_shares)):
                for d in np.flatnonzero(shares):
                    expected.append((
                        panel.calendar[state.t].isoformat(), panel.assets[d],
                        side, int(shares[d]), float(state.prices[d])))
            env.state = result.next_state
        assert env.state.done and fired > 0
        assert trades == expected
        assert all(len(row) == len(TRADE_COLUMNS) for row in trades)
        assert all(type(shares) is int and type(price) is float
                   for _, _, _, shares, price in trades)
        # some date sells a later asset before it buys an earlier one
        index = panel.assets.index
        assert any(a[0] == b[0] and a[2] == "sell" and b[2] == "buy"
                   and index(a[1]) > index(b[1])
                   for a, b in zip(trades, trades[1:]))

    @pytest.mark.parametrize("seed", range(8))
    def test_trade_rows_equal_record_oracle(self, seed):
        panel, features, turbulence, _ = make_setup()
        rng = np.random.default_rng(seed)
        actions = rng.uniform(-1, 1, size=(80, panel.D))
        actions[rng.random(actions.shape) < 0.3] = 0.0  # some idle assets
        rollout = run_deterministic(SequenceAgent(actions),
                                    override_env(panel, features, turbulence))
        rows = rollout.trades()
        assert rows == [(r.date.isoformat(), r.asset, r.side, r.shares,
                         r.price) for r in trades_oracle(rollout)]
        assert rows
        # Python values only: a NumPy scalar would reach the CSV as np.*
        assert all(type(v) in (str, int, float) for row in rows for v in row)


class TestRunTrading:
    def build_windows(self, plan, scores_per_window, agents_factory):
        windows = []
        for i, triple in enumerate(plan):
            windows.append(WindowResult(
                triple=triple, agents=agents_factory(),
                scores=scores_per_window[i], threshold=np.inf))
        return windows

    def test_rigged_scores_drive_selection(self):
        panel, features, turbulence, plan = make_setup()
        n = len(plan)
        rigged = [{"PPO": 0.1, "A2C": 0.9, "DDPG": 0.2} for _ in range(n)]
        rigged[-1] = {"PPO": 0.5, "A2C": 0.1, "DDPG": 0.4}
        per_window_agents = []

        def factory():
            agents = {k: StubAgent([0.0, 0.0]) for k in ("PPO", "A2C", "DDPG")}
            per_window_agents.append(agents)
            return agents

        windows = self.build_windows(plan, rigged, factory)
        result = run_trading(panel, features, turbulence, windows,
                             EnvConfig(initial_balance=10_000.0, h_max=5),
                             ENSEMBLE)["ensemble"]
        assert result.picks == ["A2C"] * (n - 1) + ["PPO"]
        # only the picked agent is ever consulted
        for agents, pick in zip(per_window_agents, result.picks):
            for kind, agent in agents.items():
                if kind == pick:
                    assert agent.calls > 0
                else:
                    assert agent.calls == 0

    def test_state_carries_across_quarters(self):
        panel, features, turbulence, plan = make_setup()
        n = len(plan)
        scores = [{"PPO": 1.0, "A2C": 0.0, "DDPG": 0.0} for _ in range(n)]
        windows = self.build_windows(
            plan, scores,
            lambda: {k: StubAgent([0.3, 0.3]) for k in ("PPO", "A2C", "DDPG")})
        trace = run_trading(panel, features, turbulence, windows,
                            EnvConfig(initial_balance=100_000.0, h_max=5),
                            ENSEMBLE)["ensemble"]
        # one point per trade date; test_cli checks the dates written with it
        assert len(trace.curve.values) == len(trade_rows(plan))
        assert trace.curve.values[0] == 100_000.0
        # a buy-happy stub must actually accumulate positions
        assert any(side == "buy" for _, _, side, _, _ in trace.trades)


@pytest.fixture(scope="module")
def trained():
    panel, features, turbulence, plan = make_setup()
    env_config = EnvConfig(initial_balance=10_000.0, h_max=5)
    windows = train_and_validate(panel, features, turbulence, plan,
                                 env_config, TINY_CONFIGS, seed=4,
                                 turbulence_quantile=0.99)
    return (panel, features, turbulence), windows, env_config


class TestOnePass:
    def test_matches_one_call_per_strategy(self, trained):
        inputs, windows, env_config = trained
        together = run_trading(*inputs, windows, env_config, ALL_STRATEGIES)
        assert list(together) == list(ALL_STRATEGIES)
        for name, picker in ALL_STRATEGIES.items():
            alone = run_trading(*inputs, windows, env_config,
                                {name: picker})[name]
            assert together[name].picks == alone.picks
            np.testing.assert_array_equal(together[name].curve.values,
                                          alone.curve.values)
            assert together[name].trades == alone.trades
        assert len({r.curve.values.tobytes()
                    for r in together.values()}) > 1

    def test_windows_read_once_from_an_iterator(self, trained):
        inputs, windows, env_config = trained
        from_list = run_trading(*inputs, windows, env_config, ALL_STRATEGIES)
        from_iter = run_trading(*inputs, iter(windows), env_config,
                                ALL_STRATEGIES)
        assert len(from_iter["ensemble"].picks) == len(windows)
        for name, result in from_iter.items():
            assert result.picks == from_list[name].picks
            np.testing.assert_array_equal(result.curve.values,
                                          from_list[name].curve.values)
            assert result.trades == from_list[name].trades


def assert_walk_forward_access(panel, features, turbulence, plan,
                               configs=TINY_CONFIGS, seed=1):
    """The no-lookahead gate: train and validate every quarter with every
    env read recorded, and check that each phase reads only dates before
    its quarter's trade interval, and that some quarter's training reads
    its window's last date (where a peek at t + 1 would leave the window).
    Returns the window results."""
    with recorded_reads() as (log, marks):
        windows = train_and_validate(panel, features, turbulence, plan,
                                     EnvConfig(initial_balance=10_000.0,
                                               h_max=5),
                                     configs, seed=seed,
                                     turbulence_quantile=0.99)
    # every data access during train/validate phases stays strictly
    # before the corresponding trade interval
    boundaries = marks + [(None, "end", len(log))]
    train_end_read = False
    for (index, phase, start), (_, _, stop) in zip(boundaries,
                                                   boundaries[1:]):
        triple = plan[index]
        trade_start = panel.date_slice(triple.trade.start,
                                       triple.trade.end).start
        seg = log[start:stop]
        assert seg, f"no accesses in phase {phase} of window {index}"
        assert max(seg) < trade_start
        if phase == "train":
            train = panel.date_slice(triple.train.start, triple.train.end)
            train_end_read |= train.stop - 1 in seg
    assert train_end_read, "no quarter's training read its window's last date"
    return windows


class PeekingEnv(TradingEnv):
    """A lookahead mutant: observes date t+1's features at date t."""

    def market_at(self, t):
        prices, _, turbulence = super().market_at(t)
        _, features, _ = super().market_at(t + 1)
        return prices, features, turbulence


class TestTrainAndValidate:
    def test_structure_and_walk_forward_data_access(self):
        # a three-month first training window, so the gate's last-date
        # check can hold
        panel, features, turbulence, plan = make_setup(
            in_sample_end=dt.date(2017, 6, 30))
        windows = assert_walk_forward_access(panel, features, turbulence,
                                             plan, WHOLE_EPISODE_CONFIGS)
        assert len(windows) == len(plan)
        for w in windows:
            assert set(w.agents) == {"PPO", "A2C", "DDPG"}
            assert set(w.scores) == {"PPO", "A2C", "DDPG"}

    def test_gate_fails_an_env_that_observes_the_next_date(self,
                                                           monkeypatch):
        # The peek leaves a window when an episode observes its last date,
        # so the first quarter trains on three months for more steps than
        # that window has.
        panel = make_panel(D=2, T=400, seed=3, start=dt.date(2017, 1, 1))
        features = build_features(panel)
        turbulence = rolling_turbulence(panel, lookback=30)
        plan = build_window_plan(panel, dt.date(2017, 6, 30), 3, 3)
        assert_walk_forward_access(panel, features, turbulence, plan,
                                   WHOLE_EPISODE_CONFIGS)
        monkeypatch.setattr(ensemble, "TradingEnv", PeekingEnv)
        with pytest.raises((AssertionError, IndexError)):
            assert_walk_forward_access(panel, features, turbulence, plan,
                                       WHOLE_EPISODE_CONFIGS)

    def test_validation_env_cannot_read_the_trade_quarter(self):
        panel, features, turbulence, plan = make_setup()
        triple = plan[0]
        val = panel.date_slice(triple.validation.start, triple.validation.end)
        env = TradingEnv(panel, features, (val.start, val.stop - 1),
                         EnvConfig(), turbulence=turbulence)
        trade_start = panel.date_slice(triple.trade.start,
                                       triple.trade.end).start
        assert env.end + 1 == trade_start
        env.market_at(env.end)
        for t in (trade_start, panel.T - 1):
            with pytest.raises(IndexError):
                env.market_at(t)
        env.reset()
        last = replace(env.state, t=env.end)  # not marked done
        with pytest.raises(IndexError):
            env.step_state(last, np.zeros(panel.D))

    def test_two_date_window_scores_none(self):
        # one daily return has no sample volatility, so no Sharpe
        panel, features, _, _ = make_setup()
        env = TradingEnv(panel, features, (10, 11),
                         EnvConfig(initial_balance=50_000.0, h_max=10))
        assert validate_agent(StubAgent([0.5, -0.5]), env) is None

    def test_validation_scores_populated_or_none(self):
        panel, features, turbulence, plan = make_setup(T=450)
        windows = train_and_validate(panel, features, turbulence,
                                     plan, EnvConfig(initial_balance=10_000.0,
                                                     h_max=5),
                                     TINY_CONFIGS, seed=2,
                                     turbulence_quantile=0.99)
        for w in windows:
            for v in w.scores.values():
                assert v is None or np.isfinite(v)


class TestRunEnsembleDeterminism:
    def test_same_seed_identical_curve_and_decisions(self):
        results = []
        for _ in range(2):
            panel, features, turbulence, plan = make_setup()
            env_config = EnvConfig(initial_balance=10_000.0, h_max=5)
            windows = train_and_validate(panel, features, turbulence, plan,
                                         env_config, TINY_CONFIGS, seed=7,
                                         turbulence_quantile=0.99)
            trace = run_trading(panel, features, turbulence, windows,
                                env_config, ENSEMBLE)["ensemble"]
            results.append((trace, metrics_report(trace.curve.values)))
        a, b = results
        np.testing.assert_array_equal(a[0].curve.values, b[0].curve.values)
        assert a[0].picks == b[0].picks
        assert a[1] == b[1]
