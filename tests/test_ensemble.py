import datetime as dt
from dataclasses import replace

import numpy as np
import pytest

from rlfolio import ensemble
from rlfolio.agents import AgentConfig
from rlfolio.ensemble import (TradeRecord, WindowResult, pick_best,
                              run_deterministic, run_trading,
                              train_and_validate, window_threshold)
from rlfolio.env import EnvConfig, TradingEnv
from rlfolio.errors import NoScores
from rlfolio.evaluation import metrics_report
from rlfolio.indicators import build_features
from rlfolio.market_data import build_window_plan
from rlfolio.turbulence import rolling_turbulence

from helpers import make_panel

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

    def act(self, obs, mode="deterministic"):
        self.calls += 1
        return self.action


class SequenceAgent:
    """Returns the next row of a fixed action table on each call."""

    def __init__(self, actions):
        self.actions = iter(actions)

    def act(self, obs, mode="deterministic"):
        return next(self.actions)


def make_setup(T=600, seed=3, lookback=60,
               in_sample_end=dt.date(2018, 6, 30)):
    panel = make_panel(D=2, T=T, seed=seed, start=dt.date(2017, 1, 1))
    features = build_features(panel)
    turbulence = rolling_turbulence(panel, lookback=lookback)
    plan = build_window_plan(panel, in_sample_end, 3, 3)
    return panel, features, turbulence, plan


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

    def test_empty_raises(self):
        with pytest.raises(NoScores):
            pick_best({})


class TestWindowThreshold:
    def test_pre_trade_only(self):
        panel, _, turbulence, plan = make_setup()
        triple = plan.triples[0]
        thr = window_threshold(turbulence, panel, triple, 0.99)
        start_idx = panel.date_slice(triple.trade.start,
                                     triple.trade.end).start
        pre = turbulence[:start_idx]
        assert thr <= pre.max()
        assert thr > 0

    def test_no_defined_history_is_inf(self):
        panel, _, _, plan = make_setup()
        zeros = np.zeros(panel.T)
        assert window_threshold(zeros, panel, plan.triples[0], 0.99) == np.inf

    def test_threshold_grows_with_quantile(self):
        panel, _, turbulence, plan = make_setup()
        t90 = window_threshold(turbulence, panel, plan.triples[0], 0.90)
        t99 = window_threshold(turbulence, panel, plan.triples[0], 0.99)
        assert t90 <= t99


class TestRunDeterministic:
    def test_curve_one_point_per_date(self):
        panel, features, _, _ = make_setup()
        env = TradingEnv(panel, features, (10, 40),
                         EnvConfig(initial_balance=50_000.0, h_max=10))
        rollout = run_deterministic(StubAgent([0.5, -0.5]), env)
        values, dates, final = rollout.values, rollout.dates, rollout.final
        assert len(values) == len(dates) == 31
        assert values[0] == 50_000.0
        assert dates[0] == panel.calendar[10]
        assert dates[-1] == panel.calendar[40]
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
        threshold = float(np.quantile(turbulence[turbulence > 0], 0.8))

        def make_env():
            return TradingEnv(panel, features, (100, 180),
                              EnvConfig(initial_balance=50_000.0, h_max=10),
                              turbulence=turbulence,
                              turbulence_threshold=threshold)

        actions = np.random.default_rng(5).uniform(-1, 1, size=(80, panel.D))
        trades = run_deterministic(SequenceAgent(actions), make_env()).trades()

        # the records rebuilt step by step, assets by flatnonzero
        env, expected, fired = make_env(), [], 0
        env.reset()
        for action in actions:
            state = env.state
            result = env.step_state(state, action)
            fired += result.turbulence_triggered
            for side, shares in (("sell", result.plan.sell_shares),
                                 ("buy", result.plan.buy_shares)):
                for d in np.flatnonzero(shares):
                    expected.append(TradeRecord(
                        panel.calendar[state.t], panel.assets[d], side,
                        int(shares[d]), float(state.prices[d])))
            env.state = result.next_state
        assert env.state.done and fired > 0
        assert trades == expected
        assert all(type(t.shares) is int and type(t.price) is float
                   for t in trades)
        # some date sells a later asset before it buys an earlier one
        index = panel.assets.index
        assert any(a.date == b.date and a.side == "sell" and b.side == "buy"
                   and index(a.asset) > index(b.asset)
                   for a, b in zip(trades, trades[1:]))


class TestRunTrading:
    def build_windows(self, plan, scores_per_window, agents_factory):
        windows = []
        for i, triple in enumerate(plan.triples):
            windows.append(WindowResult(
                triple=triple, agents=agents_factory(),
                scores=scores_per_window[i], threshold=np.inf))
        return windows

    def test_rigged_scores_drive_selection(self):
        panel, features, turbulence, plan = make_setup()
        n = len(plan.triples)
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
        n = len(plan.triples)
        scores = [{"PPO": 1.0, "A2C": 0.0, "DDPG": 0.0} for _ in range(n)]
        windows = self.build_windows(
            plan, scores,
            lambda: {k: StubAgent([0.3, 0.3]) for k in ("PPO", "A2C", "DDPG")})
        trace = run_trading(panel, features, turbulence, windows,
                            EnvConfig(initial_balance=100_000.0, h_max=5),
                            ENSEMBLE)["ensemble"]
        # contiguous, strictly increasing dates across the whole curve
        dates = trace.curve.dates
        assert all(a < b for a, b in zip(dates, dates[1:]))
        assert dates[0] >= plan.triples[0].trade.start
        assert dates[-1] <= plan.triples[-1].trade.end
        assert trace.curve.values[0] == 100_000.0
        # a buy-happy stub must actually accumulate positions
        assert any(t.side == "buy" for t in trace.trades)


@pytest.fixture(scope="module")
def trained():
    panel, features, turbulence, plan = make_setup()
    env_config = EnvConfig(initial_balance=10_000.0, h_max=5)
    windows = train_and_validate(panel, features, turbulence, plan,
                                 env_config, TINY_CONFIGS, seed=4)
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
            assert together[name].curve.dates == alone.curve.dates
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
    """The no-lookahead gate: train and validate every quarter with access
    tracking on, and check that each phase reads only dates before its
    quarter's trade interval, and that some quarter's training reads its
    window's last date (where a peek at t + 1 would leave the window).
    Returns the window results."""
    panel.enable_access_tracking()
    marks = []

    def phase_cb(index, phase):
        marks.append((index, phase, len(panel.access_log)))

    windows = train_and_validate(panel, features, turbulence, plan,
                                 EnvConfig(initial_balance=10_000.0,
                                           h_max=5),
                                 configs, seed=seed,
                                 phase_callback=phase_cb)
    # every data access during train/validate phases stays strictly
    # before the corresponding trade interval
    log = panel.access_log
    boundaries = marks + [(None, "end", len(log))]
    train_end_read = False
    for (index, phase, start), (_, _, stop) in zip(boundaries,
                                                   boundaries[1:]):
        triple = plan.triples[index]
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

    def observe(self, state=None):
        state = self.state if state is None else state
        _, features, _ = self.market_at(state.t + 1)
        return super().observe(replace(state, features=features))


class TestTrainAndValidate:
    def test_structure_and_walk_forward_data_access(self):
        # a three-month first training window, so the gate's last-date
        # check can hold
        panel, features, turbulence, plan = make_setup(
            in_sample_end=dt.date(2017, 6, 30))
        windows = assert_walk_forward_access(panel, features, turbulence,
                                             plan, WHOLE_EPISODE_CONFIGS)
        assert len(windows) == len(plan.triples)
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
        triple = plan.triples[0]
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

    def test_validation_scores_populated_or_none(self):
        panel, features, turbulence, plan = make_setup(T=450)
        windows = train_and_validate(panel, features, turbulence,
                                     plan, EnvConfig(initial_balance=10_000.0,
                                                     h_max=5),
                                     TINY_CONFIGS, seed=2)
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
                                         env_config, TINY_CONFIGS, seed=7)
            trace = run_trading(panel, features, turbulence, windows,
                                env_config, ENSEMBLE)["ensemble"]
            results.append((trace, metrics_report(trace.curve)))
        a, b = results
        np.testing.assert_array_equal(a[0].curve.values, b[0].curve.values)
        assert a[0].picks == b[0].picks
        assert a[1].as_dict() == b[1].as_dict()
