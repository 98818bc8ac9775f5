"""Acceptance suite: twelve top-level criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion
summary lines alongside the pytest verdicts.
"""
import datetime as dt
import functools
import time

import numpy as np
import pytest
from click.testing import CliRunner

from rlfolio import indicators as ind
from rlfolio.agents import AgentConfig
from rlfolio.agents.a2c import A2CAgent
from rlfolio.agents.common import TransitionStore
from rlfolio.agents.ddpg import DDPGAgent
from rlfolio.agents.ppo import PPOAgent, ppo_clip_objective
from rlfolio.cli import main as cli_main
from rlfolio.ensemble import (WindowResult, pick_best, run_trading,
                              train_and_validate)
from rlfolio.env import EnvConfig, EnvState, TradingEnv
from rlfolio.evaluation import (cumulative_return, daily_returns,
                                max_drawdown, min_variance_weights,
                                run_min_variance_baseline)
from rlfolio.market_data import build_window_plan
from rlfolio.neural import GaussianPolicy
from rlfolio.turbulence import rolling_turbulence
from rlfolio.indicators import build_features

import oracles
from helpers import (TwoArmedBandit, advantage, float64_twin, make_panel,
                     panel_to_csv, recorded_reads, window_turbulence)


def criterion(number, description):
    """Emit one `[PASS]`/`[FAIL]` summary line per acceptance criterion."""
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {description}")
                raise
            print(f"[PASS] criterion {number}: {description}")
        return wrapper
    return decorate


def fresh_env(D=3, T=300, seed=6, h_max=20):
    panel = make_panel(D=D, T=T, seed=seed, vol=0.03)
    features = build_features(panel)
    config = EnvConfig(initial_balance=50_000.0, h_max=h_max)
    return TradingEnv(panel, features, (0, panel.T - 1), config)


@criterion(1, "accounting identity and non-negativity over 1e5 fuzzed steps "
              "(< 1 min)")
def test_criterion_01_accounting_identity():
    t0 = time.perf_counter()
    env = fresh_env()
    rng = np.random.default_rng(0)
    env.reset()
    steps = 0
    while steps < 100_000:
        state = env.state
        action = rng.uniform(-1, 1, size=3)
        result = env.step_state(state, action)
        pv_change = result.next_state.portfolio_value - state.portfolio_value
        assert result.reward_unscaled == pytest.approx(pv_change, rel=1e-9,
                                                       abs=1e-9)
        assert result.next_state.balance >= 0.0
        assert np.all(result.next_state.holdings >= 0)
        env.state = result.next_state
        steps += 1
        if env.state.done:
            env.reset()
    assert time.perf_counter() - t0 < 60.0


@criterion(2, "per-step cost equals 0.001 x trade notional on fuzzed trades")
def test_criterion_02_cost_model():
    env = fresh_env(seed=7)
    rng = np.random.default_rng(1)
    env.reset()
    for _ in range(5_000):
        state = env.state
        result = env.step_state(state, rng.uniform(-1, 1, size=3))
        notional = float((state.prices * result.sell_shares).sum()
                         + (state.prices * result.buy_shares).sum())
        assert result.cost == pytest.approx(0.001 * notional, rel=1e-9,
                                            abs=1e-12)
        env.state = result.next_state
        if env.state.done:
            env.reset()


@criterion(3, "indicator oracle equivalence on 100 random series plus "
              "degenerate constants")
def test_criterion_03_indicator_oracles():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        close = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, 80)))
        high = close * (1 + np.abs(rng.normal(0, 0.01, 80)))
        low = close * (1 - np.abs(rng.normal(0, 0.01, 80)))
        np.testing.assert_array_equal(ind.macd(close, 12, 26),
                                      oracles.macd_oracle(close, 12, 26))
        np.testing.assert_array_equal(ind.rsi(close, 14),
                                      oracles.rsi_oracle(close, 14))
        np.testing.assert_array_equal(ind.cci(high, low, close, 14),
                                      oracles.cci_oracle(high, low, close, 14))
        np.testing.assert_array_equal(ind.adx(high, low, close, 14),
                                      oracles.adx_oracle(high, low, close, 14))
    const = np.full(60, 42.0)
    np.testing.assert_allclose(ind.macd(const), 0.0, atol=1e-12)
    np.testing.assert_allclose(ind.rsi(const, 14), 50.0)
    np.testing.assert_allclose(ind.cci(const, const, const, 14), 0.0)
    np.testing.assert_allclose(ind.adx(const, const, const, 14), 0.0)


@criterion(4, "turbulence solve-oracle match, chi-square mean, and override "
              "liquidation")
def test_criterion_04_turbulence():
    for seed in range(30):
        panel = make_panel(D=5, T=60, seed=seed)
        series = rolling_turbulence(panel, lookback=50)
        rets = daily_returns(panel.adj_close)
        for t in range(51, panel.T):
            assert series[t] == window_turbulence(rets, t, 50)

    panel = make_panel(D=5, T=2400, seed=8, drift=0.0, vol=0.01)
    series = rolling_turbulence(panel, lookback=252)
    defined = series[253:]
    assert abs(defined.mean() - 5) / 5 < 0.2

    env = fresh_env(D=4, T=40, h_max=10 ** 9)
    env.threshold = 5.0
    rng = np.random.default_rng(9)
    for _ in range(200):
        holdings = rng.integers(0, 50, size=4)
        state = EnvState(t=0, balance=float(rng.uniform(0, 1e5)),
                         holdings=holdings.astype(np.int64),
                         prices=rng.uniform(10, 200, size=4),
                         turbulence=10.0)
        result = env.step_state(state, rng.uniform(-1, 1, size=4))
        assert result.turbulence_triggered
        final = state.holdings - result.sell_shares + result.buy_shares
        assert np.all(final == 0)


@criterion(5, "gradient checks vs central finite differences on >= 20 random "
              "instances (< 2 min)")
def test_criterion_05_gradient_checks():
    t0 = time.perf_counter()
    tol = dict(rtol=1e-4, atol=1e-6)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        # A2C actor objective: mean of advantage-weighted log-probs
        agent = float64_twin(A2CAgent(3, 2, AgentConfig(hidden=(6,)),
                                      seed=seed))
        store = TransitionStore(8, 3, 2)
        for _ in range(8):
            store.add(rng.normal(size=3), rng.normal(size=2),
                      float(rng.normal()), rng.normal(size=3),
                      bool(rng.random() < 0.1))
        obs, acts, rewards, next_obs, dones, _ = store.rows()
        adv, _ = agent.compute_advantages(obs, rewards, next_obs, dones)

        def a2c_loss(vec, agent=agent, obs=obs, acts=acts, adv=adv):
            probe = GaussianPolicy(3, 2, (6,), flat=vec)
            logp, _ = probe.log_prob_grads(obs, acts)
            return -float((logp * adv).mean())

        _, backward = agent.policy.log_prob_grads(obs, acts)
        grad = -backward(adv) / len(obs)
        fd = oracles.finite_difference(a2c_loss, agent.policy.flat.copy())
        np.testing.assert_allclose(grad, fd, **tol)

        # PPO first-epoch surrogate equals the A2C-style objective at
        # ratio 1, so its analytic gradient must also match FD there
        ppo = float64_twin(PPOAgent(3, 2, AgentConfig(hidden=(6,)),
                                    seed=seed))
        logp0, _ = ppo.policy.log_prob_grads(obs, acts)
        adv_n = (adv - adv.mean()) / (adv.std() + 1e-8)

        def ppo_loss(vec, ppo=ppo, obs=obs, acts=acts, adv_n=adv_n,
                     logp0=logp0):
            probe = GaussianPolicy(3, 2, (6,), flat=vec)
            logp, _ = probe.log_prob_grads(obs, acts)
            ratio = np.exp(logp - logp0)
            return -float((ratio * adv_n).mean())

        logp, backward = ppo.policy.log_prob_grads(obs, acts)
        ratio = np.exp(logp - logp0)
        grad = -backward(ratio * adv_n) / len(obs)
        fd = oracles.finite_difference(ppo_loss, ppo.policy.flat.copy())
        np.testing.assert_allclose(grad, fd, **tol)

        # DDPG critic regression loss
        ddpg = float64_twin(DDPGAgent(3, 2, AgentConfig(hidden=(5,)),
                                      seed=seed))
        sa = rng.normal(size=(6, 5))
        y = rng.normal(size=6)

        def critic_loss(vec, ddpg=ddpg, sa=sa, y=y):
            probe = ddpg.critic.clone()
            probe.flat[:] = vec
            return float(((probe.forward(sa)[:, 0] - y) ** 2).mean())

        q, cache = ddpg.critic.forward_cache(sa)
        grad, _ = ddpg.critic.backward(cache, (2.0 / 6) * (q - y[:, None]))
        fd = oracles.finite_difference(critic_loss, ddpg.critic.flat.copy())
        np.testing.assert_allclose(grad, fd, **tol)
    assert time.perf_counter() - t0 < 120.0


@criterion(6, "hand-evaluated advantage/target/clip examples and PPO ratio "
              "band on the bandit")
def test_criterion_06_algorithm_semantics():
    # one-step advantage (via compute_advantages) and TD target
    assert abs(advantage(1.0, 0.9, 2.0, 3.0, False) - 1.7) < 1e-12
    assert abs(advantage(1.0, 0.9, 2.0, 3.0, True) - (-1.0)) < 1e-12
    agent = float64_twin(DDPGAgent(2, 1, AgentConfig(gamma=0.9), seed=0))
    next_obs = np.zeros((1, 2))
    a_next = np.tanh(agent.target_actor.forward(next_obs))
    q_next = float(agent.target_critic.forward(
        np.concatenate([next_obs, a_next], axis=1))[0, 0])
    y = agent.targets(np.array([2.0]), next_obs, np.array([0.0]))[0]
    assert abs(y - (2.0 + 0.9 * q_next)) < 1e-12
    # clipped surrogate
    assert abs(ppo_clip_objective(1.5, 2.0, 0.2) - 2.4) < 1e-12
    assert abs(ppo_clip_objective(0.5, -2.0, 0.2) - (-1.6)) < 1e-12
    assert abs(ppo_clip_objective(1.0, 3.0, 0.2) - 3.0) < 1e-12

    # post-update ratios stay near the clip band
    env = TwoArmedBandit()
    eps = 0.2
    cfg = AgentConfig(hidden=(16,), actor_lr=1e-4, critic_lr=1e-3,
                      clip_epsilon=eps, epochs=4, minibatch=32)
    ppo = PPOAgent(env.obs_dim, env.action_dim, cfg, seed=0)
    store = TransitionStore(256, env.obs_dim, env.action_dim)
    obs = env.reset()
    for _ in range(256):
        action, logp = ppo.policy.sample(obs, ppo.rng)
        next_obs, reward, done = env.step(np.clip(action, -1, 1))
        store.add(obs, action, reward, next_obs, done, logp)
        obs = env.reset()
    ppo.update(store.rows(), *ppo.optimizers())
    stacked_obs, stacked_act, _, _, _, old = store.rows()
    new, _ = ppo.policy.log_prob_grads(stacked_obs, stacked_act)
    ratio = np.exp(new - old)
    inside = (ratio >= 1 - eps - 0.05) & (ratio <= 1 + eps + 0.05)
    assert inside.mean() >= 0.99


@criterion(7, "each agent learns the two-armed bandit to >= 95% accuracy "
              "(< 2 min per agent)")
def test_criterion_07_learning_smoke():
    # the bandit's observation is constant and a deterministic act answers
    # it the same way every time, so ">= 95% accuracy" is one sign test
    def picks_positive_arm(agent, env):
        return agent.act(env.reset())[0] > 0

    t0 = time.perf_counter()
    env = TwoArmedBandit()
    a2c = A2CAgent(1, 1, AgentConfig(hidden=(16,), actor_lr=3e-3,
                                     critic_lr=3e-3, rollout=64,
                                     total_steps=4000), seed=0)
    a2c.train(env)  # 4000/64 < 2000 updates
    assert picks_positive_arm(a2c, env)
    assert time.perf_counter() - t0 < 120.0

    t0 = time.perf_counter()
    ppo = PPOAgent(1, 1, AgentConfig(hidden=(16,), actor_lr=3e-3,
                                     critic_lr=3e-3, rollout=64, epochs=4,
                                     minibatch=32, total_steps=2000), seed=0)
    ppo.train(env)
    assert picks_positive_arm(ppo, env)
    assert time.perf_counter() - t0 < 120.0

    t0 = time.perf_counter()
    ddpg = DDPGAgent(1, 1, AgentConfig(hidden=(16,), actor_lr=3e-3,
                                       critic_lr=3e-3, warmup_steps=64,
                                       batch_size=32, noise_scale=0.3,
                                       total_steps=1500), seed=0)
    ddpg.train(env)  # < 2000 post-warmup updates
    assert picks_positive_arm(ddpg, env)
    assert time.perf_counter() - t0 < 120.0


# reference validation Sharpe triples and the model picked for each of the
# 18 out-of-sample quarters (2016Q1 .. 2020/04-05)
REFERENCE_QUARTERS = [
    ("2016/01-03", 0.06, 0.03, 0.05, "PPO"),
    ("2016/04-06", 0.31, 0.53, 0.61, "DDPG"),
    ("2016/07-09", -0.02, 0.01, 0.05, "DDPG"),
    ("2016/10-12", 0.11, 0.01, 0.09, "PPO"),
    ("2017/01-03", 0.53, 0.44, 0.13, "PPO"),
    ("2017/04-06", 0.29, 0.44, 0.12, "A2C"),
    ("2017/07-09", 0.40, 0.32, 0.15, "PPO"),
    ("2017/10-12", -0.05, -0.04, 0.12, "DDPG"),
    ("2018/01-03", 0.71, 0.63, 0.62, "PPO"),
    ("2018/04-06", -0.08, -0.02, -0.01, "DDPG"),
    ("2018/07-09", -0.17, 0.21, -0.03, "A2C"),
    ("2018/10-12", 0.30, 0.48, 0.39, "A2C"),
    ("2019/01-03", -0.26, -0.25, -0.18, "DDPG"),
    ("2019/04-06", 0.38, 0.29, 0.25, "PPO"),
    ("2019/07-09", 0.53, 0.47, 0.52, "PPO"),
    ("2019/10-12", -0.22, 0.11, -0.22, "A2C"),
    ("2020/01-03", -0.36, -0.13, -0.22, "A2C"),
    ("2020/04-05", -0.42, -0.15, -0.58, "A2C"),
]


@criterion(8, "pick_best reproduces the reference model choice for all 18 "
              "quarters")
def test_criterion_08_ensemble_selection():
    t0 = time.perf_counter()
    for quarter, ppo, a2c, ddpg, expected in REFERENCE_QUARTERS:
        picked = pick_best({"PPO": ppo, "A2C": a2c, "DDPG": ddpg})
        assert picked == expected, f"{quarter}: {picked} != {expected}"
    assert time.perf_counter() - t0 < 1.0


@criterion(9, "walk-forward integrity on a synthetic 3-asset 8-quarter "
              "dataset")
def test_criterion_09_walk_forward_integrity():
    panel = make_panel(D=3, T=920, seed=21, start=dt.date(2016, 1, 1))
    features = build_features(panel)
    turbulence = rolling_turbulence(panel, lookback=60)
    # the first quarter trains on three months, fewer dates than its
    # training steps, so an episode reaches that window's last date
    plan = build_window_plan(panel, dt.date(2016, 6, 30), 3, 3)
    assert len(plan) >= 8
    plan = plan[:8]

    # structural invariants: growing train windows, disjoint intervals
    prev = None
    for triple in plan:
        assert triple.train.end < triple.validation.start
        assert triple.validation.end < triple.trade.start
        days = (triple.train.end - triple.train.start).days
        if prev is not None:
            assert days > prev
        prev = days

    # recorded run: train/validate never touch trade-period data
    tiny = AgentConfig(hidden=(8,), rollout=16, warmup_steps=8, batch_size=4,
                       total_steps=70)
    with recorded_reads() as (log, marks):
        windows = train_and_validate(
            panel, features, turbulence, plan,
            EnvConfig(initial_balance=100_000.0, h_max=5),
            {k: tiny for k in ("PPO", "A2C", "DDPG")}, seed=5,
            turbulence_quantile=0.99)
    bounds = marks + [(None, None, len(log))]
    train_end_read = False
    for (index, phase, start), (_, _, stop) in zip(bounds, bounds[1:]):
        trade_start = panel.date_slice(plan[index].trade.start,
                                       plan[index].trade.end).start
        assert max(log[start:stop]) < trade_start
        if phase == "train":
            train = panel.date_slice(plan[index].train.start,
                                     plan[index].train.end)
            train_end_read |= train.stop - 1 in log[start:stop]
    # a peek at t + 1 from some training window's last date would have left
    # that window, so the gate above would see it
    assert train_end_read

    # one equity point per date of the whole trade period; the dates the
    # bundle writes against it are checked in test_cli
    trace = run_trading(panel, features, turbulence, windows,
                        EnvConfig(initial_balance=100_000.0, h_max=5),
                        {"ensemble": pick_best})["ensemble"]
    full = panel.date_slice(plan[0].trade.start,
                            plan[-1].trade.end)
    assert len(trace.curve.values) == len(full)

    # rig one kind to dominate validation: it must be picked every quarter
    rigged = [WindowResult(triple=w.triple, agents=w.agents,
                           scores={"PPO": 0.1, "A2C": 0.2, "DDPG": 0.9},
                           threshold=w.threshold)
              for w in windows]
    rig_trace = run_trading(panel, features, turbulence, rigged,
                            EnvConfig(initial_balance=100_000.0, h_max=5),
                            {"ensemble": pick_best})["ensemble"]
    assert all(picked == "DDPG" for picked in rig_trace.picks)


@criterion(10, "metric oracles on 100 random curves and the headline "
               "cumulative-return example")
def test_criterion_10_metric_oracles():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        values = 100 * np.exp(np.cumsum(rng.normal(0.0003, 0.02, 120)))
        daily = values[1:] / values[:-1] - 1.0
        assert max_drawdown(values) == pytest.approx(
            oracles.max_drawdown_bruteforce(values), abs=1e-12)
        from rlfolio.evaluation import (annual_return, annual_volatility,
                                        sharpe)
        assert annual_return(values) == pytest.approx(
            oracles.annual_return_oracle(values), rel=1e-9)
        assert sharpe(daily) == pytest.approx(oracles.sharpe_oracle(daily),
                                              rel=1e-9)
        assert annual_volatility(daily) == pytest.approx(
            float(np.std(daily, ddof=1) * np.sqrt(252)), rel=1e-12)
        assert cumulative_return(values) == pytest.approx(
            values[-1] / values[0] - 1.0, abs=1e-15)
    # $1.0M -> $1.704M is a 70.4% cumulative return
    assert cumulative_return(np.array([1_000_000.0, 1_704_000.0])) == \
        pytest.approx(0.704, abs=1e-12)


@criterion(11, "min-variance weights and zero-cost baseline replay oracle")
def test_criterion_11_min_variance():
    np.testing.assert_allclose(min_variance_weights(np.eye(4)), 0.25,
                               atol=1e-12)
    np.testing.assert_allclose(min_variance_weights(np.diag([1.0, 4.0])),
                               [0.8, 0.2], atol=1e-12)

    panel = make_panel(D=3, T=700, seed=5, start=dt.date(2017, 1, 1))
    plan = build_window_plan(panel, dt.date(2018, 12, 31), 3, 3)
    idx = panel.date_slice(plan[0].trade.start,
                           plan[-1].trade.end)
    curve = run_min_variance_baseline(panel, idx, 1_000_000.0, lookback=252,
                                      fee_rate=0.0)
    prices = panel.adj_close
    rets = prices[1:] / prices[:-1] - 1.0
    value, shares, month, expected = 1_000_000.0, None, None, []
    for t in idx:
        p = prices[t]
        if shares is not None:
            value = float(shares @ p)
        m = (panel.calendar[t].year, panel.calendar[t].month)
        if m != month and t >= 252:
            month = m
            w = min_variance_weights(np.cov(rets[t - 252:t], rowvar=False),
                                     ridge=1e-10)
            shares = w * value / p
        expected.append(value)
    np.testing.assert_allclose(curve.values, expected, rtol=1e-9)


@criterion(12, "end-to-end backtest determinism: byte-identical "
               "comparison.csv across two runs (< 10 min)")
def test_criterion_12_end_to_end_determinism(tmp_path):
    t0 = time.perf_counter()
    data = tmp_path / "bars.csv"
    data.write_text(panel_to_csv(
        make_panel(D=2, T=600, seed=12, start=dt.date(2017, 1, 1))))
    outputs = []
    for name in ("one", "two"):
        out_dir = tmp_path / name
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(
            f"[data]\npath = {data}\n"
            "[windows]\nin_sample_end = 2018-06-30\n"
            "[env]\ninitial_balance = 100000\nh_max = 5\n"
            "[turbulence]\nlookback = 60\n"
            "[agents]\nhidden = 8\ntotal_steps = 200\nrollout = 32\n"
            "warmup_steps = 16\nbatch_size = 8\n"
            f"[run]\nseed = 11\nout_dir = {out_dir}\n"
            "[baselines]\nmin_variance_lookback = 60\n")
        result = CliRunner().invoke(cli_main, ["backtest", "--config",
                                               str(cfg)])
        assert result.exit_code == 0, result.output
        outputs.append(out_dir)
    a, b = outputs
    assert (a / "comparison.csv").read_bytes() == \
        (b / "comparison.csv").read_bytes()
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "equity_ensemble.csv").read_bytes() == \
        (b / "equity_ensemble.csv").read_bytes()
    assert time.perf_counter() - t0 < 600.0
