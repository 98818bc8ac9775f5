import datetime as dt
import gc
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rlfolio.env import (FEATURE_SCALES, PRICE_SCALE, EnvConfig, EnvState,
                        TradingEnv, resolve_action)
from rlfolio.errors import UserError
from rlfolio.indicators import build_features
from rlfolio.market_data import BAR_FIELDS, PricePanel
from rlfolio.turbulence import rolling_turbulence

from helpers import make_panel, make_trend_panel
from oracles import resolve_action_oracle, reward_components, step_oracle


def make_env(panel=None, config=None, **kwargs):
    panel = panel or make_panel(D=2, T=40, seed=4)
    features = build_features(panel)
    config = config or EnvConfig(initial_balance=10_000.0, h_max=10)
    return TradingEnv(panel, features, (0, panel.T - 1), config, **kwargs)


def state_with(prices, holdings, balance, t=0, turbulence=0.0):
    return EnvState(t=t, balance=balance,
                    holdings=np.asarray(holdings, dtype=np.int64),
                    prices=np.asarray(prices, dtype=float),
                    turbulence=turbulence)


class TestReset:
    def test_initial_portfolio_value(self):
        env = make_env(config=EnvConfig(initial_balance=1_000_000.0))
        env.reset()
        assert env.state.portfolio_value == 1_000_000.0

    def test_holdings_zero(self):
        env = make_env()
        env.reset()
        assert np.all(env.state.holdings == 0)

    def test_reset_deterministic(self):
        env = make_env()
        obs1 = env.reset()
        s1 = env.state
        obs2 = env.reset()
        np.testing.assert_array_equal(obs1, obs2)
        assert s1.balance == env.state.balance
        np.testing.assert_array_equal(s1.prices, env.state.prices)


class TestWindow:
    # a window is a range of the window plan's rows, never user input, so a
    # bad one is a program fault
    @pytest.mark.parametrize("window, message", [
        ((5, 5), "needed window of at least 2 dates, available 1"),
        ((30, 40), "needed window (30, 40) inside panel, available 40"),
    ], ids=["one_date", "past_panel_end"])
    def test_bad_window_is_a_program_fault(self, window, message):
        panel = make_panel(D=2, T=40, seed=4)
        with pytest.raises(ValueError, match=re.escape(message)) as exc:
            TradingEnv(panel, build_features(panel), window)
        assert not isinstance(exc.value, UserError)


class TestResolveAction:
    def test_zero_action_holds(self):
        s = state_with([100.0, 50.0], [3, 4], 1000.0)
        sell, buy, sold = resolve_action(s, [0.0, 0.0], h_max=100,
                                         fee_rate=0.001)
        np.testing.assert_array_equal(sell, [0, 0])
        np.testing.assert_array_equal(buy, [0, 0])
        assert sold == 0.0

    def test_sell_capped_at_holdings(self):
        s = state_with([100.0], [10], 0.0)
        sell, buy, sold = resolve_action(s, [-1.0], h_max=100, fee_rate=0.001)
        np.testing.assert_array_equal(sell, [10])
        assert sold == 1000.0

    def test_buy_capped_by_affordability_with_fee(self):
        s = state_with([100.0], [0], 1000.0)
        sell, buy, _ = resolve_action(s, [1.0], h_max=100, fee_rate=0.001)
        # 9 * 100 * 1.001 = 900.9 affordable; 10 would cost 1001
        np.testing.assert_array_equal(buy, [9])

    def test_truncation_toward_zero(self):
        s = state_with([1.0, 1.0], [5, 5], 1000.0)
        sell, buy, _ = resolve_action(s, [0.19, -0.19], h_max=10, fee_rate=0.0)
        np.testing.assert_array_equal(buy, [1, 0])
        np.testing.assert_array_equal(sell, [0, 1])

    def test_buys_ration_ascending_index(self):
        s = state_with([100.0, 100.0], [0, 0], 1000.0)
        sell, buy, _ = resolve_action(s, [1.0, 1.0], h_max=5, fee_rate=0.0)
        np.testing.assert_array_equal(buy, [5, 5])
        s2 = state_with([100.0, 100.0], [0, 0], 700.0)
        _, buy2, _ = resolve_action(s2, [1.0, 1.0], h_max=5, fee_rate=0.0)
        np.testing.assert_array_equal(buy2, [5, 2])

    def test_sell_proceeds_fund_buys(self):
        s = state_with([100.0, 10.0], [5, 0], 0.0)
        sell, buy, sold = resolve_action(s, [-1.0, 1.0], h_max=10,
                                         fee_rate=0.0)
        np.testing.assert_array_equal(sell, [5, 0])
        np.testing.assert_array_equal(buy, [0, 10])
        assert sold == 500.0

    @pytest.mark.filterwarnings("error")
    def test_nan_action_holds_without_a_cast_warning(self):
        s = state_with([100.0, 10.0], [5, 3], 1000.0)
        sell, buy, _ = resolve_action(s, [np.nan, np.nan], h_max=10,
                                      fee_rate=0.001)
        np.testing.assert_array_equal(sell, [0, 0])
        np.testing.assert_array_equal(buy, [0, 0])


@st.composite
def step_cases(draw):
    """Prices at t and t+1, holdings, balance and action of one step, with
    its h_max and fee rate, over 1 to 32 assets: numpy sums 8 or more
    elements in another order than one by one. The balance is often the
    exact cost of every requested buy up to some asset plus part of that
    asset's request, or one ulp either side of it, so that buy lands where
    `floor(cash / unit)` steps."""
    n = draw(st.integers(1, 32))

    def vector(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    prices = vector(st.floats(0.01, 5000.0))
    holdings = draw(st.just([0] * n) | st.lists(st.integers(0, 500),
                                                min_size=n, max_size=n))
    action = vector(st.floats(-1.5, 1.5) | st.sampled_from(
        [-1.0, -0.0, 0.0, 1.0, float("nan")]))
    h_max = draw(st.integers(1, 1000))
    fee_rate = draw(st.sampled_from([0.0, 0.001]) | st.floats(0.0, 0.5))
    last, exact = draw(st.integers(0, n - 1)), 0.0
    for d in range(last + 1):
        a = min(max(action[d], -1.0), 1.0)
        requested = 0 if a != a else max(int(a * h_max), 0)
        if d == last:
            requested = draw(st.integers(0, requested))
        exact += requested * (prices[d] * (1.0 + fee_rate))
    balance = draw(st.floats(0.0, 1e7) | st.sampled_from(
        [exact, np.nextafter(exact, 0.0), np.nextafter(exact, np.inf)]))
    return (prices, vector(st.floats(0.01, 5000.0)), holdings,
            float(balance), action, h_max, fee_rate)


def alternating_case(n, a, b, h_max):
    """A step over n assets that buys h_max shares of each even asset and
    sells h_max of each odd one, at prices (a * k**2 + b) mod 997 rounded
    to cents; the a, b and h_max used below were picked so that numpy's
    sum of both the buy and the sell notional differs from the one-by-one
    sum."""
    prices = [round((a * k * k + b) % 997 + 0.01, 2) for k in range(n)]
    return (prices, [round(p * 1.01, 2) for p in prices],
            [0 if k % 2 == 0 else 50 for k in range(n)], 1e7,
            [(-1.0) ** k for k in range(n)], h_max, 0.001)


def two_date_env(prices, next_prices, h_max, fee_rate):
    adj = np.array([prices, next_prices])
    panel = PricePanel([f"A{d}" for d in range(adj.shape[1])],
                       [dt.date(2020, 1, 2), dt.date(2020, 1, 3)],
                       {name: adj for name in BAR_FIELDS})
    return TradingEnv(panel, np.zeros((2, 4 * adj.shape[1])),
                      (0, 1), EnvConfig(h_max=h_max, fee_rate=fee_rate))


class TestStepOracle:
    """`resolve_action` and `step_state` against the per-asset numpy-scalar
    reference in `oracles`, with exact equality."""

    @given(step_cases())
    # cash runs out at the third asset; every cash / unit is an integer
    @example(([10.0, 10.0, 10.0], [11.0, 9.0, 10.5], [0, 0, 0], 250.0,
              [1.0, 1.0, 1.0], 10, 0.0))
    # with a fee: cash / unit is exactly 2.0 at the first asset
    @example(([37.5, 20.0], [38.0, 21.0], [0, 0], 2 * (37.5 * 1.001),
              [1.0, 1.0], 5, 0.001))
    # sale proceeds fund the buy; NaN and -0.0 actions hold
    @example(([50.0, 25.0, 7.0, 3.0], [49.0, 26.0, 7.5, 2.5], [4, 0, 6, 2],
              0.0, [-1.0, 1.0, float("nan"), -0.0], 4, 0.0))
    # the cash left after 13 of the first asset affords the third asset's
    # last share only if it is reduced by k * unit exactly as the loop does
    @example(([3647.640625, 1.0, 1.0, 1.0, 1.0], [1.0] * 5, [0] * 5,
              47479.760453124996, [1.0, 0.0, 1.0, 0.0, 0.0], 13, 0.001))
    # the widths of the workloads and of the paper
    @example(alternating_case(8, 1.13, 0.5, 13))
    @example(alternating_case(30, 0.37, 101.7, 37))
    @settings(max_examples=500, deadline=None)
    # the oracle still casts a NaN action to int64's minimum, which holds
    # on both sides as the env's explicit NaN-to-zero does
    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
    def test_bit_identical_to_reference(self, case):
        prices, next_prices, holdings, balance, action, h_max, fee_rate = case
        env = two_date_env(prices, next_prices, h_max, fee_rate)
        env.reset(balance=balance, holdings=np.array(holdings))
        state = env.state
        sell, buy, cost, new_balance, new_holdings, reward = step_oracle(
            state, np.array(next_prices), action, h_max, fee_rate)

        got_sell, got_buy, sold = resolve_action(state, action, h_max,
                                                 fee_rate)
        ref_sell, ref_buy = resolve_action_oracle(state, action, h_max,
                                                  fee_rate)
        np.testing.assert_array_equal(got_sell, ref_sell)
        np.testing.assert_array_equal(got_buy, ref_buy)
        assert sold == float((state.prices * ref_sell).sum())
        assert got_buy.dtype == ref_buy.dtype == np.int64

        result = env.step_state(state, action)
        np.testing.assert_array_equal(result.sell_shares, sell)
        np.testing.assert_array_equal(result.buy_shares, buy)
        assert result.cost == cost
        assert result.next_state.balance == new_balance
        np.testing.assert_array_equal(result.next_state.holdings,
                                      new_holdings)
        assert result.reward_unscaled == reward
        assert result.reward == reward * env.config.reward_scale


SPECIAL_ACTIONS = [np.inf, -np.inf, np.nan, 3e38, -1.5, 1.0, -1.0, -0.0]


def float32_actions():
    """Actions of 1, 8 or 30 components: any float32, infinities and NaN
    included, or a value at or beyond the bound."""
    return st.sampled_from([1, 8, 30]).flatmap(lambda D: st.lists(
        st.floats(width=32) | st.sampled_from(SPECIAL_ACTIONS),
        min_size=D, max_size=D))


class TestActionBound:
    """The env is the one bound on an action: `OnPolicyAgent.act` returns
    the float32 policy mean as it is. A step on it equals the step on the
    same action clipped to [-1, 1] in float32, the form `act` once
    returned: the float32 -> float64 cast is exact and commutes with the
    clip, and a NaN component trades nothing either way."""

    @given(float32_actions(), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([1, 100, 1000]))
    @example(SPECIAL_ACTIONS, 3, 100)
    @example(SPECIAL_ACTIONS * 3 + [2.0] * 6, 4, 1000)
    @settings(max_examples=300, deadline=None)
    def test_unclipped_float32_action_steps_as_clipped(self, action, seed,
                                                       h_max):
        D, action = len(action), np.array(action, dtype=np.float32)
        clipped = action.copy()
        np.maximum(clipped, -1.0, out=clipped)
        np.minimum(clipped, 1.0, out=clipped)
        assert clipped.dtype == np.float32
        rng = np.random.default_rng(seed)
        prices = rng.uniform(1.0, 500.0, D)
        env = two_date_env(prices, prices * rng.uniform(0.9, 1.1, D), h_max,
                           0.001)
        env.reset(balance=float(rng.uniform(0.0, 200.0 * h_max)),
                  holdings=rng.integers(0, 2 * h_max, D))
        got = env.step_state(env.state, action)
        want = env.step_state(env.state, clipped)
        np.testing.assert_array_equal(got.sell_shares, want.sell_shares)
        np.testing.assert_array_equal(got.buy_shares, want.buy_shares)
        assert got.cost == want.cost
        assert got.next_state.balance == want.next_state.balance
        assert got.reward == want.reward


class TestStep:
    def test_hold_frozen_prices_zero_reward(self):
        panel = make_trend_panel(D=2, T=40, step=0.0)
        env = make_env(panel)
        env.reset()
        result = env.step_state(env.state, np.zeros(2))
        assert result.reward_unscaled == 0.0
        assert result.cost == 0.0
        assert result.next_state.balance == env.state.balance

    def test_buy_cost_is_negative_reward(self):
        panel = make_trend_panel(D=1, T=40, step=0.0, base_price=100.0)
        config = EnvConfig(initial_balance=10_000.0, h_max=10, fee_rate=0.001)
        env = make_env(panel, config)
        env.reset()
        result = env.step_state(env.state, np.array([1.0]))
        np.testing.assert_array_equal(result.buy_shares, [10])
        assert result.cost == pytest.approx(1.0)
        assert result.reward_unscaled == pytest.approx(-1.0)

    def test_hold_gain(self):
        # price 100 -> 103 while holding 5 shares: r_H = 15 = reward
        panel = make_trend_panel(D=1, T=40, step=3.0, base_price=100.0)
        config = EnvConfig(initial_balance=10_000.0, h_max=10, fee_rate=0.0,
                           reward_scale=1.0)
        env = make_env(panel, config)
        env.reset()
        r1 = env.step_state(env.state, np.array([0.5]))  # buy 5 at 100... t=0
        state = r1.next_state
        assert np.all(state.holdings == 5)
        r2 = env.step_state(state, np.array([0.0]))
        assert reward_components(state, r2)["r_H"] == pytest.approx(15.0)
        assert r2.reward_unscaled == pytest.approx(15.0)

    def test_step_after_done_raises(self):
        panel = make_panel(D=2, T=40)
        env = make_env(panel)
        env.reset()
        done = False
        while not done:
            _, _, done = env.step(np.zeros(2))
        with pytest.raises(RuntimeError, match="episode already done"):
            env.step(np.zeros(2))

    def test_reward_scaling(self):
        panel = make_trend_panel(D=1, T=10, step=1.0)
        config = EnvConfig(initial_balance=1000.0, h_max=2, fee_rate=0.0,
                           reward_scale=1e-3)
        env = make_env(panel, config)
        env.reset()
        result = env.step_state(env.state, np.array([1.0]))
        assert result.reward == pytest.approx(result.reward_unscaled * 1e-3)


class TestAccountingFuzz:
    def test_identity_and_safety(self):
        panel = make_panel(D=3, T=300, seed=6, vol=0.03)
        config = EnvConfig(initial_balance=50_000.0, h_max=20)
        env = make_env(panel, config)
        rng = np.random.default_rng(0)
        obs = env.reset()
        for _ in range(2000):
            action = rng.uniform(-1, 1, size=3)
            state = env.state
            result = env.step_state(state, action)
            pv_change = (result.next_state.portfolio_value
                         - state.portfolio_value)
            # reward already nets out the cost taken from the balance
            assert result.reward_unscaled == pytest.approx(pv_change, rel=1e-9)
            comp = reward_components(state, result)
            decomposed = comp["r_H"] - comp["r_S"] + comp["r_B"]
            assert result.reward_unscaled + result.cost == pytest.approx(
                decomposed, rel=1e-9, abs=1e-9)
            notional = float(
                (state.prices * result.sell_shares).sum()
                + (state.prices * result.buy_shares).sum())
            assert result.cost == pytest.approx(0.001 * notional, rel=1e-9,
                                                abs=1e-12)
            assert result.next_state.balance >= 0
            assert np.all(result.next_state.holdings >= 0)
            env.state = result.next_state
            if env.state.done:
                env.reset()


class TestTurbulenceOverride:
    @staticmethod
    def step(state, action, fee_rate=0.0, threshold=5.0):
        """`step_state` from `state` in a two-date env with h_max 100."""
        env = two_date_env(state.prices.tolist(), state.prices.tolist(),
                           100, fee_rate)
        env.threshold = threshold
        return env.step_state(state, action)

    def test_forces_liquidation(self):
        s = state_with([10.0, 10.0], [3, 0], 100.0, turbulence=10.0)
        result = self.step(s, [1.0, 1.0])
        assert result.turbulence_triggered
        np.testing.assert_array_equal(result.sell_shares, [3, 0])
        np.testing.assert_array_equal(result.buy_shares, [0, 0])

    def test_below_threshold_passthrough(self):
        s = state_with([10.0], [3], 100.0, turbulence=4.0)
        result = self.step(s, [0.4])
        assert not result.turbulence_triggered
        # the trades of the action itself, [0.4]
        sell, buy, _ = resolve_action(s, [0.4], h_max=100, fee_rate=0.0)
        np.testing.assert_array_equal(result.sell_shares, sell)
        np.testing.assert_array_equal(result.buy_shares, buy)

    def test_nothing_to_sell(self):
        s = state_with([10.0, 10.0], [0, 0], 100.0, turbulence=10.0)
        result = self.step(s, [1.0, -1.0], fee_rate=0.001)
        assert result.turbulence_triggered
        np.testing.assert_array_equal(result.sell_shares, [0, 0])
        np.testing.assert_array_equal(result.buy_shares, [0, 0])

    def test_override_supremacy_in_step(self):
        panel = make_panel(D=2, T=50, seed=3)
        turb = np.full(50, 100.0)
        env = make_env(panel, turbulence=turb)
        env.threshold = 1.0
        env.reset(balance=10_000.0, holdings=np.array([500, 7]))
        result = env.step_state(env.state, np.array([1.0, 1.0]))
        assert result.turbulence_triggered
        assert np.all(result.next_state.holdings == 0)


class TestObserve:
    def test_dimension(self):
        panel = make_panel(D=2, T=40)
        env = make_env(panel)
        assert env.obs_dim == 13
        obs = env.reset()
        assert obs.shape == (13,)

    def test_dimension_30_assets(self):
        panel = make_panel(D=30, T=40, seed=5)
        env = TradingEnv(panel, build_features(panel), (0, panel.T - 1))
        assert env.obs_dim == 181
        assert env.reset().shape == (181,)

    def test_holdings_block_zero_after_reset(self):
        panel = make_panel(D=2, T=40)
        env = make_env(panel)
        obs = env.reset()
        np.testing.assert_array_equal(obs[5:7], 0.0)

    def test_scaling(self):
        panel = make_panel(D=2, T=40)
        config = EnvConfig(initial_balance=5000.0, h_max=10)
        env = make_env(panel, config)
        obs = env.reset()
        assert obs[0] == 1.0
        np.testing.assert_allclose(obs[1:3], env.state.prices / 100.0)

    @pytest.mark.parametrize("D", [3, 8, 30])
    def test_matches_concatenation_and_is_never_reused(self, D):
        """Bit for bit the scaled concatenation of balance, prices, holdings
        and features, over random states; an observation already returned
        stays as it was through later `observe` and `step` calls."""
        panel = make_panel(D=D, T=40, seed=D)
        config = EnvConfig(initial_balance=5000.0, h_max=10)
        env = make_env(panel, config)
        scale = np.repeat([config.initial_balance, PRICE_SCALE, config.h_max,
                           *FEATURE_SCALES], [1] + [D] * 6)

        def expected(state):
            return np.concatenate([[state.balance], state.prices,
                                   state.holdings, state.features]) / scale

        rng = np.random.default_rng(D)
        returned = [(env.reset(), expected(env.state))]
        for _ in range(30):
            prices, features, _ = env.market_at(int(rng.integers(panel.T)))
            state = EnvState(0, float(rng.uniform(0.0, 1e7)),
                             rng.integers(0, 10_000, D), prices, features)
            returned.append((env.observe(state), expected(state)))
            obs, _, done = env.step(rng.uniform(-1.0, 1.0, D))
            returned.append((obs, expected(env.state)))
            if done:
                returned.append((env.reset(), expected(env.state)))
            for got, want in returned:
                np.testing.assert_array_equal(got, want)


class TestMarketAt:
    def test_read_only_view_of_adj_close(self):
        panel = make_panel(D=3, T=10)
        env = make_env(panel)
        prices, features, _ = env.market_at(4)
        np.testing.assert_array_equal(prices, panel.adj_close[4])
        assert np.shares_memory(prices, panel.adj_close)
        assert not prices.flags.writeable
        with pytest.raises(ValueError):
            prices[0] = 1.0
        np.testing.assert_array_equal(features,
                                      build_features(panel)[4])

    def test_access_log_records_every_read(self):
        panel = make_panel(D=2, T=50)
        env = make_env(panel)
        env.market_at(1)
        panel.enable_access_tracking()
        for t in [3, 7, 3, 11]:
            env.market_at(t)
        assert panel.access_log == [3, 7, 3, 11]


class TestNoLookahead:
    PANEL = make_panel(D=2, T=40, seed=4, vol=0.03)

    @staticmethod
    def observe_and_reward(panel, features, turbulence, threshold, actions):
        """The observation at t = len(actions) - 1 and the reward of that
        step, after acting on the earlier actions from the window start."""
        env = TradingEnv(panel, features, (0, panel.T - 1),
                         EnvConfig(initial_balance=10_000.0, h_max=10),
                         turbulence=turbulence,
                         turbulence_threshold=threshold)
        env.reset()
        for action in actions[:-1]:
            env.step(action)
        return env.observe(), env.step_state(env.state, actions[-1]).reward

    @given(st.integers(0, 37), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_later_inputs_change_neither_observation_nor_reward(self, t, seed):
        panel = self.PANEL
        features = build_features(panel)
        turbulence = rolling_turbulence(panel, lookback=5)
        threshold = float(np.median(turbulence))  # the override fires too
        rng = np.random.default_rng(seed)
        actions = rng.uniform(-1, 1, size=(t + 1, panel.D))
        # every price after date t + 1 (the step is rewarded at t + 1
        # prices), every feature and turbulence value after date t
        later_prices, later = slice(t + 2, None), slice(t + 1, None)
        fields = {name: panel.field(name).copy() for name in BAR_FIELDS}
        for arr in fields.values():
            arr[later_prices] *= rng.uniform(0.5, 2.0,
                                             size=arr[later_prices].shape)
        block = features.copy()
        block[later] += rng.normal(0.0, 50.0, size=block[later].shape)
        changed = turbulence.copy()
        changed[later] = rng.uniform(0.0, 2 * changed.max(),
                                     size=changed[later].shape)
        other = PricePanel(list(panel.assets), list(panel.calendar), fields)

        obs, reward = self.observe_and_reward(panel, features, turbulence,
                                              threshold, actions)
        obs2, reward2 = self.observe_and_reward(other, block,
                                                changed, threshold, actions)
        np.testing.assert_array_equal(obs, obs2)
        assert reward == reward2


class TestBoundedMemory:
    def test_full_rollout_retains_no_per_date_memory(self):
        # Every date of a long panel is read once by a full-window rollout;
        # once the env is dropped, the panel must hold nothing per date.
        panel = make_panel(D=3, T=2000, seed=6)
        features = build_features(panel)

        def rollout(end):
            env = TradingEnv(panel, features, (0, end))
            env.reset()
            while not env.state.done:
                env.step(np.full(panel.D, 0.5))

        rollout(5)  # warm up numpy's and the interpreter's one-time caches
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rollout(panel.T - 1)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # a per-date copy of even one price row would be >= 2000 * 24 bytes
        assert retained < 16_384, retained
