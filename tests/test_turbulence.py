import datetime as dt
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlfolio.errors import UserError
from rlfolio.evaluation import daily_returns
from rlfolio.market_data import BAR_FIELDS, PricePanel
from rlfolio.turbulence import calibrate_threshold, rolling_turbulence

from helpers import make_panel, trading_calendar, window_turbulence


def panel_from_returns(rets) -> PricePanel:
    """A panel whose every price field compounds the (T-1, D) `rets`."""
    rets = np.asarray(rets, dtype=float)
    prices = 100.0 * np.vstack([np.ones(rets.shape[1]),
                                np.cumprod(1.0 + rets, axis=0)])
    fields = {f: prices.copy() for f in
              ("open", "high", "low", "close", "adj_close")}
    fields["volume"] = np.ones_like(prices)
    return PricePanel([f"A{i}" for i in range(rets.shape[1])],
                      trading_calendar(dt.date(2020, 1, 1), len(prices)),
                      fields)


class TestTurbulenceIndex:
    """The index of one date's return against its trailing window, as
    `rolling_turbulence` computes it."""

    def test_center_is_zero(self):
        lookback = 20
        window = np.random.default_rng(0).normal(0, 0.01, size=(lookback, 5))
        panel = panel_from_returns(np.vstack([window, window.mean(axis=0)]))
        series = rolling_turbulence(panel, lookback=lookback)
        assert series[-1] == pytest.approx(0.0, abs=1e-12)

    def test_identity_unit_vector(self):
        # +-s moves, one asset at a time, give the window mean 0 and
        # covariance 2 s^2 / (lookback - 1) times the identity; a move of s
        # along one asset then scores (lookback - 1) / 2
        d, s = 4, 0.01
        moves = np.concatenate([s * np.eye(d), -s * np.eye(d)])
        lookback = len(moves)
        panel = panel_from_returns(np.vstack([moves, s * np.eye(d)[:1]]))
        series = rolling_turbulence(panel, lookback=lookback, ridge=0.0)
        assert series[-1] == pytest.approx((lookback - 1) / 2, rel=1e-9)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_solve_oracle(self, seed):
        lookback = 50
        panel = make_panel(D=5, T=80, seed=seed)
        series = rolling_turbulence(panel, lookback=lookback)
        rets = daily_returns(panel.adj_close)
        for t in range(lookback + 1, panel.T):
            assert series[t] == window_turbulence(rets, t, lookback)

    def test_non_finite_input(self):
        # an infinite price on the last date spoils only that date's return
        panel = make_panel(D=5, T=80, seed=1)
        fields = {name: panel.field(name).copy() for name in BAR_FIELDS}
        fields["adj_close"][-1, 2] = np.inf
        bad = PricePanel(list(panel.assets), list(panel.calendar), fields)
        with pytest.raises(UserError, match="^non-finite return vector$"):
            rolling_turbulence(bad, lookback=50)

    def test_nonnegative(self):
        for seed in range(30):
            panel = make_panel(D=5, T=80, seed=seed)
            assert np.all(rolling_turbulence(panel, 50, ridge=0.0) >= 0.0)

    def test_affine_invariance(self):
        # scaling every return by c scales the window's mean by c and its
        # covariance (and so the trace-scaled ridge) by c^2
        rets = daily_returns(make_panel(D=5, T=120, seed=4).adj_close)
        c = 3.7
        base = rolling_turbulence(panel_from_returns(rets), lookback=50)
        scaled = rolling_turbulence(panel_from_returns(c * rets), lookback=50)
        np.testing.assert_allclose(scaled, base, rtol=1e-9)


class TestRollingTurbulence:
    def test_chi_square_mean(self):
        # Mahalanobis distance of iid Gaussian data has mean ~ D
        panel = make_panel(D=5, T=2400, seed=8, drift=0.0, vol=0.01)
        series = rolling_turbulence(panel, lookback=252)
        defined = series[253:]
        assert abs(defined.mean() - 5) / 5 < 0.2

    def test_insufficient_history_prefix_zero(self):
        panel = make_panel(D=3, T=120, seed=2)
        series = rolling_turbulence(panel, lookback=60)
        np.testing.assert_array_equal(series[:61], 0.0)
        assert np.any(series[61:] > 0)

    def test_window_mean_return_scores_zero(self):
        # craft prices whose final return equals the trailing mean return
        lookback = 6
        rets = [0.01, 0.02, 0.03, 0.01, 0.02, 0.03]
        panel = panel_from_returns(np.array(rets + [np.mean(rets)])[:, None])
        series = rolling_turbulence(panel, lookback=lookback, ridge=0.0)
        assert series[-1] == pytest.approx(0.0, abs=1e-12)

    def test_each_value_is_turbulence_index_of_its_window(self):
        # D=30 is the paper's Dow-30 width; 252 its one-year lookback
        for D, lookback, T in [(3, 8, 40), (8, 252, 300), (30, 252, 300)]:
            panel = make_panel(D=D, T=T, seed=5)
            series = rolling_turbulence(panel, lookback=lookback)
            rets = daily_returns(panel.adj_close)
            for t in range(lookback + 1, panel.T):
                assert series[t] == window_turbulence(rets, t, lookback)

    def test_scratch_is_bounded_at_dow30_width(self):
        # the solves run in fixed blocks of dates, so beyond the returns
        # and the output (0.24 MB per 1000 dates at D=30) the peak stays
        # flat in T
        peaks = {}
        for T in (2000, 4000):
            panel = make_panel(D=30, T=T, seed=0)
            tracemalloc.start()
            try:
                rolling_turbulence(panel)
                peaks[T] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4000] <= 4e6
        assert peaks[4000] - peaks[2000] <= 1e6

    def test_non_finite_return_raises(self):
        panel = make_panel(D=2, T=40, seed=1)
        fields = {name: panel.field(name).copy() for name in BAR_FIELDS}
        fields["adj_close"][30, 1] = np.nan
        bad = PricePanel(list(panel.assets), list(panel.calendar), fields)
        with pytest.raises(UserError, match="^non-finite return vector$"):
            rolling_turbulence(bad, lookback=10)

    def test_lookback_too_small(self):
        panel = make_panel(D=5, T=100)
        with pytest.raises(UserError, match=re.escape(
                "[turbulence] lookback must be at least D + 1 = 6 for D = 5 "
                "assets, got 4")):
            rolling_turbulence(panel, lookback=4)


class TestCalibrateThreshold:
    def test_order_statistics(self):
        values = np.arange(1.0, 101.0)
        assert calibrate_threshold(values, 0.99) == 99.0

    def test_quantile_one_is_max(self):
        values = np.array([3.0, 7.0, 5.0])
        assert calibrate_threshold(values, 1.0) == 7.0

    def test_constant_series(self):
        values = np.full(10, 4.2)
        for q in (0.01, 0.5, 0.99, 1.0):
            assert calibrate_threshold(values, q) == 4.2

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="^needed at least one "
                                             "turbulence value, available 0$"):
            calibrate_threshold(np.array([]), 0.5)

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_quantile(self, seed):
        values = np.random.default_rng(seed).exponential(size=50)
        qs = np.linspace(0.05, 1.0, 12)
        ts = [calibrate_threshold(values, q) for q in qs]
        assert all(a <= b for a, b in zip(ts, ts[1:]))
