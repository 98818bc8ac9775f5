import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlfolio.errors import InputInvalid, InsufficientData
from rlfolio.market_data import BAR_FIELDS, PricePanel
from rlfolio.turbulence import (TurbulenceContext, calibrate_threshold,
                                default_ridge, panel_returns,
                                rolling_turbulence, turbulence_index)

import oracles
from helpers import make_panel, trading_calendar


def random_ctx(seed, d=5, lookback=50):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d))
    sigma = a @ a.T + 0.5 * np.eye(d)
    mu = rng.normal(size=d)
    return TurbulenceContext(mu=mu, sigma=sigma, lookback=lookback)


class TestTurbulenceIndex:
    def test_center_is_zero(self):
        ctx = random_ctx(0)
        assert turbulence_index(ctx.mu, ctx) == 0.0

    def test_identity_unit_vector(self):
        d = 4
        ctx = TurbulenceContext(mu=np.zeros(d), sigma=np.eye(d), lookback=10)
        y = np.zeros(d)
        y[0] = 1.0
        assert turbulence_index(y, ctx) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_solve_oracle(self, seed):
        ctx = random_ctx(seed)
        rng = np.random.default_rng(seed + 1000)
        y = rng.normal(size=5)
        expected = oracles.quad_form_oracle(y, ctx.mu, ctx.sigma, ctx.ridge)
        assert turbulence_index(y, ctx) == pytest.approx(expected, abs=1e-9)

    def test_non_finite_input(self):
        ctx = random_ctx(1)
        with pytest.raises(InputInvalid):
            turbulence_index([np.nan] * 5, ctx)

    def test_nonnegative(self):
        for seed in range(30):
            ctx = random_ctx(seed)
            y = np.random.default_rng(seed).normal(size=5)
            assert turbulence_index(y, ctx) >= 0.0

    def test_affine_invariance(self):
        ctx = random_ctx(4)
        rng = np.random.default_rng(99)
        y = rng.normal(size=5)
        c = 3.7
        scaled = TurbulenceContext(mu=c * ctx.mu, sigma=c * c * ctx.sigma,
                                   lookback=ctx.lookback, ridge=0.0)
        assert turbulence_index(c * y, scaled) == pytest.approx(
            turbulence_index(y, ctx), rel=1e-9)


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
        d = 1
        rets = [0.01, 0.02, 0.03, 0.01, 0.02, 0.03]
        mean_ret = np.mean(rets)
        prices = [100.0]
        for r in rets + [mean_ret]:
            prices.append(prices[-1] * (1 + r))
        arr = np.array(prices)[:, None]
        fields = {f: arr.copy() for f in
                  ("open", "high", "low", "close", "adj_close")}
        fields["volume"] = np.ones_like(arr)
        panel = PricePanel(["A"], trading_calendar(
            __import__("datetime").date(2020, 1, 1), len(prices)), fields)
        series = rolling_turbulence(panel, lookback=lookback, ridge=0.0)
        assert series[-1] == pytest.approx(0.0, abs=1e-12)

    def test_each_value_is_turbulence_index_of_its_window(self):
        # D=30 is the paper's Dow-30 width; 252 its one-year lookback
        for D, lookback, T in [(3, 8, 40), (8, 252, 300), (30, 252, 300)]:
            panel = make_panel(D=D, T=T, seed=5)
            series = rolling_turbulence(panel, lookback=lookback)
            rets = panel_returns(panel)
            for t in range(lookback + 1, panel.T):
                window = rets[t - 1 - lookback:t - 1]
                sigma = np.cov(window, rowvar=False, bias=False)
                ctx = TurbulenceContext(mu=window.mean(axis=0), sigma=sigma,
                                        lookback=lookback,
                                        ridge=default_ridge(sigma))
                assert series[t] == turbulence_index(rets[t - 1], ctx)

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
        with pytest.raises(InputInvalid):
            rolling_turbulence(bad, lookback=10)

    def test_lookback_too_small(self):
        panel = make_panel(D=5, T=100)
        with pytest.raises(InputInvalid):
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
        with pytest.raises(InsufficientData):
            calibrate_threshold(np.array([]), 0.5)

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_quantile(self, seed):
        values = np.random.default_rng(seed).exponential(size=50)
        qs = np.linspace(0.05, 1.0, 12)
        ts = [calibrate_threshold(values, q) for q in qs]
        assert all(a <= b for a, b in zip(ts, ts[1:]))
