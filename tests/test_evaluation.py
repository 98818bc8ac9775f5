import datetime as dt

import numpy as np
import pytest

from rlfolio.cli import _write_strategy
from rlfolio.evaluation import (METRIC_NAMES, EquityCurve, annual_return,
                                annual_volatility, cumulative_return,
                                daily_returns, max_drawdown, metrics_report,
                                min_variance_weights, run_index_baseline,
                                run_min_variance_baseline, sharpe)
from rlfolio.market_data import build_window_plan

import oracles
from helpers import make_panel, trade_rows


def curve_from(values):
    return EquityCurve(np.asarray(values, dtype=float))


class TestMetrics:
    def test_cumulative_return_hand(self):
        assert cumulative_return(np.array([100.0, 170.4])) == pytest.approx(0.704)
        assert cumulative_return(np.array([50.0, 50.0])) == 0.0

    def test_annual_return_one_year_exact(self):
        values = np.linspace(1.0, 1.3, 253)  # 252 return periods = 1 year
        assert annual_return(values) == pytest.approx(0.3)

    def test_annual_return_matches_oracle(self):
        rng = np.random.default_rng(0)
        values = 100 * np.exp(np.cumsum(rng.normal(0.0005, 0.01, 300)))
        assert annual_return(values) == pytest.approx(
            oracles.annual_return_oracle(values))

    def test_annual_volatility_hand(self):
        r = np.array([0.01, -0.01, 0.01, -0.01])
        expected = np.std(r, ddof=1) * np.sqrt(252)
        assert annual_volatility(r) == pytest.approx(expected)

    def test_sharpe_matches_oracle(self):
        rng = np.random.default_rng(1)
        r = rng.normal(0.0004, 0.01, 252)
        assert sharpe(r) == pytest.approx(oracles.sharpe_oracle(r))

    def test_sharpe_zero_vol_raises(self):
        assert sharpe(np.full(10, 0.5)) is None

    @pytest.mark.parametrize("n", [0, 1])
    def test_sharpe_of_fewer_than_two_returns_is_none(self, n):
        assert sharpe(np.full(n, 0.01)) is None

    def test_max_drawdown_hand(self):
        # 100 -> 120 -> 90 -> 110: worst is 90/120 - 1 = -0.25
        assert max_drawdown(np.array([100.0, 120.0, 90.0, 110.0])) == \
            pytest.approx(-0.25)
        assert max_drawdown(np.array([1.0, 2.0, 3.0])) == 0.0

    @pytest.mark.parametrize("seed", range(25))
    def test_max_drawdown_bruteforce_sweep(self, seed):
        rng = np.random.default_rng(seed)
        values = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, 120)))
        assert max_drawdown(values) == pytest.approx(
            oracles.max_drawdown_bruteforce(values), abs=1e-12)

    def test_empty_inputs(self):
        assert annual_volatility(np.array([0.01])) == 0.0

    def test_metrics_report_flat_curve(self):
        rep = dict(zip(METRIC_NAMES, metrics_report(np.full(10, 100.0))))
        assert rep["sharpe"] is None
        assert rep["cumulative_return"] == 0.0
        assert rep["max_drawdown"] == 0.0

    def test_metrics_report_dict_keys(self):
        values = np.array([100.0, 101.0, 102.0])
        r = daily_returns(values)
        assert METRIC_NAMES == ("cumulative_return", "annual_return",
                                "annual_volatility", "sharpe", "max_drawdown")
        assert metrics_report(values) == (
            cumulative_return(values), annual_return(values),
            annual_volatility(r), sharpe(r), max_drawdown(values))


class TestEquityCurve:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            curve_from([100.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            curve_from([100.0, bad, 101.0])

    def test_rejects_length_mismatch(self, tmp_path):
        # a curve is written against the trade dates one to one; a length
        # mismatch fails instead of truncating either side
        for days in (["2020-01-01"], ["2020-01-01", "2020-01-02", "2020-01-03"]):
            with pytest.raises(ValueError):
                _write_strategy(tmp_path, "x", days, curve_from([1.0, 2.0]))

    def test_daily_returns(self):
        values = np.array([100.0, 110.0, 99.0])
        np.testing.assert_allclose(daily_returns(values), [0.1, -0.1])


class TestMinVarianceWeights:
    def test_diagonal_hand_example(self):
        # var 1 and 4: weights proportional to 1/var -> 0.8, 0.2
        w = min_variance_weights(np.diag([1.0, 4.0]))
        np.testing.assert_allclose(w, [0.8, 0.2])

    def test_identity_equal_weight(self):
        w = min_variance_weights(np.eye(5))
        np.testing.assert_allclose(w, 0.2)

    def test_sums_to_one_nonnegative(self):
        # positive definite and symmetric indefinite matrices, each scaled
        # from 1e-12 to 1e12: base / total sums to 1, so some weight
        # survives the clip and the renormalized weights are finite
        rng = np.random.default_rng(2)
        covs = []
        for _ in range(50):
            a = rng.normal(size=(4, 4))
            covs.append(a @ a.T + 0.1 * np.eye(4))
        rng = np.random.default_rng(3)
        for _ in range(50):
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            eig = rng.uniform(0.1, 2.0, 4) * [1, -1, *rng.choice([-1, 1], 2)]
            cov = (q * eig) @ q.T
            covs.append((cov + cov.T) / 2)
        for scale in np.logspace(-12, 12, 9):
            for cov in covs:
                w = min_variance_weights(scale * cov)
                assert np.all(np.isfinite(w)) and np.all(w >= 0)
                assert w.sum() == pytest.approx(1.0, rel=1e-12, abs=0.0)

    def test_negative_weight_clipped(self):
        # strong correlation makes the unconstrained solution short one asset
        cov = np.array([[1.0, 0.95], [0.95, 1.0]]) * np.array([[1.0, 2.0],
                                                               [2.0, 4.0]])
        raw = np.linalg.solve(cov, np.ones(2))
        raw = raw / raw.sum()
        assert raw.min() < 0  # scenario sanity
        w = min_variance_weights(cov)
        assert np.all(w >= 0)
        assert w.sum() == pytest.approx(1.0)

    def test_singular_raises(self):
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            min_variance_weights(np.zeros((3, 3)))


class TestMinVarianceBaseline:
    def make_setup(self):
        panel = make_panel(D=3, T=700, seed=5,
                           start=dt.date(2017, 1, 1))
        plan = build_window_plan(panel, dt.date(2018, 12, 31), 3, 3)
        return panel, plan

    def test_curve_spans_trade_period(self):
        panel, plan = self.make_setup()
        curve = run_min_variance_baseline(panel, trade_rows(plan),
                                          1_000_000.0, 252, 0.001)
        assert len(curve.values) == len(trade_rows(plan))
        # day one deploys the full balance, so one round of fees is paid
        assert curve.values[0] == pytest.approx(1_000_000.0 * 0.999)

    def test_zero_fee_matches_weight_replay(self):
        # independent replay: at each rebalance the value is carried by the
        # chosen weights applied to subsequent price relatives
        panel, plan = self.make_setup()
        curve = run_min_variance_baseline(panel, trade_rows(plan),
                                          1_000_000.0, lookback=252,
                                          fee_rate=0.0)
        prices = panel.adj_close
        rets = prices[1:] / prices[:-1] - 1.0
        idx = panel.date_slice(plan[0].trade.start,
                               plan[-1].trade.end)
        value = 1_000_000.0
        shares = None
        month = None
        expected = []
        for t in idx:
            p = prices[t]
            if shares is not None:
                value = float(shares @ p)
            m = (panel.calendar[t].year, panel.calendar[t].month)
            if m != month and t >= 252:
                month = m
                cov = np.cov(rets[t - 252:t], rowvar=False)
                w = min_variance_weights(cov, ridge=1e-10)
                shares = w * value / p
            expected.append(value)
        np.testing.assert_allclose(curve.values, expected, rtol=1e-10)

    def test_fees_reduce_value(self):
        panel, plan = self.make_setup()
        free = run_min_variance_baseline(panel, trade_rows(plan),
                                         1_000_000.0, 252, fee_rate=0.0)
        paid = run_min_variance_baseline(panel, trade_rows(plan),
                                         1_000_000.0, 252, fee_rate=0.005)
        assert paid.values[-1] < free.values[-1]


class TestIndexBaseline:
    def test_proxy_tracks_price_sum(self):
        panel = make_panel(D=3, T=700, seed=7, start=dt.date(2017, 1, 1))
        plan = build_window_plan(panel, dt.date(2018, 12, 31), 3, 3)
        curve = run_index_baseline(panel, trade_rows(plan),
                                   initial_balance=1000.0, index_levels=None)
        idx = panel.date_slice(plan[0].trade.start,
                               plan[-1].trade.end)
        levels = panel.adj_close[list(idx)].sum(axis=1)
        np.testing.assert_allclose(curve.values,
                                   1000.0 * levels / levels[0])

    def test_provided_series(self):
        panel = make_panel(D=2, T=700, seed=8, start=dt.date(2017, 1, 1))
        plan = build_window_plan(panel, dt.date(2018, 12, 31), 3, 3)
        idx = panel.date_slice(plan[0].trade.start,
                               plan[-1].trade.end)
        dates = [panel.calendar[t] for t in idx]
        levels = [100.0 * (1.01 ** i) for i in range(len(dates))]
        curve = run_index_baseline(panel, trade_rows(plan),
                                   initial_balance=500.0, index_levels=levels)
        assert curve.values[0] == pytest.approx(500.0)
        assert curve.values[-1] == pytest.approx(
            500.0 * 1.01 ** (len(dates) - 1))
