import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rlfolio import indicators as ind

import oracles
from helpers import make_panel, make_split_panel


def random_series(seed, n=60, base=100.0, vol=0.02):
    rng = np.random.default_rng(seed)
    return base * np.exp(np.cumsum(rng.normal(0, vol, n)))


def random_hlc(seed, n=60):
    rng = np.random.default_rng(seed)
    close = random_series(seed, n)
    high = close * (1 + np.abs(rng.normal(0, 0.01, n)))
    low = close * (1 - np.abs(rng.normal(0, 0.01, n)))
    return high, low, close


class TestMacd:
    def test_constant_is_zero(self):
        out = ind.macd(np.full(50, 100.0))
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_linear_ramp_matches_oracle(self):
        close = np.arange(1.0, 51.0)
        np.testing.assert_array_equal(ind.macd(close, 12, 26),
                                      oracles.macd_oracle(close, 12, 26))

    def test_single_point(self):
        np.testing.assert_allclose(ind.macd([5.0]), [0.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="^empty price series$"):
            ind.macd([])

    def test_bad_periods(self):
        # checked once, where the periods are declared
        with pytest.raises(ValueError, match="macd_fast"):
            ind.IndicatorConfig(macd_fast=26, macd_slow=12)


class TestRsi:
    def test_increasing_saturates_at_100(self):
        out = ind.rsi(np.arange(1.0, 40.0), 14)
        np.testing.assert_allclose(out[14:], 100.0)

    def test_decreasing_pins_at_0(self):
        out = ind.rsi(np.arange(40.0, 1.0, -1.0), 14)
        np.testing.assert_allclose(out[14:], 0.0)

    def test_warmup_fill(self):
        out = ind.rsi(random_series(0), 14)
        np.testing.assert_allclose(out[:14], 50.0)

    def test_random_matches_oracle(self):
        close = random_series(7, 60)
        np.testing.assert_array_equal(ind.rsi(close, 14),
                                      oracles.rsi_oracle(close, 14))


class TestCci:
    def test_constant_prices_zero(self):
        c = np.full(30, 50.0)
        np.testing.assert_allclose(ind.cci(c, c, c, 14), 0.0)

    def test_one_deviation_above_sma(self):
        # TP window 0,...,0,x: choose series so TP - SMA == MAD exactly
        tp = np.zeros(5)
        tp[-1] = 5.0  # sma=1, mad=(4*1+4)/5=1.6, dev=4 -> 4/(0.015*1.6)
        out = ind.cci(tp, tp, tp, 5)
        assert out[-1] == pytest.approx((5 - 1) / (0.015 * 1.6))

    def test_unit_deviation_scale(self):
        # any case where deviation equals the MAD gives 1/0.015
        tp = np.array([1.0, -1.0, 1.0, -1.0])
        out = ind.cci(tp, tp, tp, 2)
        np.testing.assert_allclose(np.abs(out[1:]), 1.0 / 0.015)

    def test_random_matches_oracle(self):
        high, low, close = random_hlc(11)
        np.testing.assert_array_equal(
            ind.cci(high, low, close, 14),
            oracles.cci_oracle(high, low, close, 14))


class TestAdx:
    def test_constant_prices_zero(self):
        c = np.full(60, 80.0)
        np.testing.assert_allclose(ind.adx(c, c, c, 14), 0.0)

    def test_steady_uptrend_exceeds_90(self):
        base = np.arange(200.0)
        out = ind.adx(base + 101.0, base + 99.0, base + 100.0, 14)
        assert out[-1] > 90.0

    def test_random_matches_oracle(self):
        high, low, close = random_hlc(13, 100)
        np.testing.assert_array_equal(
            ind.adx(high, low, close, 14),
            oracles.adx_oracle(high, low, close, 14))


class TestOracleSweep:
    """All four indicators equal independent formulas bit for bit on many
    random series: the smoothing loops run each float operation in the
    order of the scalar definition."""

    @pytest.mark.parametrize("seed", range(100))
    def test_oracle_equivalence(self, seed):
        high, low, close = random_hlc(seed, 80)
        np.testing.assert_array_equal(ind.macd(close, 12, 26),
                                      oracles.macd_oracle(close, 12, 26))
        np.testing.assert_array_equal(ind.rsi(close, 14),
                                      oracles.rsi_oracle(close, 14))
        np.testing.assert_array_equal(ind.cci(high, low, close, 14),
                                      oracles.cci_oracle(high, low, close, 14))
        np.testing.assert_array_equal(ind.adx(high, low, close, 14),
                                      oracles.adx_oracle(high, low, close, 14))


class TestProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_ranges(self, seed):
        high, low, close = random_hlc(seed, 70)
        assert np.all((ind.rsi(close, 14) >= 0) & (ind.rsi(close, 14) <= 100))
        out = ind.adx(high, low, close, 14)
        assert np.all((out >= 0) & (out <= 100))

    @given(st.integers(0, 10_000), st.floats(0.1, 50.0))
    @settings(max_examples=25, deadline=None)
    def test_scale_behavior(self, seed, scale):
        high, low, close = random_hlc(seed, 70)
        np.testing.assert_allclose(ind.macd(close * scale),
                                   scale * ind.macd(close), rtol=1e-9,
                                   atol=1e-12)
        np.testing.assert_allclose(ind.rsi(close * scale, 14),
                                   ind.rsi(close, 14), rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(
            ind.cci(high * scale, low * scale, close * scale, 14),
            ind.cci(high, low, close, 14), rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(
            ind.adx(high * scale, low * scale, close * scale, 14),
            ind.adx(high, low, close, 14), rtol=1e-9, atol=1e-9)

    def test_shift_equivariance(self):
        # smoothing memory decays geometrically, so compare well past warmup
        high, low, close = random_hlc(5, 400)
        k = 10
        pad = np.full(k, close[0])
        warm = 280
        for fn, args, padded in (
            (ind.macd, (close,), (np.concatenate([pad, close]),)),
            (ind.rsi, (close, 14), (np.concatenate([pad, close]), 14)),
        ):
            base = fn(*args)
            shifted = fn(*padded)
            np.testing.assert_allclose(shifted[k:][warm:], base[warm:],
                                       rtol=1e-6, atol=1e-6)


class TestBuildFeatures:
    """`build_features` is one T x 4D block: the MACD of every asset, then
    RSI, CCI and ADX."""

    @staticmethod
    def blocks(panel):
        """The block's MACD, RSI, CCI and ADX columns, each T x D."""
        return np.hsplit(ind.build_features(panel), 4)

    def test_shapes_and_finiteness(self):
        panel = make_panel(D=2, T=60, seed=2)
        feats = ind.build_features(panel)
        assert feats.shape == (60, 8)
        assert np.all(np.isfinite(feats))

    def test_constant_panel_degenerate_values(self):
        from helpers import make_trend_panel
        panel = make_trend_panel(D=2, T=50, step=0.0)
        macd, rsi, _, adx = self.blocks(panel)
        np.testing.assert_allclose(macd, 0.0, atol=1e-12)
        np.testing.assert_allclose(rsi, 50.0)
        # constant adj_close, but high/low offsets make TP vary around SMA
        np.testing.assert_allclose(adx, 0.0)

    def test_per_asset_independence(self):
        panel = make_panel(D=3, T=60, seed=9)
        macd, rsi, cci, adx = self.blocks(panel)
        adj, high, low = (panel.adj_close, panel.field("high"),
                          panel.field("low"))
        for col in range(panel.D):
            c, h, lo = adj[:, col], high[:, col], low[:, col]
            np.testing.assert_array_equal(macd[:, col], ind.macd(c))
            np.testing.assert_array_equal(rsi[:, col], ind.rsi(c))
            np.testing.assert_array_equal(cci[:, col], ind.cci(h, lo, c))
            np.testing.assert_array_equal(adx[:, col], ind.adx(h, lo, c))

    def test_split_and_dividends_move_no_indicator(self):
        # CCI and ADX mix high and low with the adjusted close; on raw
        # high/low a split or a dividend would show up as a price jump
        raw, adjusted = make_split_panel(D=2, T=300, seed=4)
        assert not np.allclose(raw.field("close"), raw.adj_close)
        got, want = self.blocks(raw), self.blocks(adjusted)
        np.testing.assert_array_equal(got[0], want[0])  # MACD
        np.testing.assert_array_equal(got[1], want[1])  # RSI
        np.testing.assert_allclose(got[2], want[2], rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(got[3], want[3], rtol=1e-9, atol=1e-9)


class TestPanelCalls:
    """A T x D call equals its D column-wise 1-D calls bit for bit."""

    INDICATORS = {
        "macd": lambda c, h, lo, p: ind.macd(c, p, 2 * p),
        "rsi": lambda c, h, lo, p: ind.rsi(c, p),
        "cci": lambda c, h, lo, p: ind.cci(h, lo, c, p),
        "adx": lambda c, h, lo, p: ind.adx(h, lo, c, p),
    }

    @given(T=st.integers(1, 45), D=st.integers(1, 4),
           period=st.integers(1, 16), seed=st.integers(0, 2 ** 32 - 1),
           ticks=st.booleans())
    @example(T=9, D=3, period=14, seed=0, ticks=False)    # T <= period
    @example(T=27, D=2, period=14, seed=1, ticks=False)   # T <= 2p - 1
    @example(T=40, D=3, period=5, seed=2, ticks=True)     # flat stretches
    @settings(max_examples=60, deadline=None)
    def test_panel_equals_columns(self, T, D, period, seed, ticks):
        rng = np.random.default_rng(seed)
        close = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, (T, D)),
                                         axis=0))
        if ticks:    # round to a coarse tick so prices repeat
            close = np.round(close)
        high = close * (1 + np.abs(rng.normal(0, 0.01, (T, D))))
        low = close * (1 - np.abs(rng.normal(0, 0.01, (T, D))))
        for name, fn in self.INDICATORS.items():
            panel = fn(close, high, low, period)
            assert panel.shape == (T, D), name
            for d in range(D):
                np.testing.assert_array_equal(
                    panel[:, d], fn(close[:, d], high[:, d], low[:, d],
                                    period), err_msg=name)

