import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlfolio import indicators as ind
from rlfolio.errors import InputEmpty

import oracles
from helpers import make_panel


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
        out = ind.macd(close, 12, 26)
        expected = oracles.macd_oracle(close, 12, 26)
        assert abs(out[49] - expected[49]) < 1e-9

    def test_single_point(self):
        np.testing.assert_allclose(ind.macd([5.0]), [0.0])

    def test_empty_raises(self):
        with pytest.raises(InputEmpty):
            ind.macd([])

    def test_bad_periods(self):
        with pytest.raises(ValueError):
            ind.macd([1.0, 2.0], fast=26, slow=12)


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
        np.testing.assert_allclose(ind.rsi(close, 14),
                                   oracles.rsi_oracle(close, 14), atol=1e-9)


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
        np.testing.assert_allclose(
            ind.cci(high, low, close, 14),
            oracles.cci_oracle(high, low, close, 14), atol=1e-6)


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
        np.testing.assert_allclose(
            ind.adx(high, low, close, 14),
            oracles.adx_oracle(high, low, close, 14), atol=1e-6)


class TestOracleSweep:
    """All four indicators vs independent formulas on many random series."""

    @pytest.mark.parametrize("seed", range(100))
    def test_oracle_equivalence(self, seed):
        high, low, close = random_hlc(seed, 80)
        np.testing.assert_allclose(ind.macd(close, 12, 26),
                                   oracles.macd_oracle(close, 12, 26),
                                   atol=1e-9)
        np.testing.assert_allclose(ind.rsi(close, 14),
                                   oracles.rsi_oracle(close, 14), atol=1e-9)
        np.testing.assert_allclose(ind.cci(high, low, close, 14),
                                   oracles.cci_oracle(high, low, close, 14),
                                   atol=1e-6)
        np.testing.assert_allclose(ind.adx(high, low, close, 14),
                                   oracles.adx_oracle(high, low, close, 14),
                                   atol=1e-6)


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
    def test_shapes_and_finiteness(self):
        panel = make_panel(D=2, T=60, seed=2)
        feats = ind.build_features(panel)
        for block in (feats.macd, feats.rsi, feats.cci, feats.adx):
            assert block.shape == (60, 2)
            assert np.all(np.isfinite(block))

    def test_constant_panel_degenerate_values(self):
        from helpers import make_trend_panel
        panel = make_trend_panel(D=2, T=50, step=0.0)
        feats = ind.build_features(panel)
        np.testing.assert_allclose(feats.macd, 0.0, atol=1e-12)
        np.testing.assert_allclose(feats.rsi, 50.0)
        # constant adj_close, but high/low offsets make TP vary around SMA
        np.testing.assert_allclose(feats.adx, 0.0)

    def test_per_asset_independence(self):
        panel = make_panel(D=3, T=60, seed=9)
        feats = ind.build_features(panel)
        col = 1
        single = ind.macd(panel.adj_close[:, col])
        np.testing.assert_array_equal(feats.macd[:, col], single)

