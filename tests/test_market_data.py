import datetime as dt

import numpy as np
import pytest

from rlfolio.errors import (InputEmpty, InsufficientData,
                            RejectionRateExceeded)
from rlfolio.market_data import (add_months, build_window_plan, load_bars,
                                 month_end)

from helpers import csv_stream, make_panel, panel_to_csv

HEADER = "date,ticker,open,high,low,close,adj_close,volume\n"


def row(date, ticker, o=10, h=11, lo=9, c=10.5, adj=10.5, v=100):
    return f"{date},{ticker},{o},{h},{lo},{c},{adj},{v}\n"


class TestLoadBars:
    def test_two_assets_three_dates(self):
        text = HEADER
        for d in ("2020-01-02", "2020-01-03", "2020-01-06"):
            text += row(d, "AAA") + row(d, "BBB")
        panel, report = load_bars(csv_stream(text))
        assert panel.D == 2 and panel.T == 3
        assert report.rejected == []
        assert panel.assets == ("AAA", "BBB")

    def test_calendar_is_intersection(self):
        text = HEADER
        for d in ("2020-01-02", "2020-01-03", "2020-01-06"):
            text += row(d, "AAA")
        for d in ("2020-01-03", "2020-01-06", "2020-01-07"):
            text += row(d, "BBB")
        panel, _ = load_bars(csv_stream(text))
        assert panel.T == 2
        assert panel.calendar == (dt.date(2020, 1, 3), dt.date(2020, 1, 6))

    def test_dropped_dates_reported(self):
        dates = ("2020-01-02", "2020-01-03", "2020-01-06", "2020-01-07")
        text = HEADER
        for d in dates:
            text += row(d, "AAA") + row(d, "CCC")
            if d not in ("2020-01-03", "2020-01-07"):
                text += row(d, "BBB")
        panel, report = load_bars(csv_stream(text))
        assert panel.T == 2
        assert report.dropped_dates == 2
        assert report.incomplete_tickers == ["BBB"]

    def test_nothing_dropped_on_a_full_calendar(self):
        _, report = load_bars(csv_stream(panel_to_csv(make_panel(D=3, T=20))))
        assert report.dropped_dates == 0
        assert report.incomplete_tickers == []

    def test_high_below_low_rejected(self):
        text = HEADER
        text += row("2020-01-02", "AAA")
        text += row("2020-01-03", "AAA", h=8, lo=12)  # inverted
        text += row("2020-01-06", "AAA")
        panel, report = load_bars(csv_stream(text), rejection_ceiling=0.5)
        assert panel.T == 2
        assert len(report.rejected) == 1
        assert report.rejected[0].line == 3

    def test_truncated_rows_rejected(self):
        text = HEADER
        text += row("2020-01-02", "AAA")
        text += "2020-01-03\n"  # cut off after the date
        text += "2020-01-06,AAA,10,11\n"  # cut off later
        text += row("2020-01-07", "AAA")
        panel, report = load_bars(csv_stream(text), rejection_ceiling=0.5)
        assert panel.T == 2
        assert [(r.line, r.reason) for r in report.rejected] == [
            (3, "missing column value"), (4, "missing column value")]

    def test_rejection_reasons(self):
        text = HEADER + row("2020-01-02", "AAA")
        text += row("2020-01-03", "AAA", o=-5)
        text += row("2020-01-06", "AAA", adj="nan")
        text += row("2020-01-07", "AAA", v=-1)
        text += row("2020-01-08", "AAA", h=10.2)  # high below close
        text += row("2020-01-09", " ")
        _, report = load_bars(csv_stream(text), rejection_ceiling=1.0)
        assert [r.reason for r in report.rejected] == [
            "non-positive or non-finite price",
            "non-positive or non-finite price",
            "negative volume",
            "low/high do not bracket open/close",
            "empty ticker",
        ]

    def test_duplicate_row_rejected(self):
        text = HEADER + row("2020-01-02", "AAA", adj=10.5)
        text += row("2020-01-02", "AAA", c=10.8, adj=10.8)
        text += row("2020-01-03", "AAA")
        panel, report = load_bars(csv_stream(text), rejection_ceiling=0.5)
        assert report.accepted_rows == 2
        assert [(r.line, r.reason) for r in report.rejected] == [
            (3, "duplicate row")]
        assert panel.adj_close[0, 0] == 10.5  # the first bar is kept
        with pytest.raises(RejectionRateExceeded):
            load_bars(csv_stream(text), rejection_ceiling=0.2)

    def test_malformed_duplicate_keeps_its_invariant_reason(self):
        text = HEADER + row("2020-01-02", "AAA")
        text += row("2020-01-02", "AAA", h=8, lo=12)
        _, report = load_bars(csv_stream(text), rejection_ceiling=0.5)
        assert [r.reason for r in report.rejected] == [
            "low/high do not bracket open/close"]

    def test_fields_are_c_contiguous(self):
        panel, _ = load_bars(csv_stream(panel_to_csv(make_panel(D=3, T=20))))
        for name in ("open", "high", "low", "close", "adj_close", "volume"):
            assert panel.field(name).flags.c_contiguous

    def test_empty_source(self):
        with pytest.raises(InputEmpty):
            load_bars(csv_stream(""))
        with pytest.raises(InputEmpty):
            load_bars(csv_stream(HEADER))

    def test_rejection_ceiling_aborts(self):
        text = HEADER
        text += row("2020-01-02", "AAA")
        text += row("2020-01-03", "AAA", o=-5)
        with pytest.raises(RejectionRateExceeded):
            load_bars(csv_stream(text), rejection_ceiling=0.01)

    def test_schema_mapping(self):
        text = "Day,Sym,O,H,L,C,AC,Vol\n2020-01-02,AAA,10,11,9,10.5,10.5,100\n"
        schema = {"date": "Day", "ticker": "Sym", "open": "O", "high": "H",
                  "low": "L", "close": "C", "adj_close": "AC", "volume": "Vol"}
        panel, _ = load_bars(csv_stream(text), schema=schema)
        assert panel.assets == ("AAA",)

    def test_roundtrip_synthetic(self):
        panel = make_panel(D=2, T=30, seed=3)
        loaded, report = load_bars(csv_stream(panel_to_csv(panel)))
        assert loaded.assets == panel.assets
        assert report.rejection_rate == 0.0
        np.testing.assert_allclose(loaded.adj_close, panel.adj_close)

    def test_alignment_totality(self):
        panel = make_panel(D=4, T=50, seed=1)
        for name in ("open", "high", "low", "close", "adj_close", "volume"):
            assert np.all(np.isfinite(panel.field(name)))


class TestWindowPlan:
    def test_paper_dates(self):
        panel = make_panel(D=2, T=2980, seed=0, start=dt.date(2009, 1, 1))
        assert panel.calendar[-1] >= dt.date(2020, 5, 8)
        plan = build_window_plan(panel, dt.date(2015, 12, 31), 3, 3)
        first = plan.triples[0]
        assert first.train.end == dt.date(2015, 9, 30)
        assert first.validation.start == dt.date(2015, 10, 1)
        assert first.validation.end == dt.date(2015, 12, 31)
        assert first.trade.start == dt.date(2016, 1, 1)
        assert first.trade.end == dt.date(2016, 3, 31)

    def test_final_short_interval_emitted(self):
        # calendar ends mid-quarter: the stub trade interval still appears
        panel = make_panel(D=2, T=420, seed=0, start=dt.date(2019, 1, 1))
        plan = build_window_plan(panel, dt.date(2019, 12, 31), 3, 3)
        last = plan.triples[-1]
        assert last.trade.end == panel.calendar[-1]
        assert last.trade.start <= panel.calendar[-1]

    def test_insufficient_history(self):
        panel = make_panel(D=2, T=100, start=dt.date(2020, 1, 1))
        with pytest.raises(InsufficientData):
            build_window_plan(panel, panel.calendar[-1], 3, 3)

    def test_disjoint_and_growing(self):
        panel = make_panel(D=2, T=800, start=dt.date(2017, 1, 1))
        plan = build_window_plan(panel, dt.date(2018, 12, 31), 3, 3)
        assert len(plan) >= 2
        prev_len = None
        for triple in plan:
            assert triple.train.end < triple.validation.start
            assert triple.validation.end < triple.trade.start
            train_days = (triple.train.end - triple.train.start).days
            if prev_len is not None:
                assert train_days > prev_len
            prev_len = train_days
        # trade intervals tile without overlap
        for a, b in zip(plan.triples[:-1], plan.triples[1:]):
            assert b.trade.start == a.trade.end + dt.timedelta(days=1)


def test_month_helpers():
    assert add_months(dt.date(2020, 1, 31), 1) == dt.date(2020, 2, 29)
    assert add_months(dt.date(2019, 11, 30), 3) == dt.date(2020, 2, 29)
    assert month_end(dt.date(2020, 2, 10)) == dt.date(2020, 2, 29)
    assert add_months(dt.date(2020, 3, 15), -3) == dt.date(2019, 12, 15)
