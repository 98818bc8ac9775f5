import datetime as dt
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rlfolio.errors import UserError
from rlfolio.market_data import (BAR_FIELDS, DEFAULT_SCHEMA, PricePanel,
                                 build_window_plan, load_bars)

import oracles
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
        assert report.total_rows == 3
        assert [(r.line, r.reason) for r in report.rejected] == [
            (3, "duplicate row")]
        assert panel.adj_close[0, 0] == 10.5  # the first bar is kept
        with pytest.raises(UserError, match=re.escape(
                "1/3 rows rejected, above ceiling 20.00%")):
            load_bars(csv_stream(text), rejection_ceiling=0.2)

    def test_malformed_duplicate_keeps_its_invariant_reason(self):
        text = HEADER + row("2020-01-02", "AAA")
        text += row("2020-01-02", "AAA", h=8, lo=12)
        _, report = load_bars(csv_stream(text), rejection_ceiling=0.5)
        assert [r.reason for r in report.rejected] == [
            "low/high do not bracket open/close"]

    def test_rejections_carry_physical_line_numbers(self):
        # blank lines are no records, but they are lines of the file
        text = HEADER + row("2020-01-02", "AAA") + "\n\n"
        text += row("2020-01-03", "AAA", o=-5)              # line 5
        text += row("2020-01-06", "AAA") + "\n"
        text += "2020-01-07,AAA\n"                          # line 8
        _, report = load_bars(csv_stream(text), rejection_ceiling=1.0)
        assert [(r.line, r.reason) for r in report.rejected] == [
            (5, "non-positive or non-finite price"),
            (8, "missing column value")]
        assert report.total_rows == 4

    def test_fields_are_c_contiguous(self):
        panel, _ = load_bars(csv_stream(panel_to_csv(make_panel(D=3, T=20))))
        for name in ("open", "high", "low", "close", "adj_close", "volume"):
            assert panel.field(name).flags.c_contiguous

    def test_empty_source(self):
        with pytest.raises(UserError, match="^no header row$"):
            load_bars(csv_stream(""))
        with pytest.raises(UserError,
                           match="^source has a header but no data rows$"):
            load_bars(csv_stream(HEADER))

    def test_rejection_ceiling_aborts(self):
        text = HEADER
        text += row("2020-01-02", "AAA")
        text += row("2020-01-03", "AAA", o=-5)
        with pytest.raises(UserError, match=re.escape(
                "1/2 rows rejected, above ceiling 1.00%")):
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


# Cells of one generated row. "ZZZ" only gets faulty rows, so some inputs
# hold a ticker whose rows are all rejected; five dates and three other
# tickers make clean and malformed duplicates and gapped tickers common.
TICKERS = ("AAA", "BBB", " CCC ")
DATES = ("2020-01-02", "2020-01-03", "2020-01-06", "2020-01-07",
         " 2020-01-08")
FAULTS = ("price", "volume", "inverted", "short", "empty_ticker",
          "bad_date", "bad_number")


@st.composite
def csv_rows(draw, all_rejected=False):
    if all_rejected:
        ticker, fault = "ZZZ", draw(st.sampled_from(FAULTS))
    else:
        ticker = draw(st.sampled_from(TICKERS))
        fault = draw(st.sampled_from((None,) * 4 + FAULTS))
    date = draw(st.sampled_from(DATES))
    price = st.floats(1.0, 100.0)
    o, c = draw(price), draw(price)
    spread = st.floats(0.0, 0.5)
    h = max(o, c) * (1.0 + draw(spread))
    lo = min(o, c) * (1.0 - draw(spread))
    cells = [date, ticker] + [repr(x) for x in (o, h, lo, c, draw(price))]
    cells.append(draw(st.sampled_from(("0", "-0.0", "12", "1e6"))))
    if fault == "price":
        cells[draw(st.integers(2, 6))] = draw(
            st.sampled_from(("nan", "inf", "-inf", "0", "-3")))
    elif fault == "volume":
        cells[7] = draw(st.sampled_from(("nan", "-1", "-inf")))
    elif fault == "inverted":
        cells[3], cells[4] = repr(lo * 0.9), repr(h * 1.1)
    elif fault == "short":
        cells = cells[:draw(st.integers(1, 7))]
    elif fault == "empty_ticker":
        cells[1] = " "
    elif fault == "bad_date":
        cells[0] = draw(st.sampled_from(("2020-13-01", "x", "")))
    elif fault == "bad_number":
        cells[draw(st.integers(2, 7))] = "abc"
    return ",".join(cells) + "\n"


csv_texts = st.lists(
    st.one_of(csv_rows(), csv_rows(), csv_rows(), csv_rows(all_rejected=True),
              st.just("\n")),
    min_size=4, max_size=40).map(lambda rows: HEADER + "".join(rows))

# every listed case in one input: gapped BBB, all-rejected ZZZ, a clean and
# a malformed duplicate, short rows, an empty ticker and blank lines
MIXED = (HEADER + row("2020-01-02", "AAA") + row("2020-01-02", "BBB")
         + "\n" + row("2020-01-03", "AAA") + row("2020-01-03", "ZZZ", o=0)
         + row("2020-01-03", "AAA", c=10.7) + row("2020-01-03", "BBB", h=8)
         + "2020-01-06,AAA,1\n" + row("2020-01-06", " ") + "\n\n"
         + row("2020-01-06", "AAA", v="nan") + row("2020-01-06", "AAA")
         + row("2020-01-06", "BBB", adj="inf")
         + row("2020-01-07", "ZZZ", lo=12) + row("2020-01-07", "AAA"))


class TestLoadBarsOracle:
    """`load_bars` equals the row-by-row oracle: every panel field bit for
    bit, the calendar, the assets and the whole report."""

    @given(csv_texts)
    @example(MIXED)
    @example(HEADER.replace("volume", "volume,close")    # a repeated column
             + row("2020-01-02", "AAA").replace("\n", ",10.6\n")
             + row("2020-01-03", "AAA"))
    @settings(max_examples=150, deadline=None)
    def test_matches_row_by_row_oracle(self, text):
        try:
            want = oracles.load_bars_oracle(text, DEFAULT_SCHEMA)
        except UserError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                load_bars(csv_stream(text), rejection_ceiling=1.0)
            return
        assets, calendar, fields, rejected, total, dropped, lacking = want
        panel, report = load_bars(csv_stream(text), rejection_ceiling=1.0)
        assert panel.assets == tuple(assets)
        assert panel.calendar == tuple(calendar)
        for name in BAR_FIELDS:
            got = panel.field(name)
            assert got.shape == fields[name].shape
            assert got.tobytes() == fields[name].tobytes(), name
        assert [(r.line, r.reason) for r in report.rejected] == rejected
        assert report.total_rows == total
        assert report.dropped_dates == dropped
        assert report.incomplete_tickers == lacking


def keep_dates(panel: PricePanel, keep) -> PricePanel:
    """`panel` restricted to the dates `keep` accepts."""
    rows = [t for t, d in enumerate(panel.calendar) if keep(d)]
    return PricePanel(list(panel.assets), [panel.calendar[t] for t in rows],
                      {f: panel.field(f)[rows] for f in BAR_FIELDS})


class TestWindowPlan:
    def test_paper_dates(self):
        panel = make_panel(D=2, T=2980, seed=0, start=dt.date(2009, 1, 1))
        assert panel.calendar[-1] >= dt.date(2020, 5, 8)
        plan = build_window_plan(panel, dt.date(2015, 12, 31), 3, 3)
        first = plan[0]
        assert first.train.end == dt.date(2015, 9, 30)
        assert first.validation.start == dt.date(2015, 10, 1)
        assert first.validation.end == dt.date(2015, 12, 31)
        assert first.trade.start == dt.date(2016, 1, 1)
        assert first.trade.end == dt.date(2016, 3, 31)

    def test_final_short_interval_emitted(self):
        # calendar ends mid-quarter: the stub trade interval still appears
        panel = make_panel(D=2, T=420, seed=0, start=dt.date(2019, 1, 1))
        plan = build_window_plan(panel, dt.date(2019, 12, 31), 3, 3)
        last = plan[-1]
        assert last.trade.end == panel.calendar[-1]
        assert last.trade.start <= panel.calendar[-1]

    def test_insufficient_history(self):
        panel = make_panel(D=2, T=100, start=dt.date(2020, 1, 1))
        last = panel.calendar[-1]
        with pytest.raises(UserError, match=re.escape(
                "needed 2+ trade dates after the month of [windows] "
                f"in_sample_end = {last}, available data to {last}")):
            build_window_plan(panel, last, 3, 3)

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
        for a, b in zip(plan[:-1], plan[1:]):
            assert b.trade.start == a.trade.end + dt.timedelta(days=1)

    def test_huge_trade_months_plans_one_interval_to_the_end(self):
        # the first trade interval would end past year 9999: it is cut at
        # the panel's last date, and no later interval is planned
        panel = make_panel(D=2, T=600, start=dt.date(2017, 1, 1))
        plan = build_window_plan(panel, dt.date(2018, 6, 30), 3, 10**6)
        assert len(plan) == 1
        assert plan[0].validation.start == dt.date(2018, 4, 1)
        assert plan[0].trade.start == dt.date(2018, 7, 1)
        assert plan[0].trade.end == panel.calendar[-1]
        assert plan[0].trade.rows.stop == panel.T

    @pytest.mark.parametrize("T, start, in_sample_end", [
        (2980, dt.date(2009, 1, 1), dt.date(2015, 12, 31)),
        (420, dt.date(2019, 1, 1), dt.date(2019, 12, 31)),
        (800, dt.date(2017, 1, 1), dt.date(2018, 12, 31)),
    ])
    def test_rows_are_each_intervals_dates(self, T, start, in_sample_end):
        panel = make_panel(D=2, T=T, seed=0, start=start)
        plan = build_window_plan(panel, in_sample_end, 3, 3)
        for triple in plan:
            for interval in (triple.train, triple.validation, triple.trade):
                assert interval.rows == panel.date_slice(interval.start,
                                                         interval.end)
                assert len(interval.rows) >= 2
        # the trade rows tile the out-of-sample span
        for a, b in zip(plan[:-1], plan[1:]):
            assert b.trade.rows.start == a.trade.rows.stop
        assert plan[-1].trade.rows.stop == panel.T

    @pytest.mark.parametrize("last, trade_ends", [
        # the data end on the first trading date of a quarter: one date is
        # not a trade quarter
        (dt.date(2018, 10, 1), [dt.date(2018, 9, 30)]),
        (dt.date(2018, 10, 2), [dt.date(2018, 9, 30), dt.date(2018, 10, 2)]),
    ])
    def test_final_trade_quarter_needs_two_dates(self, last, trade_ends):
        panel = keep_dates(make_panel(D=2, T=600, start=dt.date(2017, 1, 1)),
                           lambda d: d <= last)
        plan = build_window_plan(panel, dt.date(2018, 6, 30), 3, 3)
        assert [t.trade.end for t in plan] == trade_ends

    @pytest.mark.parametrize("dropped, message", [
        # a trade quarter with no dates inside the data
        ((dt.date(2018, 10, 1), dt.date(2018, 12, 31)),
         "needed 2+ dates in window 1's trade interval 2018-10-01 to "
         "2018-12-31, available 0"),
        # the first validation quarter keeps only 2018-06-29
        ((dt.date(2018, 4, 1), dt.date(2018, 6, 28)),
         "needed 2+ dates in window 0's validation interval 2018-04-01 to "
         "2018-06-30, available 1"),
    ], ids=["empty_trade_quarter", "one_date_validation_quarter"])
    def test_short_interval_raises(self, dropped, message):
        panel = keep_dates(make_panel(D=2, T=600, start=dt.date(2017, 1, 1)),
                           lambda d: not dropped[0] <= d <= dropped[1])
        with pytest.raises(UserError, match=re.escape(message)):
            build_window_plan(panel, dt.date(2018, 6, 30), 3, 3)

