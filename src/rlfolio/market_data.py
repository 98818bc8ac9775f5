"""OHLCV ingestion, calendar alignment, and the walk-forward window plan.

Input is comma-separated text whose header row names the columns `date`,
`ticker` and the `BAR_FIELDS`, in any order. After alignment the panel
is dense: every (date, asset) cell is populated, the calendar being the
intersection of the per-asset calendars.
"""
from __future__ import annotations

import bisect
import csv
import datetime as dt
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import UserError

BAR_FIELDS = ("open", "high", "low", "close", "adj_close", "volume")


@dataclass
class LoadReport:
    total_rows: int
    rejected: list[tuple[int, str]]     # (line, reason) rows, by line
    # dates some ticker lacks, which the calendar intersection drops, and
    # the tickers that lack at least one of them
    dropped_dates: int
    incomplete_tickers: list[str]


class PricePanel:
    """Aligned T x D table of bars over a common trading calendar.

    Each bar field is one dense, read-only, C-contiguous T x D array, the
    only copy of the market data; `access_log` records the dates an env
    reads (`TradingEnv.market_at`) when tracking is on. Immutable after
    construction; concurrent reads are safe.
    """

    def __init__(self, assets: list[str], calendar: list[dt.date],
                 fields: dict[str, np.ndarray]):
        if not assets or not calendar:
            raise ValueError("panel must have at least one asset and one date")
        self.assets = tuple(assets)
        self.calendar = tuple(calendar)
        self._fields = {k: np.ascontiguousarray(v, dtype=float)
                        for k, v in fields.items()}
        for name in BAR_FIELDS:
            arr = self._fields[name]
            if arr.shape != (self.T, self.D):
                raise ValueError(f"field {name} has shape {arr.shape}")
            arr.setflags(write=False)
        self.access_log: list[int] | None = None

    @property
    def T(self) -> int:
        return len(self.calendar)

    @property
    def D(self) -> int:
        return len(self.assets)

    def field(self, name: str) -> np.ndarray:
        """Full T x D array for one bar field (read-only view)."""
        return self._fields[name]

    @property
    def adj_close(self) -> np.ndarray:
        return self._fields["adj_close"]

    def enable_access_tracking(self) -> None:
        self.access_log = []

    def date_slice(self, start: dt.date, end: dt.date) -> range:
        """Indices of calendar dates within [start, end]."""
        return range(bisect.bisect_left(self.calendar, start),
                     bisect.bisect_right(self.calendar, end))


# A row's faults, in the order they are checked: the first one it has is
# its rejection reason.
_FAULTS = ("non-positive or non-finite price",
           "negative or non-finite volume",
           "low/high do not bracket open/close", "duplicate row")


def _bar_faults(bars: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Index into `_FAULTS` of each row's first fault, -1 for none. Of the
    rows with no invariant fault, each (ticker, date) `key` after its first
    is a duplicate."""
    prices, volume = bars[:, :5], bars[:, 5]
    o, h, lo, c = bars[:, 0], bars[:, 1], bars[:, 2], bars[:, 3]
    fault = np.select(
        [~np.all(np.isfinite(prices) & (prices > 0.0), axis=1),
         ~(np.isfinite(volume) & (volume >= 0.0)),
         ~((lo <= np.minimum(o, c)) & (np.maximum(o, c) <= h))],
        [0, 1, 2], -1)
    valid = np.flatnonzero(fault < 0)
    repeat = np.ones(valid.size, dtype=bool)
    repeat[np.unique(key[valid], return_index=True)[1]] = False
    fault[valid[repeat]] = 3
    return fault


def load_bars(source, rejection_ceiling: float
              ) -> tuple[PricePanel, LoadReport]:
    """Load comma-separated OHLCV text into an aligned panel.

    `source` is a text stream, such as a file opened with `newline=""`.
    Rows are parsed into flat columns (the six `BAR_FIELDS` values, ticker
    and date ids, physical line numbers), their invariants checked over all
    rows at once, and the accepted bars scattered into the panel's arrays.
    Rows violating bar invariants, and repeats of an accepted (ticker,
    date), are rejected and listed in the report by line of the file; a
    rejection rate above `rejection_ceiling` aborts.
    """
    values = array("d")                  # six bar values per parsed row
    ticker_col, date_col, line_col = array("q"), array("q"), array("q")
    ticker_ids: dict[str, int] = {}
    date_ids: dict[dt.date, int] = {}
    rejected: list[tuple[int, str]] = []
    total = 0
    reader = csv.reader(source)
    header = next(reader, None)
    if header is None:
        raise UserError("no header row")
    missing = [col for col in ("date", "ticker", *BAR_FIELDS)
               if col not in header]
    if missing:
        raise UserError(f"header missing columns: {missing}")
    pos = {name: i for i, name in enumerate(header)}  # last one wins
    di, ti = pos["date"], pos["ticker"]
    value_cols = [pos[name] for name in BAR_FIELDS]
    for row in reader:
        if not row:
            continue                     # a blank line is no record
        total += 1
        # the first cell that fails names the reason: the date, the
        # ticker, then each value in BAR_FIELDS order
        try:
            d = date_ids.setdefault(
                dt.date.fromisoformat(row[di].strip()), len(date_ids))
            ticker = row[ti].strip()
            if not ticker:
                raise ValueError("empty ticker")
            t = ticker_ids.setdefault(ticker, len(ticker_ids))
            values.fromlist([float(row[i]) for i in value_cols])
        except IndexError:               # a short row ends before the cell
            reason = "missing column value"
        except ValueError as exc:
            reason = str(exc)
        else:
            ticker_col.append(t)
            date_col.append(d)
            line_col.append(reader.line_num)
            continue
        rejected.append((reader.line_num, reason))
    if total == 0:
        raise UserError("source has a header but no data rows")

    bars = np.frombuffer(values).reshape(-1, len(BAR_FIELDS))
    tick, day, line = (np.frombuffer(col, np.int64)
                       for col in (ticker_col, date_col, line_col))
    fault = _bar_faults(bars, tick * len(date_ids) + day)
    bad = np.flatnonzero(fault >= 0)
    rejected += zip(line[bad].tolist(),
                    [_FAULTS[f] for f in fault[bad].tolist()])
    rejected.sort()                      # by line: none is rejected twice
    if len(rejected) / total > rejection_ceiling:
        raise UserError(f"{len(rejected)}/{total} rows rejected, above "
                        f"ceiling {rejection_ceiling:.2%}")
    keep = fault < 0
    if not keep.any():
        raise UserError("no valid rows in source")

    bars, tick, day = bars[keep], tick[keep], day[keep]
    names, dates = list(ticker_ids), list(date_ids)
    held = sorted(set(tick.tolist()), key=names.__getitem__)
    present = np.zeros((len(names), len(dates)), dtype=bool)
    present[tick, day] = True
    present = present[held]              # one row per asset, in asset order
    common, seen = present.all(axis=0), present.any(axis=0)
    if not common.any():
        raise UserError("needed a shared trading date, available 0")
    on_calendar = sorted(np.flatnonzero(common).tolist(),
                         key=dates.__getitem__)
    assets = [names[i] for i in held]
    n_seen = int(seen.sum())
    report = LoadReport(total, rejected, n_seen - len(on_calendar),
                        [a for a, n in zip(assets, present.sum(axis=1))
                         if n < n_seen])

    column = np.empty(len(names), dtype=np.int64)
    column[held] = np.arange(len(held))
    row_of = np.full(len(dates), -1)
    row_of[on_calendar] = np.arange(len(on_calendar))
    at = row_of[day]
    on = at >= 0
    out = np.empty((len(BAR_FIELDS), len(on_calendar), len(held)))
    out[:, at[on], column[tick[on]]] = bars[on].T
    return (PricePanel(assets, [dates[i] for i in on_calendar],
                       dict(zip(BAR_FIELDS, out))), report)


# --- walk-forward window plan -------------------------------------------------

@dataclass(frozen=True)
class DateInterval:
    """Calendar bounds and `rows`, the panel indices of the dates within
    them."""
    start: dt.date
    end: dt.date
    rows: range


@dataclass(frozen=True)
class WindowTriple:
    index: int
    train: DateInterval
    validation: DateInterval
    trade: DateInterval


def _month_first(month: int) -> dt.date:
    """First day of `month`, counted as year * 12 + month - 1."""
    return dt.date(month // 12, month % 12 + 1, 1)


def build_window_plan(panel: PricePanel, in_sample_end: dt.date,
                      validation_months: int = 3,
                      trade_months: int = 3) -> tuple[WindowTriple, ...]:
    """Growing-window train/validation/trade triples.

    The first validation interval is the `validation_months` calendar months
    ending with `in_sample_end`'s month; training covers everything before
    it. Successive triples roll forward by `trade_months`, training always
    starting at the panel start. Every interval holds 2+ panel dates, or
    a `UserError` names it. The final trade interval is cut at the
    panel's end, and is not planned if it holds only the panel's last date.
    """
    first = panel.calendar[0]
    last = panel.calendar[-1]
    # month indices are compared first: `dt.date` holds years 1 to 9999
    last_month = last.year * 12 + last.month - 1
    month0 = in_sample_end.year * 12 + in_sample_end.month - validation_months
    if (month0 < first.year * 12 + first.month - 1
            or _month_first(month0) <= first):
        year, month = divmod(month0, 12)
        raise UserError(f"needed history before {year:04d}-{month + 1:02d}-01"
                        f", where [windows] in_sample_end = {in_sample_end} "
                        f"starts validation, available data from {first}")

    def interval(k: int, role: str, start: dt.date, end: dt.date):
        rows = panel.date_slice(start, end)
        if len(rows) < 2:
            raise UserError(f"needed 2+ dates in window {k}'s {role} interval "
                            f"{start} to {end}, available {len(rows)}")
        return DateInterval(start, end, rows)

    triples = []
    k = 0
    while True:
        val_month = month0 + k * trade_months
        trade_month = val_month + validation_months
        if trade_month > last_month:
            break
        val_start = _month_first(val_month)
        trade_start = _month_first(trade_month)
        val_end = trade_start - dt.timedelta(days=1)
        trade_end = (last if trade_month + trade_months > last_month else
                     _month_first(trade_month + trade_months)
                     - dt.timedelta(days=1))
        if trade_end == last and len(panel.date_slice(trade_start, last)) < 2:
            break
        triples.append(WindowTriple(
            index=k,
            train=interval(k, "train", first,
                           val_start - dt.timedelta(days=1)),
            validation=interval(k, "validation", val_start, val_end),
            trade=interval(k, "trade", trade_start, trade_end),
        ))
        k += 1
    if not triples:
        raise UserError(f"needed 2+ trade dates after the month of [windows] "
                        f"in_sample_end = {in_sample_end}, available data to "
                        f"{last}")
    return tuple(triples)
