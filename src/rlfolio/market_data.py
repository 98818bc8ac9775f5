"""OHLCV ingestion, calendar alignment, and the walk-forward window plan.

Input is delimited text with a header row; columns are mapped through a
schema so arbitrary vendor files can be loaded. After alignment the panel
is dense: every (date, asset) cell is populated, the calendar being the
intersection of the per-asset calendars.
"""
from __future__ import annotations

import bisect
import csv
import datetime as dt
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InputEmpty,
    InsufficientData,
    RejectionRateExceeded,
)

BAR_FIELDS = ("open", "high", "low", "close", "adj_close", "volume")

DEFAULT_SCHEMA = {
    "date": "date",
    "ticker": "ticker",
    "open": "open",
    "high": "high",
    "low": "low",
    "close": "close",
    "adj_close": "adj_close",
    "volume": "volume",
}


def _bar_fault(open_, high, low, close, adj_close, volume) -> str | None:
    """The reason a bar breaks an invariant, or None."""
    if not all(math.isfinite(p) and p > 0
               for p in (open_, high, low, close, adj_close)):
        return "non-positive or non-finite price"
    if volume < 0 or not math.isfinite(volume):
        return "negative volume"
    if not (low <= min(open_, close) and max(open_, close) <= high):
        return "low/high do not bracket open/close"
    return None


@dataclass
class RejectedRow:
    line: int
    reason: str


@dataclass
class LoadReport:
    total_rows: int
    accepted_rows: int
    rejected: list[RejectedRow]
    # dates some ticker lacks, which the calendar intersection drops, and
    # the tickers that lack at least one of them
    dropped_dates: int = 0
    incomplete_tickers: list[str] = field(default_factory=list)

    @property
    def rejection_rate(self) -> float:
        return len(self.rejected) / self.total_rows if self.total_rows else 0.0


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
            raise InputEmpty("panel must have at least one asset and one date")
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


def load_bars(source, schema: dict[str, str] | None = None,
              rejection_ceiling: float = 0.01,
              delimiter: str = ",") -> tuple[PricePanel, LoadReport]:
    """Load delimited OHLCV text into an aligned panel.

    `source` is a text file object or a string path. `schema` maps
    canonical names (date, ticker, open, ...) to the file's column headers.
    Each accepted row becomes one tuple of the six `BAR_FIELDS` values, and
    the panel's arrays are built from those tuples in one pass. Rows
    violating bar invariants, and repeats of an accepted (ticker, date), are
    rejected and listed in the report; a rejection rate above
    `rejection_ceiling` aborts.
    """
    schema = {**DEFAULT_SCHEMA, **(schema or {})}
    close_after = isinstance(source, str)
    if close_after:
        source = open(source, "r", newline="")

    try:
        reader = csv.DictReader(source, delimiter=delimiter)
        if reader.fieldnames is None:
            raise InputEmpty("no header row")
        missing = [col for col in schema.values()
                   if col not in reader.fieldnames]
        if missing:
            raise InputEmpty(f"header missing columns: {missing}")
        value_cols = [schema[name] for name in BAR_FIELDS]

        by_asset: dict[str, dict[dt.date, tuple[float, ...]]] = {}
        rejected: list[RejectedRow] = []
        total = 0
        for line, raw in enumerate(reader, start=2):
            total += 1
            try:
                date = dt.date.fromisoformat(raw[schema["date"]].strip())
                ticker = raw[schema["ticker"]].strip()
                if not ticker:
                    raise ValueError("empty ticker")
                bar = tuple(float(raw[col]) for col in value_cols)
            except (AttributeError, TypeError):
                # csv fills the cells past a short row's end with None
                reason = "missing column value"
            except ValueError as exc:
                reason = str(exc)
            else:
                reason = _bar_fault(*bar)
                if reason is None and date in by_asset.get(ticker, ()):
                    reason = "duplicate row"
            if reason is not None:
                rejected.append(RejectedRow(line, reason))
                continue
            by_asset.setdefault(ticker, {})[date] = bar
        if total == 0:
            raise InputEmpty("source has a header but no data rows")
    finally:
        if close_after:
            source.close()

    report = LoadReport(total_rows=total, accepted_rows=total - len(rejected),
                        rejected=rejected)
    if report.rejection_rate > rejection_ceiling:
        raise RejectionRateExceeded(len(rejected), total, rejection_ceiling)
    if not by_asset:
        raise InputEmpty("no valid rows in source")

    assets = sorted(by_asset)
    common = set.intersection(*(set(b) for b in by_asset.values()))
    if not common:
        raise InsufficientData(needed="a shared trading date", available=0)
    calendar = sorted(common)
    seen = set().union(*by_asset.values())
    report.dropped_dates = len(seen) - len(common)
    report.incomplete_tickers = [a for a in assets
                                 if len(by_asset[a]) < len(seen)]

    bars = np.array([[by_asset[a][d] for a in assets] for d in calendar],
                    dtype=float)
    fields = {name: bars[:, :, i] for i, name in enumerate(BAR_FIELDS)}
    return PricePanel(assets, calendar, fields), report


# --- walk-forward window plan -------------------------------------------------

@dataclass(frozen=True)
class DateInterval:
    start: dt.date
    end: dt.date

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError(f"interval start {self.start} after end {self.end}")


@dataclass(frozen=True)
class WindowTriple:
    index: int
    train: DateInterval
    validation: DateInterval
    trade: DateInterval


def add_months(d: dt.date, n: int) -> dt.date:
    """Shift by n calendar months, clamping the day to the month's length."""
    month0 = d.year * 12 + (d.month - 1) + n
    year, month = divmod(month0, 12)
    month += 1
    last = (dt.date(year + month // 12, month % 12 + 1, 1)
            - dt.timedelta(days=1)).day
    return dt.date(year, month, min(d.day, last))


def month_start(d: dt.date) -> dt.date:
    return d.replace(day=1)


def month_end(d: dt.date) -> dt.date:
    return add_months(month_start(d), 1) - dt.timedelta(days=1)


def build_window_plan(panel: PricePanel, in_sample_end: dt.date,
                      validation_months: int = 3,
                      trade_months: int = 3) -> tuple[WindowTriple, ...]:
    """Growing-window train/validation/trade triples.

    The first validation interval is the `validation_months` calendar months
    ending with `in_sample_end`'s month; training covers everything before
    it. Successive triples roll forward by `trade_months`, training always
    starting at the panel start. The final trade interval is kept even if
    the panel ends mid-quarter.
    """
    first = panel.calendar[0]
    last = panel.calendar[-1]
    val_start0 = month_start(add_months(in_sample_end, -(validation_months - 1)))
    if val_start0 <= first:
        raise InsufficientData(needed=f"history before {val_start0}",
                               available=str(first))
    if last <= in_sample_end:
        raise InsufficientData(
            needed=f"trade dates after {in_sample_end}", available=str(last))

    triples = []
    k = 0
    while True:
        val_start = add_months(val_start0, k * trade_months)
        val_end = month_end(add_months(val_start, validation_months - 1))
        trade_start = val_end + dt.timedelta(days=1)
        trade_end = month_end(add_months(trade_start, trade_months - 1))
        if trade_start > last:
            break
        trade_end = min(trade_end, last)
        if not panel.date_slice(trade_start, trade_end):
            break
        triples.append(WindowTriple(
            index=k,
            train=DateInterval(first, val_start - dt.timedelta(days=1)),
            validation=DateInterval(val_start, val_end),
            trade=DateInterval(trade_start, trade_end),
        ))
        k += 1
    if not triples:
        raise InsufficientData(needed="at least one trade interval",
                               available=str(last))
    return tuple(triples)
