"""Seeded synthetic inputs for the walk-forward backtest benchmark.

Each workload is a geometric random-walk OHLCV panel written as one CSV,
plus one INI config. The calendar shape (start date, number of weekdays,
in-sample end) is fixed per workload, so every seed gives the same quarter
plan; the seed only changes prices, volumes and which rows are malformed.

The expected quarter plan and env-step count are derived here from the
calendar alone, independently of the program, so the benchmark can check
the bundle the program writes against them.
"""
from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from pathlib import Path

import numpy as np

KINDS = ("PPO", "A2C", "DDPG")
BAR_FIELDS = ("open", "high", "low", "close", "adj_close", "volume")
# Share of rows that get a malformed duplicate line (low above high) after
# the valid line for the same (date, ticker): the loader rejects it and
# keeps the valid bar, so the rejection path runs without changing the
# calendar. Well under the loader's default 1% rejection ceiling.
BAD_ROW_SHARE = 0.002
# DDPG steps before its first update. The program's default, 256, is above
# wf_paper_mix's 128-step budget, so DDPG would never update there.
WARMUP_STEPS = 64


@dataclass(frozen=True)
class Workload:
    name: str
    assets: int
    days: int
    start: dt.date
    in_sample_end: dt.date
    steps: dict[str, int]     # per-quarter training budget by agent kind
    rollout: int              # PPO and A2C update interval
    quarters: int             # trade quarters the calendar must give


# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="wf_paper_mix", assets=8, days=2000,
        start=dt.date(2011, 1, 1), in_sample_end=dt.date(2015, 12, 31),
        steps={"PPO": 128, "A2C": 128, "DDPG": 128}, rollout=2048,
        quarters=11),
    Workload(
        name="wf_on_policy", assets=8, days=2000,
        start=dt.date(2011, 1, 1), in_sample_end=dt.date(2015, 12, 31),
        steps={"PPO": 256, "A2C": 256, "DDPG": 0}, rollout=256,
        quarters=11),
    Workload(
        name="wf_no_train", assets=8, days=3950,
        start=dt.date(2003, 1, 1), in_sample_end=dt.date(2008, 12, 31),
        steps={"PPO": 0, "A2C": 0, "DDPG": 0}, rollout=2048,
        quarters=37),
)}


def weekdays(start: dt.date, n: int) -> list[dt.date]:
    """The first n weekdays from `start` onward."""
    out = []
    d = start
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += dt.timedelta(days=1)
    return out


def make_bars(w: Workload, seed: int) -> tuple[list[dt.date], dict[str, np.ndarray]]:
    """Calendar and T x D OHLCV arrays; bars satisfy the loader's invariants."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, w.assets, w.days]))
    T, D, vol = w.days, w.assets, 0.01
    close = 100.0 * np.exp(np.cumsum(rng.normal(0.0002, vol, (T, D)), axis=0))
    opn = close * np.exp(rng.normal(0, vol / 2, (T, D)))
    high = np.maximum(opn, close) * (1 + np.abs(rng.normal(0, vol / 2, (T, D))))
    low = np.minimum(opn, close) * (1 - np.abs(rng.normal(0, vol / 2, (T, D))))
    volume = rng.integers(1_000, 100_000, size=(T, D)).astype(float)
    fields = {"open": opn, "high": high, "low": low, "close": close,
              "adj_close": close.copy(), "volume": volume}
    return weekdays(w.start, T), fields


def bad_rows(w: Workload, seed: int) -> np.ndarray:
    """Sorted flat (t * D + d) indices of rows followed by a malformed twin."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    n = max(1, int(BAD_ROW_SHARE * w.days * w.assets))
    return np.sort(rng.choice(w.days * w.assets, size=n, replace=False))


def write_inputs(w: Workload, seed: int, directory: Path) -> dict:
    """Write bars.csv and run.ini into `directory`; return what the checks
    need: the calendar, the expected windows, row counts and env steps."""
    directory.mkdir(parents=True, exist_ok=True)
    calendar, fields = make_bars(w, seed)
    bad = set(bad_rows(w, seed).tolist())
    cols = np.stack([fields[f] for f in BAR_FIELDS], axis=2).tolist()
    lines = ["date,ticker," + ",".join(BAR_FIELDS)]
    for t, date in enumerate(calendar):
        iso = date.isoformat()
        for d, vals in enumerate(cols[t]):
            head = f"{iso},AST{d:03d},"
            lines.append(head + ",".join(map(repr, vals)))
            if t * w.assets + d in bad:
                o, h, lo, c, a, v = vals
                lines.append(head + ",".join(map(repr, (o, lo, h, c, a, v))))
    (directory / "bars.csv").write_text("\n".join(lines) + "\n")
    (directory / "run.ini").write_text(config_text(w, seed))
    windows = plan_windows(calendar, w.in_sample_end)
    return {"calendar": calendar, "windows": windows,
            "rows_total": len(lines) - 1, "rows_rejected": len(bad),
            "env_steps": env_steps(w, calendar, windows)}


def config_text(w: Workload, seed: int) -> str:
    sections = [
        "[data]\npath = bars.csv\n",
        f"[windows]\nin_sample_end = {w.in_sample_end.isoformat()}\n",
        f"[run]\nseed = {seed}\nout_dir = bundle\n",
        f"[agents]\nrollout = {w.rollout}\nwarmup_steps = {WARMUP_STEPS}\n",
    ]
    sections += [f"[agents.{k.lower()}]\ntotal_steps = {w.steps[k]}\n"
                 for k in KINDS]
    return "\n".join(sections)


def _add_months(d: dt.date, n: int) -> dt.date:
    """First day of the month n months after d's month."""
    y, m = divmod(d.year * 12 + d.month - 1 + n, 12)
    return dt.date(y, m + 1, 1)


def plan_windows(calendar: list[dt.date], in_sample_end: dt.date
                 ) -> list[dict[str, tuple[dt.date, dt.date]]]:
    """Validation and trade quarters after `in_sample_end` as calendar-month
    bounds, the last trade quarter cut at the calendar's last date."""
    out = []
    val_start = _add_months(in_sample_end, -2)
    while True:
        trade_start = _add_months(val_start, 3)
        trade_end = min(_add_months(trade_start, 3) - dt.timedelta(days=1),
                        calendar[-1])
        if not dates_in(calendar, (trade_start, trade_end)):
            return out
        out.append({"validation": (val_start, trade_start - dt.timedelta(days=1)),
                    "trade": (trade_start, trade_end)})
        val_start = trade_start


def dates_in(calendar: list[dt.date], interval: tuple[dt.date, dt.date]
             ) -> list[dt.date]:
    return [d for d in calendar if interval[0] <= d <= interval[1]]


def env_steps(w: Workload, calendar: list[dt.date], windows) -> int:
    """Env steps of one backtest: training budgets, three validation
    rollouts and four trade rollouts (ensemble plus one per kind) a quarter.
    A rollout over n dates takes n - 1 steps."""
    def steps(interval):
        return len(dates_in(calendar, interval)) - 1

    train = sum(w.steps.values()) * len(windows)
    validate = len(KINDS) * sum(steps(q["validation"]) for q in windows)
    trade = (len(KINDS) + 1) * sum(steps(q["trade"]) for q in windows)
    return train + validate + trade
