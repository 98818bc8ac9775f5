"""Command-line entry point: ingest, backtest, report."""
from __future__ import annotations

import contextlib
import csv
import datetime as dt
import math
import sys
import traceback
from pathlib import Path

import click

from . import ensemble as ens
from .config import RunConfig, load_config, snapshot_config
from .agents import AGENT_KINDS
from .errors import UserError
from .evaluation import (METRIC_NAMES, EquityCurve, metrics_report,
                         run_index_baseline, run_min_variance_baseline)
from .indicators import build_features
from .market_data import load_bars, build_window_plan
from .turbulence import rolling_turbulence

EXIT_PROGRAM_FAULT = 1
EXIT_USER_ERROR = 2


def _write_csv(path: Path, header, rows) -> None:
    """Write a header and rows of Python values (`.tolist()`, not NumPy
    scalars): `csv` writes None as an empty cell and a float by `repr`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _load_panel(cfg: RunConfig):
    """The bars file's panel and load report; each user error names the
    file."""
    path = cfg.data.path
    with _open_csv(path) as fh:
        try:
            return load_bars(fh, rejection_ceiling=cfg.data.rejection_ceiling)
        except UserError as exc:
            raise UserError(f"{path}: {exc}") from exc


def _report_load(out_dir: Path, panel, report) -> None:
    """Make `out_dir` and write each rejected row's line and reason to its
    `rejections.csv`; print the panel's shape and what the load dropped."""
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "rejections.csv", ["line", "reason"], report.rejected)
    click.echo(f"panel: {panel.D} assets x {panel.T} dates; "
               f"{len(report.rejected)}/{report.total_rows} rows rejected")
    click.echo(f"calendar: {report.dropped_dates} dates dropped (missing for: "
               f"{', '.join(report.incomplete_tickers) or 'none'})")


@contextlib.contextmanager
def _open_csv(path):
    """The user's file at `path`, open as UTF-8 text for `csv`, a leading
    byte-order mark skipped; a byte that does not decode is a user error
    naming the file."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise UserError(f"{path} is not UTF-8: {exc.reason}") from exc


def _read_levels(path) -> dict[str, tuple[int, float]]:
    """A `date,value` file as ISO date -> (line, level), in file order; a
    missing column, a date that does not parse or repeats, or a level that
    is not positive and finite is a user error naming the file and line."""
    series = {}
    with _open_csv(path) as fh:
        reader = csv.DictReader(fh)
        if not {"date", "value"} <= set(reader.fieldnames or ()):
            raise UserError(f"{path} needs date and value columns")
        for row in reader:
            try:
                day = dt.date.fromisoformat(row["date"]).isoformat()
                level = float(row["value"])
                if not 0.0 < level < math.inf:
                    raise ValueError(f"level {level} is not positive and "
                                     "finite")
                if day in series:
                    raise ValueError(f"date {day} repeats line "
                                     f"{series[day][0]}")
            except (TypeError, ValueError) as exc:
                raise UserError(f"{path} line {reader.line_num}: "
                                f"{exc}") from exc
            series[day] = reader.line_num, level
    return series


def _load_index_levels(path: str, days: list[str]) -> list[float]:
    """The index file's level on each of `days` (ISO dates), in order; each
    must have one."""
    series = _read_levels(path)
    try:
        return [series[d][1] for d in days]
    except KeyError as exc:
        raise UserError(f"index file {path} has no value for trade date "
                        f"{exc.args[0]}") from None


def _set_up(cfg: RunConfig):
    """What `backtest` reads before training: the panel, load report, window
    plan, trade rows and their ISO dates, index levels (None without an
    index file), features and turbulence. Every check of the inputs runs
    here, before anything is written or trained: `out_dir` need not exist,
    but the nearest of it and its parents that does must be a directory."""
    out_dir = Path(cfg.run.out_dir)
    nearest = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not nearest.is_dir():
        raise UserError(f"[run] out_dir {out_dir}: {nearest} is not a "
                        "directory")
    panel, load = _load_panel(cfg)
    w = cfg.windows
    plan = build_window_plan(panel, w.in_sample_end, w.validation_months,
                             w.trade_months)
    trade_rows = range(plan[0].trade.rows.start, plan[-1].trade.rows.stop)
    days = [panel.calendar[t].isoformat() for t in trade_rows]
    index_levels = (_load_index_levels(cfg.data.index_path, days)
                    if cfg.data.index_path else None)
    return (panel, load, plan, trade_rows, days, index_levels,
            build_features(panel),
            rolling_turbulence(panel, cfg.turbulence.lookback))


@contextlib.contextmanager
def _exit_codes():
    """Around a command: exit 2 on a user error, printed as one `error:`
    line. Any other exception is a program fault: exit 1 with one `internal
    error:` line, after its traceback under `-v`."""
    try:
        yield
    except (UserError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_USER_ERROR)
    except Exception as exc:
        if click.get_current_context().find_root().params["verbose"]:
            click.echo(traceback.format_exc(), err=True, nl=False)
        click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
        sys.exit(EXIT_PROGRAM_FAULT)


@click.group()
@click.option("-v", "--verbose", is_flag=True,
              help="print the traceback of an internal error")
def main(verbose):
    """Walk-forward ensemble backtesting of actor-critic trading agents."""


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(), help="run config file")
@click.option("--out", type=click.Path(), default=None,
              help="output directory override")
@_exit_codes()
def ingest(config_path, out):
    """Run `backtest`'s set-up, every check of the inputs that needs no
    training; write the load's `rejections.csv` and print what it dropped."""
    cfg = load_config(config_path, {"out_dir": out})
    panel, report, *_ = _set_up(cfg)
    _report_load(Path(cfg.run.out_dir), panel, report)


def _write_strategy(out_dir: Path, name: str, days: list[str],
                    curve: EquityCurve, trades=None) -> None:
    """The curve's value on each of `days` (ISO dates), one to one, and any
    trade rows."""
    _write_csv(out_dir / f"equity_{name}.csv", ["date", "value"],
               zip(days, curve.values.tolist(), strict=True))
    if trades is not None:
        _write_csv(out_dir / f"trades_{name}.csv", ens.TRADE_COLUMNS, trades)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--seed", type=int, default=None, help="root seed override")
@click.option("--out", type=click.Path(), default=None)
@_exit_codes()
def backtest(config_path, seed, out):
    """Run the ensemble walk-forward backtest, the three single-agent
    strategies, and both baselines; write the full report bundle."""
    cfg = load_config(config_path, {"seed": seed, "out_dir": out})
    (panel, load, plan, trade_rows, days, index_levels, features,
     turb) = _set_up(cfg)

    click.echo(f"training {len(plan)} quarters x {len(AGENT_KINDS)} agents",
               err=True)
    windows = ens.train_and_validate(
        panel, features, turb, plan, cfg.env, cfg.agents, cfg.run.seed,
        cfg.turbulence.quantile)
    for w in windows:
        if all(score is None for score in w.scores.values()):
            click.echo(f"quarter {w.triple.index}: every validation Sharpe is "
                       f"undefined; the ensemble trades {ens.FALLBACK_KIND}",
                       err=True)

    pickers = {"ensemble": ens.pick_best,
               **{k.lower(): (lambda scores, k=k: k) for k in AGENT_KINDS}}
    results = ens.run_trading(panel, features, turb, windows, cfg.env,
                              pickers)
    strategies = {name: result.curve for name, result in results.items()}
    strategies["min_variance"] = run_min_variance_baseline(
        panel, trade_rows, cfg.env.initial_balance,
        cfg.baselines.min_variance_lookback, cfg.env.fee_rate)
    strategies["index"] = run_index_baseline(
        panel, trade_rows, cfg.env.initial_balance, index_levels)
    comparison = [[name, *metrics_report(curve.values)]
                  for name, curve in strategies.items()]

    # every result exists before the first write, so a failed run leaves
    # out_dir as it was; `report`'s curves of an earlier run go with it
    out_dir = Path(cfg.run.out_dir)
    _report_load(out_dir, panel, load)
    for stale in out_dir.glob("cumret_*.csv"):
        stale.unlink()
    (out_dir / "config_snapshot.ini").write_text(snapshot_config(cfg),
                                                 encoding="utf-8")
    for name, curve in strategies.items():
        trades = results[name].trades if name in results else None
        _write_strategy(out_dir, name, days, curve, trades)
    _write_csv(out_dir / "trace.csv",
               ["window", "validation_start", "validation_end",
                "trade_start", "trade_end",
                *(f"sharpe_{k.lower()}" for k in AGENT_KINDS),
                "picked", "turbulence_threshold"],
               [[w.triple.index,
                 w.triple.validation.start.isoformat(),
                 w.triple.validation.end.isoformat(),
                 w.triple.trade.start.isoformat(),
                 w.triple.trade.end.isoformat(),
                 *(w.scores[k] for k in AGENT_KINDS),
                 picked, w.threshold]
                for w, picked in zip(windows, results["ensemble"].picks)])
    _write_csv(out_dir / "comparison.csv", ["strategy", *METRIC_NAMES],
               comparison)
    click.echo(f"backtest complete: {out_dir / 'comparison.csv'}")


@main.command()
@click.option("--out", "run_dir", required=True, type=click.Path(),
              help="directory of a completed backtest run")
@_exit_codes()
def report(run_dir):
    """Print the comparison table and write plot-ready cumulative-return
    curves for every strategy. Every file is checked before the first
    write."""
    run_dir = Path(run_dir)
    comparison = run_dir / "comparison.csv"
    if not comparison.exists():
        raise UserError(f"missing {comparison}")
    with _open_csv(comparison) as fh:
        raw = list(csv.reader(fh))
    if not raw:
        raise UserError(f"{comparison} is empty")
    for line, row in enumerate(raw, 1):
        if len(row) != len(raw[0]):
            raise UserError(f"{comparison} line {line} has {len(row)} "
                            f"cells, its header {len(raw[0])}")

    curves = []  # (name, ISO date -> (line, level)) of each file with rows
    for equity in sorted(run_dir.glob("equity_*.csv")):
        series = _read_levels(equity)
        if series:
            curves.append((equity.stem.removeprefix("equity_"), series))

    def fmt(cell: str) -> str:
        try:
            return f"{float(cell):.4f}"
        except ValueError:
            return cell

    table = [[fmt(c) for c in row] for row in raw]
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    for row in table:
        click.echo("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    for name, series in curves:
        first = next(iter(series.values()))[1]
        _write_csv(run_dir / f"cumret_{name}.csv", ["date", "cumulative_return"],
                   [[d, v / first - 1.0] for d, (_, v) in series.items()])
    click.echo(f"cumulative-return curves written to {run_dir}")


if __name__ == "__main__":
    main()
