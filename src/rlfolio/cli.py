"""Command-line entry point: ingest, backtest, report."""
from __future__ import annotations

import contextlib
import csv
import datetime as dt
import logging
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
from .market_data import BAR_FIELDS, load_bars, build_window_plan
from .turbulence import rolling_turbulence

logger = logging.getLogger(__name__)

EXIT_PROGRAM_FAULT = 1
EXIT_USER_ERROR = 2


def _write_csv(path: Path, header, rows) -> None:
    """Write a header and rows of Python values (`.tolist()`, not NumPy
    scalars): `csv` writes None as an empty cell and a float by `repr`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _load_panel(cfg: RunConfig):
    return load_bars(cfg.data_path, schema=cfg.schema or None,
                     rejection_ceiling=cfg.rejection_ceiling,
                     delimiter=cfg.delimiter)


def _load_index_levels(path: str, days: list[str]) -> list[float]:
    """The index file's level on each of `days` (ISO dates), in order; each
    must have one, and no date may repeat."""
    series = {}  # ISO date -> (line, level)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if not {"date", "value"} <= set(reader.fieldnames or ()):
            raise UserError(f"index file {path} needs date and value columns")
        for row in reader:
            try:
                day = dt.date.fromisoformat(row["date"]).isoformat()
                level = float(row["value"])
                if not 0.0 < level < math.inf:
                    raise ValueError(f"level {level} is not positive and "
                                     "finite")
            except (TypeError, ValueError) as exc:
                raise UserError(f"index file {path} line "
                                f"{reader.line_num}: {exc}") from exc
            if day in series:
                raise UserError(f"index file {path} line "
                                f"{reader.line_num}: date {day} repeats "
                                f"line {series[day][0]}")
            series[day] = reader.line_num, level
    try:
        return [series[d][1] for d in days]
    except KeyError as exc:
        raise UserError(f"index file {path} has no value for trade date "
                        f"{exc.args[0]}") from None


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
@click.option("-v", "--verbose", is_flag=True, help="debug logging")
def main(verbose):
    """Walk-forward ensemble backtesting of actor-critic trading agents."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s")


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(), help="run config file")
@click.option("--out", type=click.Path(), default=None,
              help="output directory override")
@_exit_codes()
def ingest(config_path, out):
    """Load and align raw bars; persist the panel cache and the
    row-rejection report."""
    cfg = load_config(config_path, {"out_dir": out})
    panel, report = _load_panel(cfg)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    fields = [panel.field(f).tolist() for f in BAR_FIELDS]
    _write_csv(out_dir / "panel_cache.csv", ["date", "ticker", *BAR_FIELDS],
               ([date.isoformat(), asset, *(f[t][d] for f in fields)]
                for t, date in enumerate(panel.calendar)
                for d, asset in enumerate(panel.assets)))
    _write_csv(out_dir / "rejections.csv", ["line", "reason"],
               [[r.line, r.reason] for r in report.rejected])
    click.echo(f"panel: {panel.D} assets x {panel.T} dates; "
               f"{len(report.rejected)}/{report.total_rows} rows rejected")
    lacking = ", ".join(report.incomplete_tickers) or "none"
    click.echo(f"calendar: {report.dropped_dates} dates dropped "
               f"(missing for: {lacking})")


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
    panel, _ = _load_panel(cfg)
    plan = build_window_plan(panel, cfg.in_sample_end,
                             cfg.validation_months, cfg.trade_months)
    trade_rows = range(plan[0].trade.rows.start, plan[-1].trade.rows.stop)
    days = [panel.calendar[t].isoformat() for t in trade_rows]
    index_levels = None
    if cfg.index_path:  # a bad index file fails before any quarter trains
        index_levels = _load_index_levels(cfg.index_path, days)
    features = build_features(panel, cfg.indicators)
    turb = rolling_turbulence(panel, cfg.turbulence_lookback,
                              cfg.turbulence_ridge)

    logger.info("training %d quarters x %d agents", len(plan), len(AGENT_KINDS))
    windows = ens.train_and_validate(
        panel, features, turb, plan, cfg.env, cfg.agent_configs,
        seed=cfg.seed, turbulence_quantile=cfg.turbulence_quantile)

    pickers = {"ensemble": ens.pick_best,
               **{k.lower(): (lambda scores, k=k: k) for k in AGENT_KINDS}}
    results = ens.run_trading(panel, features, turb, windows, cfg.env,
                              pickers)
    strategies = {name: result.curve for name, result in results.items()}
    strategies["min_variance"] = run_min_variance_baseline(
        panel, trade_rows, cfg.env.initial_balance, cfg.min_variance_lookback,
        cfg.env.fee_rate)
    strategies["index"] = run_index_baseline(
        panel, trade_rows, cfg.env.initial_balance, index_levels)
    comparison = [[name, *metrics_report(curve.values)]
                  for name, curve in strategies.items()]

    # every result exists before the first write, so a failed run leaves
    # out_dir as it was
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config_snapshot.ini").write_text(snapshot_config(cfg))
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
    curves for every strategy."""
    run_dir = Path(run_dir)
    comparison = run_dir / "comparison.csv"
    if not comparison.exists():
        raise UserError(f"missing {comparison}")
    with open(comparison, newline="") as fh:
        raw = list(csv.reader(fh))
    if not raw:
        raise UserError(f"{comparison} is empty")
    for line, row in enumerate(raw, 1):
        if len(row) != len(raw[0]):
            raise UserError(f"{comparison} line {line} has {len(row)} "
                            f"cells, its header {len(raw[0])}")

    def fmt(cell: str) -> str:
        try:
            return f"{float(cell):.4f}"
        except ValueError:
            return cell

    table = [[fmt(c) for c in row] for row in raw]
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    for row in table:
        click.echo("  ".join(c.ljust(w) for c, w in zip(row, widths)))

    for equity in sorted(run_dir.glob("equity_*.csv")):
        name = equity.stem.removeprefix("equity_")
        with open(equity, newline="") as fh:
            data = list(csv.DictReader(fh))
        if not data:
            continue
        try:
            values = [float(r["value"]) for r in data]
        except (KeyError, TypeError, ValueError) as exc:
            raise UserError(f"{equity}: bad value column ({exc})") from exc
        if not all(0.0 < v < math.inf for v in values):
            raise UserError(f"{equity}: equity values must be positive "
                            "and finite")
        _write_csv(run_dir / f"cumret_{name}.csv", ["date", "cumulative_return"],
                   [[r["date"], v / values[0] - 1.0]
                    for r, v in zip(data, values)])
    click.echo(f"cumulative-return curves written to {run_dir}")


if __name__ == "__main__":
    main()
