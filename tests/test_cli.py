import configparser
import csv
import datetime as dt
import math
import re
import sys
import typing
from dataclasses import fields

import numpy as np
import pytest
from click.testing import CliRunner

from rlfolio.agents import AGENT_KINDS
from rlfolio import cli, config
from rlfolio.cli import main
from rlfolio.config import (BaselinesConfig, DataConfig, load_config,
                            parse_config, snapshot_config)
from rlfolio.ensemble import pick_best
from rlfolio.errors import UserError
from rlfolio.market_data import DEFAULT_SCHEMA, build_window_plan

from helpers import make_panel, panel_to_csv, trade_rows, trading_calendar
from param_hashes import BUNDLE_FILES, STRATEGIES

CONFIG_TEMPLATE = """\
[data]
path = {data_path}

[windows]
in_sample_end = 2018-06-30

[env]
initial_balance = 100000
h_max = 5

[turbulence]
lookback = 60

[agents]
hidden = 8
total_steps = 40
rollout = 16
warmup_steps = 8
batch_size = 4

[run]
seed = 3
out_dir = {out_dir}

[baselines]
min_variance_lookback = 60
"""

# Sets every key of every section to a value other than its default.
EVERY_KEY_CONFIG = """\
[data]
path = bars.csv
delimiter = |
rejection_ceiling = 0.05
index_path = index.csv
col_date = Date
col_ticker = Symbol
col_open = Open
col_high = High
col_low = Low
col_close = Close
col_adj_close = Adj Close
col_volume = Volume

[windows]
in_sample_end = 2017-06-30
validation_months = 2
trade_months = 1

[env]
initial_balance = 50000.0
h_max = 7
fee_rate = 0.002
reward_scale = 0.001

[indicators]
macd_fast = 5
macd_slow = 20
rsi_period = 7
cci_period = 8
adx_period = 9

[turbulence]
lookback = 100
quantile = 0.95
ridge = 1e-06

[agents]
gamma = 0.9
hidden = 16, 8
actor_lr = 0.01
critic_lr = 0.02
total_steps = 500
rollout = 32
epochs = 3
minibatch = 16
clip_epsilon = 0.3
buffer_capacity = 1000
batch_size = 8
tau = 0.01
noise_scale = 0.2
warmup_steps = 10

[agents.ppo]
gamma = 0.8

[agents.a2c]
actor_lr = 0.03

[agents.ddpg]
tau = 0.02

[run]
seed = 11
out_dir = elsewhere

[baselines]
min_variance_lookback = 30
"""


def write_bars(tmp_path, keep):
    """The data of `data_csv` with only the dates `keep` accepts (as ISO
    strings), written to a file in `tmp_path`."""
    panel = make_panel(D=2, T=600, seed=12, start=dt.date(2017, 1, 1))
    header, *lines = panel_to_csv(panel).splitlines(keepends=True)
    path = tmp_path / "bars.csv"
    path.write_text(header + "".join(line for line in lines
                                     if keep(line[:10])))
    return path


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    return write_bars(tmp_path_factory.mktemp("data"), lambda day: True)


def write_config(tmp_path, data_csv, name="run"):
    out_dir = tmp_path / name
    cfg_path = tmp_path / f"{name}.ini"
    cfg_path.write_text(CONFIG_TEMPLATE.format(data_path=data_csv,
                                               out_dir=out_dir))
    return cfg_path, out_dir


def interval_of(cls, name: str) -> str | None:
    return next(f.metadata.get("interval") for f in fields(cls)
                if f.name == name)


def bound_cases():
    """(section, key, value, valid) at each bound each key declares: the
    bound itself, or the nearest value inside an open one, must parse; the
    nearest value outside must not. An int field has no value at an
    infinite bound."""
    cases = []
    for section, cls in config._SECTIONS.items():
        hints = typing.get_type_hints(cls)
        for key in hints:
            interval = interval_of(cls, key)
            if interval is None:
                continue
            integral = int in (hints[key], *typing.get_args(hints[key]))
            lo, hi = (float(b) for b in interval[1:-1].split(","))
            ends = ((lo, interval[0] == "[", math.inf),
                    (hi, interval[-1] == "]", -math.inf))
            for bound, closed, inward in ends:
                if integral and math.isinf(bound):
                    continue
                if integral:
                    step = 1 if inward > 0 else -1
                    inside = int(bound) + (0 if closed else step)
                    outside = int(bound) - (step if closed else 0)
                else:
                    inside = bound if closed else math.nextafter(bound, inward)
                    outside = (math.nextafter(bound, -inward) if closed
                               else bound)
                cases += [(section, key, repr(inside), True),
                          (section, key, repr(outside), False)]
    return cases


BOUND_CASES = bound_cases()


class TestConfig:
    @pytest.mark.parametrize(
        "section, key, value, valid", BOUND_CASES,
        ids=[f"{s}.{k}={v}" for s, k, v, _ in BOUND_CASES])
    def test_declared_bounds(self, section, key, value, valid):
        sections = {"data": {"path": "bars.csv"}}
        sections.setdefault(section, {})[key] = value
        if key == "macd_slow":  # must stay above macd_fast
            sections[section]["macd_fast"] = "1"
        text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n"
                                               for k, v in values.items())
                       for name, values in sections.items())
        if valid:
            parse_config(text)
        else:
            with pytest.raises(UserError,
                               match=re.escape(f"[{section}] {key} ")):
                parse_config(text)

    def test_defaults(self, data_csv):
        cfg = parse_config(f"[data]\npath = {data_csv}\n")
        assert cfg.windows.in_sample_end == dt.date(2015, 12, 31)
        assert cfg.env.initial_balance == 1_000_000.0
        assert cfg.env.fee_rate == 0.001
        assert cfg.turbulence.lookback == 252
        assert set(cfg.agents) == {"PPO", "A2C", "DDPG"}

    def test_kind_specific_override(self, data_csv):
        text = (f"[data]\npath = {data_csv}\n"
                "[agents]\ngamma = 0.95\n"
                "[agents.ppo]\nclip_epsilon = 0.1\n")
        cfg = parse_config(text)
        assert cfg.agents["PPO"].clip_epsilon == 0.1
        assert cfg.agents["PPO"].gamma == 0.95
        assert cfg.agents["A2C"].gamma == 0.95
        assert cfg.agents["DDPG"].clip_epsilon == 0.2

    def test_huge_finite_learning_rate_accepted(self, data_csv):
        # any positive finite rate is a valid setting, however it trains
        cfg = parse_config(f"[data]\npath = {data_csv}\n"
                           "[agents]\ncritic_lr = 1e200\n")
        assert cfg.agents["DDPG"].critic_lr == 1e200

    @pytest.mark.parametrize("text, ridge", [("", None), ("0", 0.0),
                                             ("1e-6", 1e-6)])
    def test_ridge_bounds(self, data_csv, text, ridge):
        # empty keeps the trace-scaled default; zero is a valid ridge
        cfg = parse_config(f"[data]\npath = {data_csv}\n"
                           f"[turbulence]\nridge = {text}\n")
        assert cfg.turbulence.ridge == ridge

    def test_missing_data_path(self):
        with pytest.raises(UserError,
                           match=re.escape("config must set [data] path")):
            parse_config("[run]\nseed = 1\n")

    def test_missing_file(self):
        with pytest.raises(UserError, match=re.escape(
                "cannot read config /nonexistent/config.ini: No such file or "
                "directory")):
            load_config("/nonexistent/config.ini")

    def test_snapshot_roundtrip(self, data_csv, tmp_path):
        cfg_path, _ = write_config(tmp_path, data_csv)
        cfg = load_config(cfg_path)
        again = parse_config(snapshot_config(cfg))
        assert again.run.seed == cfg.run.seed
        assert again.env == cfg.env
        assert again.agents == cfg.agents
        assert again.windows.in_sample_end == cfg.windows.in_sample_end

    def test_percent_in_values_is_literal(self, tmp_path):
        path = str(tmp_path / "bars%20.csv")
        cfg = parse_config(f"[data]\npath = {path}\n[run]\nout_dir = out%%\n")
        assert cfg.data.path == path
        assert cfg.run.out_dir == "out%%"
        again = parse_config(snapshot_config(cfg))
        assert again == cfg

    def test_snapshot_roundtrip_every_key(self):
        cfg = parse_config(EVERY_KEY_CONFIG)
        for section, cls in config._SECTIONS.items():
            default = cls(path="") if cls is DataConfig else cls()
            objs = (cfg.agents.values() if section == "agents"
                    else [getattr(cfg, section)])
            for obj in objs:
                for f in fields(cls):
                    assert getattr(obj, f.name) != getattr(default, f.name), \
                        f.name
        assert all(cfg.schema[name] != column
                   for name, column in DEFAULT_SCHEMA.items())

        snapshot = snapshot_config(cfg)
        assert parse_config(snapshot) == cfg
        parser = configparser.ConfigParser()
        parser.read_string(snapshot)
        keys = {section: set(parser[section]) for section in parser.sections()}
        assert keys["data"] == {"path", "delimiter", "rejection_ceiling",
                                "index_path",
                                *(f"col_{name}" for name in DEFAULT_SCHEMA)}
        assert keys["windows"] == {"in_sample_end", "validation_months",
                                   "trade_months"}
        assert keys["turbulence"] == {"lookback", "quantile", "ridge"}
        assert keys["run"] == {"seed", "out_dir"}
        assert keys["baselines"] == {"min_variance_lookback"}
        # each section's keys are the field names of its one dataclass
        for section, cls in config._SECTIONS.items():
            names = {f.name for f in fields(cls)}
            if section == "data":
                names |= {f"col_{name}" for name in DEFAULT_SCHEMA}
            for written in ([f"agents.{k.lower()}" for k in AGENT_KINDS]
                            if section == "agents" else [section]):
                assert keys[written] == names, written

    def test_snapshot_section_and_key_order(self):
        parser = configparser.ConfigParser()
        parser.read_string(snapshot_config(parse_config(EVERY_KEY_CONFIG)))
        agent_keys = ["gamma", "hidden", "actor_lr", "critic_lr",
                      "total_steps", "rollout", "epochs", "minibatch",
                      "clip_epsilon", "buffer_capacity", "batch_size", "tau",
                      "noise_scale", "warmup_steps"]
        assert [(s, list(parser[s])) for s in parser.sections()] == [
            ("data", ["path", "delimiter", "rejection_ceiling", "index_path",
                      "col_date", "col_ticker", "col_open", "col_high",
                      "col_low", "col_close", "col_adj_close", "col_volume"]),
            ("windows", ["in_sample_end", "validation_months",
                         "trade_months"]),
            ("env", ["initial_balance", "h_max", "fee_rate", "reward_scale"]),
            ("indicators", ["macd_fast", "macd_slow", "rsi_period",
                            "cci_period", "adx_period"]),
            ("turbulence", ["lookback", "quantile", "ridge"]),
            ("agents.ppo", agent_keys),
            ("agents.a2c", agent_keys),
            ("agents.ddpg", agent_keys),
            ("run", ["seed", "out_dir"]),
            ("baselines", ["min_variance_lookback"]),
        ]


class TestIngest:
    def test_writes_cache_and_rejections(self, data_csv, tmp_path):
        cfg_path, out_dir = write_config(tmp_path, data_csv, "ingest")
        result = CliRunner().invoke(main, ["ingest", "--config",
                                           str(cfg_path)])
        assert result.exit_code == 0, result.output
        assert (out_dir / "panel_cache.csv").exists()
        assert (out_dir / "rejections.csv").exists()
        assert "2 assets x 600 dates" in result.output

    def test_rejected_rows_reported(self, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text(
            "date,ticker,open,high,low,close,adj_close,volume\n"
            "2020-01-02,AAA,10,11,9,10.5,10.5,100\n"
            "2020-01-03,AAA,10,8,12,10.5,10.5,100\n"
            "2020-01-06,AAA,10,11,9,10.5,10.5,100\n")
        cfg = tmp_path / "c.ini"
        out = tmp_path / "out"
        cfg.write_text(f"[data]\npath = {data}\nrejection_ceiling = 0.5\n"
                       f"[run]\nout_dir = {out}\n")
        result = CliRunner().invoke(main, ["ingest", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        lines = (out / "rejections.csv").read_text().strip().splitlines()
        assert len(lines) == 2  # header + the inverted-range row
        assert lines[1].startswith("3,")

    def test_dropped_dates_printed(self, tmp_path):
        data = tmp_path / "gappy.csv"
        lines = ["date,ticker,open,high,low,close,adj_close,volume"]
        for day in ("02", "03", "06", "07"):
            for ticker in ("AAA", "BBB"):
                if ticker == "BBB" and day in ("03", "07"):
                    continue
                lines.append(f"2020-01-{day},{ticker},10,11,9,10.5,10.5,100")
        data.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[data]\npath = {data}\n"
                       f"[run]\nout_dir = {tmp_path / 'out'}\n")
        result = CliRunner().invoke(main, ["ingest", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert "2 assets x 2 dates" in result.output
        assert "calendar: 2 dates dropped (missing for: BBB)" in result.output

    def test_out_is_a_file_exits_2(self, data_csv, tmp_path):
        cfg_path, _ = write_config(tmp_path, data_csv, "ingest")
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        result = CliRunner().invoke(main, ["ingest", "--config",
                                           str(cfg_path), "--out", str(taken)])
        assert result.exit_code == 2, result.output
        assert "error:" in result.output
        assert "Traceback" not in result.output

    def test_missing_data_exits_2(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[data]\npath = /nonexistent/bars.csv\n")
        result = CliRunner().invoke(main, ["ingest", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "error:" in result.output

    def test_missing_config_exits_2(self):
        result = CliRunner().invoke(
            main, ["ingest", "--config", "/nonexistent.ini"])
        assert result.exit_code == 2


BARS_HEADER = "date,ticker,open,high,low,close,adj_close,volume\n"
BAR = "10,11,9,10.5,10.5,100\n"


class TestBarsFileUserErrors:
    """Each user error in the bars file exits 2 with an `error:` line that
    starts with the file's path."""

    @pytest.mark.parametrize("text, ceiling, message", [
        ("", 0.01, "no header row"),
        (BARS_HEADER, 0.01, "source has a header but no data rows"),
        ("date,ticker,open\n2020-01-02,AAA,10\n", 0.01,
         "header missing columns: ['high', 'low', 'close', 'adj_close', "
         "'volume']"),
        (BARS_HEADER + "2020-01-02,AAA," + BAR + "2020-01-03,AAA,x," + BAR,
         0.01, "1/2 rows rejected, above ceiling 1.00%"),
        (BARS_HEADER + "2020-01-02,AAA,x," + BAR, 1.0,
         "no valid rows in source"),
        (BARS_HEADER + "2020-01-02,AAA," + BAR + "2020-01-03,BBB," + BAR,
         0.01, "needed a shared trading date, available 0"),
    ], ids=["no_header", "no_rows", "missing_columns", "above_ceiling",
            "no_valid_rows", "no_shared_date"])
    @pytest.mark.parametrize("command", ["ingest", "backtest"])
    def test_error_names_the_file(self, tmp_path, command, text, ceiling,
                                  message):
        data = tmp_path / "bars.csv"
        data.write_text(text)
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[data]\npath = {data}\n"
                       f"rejection_ceiling = {ceiling}\n"
                       f"[windows]\nin_sample_end = 2020-01-02\n"
                       f"[run]\nout_dir = {tmp_path / 'out'}\n")
        result = CliRunner().invoke(main, [command, "--config", str(cfg)])
        assert result.exit_code == 2, result.output
        assert f"error: {data}: {message}\n" in result.stderr
        assert "Traceback" not in result.output


@pytest.fixture(scope="module")
def run_dir(data_csv, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bt")
    cfg_path, out_dir = write_config(tmp, data_csv, "bt")
    result = CliRunner().invoke(main, ["backtest", "--config", str(cfg_path)])
    assert result.exit_code == 0, result.output
    return out_dir


class TestBacktestAndReport:
    def test_bundle_files_present(self, run_dir):
        expected = {"config_snapshot.ini", "trace.csv", "comparison.csv"}
        for name in ("ensemble", "ppo", "a2c", "ddpg"):
            expected |= {f"equity_{name}.csv", f"trades_{name}.csv"}
        expected |= {"equity_min_variance.csv", "equity_index.csv"}
        present = {p.name for p in run_dir.iterdir()}
        assert expected <= present

    def test_comparison_rows(self, run_dir):
        lines = (run_dir / "comparison.csv").read_text().strip().splitlines()
        assert lines[0] == ("strategy,cumulative_return,annual_return,"
                            "annual_volatility,sharpe,max_drawdown")
        strategies = {line.split(",")[0] for line in lines[1:]}
        assert strategies == {"ensemble", "ppo", "a2c", "ddpg",
                              "min_variance", "index"}

    def test_equity_files_share_the_trade_calendar(self, run_dir):
        # all six curves are written against one date column: the panel
        # calendar over the plan's trade rows, strictly increasing
        cfg = load_config(run_dir / "config_snapshot.ini")
        panel, _ = cli._load_panel(cfg)
        plan = build_window_plan(panel, cfg.windows.in_sample_end,
                                 cfg.windows.validation_months,
                                 cfg.windows.trade_months)
        want = [panel.calendar[t] for t in trade_rows(plan)]
        assert len(want) > 2 * len(plan)
        assert all(a < b for a, b in zip(want, want[1:]))
        for name in STRATEGIES:
            with open(run_dir / f"equity_{name}.csv", newline="") as fh:
                dates = [dt.date.fromisoformat(r["date"])
                         for r in csv.DictReader(fh)]
            assert dates == want, name

    def test_trace_has_one_row_per_quarter(self, run_dir):
        lines = (run_dir / "trace.csv").read_text().strip().splitlines()
        assert lines[0].startswith("window,validation_start")
        assert len(lines) >= 3  # header + at least two quarters
        for line in lines[1:]:
            cells = line.split(",")
            picked = cells[8]
            assert picked in ("PPO", "A2C", "DDPG")
            # each row's pick is the pick of that row's own Sharpe cells
            scores = {k: float(c) if c else None
                      for k, c in zip(AGENT_KINDS, cells[5:8])}
            assert picked == pick_best(scores)

    def test_csv_cells_are_plain_values(self, data_csv, tmp_path,
                                        monkeypatch):
        # every CSV the program writes: the bundle, the panel cache and
        # rejections, and the report's cumulative-return curves
        write_csv, cell_types = cli._write_csv, set()

        def recording_write_csv(path, header, rows):
            rows = [list(row) for row in rows]
            cell_types.update(type(v) for row in rows for v in row)
            write_csv(path, header, rows)

        monkeypatch.setattr(cli, "_write_csv", recording_write_csv)
        cfg_path, out_dir = write_config(tmp_path, data_csv)
        for args in (["backtest", "--config", str(cfg_path)],
                     ["ingest", "--config", str(cfg_path)],
                     ["report", "--out", str(out_dir)]):
            result = CliRunner().invoke(main, args)
            assert result.exit_code == 0, result.output
        # Python values, never NumPy scalars
        assert cell_types <= {str, int, float, type(None)}, cell_types
        text = {"date", "ticker", "asset", "side", "strategy", "picked",
                "reason"}
        paths = sorted(out_dir.glob("*.csv"))
        assert {"panel_cache.csv", "trades_ddpg.csv",
                "cumret_index.csv"} <= {p.name for p in paths}
        for path in paths:
            with open(path, newline="") as fh:
                header, *rows = csv.reader(fh)
            for row in rows:
                for column, cell in zip(header, row):
                    assert "np." not in cell, (path.name, column, cell)
                    if column in text or column.endswith(("_start", "_end")):
                        continue
                    if cell == "":  # an undefined Sharpe
                        assert column.startswith("sharpe"), (path.name, cell)
                        continue
                    # an int or a float cell, as repr writes it
                    plain = (str(int(cell)) if cell.lstrip("-").isdigit()
                             else repr(float(cell)))
                    assert cell == plain, (path.name, column, cell)

    def test_snapshot_is_loadable(self, run_dir):
        cfg = load_config(run_dir / "config_snapshot.ini")
        assert cfg.run.seed == 3

    def test_report_prints_table_and_curves(self, run_dir):
        result = CliRunner().invoke(main, ["report", "--out", str(run_dir)])
        assert result.exit_code == 0, result.output
        assert "strategy" in result.output
        assert "ensemble" in result.output
        for name in ("ensemble", "ppo", "min_variance", "index"):
            path = run_dir / f"cumret_{name}.csv"
            assert path.exists()
            first = path.read_text().splitlines()[1]
            assert first.endswith(",0.0")  # curve starts at zero return

    def test_report_missing_dir_exits_2(self, tmp_path):
        result = CliRunner().invoke(main, ["report", "--out",
                                           str(tmp_path / "nope")])
        assert result.exit_code == 2

    def test_backtest_byte_identical_rerun(self, data_csv, tmp_path, run_dir):
        cfg_path, out_dir = write_config(tmp_path, data_csv, "again")
        result = CliRunner().invoke(main, ["backtest", "--config",
                                           str(cfg_path)])
        assert result.exit_code == 0, result.output
        for name in ("trace.csv", "comparison.csv", "equity_ensemble.csv",
                     "trades_ensemble.csv", "equity_ppo.csv"):
            assert (out_dir / name).read_bytes() == \
                (run_dir / name).read_bytes()

    def test_rerun_deletes_the_report_curves(self, data_csv, tmp_path):
        # `report`'s curves are made from one bundle: a backtest that writes
        # a new bundle into the directory deletes them with the old one
        cfg_path, out_dir = write_config(tmp_path, data_csv)
        for args in (["backtest", "--config", str(cfg_path)],
                     ["report", "--out", str(out_dir)]):
            result = CliRunner().invoke(main, args)
            assert result.exit_code == 0, result.output
        assert len(list(out_dir.glob("cumret_*.csv"))) == 6
        result = CliRunner().invoke(main, ["backtest", "--config",
                                           str(cfg_path), "--seed", "9"])
        assert result.exit_code == 0, result.output
        assert sorted(p.name for p in out_dir.iterdir()) == \
            sorted(BUNDLE_FILES)


class TestBacktestUserErrors:
    """User-caused failures after the load phase exit 2 with a message."""

    def test_short_turbulence_lookback_exits_2(self, data_csv, tmp_path):
        cfg_path, out_dir = write_config(tmp_path, data_csv)
        # two assets need a lookback of at least three days
        cfg_path.write_text(cfg_path.read_text().replace(
            "[turbulence]\nlookback = 60", "[turbulence]\nlookback = 2"))
        result = CliRunner().invoke(main, ["backtest", "--config",
                                           str(cfg_path)])
        assert result.exit_code == 2, result.output
        assert ("error: [turbulence] lookback must be at least D + 1 = 3 "
                "for D = 2 assets, got 2") in result.stderr
        assert not (out_dir / "config_snapshot.ini").exists()

    def test_in_sample_end_before_the_data_exits_2(self, data_csv, tmp_path):
        cfg_path, _ = write_config(tmp_path, data_csv)
        # validation would start 2016-11-01; the data start 2017-01-02
        cfg_path.write_text(cfg_path.read_text().replace(
            "in_sample_end = 2018-06-30", "in_sample_end = 2017-01-31"))
        result = CliRunner().invoke(main, ["backtest", "--config",
                                           str(cfg_path)])
        assert result.exit_code == 2, result.output
        assert ("error: needed history before 2016-11-01, where [windows] "
                "in_sample_end = 2017-01-31 starts validation, available "
                "data from 2017-01-02") in result.stderr

    def test_empty_trade_quarter_exits_2(self, tmp_path):
        # the data skip October-December 2018 but run on to 2019-04-19: the
        # plan cannot trade that quarter, and nothing is written
        data_csv = write_bars(tmp_path, lambda day: not (
            "2018-10-01" <= day <= "2018-12-31"))
        cfg_path, out_dir = write_config(tmp_path, data_csv)
        result = CliRunner().invoke(main, ["backtest", "--config",
                                           str(cfg_path)])
        assert result.exit_code == 2, result.output
        assert ("error: needed 2+ dates in window 1's trade interval "
                "2018-10-01 to 2018-12-31, available 0") in result.stderr
        assert not (out_dir / "config_snapshot.ini").exists()

    def test_negative_seed_exits_2(self, data_csv, tmp_path):
        cfg_path, _ = write_config(tmp_path, data_csv)
        result = CliRunner().invoke(main, ["backtest", "--config",
                                           str(cfg_path), "--seed", "-1"])
        assert result.exit_code == 2, result.output
        assert "error:" in result.stderr


def backtest_with(data_csv, tmp_path, values: dict):
    """`backtest` of the tiny config with `values`, {section: {key: text}},
    set over it; the result and the run's out_dir."""
    cfg_path, out_dir = write_config(tmp_path, data_csv)
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(cfg_path)
    parser.read_dict(values)
    with open(cfg_path, "w") as fh:
        parser.write(fh)
    return CliRunner().invoke(main, ["backtest", "--config",
                                     str(cfg_path)]), out_dir


# every valid value `bound_cases` yields, and the two month counts, whose
# open bounds yield none; no huge value of an int field that scales the
# work (`total_steps`, `hidden`, `rollout`...), which would run for hours
RUN_CASES = [case[:3] for case in BOUND_CASES if case[3]] + [
    ("windows", "validation_months", "1000000"),
    ("windows", "trade_months", "1000000")]


class TestExitCodes:
    """0 for success, 2 for a user error, 1 for a program fault."""

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("section, key, value", RUN_CASES,
                             ids=[f"{s}.{k}={v}" for s, k, v in RUN_CASES])
    def test_backtest_at_each_valid_bound(self, data_csv, tmp_path, section,
                                          key, value):
        # the tiny run at one in-range value completes with every bundle
        # file, or exits 2 and writes nothing
        values = {section: {key: value}}
        if key == "macd_slow":  # must stay above macd_fast
            values[section]["macd_fast"] = "1"
        result, out_dir = backtest_with(data_csv, tmp_path, values)
        if key.endswith("_lr") and float(value) == sys.float_info.max:
            # a learning rate at the largest float overflows an update, a
            # program fault until ROADMAP item 3 skips and counts it
            assert result.exit_code == 1, result.output
            assert "internal error: FloatingPointError" in result.stderr
            assert not out_dir.exists()
        elif result.exit_code == 0:
            assert sorted(p.name for p in out_dir.iterdir()) == \
                sorted(BUNDLE_FILES)
        else:
            assert result.exit_code == 2, result.output
            assert "error:" in result.stderr
            assert not out_dir.exists()

    def test_env_caps_together_complete(self, data_csv, tmp_path):
        result, out_dir = backtest_with(data_csv, tmp_path, {"env": {
            "initial_balance": "1e15", "reward_scale": "1"}})
        assert result.exit_code == 0, result.output
        assert sorted(p.name for p in out_dir.iterdir()) == \
            sorted(BUNDLE_FILES)

    def test_two_date_validation_quarter_falls_back(self, tmp_path):
        # of the first validation quarter, April-June 2018, only 2018-06-28
        # and 2018-06-29 remain: one daily return, so no Sharpe ratio
        data_csv = write_bars(tmp_path, lambda day: not (
            "2018-04-01" <= day <= "2018-06-27"))
        cfg_path, out_dir = write_config(tmp_path, data_csv)
        result = CliRunner().invoke(main, ["backtest", "--config",
                                           str(cfg_path)])
        assert result.exit_code == 0, result.output
        assert all((out_dir / name).is_file() for name in BUNDLE_FILES)
        with open(out_dir / "trace.csv", newline="") as fh:
            first = next(csv.DictReader(fh))
        assert first["validation_start"] == "2018-04-01"
        assert [first[f"sharpe_{k.lower()}"] for k in AGENT_KINDS] == \
            ["", "", ""]
        assert first["picked"] == "PPO"

    def test_one_date_final_trade_quarter_is_not_planned(self, tmp_path):
        # the data end on 2018-10-01, the first trading date of a quarter:
        # one date is not a trade quarter, so trading ends in September
        data_csv = write_bars(tmp_path, lambda day: day <= "2018-10-01")
        cfg_path, out_dir = write_config(tmp_path, data_csv)
        result = CliRunner().invoke(main, ["backtest", "--config",
                                           str(cfg_path)])
        assert result.exit_code == 0, result.output
        assert all((out_dir / name).is_file() for name in BUNDLE_FILES)
        with open(out_dir / "trace.csv", newline="") as fh:
            *_, last = csv.DictReader(fh)
        assert (last["trade_start"], last["trade_end"]) == (
            "2018-07-01", "2018-09-30")
        with open(out_dir / "equity_ensemble.csv", newline="") as fh:
            *_, final = csv.DictReader(fh)
        assert final["date"] == "2018-09-28"

    def test_min_variance_lookback_at_lower_bound(self, data_csv, tmp_path):
        interval = interval_of(BaselinesConfig, "min_variance_lookback")
        lower = interval[1:-1].split(",")[0]
        cfg_path, out_dir = write_config(tmp_path, data_csv)
        cfg_path.write_text(cfg_path.read_text().replace(
            "min_variance_lookback = 60", f"min_variance_lookback = {lower}"))
        result = CliRunner().invoke(main, ["backtest", "--config",
                                           str(cfg_path)])
        assert result.exit_code == 0, result.output
        curves = sorted(out_dir.glob("equity_*.csv"))
        assert len(curves) == 6
        for path in curves:
            with open(path, newline="") as fh:
                values = [float(row["value"]) for row in csv.DictReader(fh)]
            assert values and all(0 < v < math.inf for v in values), path

    # the built-in types the program raises on a fault
    @pytest.mark.parametrize("fault_type", [
        ValueError, FloatingPointError, RuntimeError, np.linalg.LinAlgError],
        ids=lambda t: t.__name__)
    @pytest.mark.parametrize("verbose", [False, True])
    def test_program_fault_exits_1(self, data_csv, tmp_path, monkeypatch,
                                   verbose, fault_type):
        def fault(*args, **kwargs):
            raise fault_type("planted fault")

        monkeypatch.setattr(cli, "build_features", fault)
        cfg_path, _ = write_config(tmp_path, data_csv)
        result = CliRunner().invoke(main, ["-v"] * verbose + [
            "backtest", "--config", str(cfg_path)])
        assert result.exit_code == 1, result.output
        lines = result.stderr.splitlines()
        want = f"internal error: {fault_type.__name__}: planted fault"
        assert [line for line in lines if "internal error" in line] == [want]
        assert lines[-1] == want
        assert ("Traceback" in result.stderr) == verbose

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_non_finite_update_exits_1(self, data_csv, tmp_path):
        # a valid setting that makes training fail is not a user error
        cfg_path, _ = write_config(tmp_path, data_csv)
        cfg_path.write_text(cfg_path.read_text().replace(
            "[agents]\n", "[agents]\ncritic_lr = 1e200\n"))
        result = CliRunner().invoke(main, ["backtest", "--config",
                                           str(cfg_path)])
        assert result.exit_code == 1, result.output
        assert ("internal error: FloatingPointError: non-finite gradient"
                in result.stderr)
        assert "update skipped" not in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_failed_rerun_leaves_the_bundle_untouched(self, data_csv,
                                                      tmp_path):
        # a run writes only once every result exists: a rerun that fails in
        # training leaves the previous bundle whole, and makes no directory
        # where there was none
        cfg_path, out_dir = write_config(tmp_path, data_csv)
        result = CliRunner().invoke(main, ["backtest", "--config",
                                           str(cfg_path)])
        assert result.exit_code == 0, result.output
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert set(before) == set(BUNDLE_FILES)
        cfg_path.write_text(cfg_path.read_text().replace(
            "[agents]\n", "[agents]\ncritic_lr = 1e200\n"))
        result = CliRunner().invoke(main, ["backtest", "--config",
                                           str(cfg_path)])
        assert result.exit_code == 1, result.output
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before
        fresh = tmp_path / "fresh" / "run"
        result = CliRunner().invoke(main, ["backtest", "--config",
                                           str(cfg_path), "--out", str(fresh)])
        assert result.exit_code == 1, result.output
        assert not (tmp_path / "fresh").exists()


class TestReportUserErrors:
    """A damaged run directory makes `report` exit 2 naming the file."""

    def test_empty_comparison_exits_2(self, tmp_path):
        (tmp_path / "comparison.csv").write_text("")
        result = CliRunner().invoke(main, ["report", "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert "error:" in result.stderr
        assert "comparison.csv" in result.stderr

    def test_non_numeric_equity_value_exits_2(self, tmp_path, run_dir):
        for name in ("comparison.csv", "equity_ppo.csv"):
            (tmp_path / name).write_bytes((run_dir / name).read_bytes())
        path = tmp_path / "equity_ppo.csv"
        path.write_text(path.read_text().replace("\n", "\n2021-01-04,abc\n",
                                                 1))
        result = CliRunner().invoke(main, ["report", "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert "error:" in result.stderr
        assert "equity_ppo.csv" in result.stderr

    @pytest.mark.parametrize("value", ["0.0", "-1.0", "nan", "inf"])
    def test_bad_first_equity_value_exits_2(self, tmp_path, run_dir, value):
        # equity values are positive and finite, as `EquityCurve` writes
        # them; 0.0 first would divide every cumulative return by zero
        for name in ("comparison.csv", "equity_ppo.csv"):
            (tmp_path / name).write_bytes((run_dir / name).read_bytes())
        path = tmp_path / "equity_ppo.csv"
        header, first, *rest = path.read_text().splitlines(keepends=True)
        path.write_text(header + f"{first.split(',')[0]},{value}\n"
                        + "".join(rest))
        result = CliRunner().invoke(main, ["report", "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert (f"error: {path}: equity values must be positive and "
                "finite") in result.stderr

    def test_equity_without_a_date_column_exits_2_writing_nothing(
            self, tmp_path, run_dir):
        # `equity_ppo.csv` sorts after curves that are fine: none of them
        # gets a `cumret_*.csv` either
        for path in (run_dir / "comparison.csv", *run_dir.glob("equity_*")):
            (tmp_path / path.name).write_bytes(path.read_bytes())
        path = tmp_path / "equity_ppo.csv"
        path.write_text(path.read_text().replace("date,", "day,", 1))
        result = CliRunner().invoke(main, ["report", "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert f"error: {path} needs date and value columns" in result.stderr
        assert list(tmp_path.glob("cumret_*.csv")) == []

    def test_short_comparison_row_exits_2(self, tmp_path, run_dir):
        path = tmp_path / "comparison.csv"
        text = (run_dir / "comparison.csv").read_text()
        header, first, *rest = text.splitlines(keepends=True)
        path.write_text(header + first.rsplit(",", 1)[0] + "\n"
                        + "".join(rest))
        result = CliRunner().invoke(main, ["report", "--out", str(tmp_path)])
        assert result.exit_code == 2, result.output
        assert f"error: {path} line 2 has 5 cells, its header 6" in \
            result.stderr


class TestNonUtf8Input:
    """A byte that is not UTF-8 in any file the user gives exits 2 with an
    `error:` line naming the file."""

    @staticmethod
    def spoil(path):
        """Put a 0xff byte, never valid UTF-8, at the end of `path`'s
        second line."""
        first, second, *rest = path.read_bytes().split(b"\n")
        path.write_bytes(b"\n".join([first, second + b"\xff", *rest]))

    def assert_exits_2_naming(self, args, path):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"error: {path} is not UTF-8" in result.stderr
        assert "Traceback" not in result.output

    def test_config(self, data_csv, tmp_path):
        cfg_path, _ = write_config(tmp_path, data_csv)
        cfg_path.write_bytes(cfg_path.read_bytes() + b"# \xff\n")
        self.assert_exits_2_naming(["backtest", "--config", str(cfg_path)],
                                   f"config {cfg_path}")

    @pytest.mark.parametrize("command", ["ingest", "backtest"])
    def test_bars_file(self, data_csv, tmp_path, command):
        bars = tmp_path / "bars.csv"
        bars.write_bytes(data_csv.read_bytes())
        self.spoil(bars)
        cfg_path, _ = write_config(tmp_path, bars)
        self.assert_exits_2_naming([command, "--config", str(cfg_path)],
                                   bars)

    def test_index_file(self, data_csv, tmp_path):
        index_path = tmp_path / "index.csv"
        index_path.write_text(index_from_first_trade_date("100.0"))
        self.spoil(index_path)
        cfg_path, _ = write_config(tmp_path, data_csv)
        cfg_path.write_text(cfg_path.read_text().replace(
            "[windows]", f"index_path = {index_path}\n\n[windows]"))
        self.assert_exits_2_naming(["backtest", "--config", str(cfg_path)],
                                   index_path)

    @pytest.mark.parametrize("name", ["comparison.csv", "equity_ppo.csv"])
    def test_run_directory_file(self, tmp_path, run_dir, name):
        for path in (run_dir / "comparison.csv", run_dir / "equity_ppo.csv"):
            (tmp_path / path.name).write_bytes(path.read_bytes())
        self.spoil(tmp_path / name)
        self.assert_exits_2_naming(["report", "--out", str(tmp_path)],
                                   tmp_path / name)
        assert list(tmp_path.glob("cumret_*.csv")) == []


BOM = b"\xef\xbb\xbf"


class TestByteOrderMark:
    """A user's file that starts with a UTF-8 byte-order mark, as
    spreadsheet programs save CSV, reads as the same file without it: every
    output is byte-identical."""

    @staticmethod
    def mark(path):
        path.write_bytes(BOM + path.read_bytes())
        return path

    @staticmethod
    def backtest(cfg_path):
        result = CliRunner().invoke(main, ["backtest", "--config",
                                           str(cfg_path)])
        assert result.exit_code == 0, result.output

    @staticmethod
    def assert_same_bundle(out_dir, reference):
        # the snapshot records the input paths, which differ
        for name in BUNDLE_FILES:
            if name != "config_snapshot.ini":
                assert (out_dir / name).read_bytes() == \
                    (reference / name).read_bytes(), name

    def test_config(self, data_csv, tmp_path, run_dir):
        cfg_path, out_dir = write_config(tmp_path, data_csv)
        self.backtest(self.mark(cfg_path))
        self.assert_same_bundle(out_dir, run_dir)

    def test_bars_file(self, data_csv, tmp_path, run_dir):
        bars = tmp_path / "bars.csv"
        bars.write_bytes(data_csv.read_bytes())
        cfg_path, out_dir = write_config(tmp_path, self.mark(bars))
        self.backtest(cfg_path)
        self.assert_same_bundle(out_dir, run_dir)

    def test_index_file(self, data_csv, tmp_path):
        out_dirs = []
        for name, marked in (("plain", False), ("marked", True)):
            index_path = tmp_path / f"index_{name}.csv"
            index_path.write_text(index_from_first_trade_date("100.0"))
            if marked:
                self.mark(index_path)
            cfg_path, out_dir = write_config(tmp_path, data_csv, name)
            cfg_path.write_text(cfg_path.read_text().replace(
                "[windows]", f"index_path = {index_path}\n\n[windows]"))
            self.backtest(cfg_path)
            out_dirs.append(out_dir)
        self.assert_same_bundle(out_dirs[1], out_dirs[0])

    @pytest.mark.parametrize("name", ["comparison.csv", "equity_ppo.csv"])
    def test_run_directory_file(self, tmp_path, run_dir, name):
        outputs = []
        for label in ("plain", "marked"):
            copy = tmp_path / label
            copy.mkdir()
            for path in (run_dir / "comparison.csv",
                         run_dir / "equity_ppo.csv"):
                (copy / path.name).write_bytes(path.read_bytes())
            if label == "marked":
                self.mark(copy / name)
            result = CliRunner().invoke(main, ["report", "--out", str(copy)])
            assert result.exit_code == 0, result.output
            outputs.append((result.output.replace(str(copy), "<run dir>"),
                            (copy / "cumret_ppo.csv").read_bytes()))
        assert outputs[1] == outputs[0]


# (text in CONFIG_TEMPLATE, its replacement, a word the error must name)
BAD_CONFIGS = {
    "buffer_capacity": ("[agents]\n", "[agents]\nbuffer_capacity = 0\n",
                        "buffer_capacity"),
    "batch_size": ("batch_size = 4", "batch_size = 0", "batch_size"),
    "minibatch": ("[agents]\n", "[agents]\nminibatch = 0\n", "minibatch"),
    "initial_balance": ("initial_balance = 100000", "initial_balance = 0",
                        "initial_balance"),
    "fee_rate_negative": ("[env]\n", "[env]\nfee_rate = -0.001\n",
                          "fee_rate"),
    "fee_rate_one": ("[env]\n", "[env]\nfee_rate = 1\n", "fee_rate"),
    "h_max": ("h_max = 5", "h_max = 0", "h_max"),
    # above 2^53 raw * h_max no longer casts to int64 exactly
    "h_max_2_63": ("h_max = 5", f"h_max = {2**63}", "error: [env] h_max"),
    "validation_months": ("[windows]\n",
                          "[windows]\nvalidation_months = 0\n",
                          "validation_months"),
    "trade_months": ("[windows]\n", "[windows]\ntrade_months = 0\n",
                     "trade_months"),
    # the first validation month would lie before year 1
    "validation_months_huge": ("[windows]\n",
                               "[windows]\nvalidation_months = 1000000\n",
                               "where [windows] in_sample_end = 2018-06-30 "
                               "starts validation"),
    # a shared [agents] value is reported under [agents], not a kind's section
    "gamma": ("[agents]\n", "[agents]\ngamma = 1.5\n", "error: [agents] gamma"),
    "gamma_per_kind": ("[run]", "[agents.ppo]\ngamma = 1.5\n\n[run]",
                       "error: [agents.ppo] gamma"),
    "rollout": ("rollout = 16", "rollout = 0", "error: [agents] rollout"),
    "total_steps": ("total_steps = 40", "total_steps = -5",
                    "error: [agents] total_steps"),
    "epochs": ("[agents]\n", "[agents]\nepochs = -1\n",
               "error: [agents] epochs"),
    "warmup_steps": ("warmup_steps = 8", "warmup_steps = -3",
                     "error: [agents] warmup_steps"),
    "hidden_negative": ("hidden = 8", "hidden = 64 -3",
                        "error: [agents] hidden"),
    "hidden_zero": ("hidden = 8", "hidden = 0", "error: [agents] hidden"),
    "actor_lr_negative": ("[agents]\n", "[agents]\nactor_lr = -0.001\n",
                          "error: [agents] actor_lr"),
    "critic_lr_inf": ("[agents]\n", "[agents]\ncritic_lr = inf\n",
                      "error: [agents] critic_lr"),
    "ridge_negative": ("lookback = 60", "lookback = 60\nridge = -1",
                       "error: [turbulence] ridge"),
    "ridge_nan": ("lookback = 60", "lookback = 60\nridge = nan",
                  "error: [turbulence] ridge"),
    "macd_fast": ("[run]", "[indicators]\nmacd_fast = 30\n\n[run]",
                  "macd_fast"),
    # outside a declared range: named by section and key before any output
    "min_variance_lookback": ("min_variance_lookback = 60",
                              "min_variance_lookback = 1",
                              "error: [baselines] min_variance_lookback"),
    "reward_scale": ("[env]\n", "[env]\nreward_scale = -1\n",
                     "error: [env] reward_scale"),
    # the observation's scales are constants, no longer settings
    "obs_scale_price": ("[env]\n", "[env]\nobs_scale_price = 100\n",
                        "unknown section or key: [env] obs_scale_price"),
    # just above the finite caps: an equity curve or a reward would overflow
    "initial_balance_above_cap": ("initial_balance = 100000",
                                  "initial_balance = 1.0000000000000002e15",
                                  "error: [env] initial_balance"),
    "reward_scale_above_cap": ("[env]\n",
                               "[env]\nreward_scale = 1.0000000000000002\n",
                               "error: [env] reward_scale"),
    "noise_scale_inf": ("[agents]\n", "[agents]\nnoise_scale = inf\n",
                        "error: [agents] noise_scale"),
    "clip_epsilon_inf": ("[agents]\n", "[agents]\nclip_epsilon = inf\n",
                         "error: [agents] clip_epsilon"),
    "delimiter_two_characters": ("[windows]", "delimiter = ;;\n\n[windows]",
                                 "error: [data] delimiter"),
    "rejection_ceiling_nan": ("[windows]",
                              "rejection_ceiling = nan\n\n[windows]",
                              "error: [data] rejection_ceiling"),
    "quantile": ("lookback = 60", "lookback = 60\nquantile = 2",
                 "error: [turbulence] quantile"),
    "duplicate_key": ("seed = 3", "seed = 3\nseed = 4", "seed"),
    "unknown_key": ("[agents]\n", "[agents]\ngama = 0.5\n", "gama"),
    "unknown_section": ("[run]", "[agents.sac]\ngamma = 0.5\n\n[run]",
                        "agents.sac"),
    "no_section_header": ("[data]\n", "", "section header"),
}


def index_from_first_trade_date(first_level: str) -> str:
    """An index file with a level on each weekday from 2018-07-02, the
    first trade date of `CONFIG_TEMPLATE`, past the end of `data_csv`: the
    first is `first_level`, the others 100.0."""
    days = trading_calendar(dt.date(2018, 7, 2), 300)
    return "date,value\n" + "".join(
        f"{day.isoformat()},{first_level if t == 0 else '100.0'}\n"
        for t, day in enumerate(days))


class TestConfigUserErrors:
    """Every config error exits 2 with an `error:` line naming the cause."""

    @pytest.mark.parametrize("case", BAD_CONFIGS.values(), ids=BAD_CONFIGS)
    def test_bad_config_exits_2(self, data_csv, tmp_path, case):
        old, new, named = case
        cfg_path, out_dir = write_config(tmp_path, data_csv)
        text = cfg_path.read_text()
        assert old in text
        cfg_path.write_text(text.replace(old, new, 1))
        result = CliRunner().invoke(main, ["backtest", "--config",
                                           str(cfg_path)])
        assert result.exit_code == 2, result.output
        assert "error:" in result.stderr
        assert named in result.stderr
        assert "Traceback" not in result.output
        assert not (out_dir / "config_snapshot.ini").exists()

    @pytest.mark.parametrize("index_csv, named", [
        ("date,level\n2017-01-02,100.0\n", "needs date and value"),
        ("date,value\n2017-01-02,100.0\n2017-01-03,n/a\n", "line 3"),
        ("date,value\n2017-01-02,100.0\n2017-01-02,101.0\n",
         "line 3: date 2017-01-02 repeats line 2"),
        # blank lines are skipped rows but still physical lines
        ("date,value\n\n2017-01-02,100.0\n\n2017-01-03,n/a\n", "line 5"),
        # well formed, but ends before the first trade date
        ("date,value\n2017-01-02,100.0\n2017-01-03,101.0\n",
         "has no value for trade date 2018-07-02"),
        # a level on every trade date, the first not positive and finite
        *((index_from_first_trade_date(level),
           f"line 2: level {float(level)} is not positive and finite")
          for level in ("nan", "0", "-5", "inf")),
    ], ids=["missing_column", "bad_row", "duplicate_date",
            "bad_row_after_blank_lines",
            "index_lacks_a_trade_date", "level_nan", "level_zero",
            "level_negative", "level_inf"])
    def test_bad_index_file_exits_2(self, data_csv, tmp_path, index_csv,
                                    named):
        index_path = tmp_path / "index.csv"
        index_path.write_text(index_csv)
        cfg_path, out_dir = write_config(tmp_path, data_csv)
        cfg_path.write_text(cfg_path.read_text().replace(
            "[windows]", f"index_path = {index_path}\n\n[windows]"))
        result = CliRunner().invoke(main, ["backtest", "--config",
                                           str(cfg_path)])
        assert result.exit_code == 2, result.output
        assert "error:" in result.stderr
        assert f"{index_path} {named}" in result.stderr
        # the file is checked before the first quarter trains
        written = [p.name for p in out_dir.glob("*.csv")]
        assert not [n for n in written
                    if n.startswith(("equity_", "trades_", "trace"))], written
