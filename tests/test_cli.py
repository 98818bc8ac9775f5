import configparser
import csv
import datetime as dt
import math
import re
import typing
from dataclasses import fields

import numpy as np
import pytest
from click.testing import CliRunner

from rlfolio.agents import AGENT_KINDS, AgentConfig
from rlfolio import cli, config
from rlfolio.cli import main
from rlfolio.config import (RunConfig, load_config, parse_config,
                            snapshot_config)
from rlfolio.ensemble import pick_best
from rlfolio.env import EnvConfig, ObsScaling
from rlfolio.errors import UserError
from rlfolio.indicators import IndicatorConfig
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
obs_scale_price = 10.0
obs_scale_macd = 20.0
obs_scale_rsi = 30.0
obs_scale_cci = 40.0
obs_scale_adx = 50.0

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
    for section, cls, keys in config._SECTIONS:
        hints = typing.get_type_hints(cls)
        for key, name in keys.items():
            interval = interval_of(cls, name)
            if interval is None:
                continue
            integral = int in (hints[name], *typing.get_args(hints[name]))
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
        assert cfg.in_sample_end == dt.date(2015, 12, 31)
        assert cfg.env.initial_balance == 1_000_000.0
        assert cfg.env.fee_rate == 0.001
        assert cfg.turbulence_lookback == 252
        assert set(cfg.agent_configs) == {"PPO", "A2C", "DDPG"}

    def test_kind_specific_override(self, data_csv):
        text = (f"[data]\npath = {data_csv}\n"
                "[agents]\ngamma = 0.95\n"
                "[agents.ppo]\nclip_epsilon = 0.1\n")
        cfg = parse_config(text)
        assert cfg.agent_configs["PPO"].clip_epsilon == 0.1
        assert cfg.agent_configs["PPO"].gamma == 0.95
        assert cfg.agent_configs["A2C"].gamma == 0.95
        assert cfg.agent_configs["DDPG"].clip_epsilon == 0.2

    def test_huge_finite_learning_rate_accepted(self, data_csv):
        # any positive finite rate is a valid setting, however it trains
        cfg = parse_config(f"[data]\npath = {data_csv}\n"
                           "[agents]\ncritic_lr = 1e200\n")
        assert cfg.agent_configs["DDPG"].critic_lr == 1e200

    @pytest.mark.parametrize("text, ridge", [("", None), ("0", 0.0),
                                             ("1e-6", 1e-6)])
    def test_ridge_bounds(self, data_csv, text, ridge):
        # empty keeps the trace-scaled default; zero is a valid ridge
        cfg = parse_config(f"[data]\npath = {data_csv}\n"
                           f"[turbulence]\nridge = {text}\n")
        assert cfg.turbulence_ridge == ridge

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
        assert again.seed == cfg.seed
        assert again.env == cfg.env
        assert again.agent_configs == cfg.agent_configs
        assert again.in_sample_end == cfg.in_sample_end

    def test_percent_in_values_is_literal(self, tmp_path):
        path = str(tmp_path / "bars%20.csv")
        cfg = parse_config(f"[data]\npath = {path}\n[run]\nout_dir = out%%\n")
        assert cfg.data_path == path
        assert cfg.out_dir == "out%%"
        again = parse_config(snapshot_config(cfg))
        assert again == cfg

    def test_snapshot_roundtrip_every_key(self):
        cfg = parse_config(EVERY_KEY_CONFIG)
        defaults = [(cfg, RunConfig(data_path="")), (cfg.env, EnvConfig()),
                    (cfg.env.obs_scaling, ObsScaling()),
                    (cfg.indicators, IndicatorConfig())]
        defaults += [(cfg.agent_configs[k], AgentConfig()) for k in AGENT_KINDS]
        for obj, default in defaults:
            for f in fields(obj):
                assert getattr(obj, f.name) != getattr(default, f.name), f.name

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
        assert keys["env"] == (
            {f.name for f in fields(EnvConfig)} - {"obs_scaling"}
            | {f"obs_scale_{f.name}" for f in fields(ObsScaling)})
        assert keys["indicators"] == {f.name for f in fields(IndicatorConfig)}
        assert keys["turbulence"] == {"lookback", "quantile", "ridge"}
        for kind in AGENT_KINDS:
            assert keys[f"agents.{kind.lower()}"] == {
                f.name for f in fields(AgentConfig)}
        assert keys["run"] == {"seed", "out_dir"}
        assert keys["baselines"] == {"min_variance_lookback"}


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
        plan = build_window_plan(panel, cfg.in_sample_end,
                                 cfg.validation_months, cfg.trade_months)
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
        assert cfg.seed == 3

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


class TestExitCodes:
    """0 for success, 2 for a user error, 1 for a program fault."""

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
        interval = interval_of(RunConfig, "min_variance_lookback")
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

    # the built-in types the program raises on a fault; a plain
    # `ValueError` exits 1, though `SettingInvalid`, also a `UserError`,
    # exits 2
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
    "validation_months": ("[windows]\n",
                          "[windows]\nvalidation_months = 0\n",
                          "validation_months"),
    "trade_months": ("[windows]\n", "[windows]\ntrade_months = 0\n",
                     "trade_months"),
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
    "obs_scale_price": ("[env]\n", "[env]\nobs_scale_price = -1\n",
                        "error: [env] obs_scale_price"),
    "noise_scale_inf": ("[agents]\n", "[agents]\nnoise_scale = inf\n",
                        "error: [agents] noise_scale"),
    "clip_epsilon_inf": ("[agents]\n", "[agents]\nclip_epsilon = inf\n",
                         "error: [agents] clip_epsilon"),
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
