import datetime as dt
from pathlib import Path

import pytest
from click.testing import CliRunner

from rlfolio.cli import main
from rlfolio.config import load_config, snapshot_config
from rlfolio.errors import InputInvalid

from helpers import make_panel, panel_to_csv

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


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "bars.csv"
    panel = make_panel(D=2, T=600, seed=12, start=dt.date(2017, 1, 1))
    path.write_text(panel_to_csv(panel))
    return path


def write_config(tmp_path, data_csv, name="run"):
    out_dir = tmp_path / name
    cfg_path = tmp_path / f"{name}.ini"
    cfg_path.write_text(CONFIG_TEMPLATE.format(data_path=data_csv,
                                               out_dir=out_dir))
    return cfg_path, out_dir


class TestConfig:
    def test_defaults(self, data_csv):
        cfg = load_config(f"[data]\npath = {data_csv}\n")
        assert cfg.in_sample_end == dt.date(2015, 12, 31)
        assert cfg.env.initial_balance == 1_000_000.0
        assert cfg.env.fee_rate == 0.001
        assert cfg.turbulence_lookback == 252
        assert set(cfg.agent_configs) == {"PPO", "A2C", "DDPG"}

    def test_kind_specific_override(self, data_csv):
        text = (f"[data]\npath = {data_csv}\n"
                "[agents]\ngamma = 0.95\n"
                "[agents.ppo]\nclip_epsilon = 0.1\n")
        cfg = load_config(text)
        assert cfg.agent_configs["PPO"].clip_epsilon == 0.1
        assert cfg.agent_configs["PPO"].gamma == 0.95
        assert cfg.agent_configs["A2C"].gamma == 0.95
        assert cfg.agent_configs["DDPG"].clip_epsilon == 0.2

    def test_missing_data_path(self):
        with pytest.raises(InputInvalid):
            load_config("[run]\nseed = 1\n")

    def test_missing_file(self):
        with pytest.raises(InputInvalid):
            load_config("/nonexistent/config.ini")

    def test_snapshot_roundtrip(self, data_csv, tmp_path):
        cfg_path, _ = write_config(tmp_path, data_csv)
        cfg = load_config(cfg_path)
        again = load_config(snapshot_config(cfg))
        assert again.seed == cfg.seed
        assert again.env == cfg.env
        assert again.agent_configs == cfg.agent_configs
        assert again.in_sample_end == cfg.in_sample_end


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

    def test_trace_has_one_row_per_quarter(self, run_dir):
        lines = (run_dir / "trace.csv").read_text().strip().splitlines()
        assert lines[0].startswith("window,validation_start")
        assert len(lines) >= 3  # header + at least two quarters
        for line in lines[1:]:
            picked = line.split(",")[8]
            assert picked in ("PPO", "A2C", "DDPG")

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
        cfg_path, _ = write_config(tmp_path, data_csv)
        # two assets need a lookback of at least three days
        cfg_path.write_text(cfg_path.read_text().replace(
            "[turbulence]\nlookback = 60", "[turbulence]\nlookback = 2"))
        result = CliRunner().invoke(main, ["backtest", "--config",
                                           str(cfg_path)])
        assert result.exit_code == 2, result.output
        assert "error:" in result.stderr

    def test_negative_seed_exits_2(self, data_csv, tmp_path):
        cfg_path, _ = write_config(tmp_path, data_csv)
        result = CliRunner().invoke(main, ["backtest", "--config",
                                           str(cfg_path), "--seed", "-1"])
        assert result.exit_code == 2, result.output
        assert "error:" in result.stderr
