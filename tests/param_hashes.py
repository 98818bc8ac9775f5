"""Print SHA-256 prefixes of trained agent parameters, of the set-up
outputs and of a backtest bundle, one line each.

A bit-identity check for changes to the training, set-up or output code:
run it before and after a change, from the repository root,

    PYTHONPATH=src python tests/param_hashes.py

and compare the lines. Each kind trains on window (50, 150) of a 3-asset
synthetic panel with seed 7, then a second agent warm-started from it
trains on window (50, 250) with seed 8; the hash covers the second
agent's `parameters()`. The `_D30` lines hash one agent of each kind
trained at the paper's width, on window (50, 200) of a 30-asset panel
with seed 7 and a 96-step budget. The set-up lines hash the six `load_bars` fields
of a generated 8-asset CSV, and `build_features()` and
`rolling_turbulence` of `make_panel` at D=8 and at D=30. The `bundle`
line hashes the 14 deterministic files of an in-process `rlfolio
backtest` of a 3-asset `make_panel` CSV (seed 12, tiny agents, four
quarters). The bytes depend on the BLAS build and the CPU, so compare
runs on one machine. The name keeps pytest from collecting it.
"""
import datetime as dt
import hashlib
from dataclasses import replace
from pathlib import Path

# rlfolio before numpy, so BLAS runs on one thread, as in the program
from rlfolio.agents import AGENT_KINDS, AgentConfig, train_agent
from rlfolio.cli import main
from rlfolio.env import TradingEnv
from rlfolio.indicators import build_features
from rlfolio.market_data import BAR_FIELDS, load_bars
from rlfolio.turbulence import rolling_turbulence

import numpy as np
from click.testing import CliRunner

from helpers import csv_stream, make_panel, panel_to_csv

CONFIG = AgentConfig(hidden=(16, 16), rollout=64, warmup_steps=32,
                     batch_size=16, total_steps=450, minibatch=16, epochs=2)
WIDE_CONFIG = replace(CONFIG, total_steps=96)
BACKTEST_CONFIG = """\
[data]
path = bars.csv
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
out_dir = bundle
[baselines]
min_variance_lookback = 60
"""
STRATEGIES = ("ensemble", "ppo", "a2c", "ddpg", "min_variance", "index")
BUNDLE_FILES = ("config_snapshot.ini", "trace.csv", "comparison.csv",
                *(f"equity_{s}.csv" for s in STRATEGIES),
                *(f"trades_{s}.csv" for s in STRATEGIES[:4]), "rejections.csv")


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def param_hashes() -> dict[str, str]:
    panel = make_panel(D=3, T=400, seed=1)
    features = build_features(panel)
    hashes = {}
    for kind in AGENT_KINDS:
        donor = train_agent(kind, TradingEnv(panel, features, (50, 150)),
                            CONFIG, seed=7)
        agent = train_agent(kind, TradingEnv(panel, features, (50, 250)),
                            CONFIG, seed=8, warm_start=donor)
        hashes[kind] = _digest(np.concatenate(agent.parameters()))
    wide = make_panel(D=30, T=300, seed=1)
    wide_features = build_features(wide)
    for kind in AGENT_KINDS:
        agent = train_agent(kind, TradingEnv(wide, wide_features, (50, 200)),
                            WIDE_CONFIG, seed=7)
        hashes[f"{kind}_D30"] = _digest(np.concatenate(agent.parameters()))
    return hashes


def setup_hashes() -> dict[str, str]:
    loaded, _ = load_bars(csv_stream(panel_to_csv(make_panel(D=8, T=600,
                                                             seed=2))), 0.01)
    hashes = {"load_bars": _digest(*(loaded.field(f) for f in BAR_FIELDS))}
    for D in (8, 30):
        panel = make_panel(D=D, T=600, seed=1)
        hashes[f"build_features_D{D}"] = _digest(build_features(panel))
        hashes[f"rolling_turbulence_D{D}"] = _digest(rolling_turbulence(panel))
    return hashes


def bundle_hash() -> dict[str, str]:
    runner = CliRunner()
    # relative paths, so the config snapshot does not name the directory
    with runner.isolated_filesystem():
        Path("bars.csv").write_text(panel_to_csv(
            make_panel(D=3, T=600, seed=12, start=dt.date(2017, 1, 1))))
        Path("run.ini").write_text(BACKTEST_CONFIG)
        result = runner.invoke(main, ["backtest", "--config", "run.ini"])
        if result.exit_code != 0:
            raise SystemExit(f"backtest failed: {result.output}")
        h = hashlib.sha256()
        for name in BUNDLE_FILES:
            data = (Path("bundle") / name).read_bytes()
            h.update(name.encode() + b"\0" + len(data).to_bytes(8, "little")
                     + data)
    return {"bundle": h.hexdigest()[:16]}


if __name__ == "__main__":
    for name, digest in {**param_hashes(), **setup_hashes(),
                         **bundle_hash()}.items():
        print(f"{name} {digest}")
