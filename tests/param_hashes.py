"""Print SHA-256 prefixes of trained agent parameters and of the set-up
outputs, one line each.

A bit-identity check for changes to the training or set-up code: run it
before and after a change, from the repository root,

    PYTHONPATH=src python tests/param_hashes.py

and compare the lines. Each kind trains on window (50, 150) of a 3-asset
synthetic panel with seed 7, then a second agent warm-started from it
trains on window (50, 250) with seed 8; the hash covers the second
agent's `parameters()`. The set-up lines hash the six `load_bars` fields
of a generated 8-asset CSV, and `build_features().block` and
`rolling_turbulence` of `make_panel` at D=8 and at D=30. The bytes depend
on the BLAS build and the CPU, so compare runs on one machine. The name
keeps pytest from collecting it.
"""
import hashlib

import numpy as np

from rlfolio.agents import AGENT_KINDS, AgentConfig, train_agent
from rlfolio.env import TradingEnv
from rlfolio.indicators import build_features
from rlfolio.market_data import BAR_FIELDS, load_bars
from rlfolio.turbulence import rolling_turbulence

from helpers import csv_stream, make_panel, panel_to_csv

CONFIG = AgentConfig(hidden=(16, 16), rollout=64, warmup_steps=32,
                     batch_size=16, total_steps=450, minibatch=16, epochs=2)


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
    return hashes


def setup_hashes() -> dict[str, str]:
    loaded, _ = load_bars(csv_stream(panel_to_csv(make_panel(D=8, T=600,
                                                             seed=2))))
    hashes = {"load_bars": _digest(*(loaded.field(f) for f in BAR_FIELDS))}
    for D in (8, 30):
        panel = make_panel(D=D, T=600, seed=1)
        hashes[f"build_features_D{D}"] = _digest(build_features(panel).block)
        hashes[f"rolling_turbulence_D{D}"] = _digest(rolling_turbulence(panel))
    return hashes


if __name__ == "__main__":
    for name, digest in {**param_hashes(), **setup_hashes()}.items():
        print(f"{name} {digest}")
