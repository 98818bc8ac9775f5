"""Print SHA-256 prefixes of trained agent parameters, one line per kind.

A bit-identity check for changes to the training code: run it before and
after a change, from the repository root,

    PYTHONPATH=src python tests/param_hashes.py

and compare the lines. Each kind trains on window (50, 150) of a 3-asset
synthetic panel with seed 7, then a second agent warm-started from it
trains on window (50, 250) with seed 8; the hash covers the second
agent's `parameters()`. The bytes depend on the BLAS build and the CPU, so
compare runs on one machine. The name keeps pytest from collecting it.
"""
import hashlib

import numpy as np

from rlfolio.agents import AGENT_KINDS, AgentConfig, train_agent
from rlfolio.env import TradingEnv
from rlfolio.indicators import build_features

from helpers import make_panel

CONFIG = AgentConfig(hidden=(16, 16), rollout=64, warmup_steps=32,
                     batch_size=16, total_steps=450, minibatch=16, epochs=2)


def param_hashes() -> dict[str, str]:
    panel = make_panel(D=3, T=400, seed=1)
    features = build_features(panel)
    hashes = {}
    for kind in AGENT_KINDS:
        donor = train_agent(kind, TradingEnv(panel, features, (50, 150)),
                            CONFIG, seed=7)
        agent = train_agent(kind, TradingEnv(panel, features, (50, 250)),
                            CONFIG, seed=8, warm_start=donor)
        digest = hashlib.sha256(np.concatenate(agent.parameters()).tobytes())
        hashes[kind] = digest.hexdigest()[:16]
    return hashes


if __name__ == "__main__":
    for kind, digest in param_hashes().items():
        print(f"{kind} {digest}")
