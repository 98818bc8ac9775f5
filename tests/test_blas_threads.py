"""`import rlfolio` runs BLAS on one thread unless the caller set a thread
variable, so trained bits do not depend on the machine's core count. Each
case runs in a fresh interpreter, since BLAS reads its thread variables
once, when numpy is first imported. The last cases check what
`import rlfolio.cli` loads."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TESTS = Path(__file__).resolve().parent

# A D=30 (Dow-30 width) DDPG run: its 64-row batches through 64-wide nets
# are large enough for a BLAS pool to split.
TRAIN_DDPG = """
import hashlib
import rlfolio
import numpy as np
from helpers import make_panel
from rlfolio.agents import train_agent
from rlfolio.agents.common import AgentConfig
from rlfolio.env import TradingEnv
from rlfolio.indicators import build_features

panel = make_panel(D=30, T=200, seed=1)
env = TradingEnv(panel, build_features(panel), (20, 180))
config = AgentConfig(total_steps=160, warmup_steps=64, batch_size=64)
agent = train_agent("DDPG", env, config, seed=7)
print(hashlib.sha256(np.concatenate(agent.parameters()).tobytes()).hexdigest())
"""


def run_python(code: str, **blas_vars: str) -> str:
    """Run `code` in a fresh interpreter whose environment has no BLAS
    thread variable except `blas_vars`; return its standard output."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(blas_vars)
    env["PYTHONPATH"] = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])
    done = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                          capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_trained_bits_do_not_depend_on_the_core_count():
    default = run_python(TRAIN_DDPG)
    assert len(default) == 64
    assert default == run_python(TRAIN_DDPG, OPENBLAS_NUM_THREADS="1")


@pytest.mark.parametrize("imports, blas_vars, expected", [
    ("rlfolio", {}, "1 1 1"),
    ("rlfolio", {"OPENBLAS_NUM_THREADS": "2"}, "2 None None"),
    ("rlfolio", {"OMP_NUM_THREADS": "3"}, "None 3 None"),
    # numpy first: too late to reach BLAS, so the environment, which child
    # processes inherit, keeps what the caller set
    ("numpy, rlfolio", {}, "None None None"),
    # the test session and the probes built on the test helpers pin too
    ("conftest", {}, "1 1 1"),
    ("helpers", {}, "1 1 1"),
])
def test_pin_only_before_numpy_and_when_the_caller_set_none(imports, blas_vars,
                                                             expected):
    code = (f"import os, {imports}; "
            f"print(*(os.environ.get(v) for v in {BLAS_VARS!r}))")
    assert run_python(code, **blas_vars) == expected


def test_import_leaves_numpy_unimported():
    # The pin works only if it runs before numpy loads BLAS.
    code = "import sys, rlfolio; print('numpy' in sys.modules)"
    assert run_python(code) == "False"


def test_cli_import_loads_numpy_random():
    # numpy.random's import then counts in set-up, not in the first
    # quarter's training
    code = "import sys, rlfolio.cli; print('numpy.random' in sys.modules)"
    assert run_python(code) == "True"


def test_cli_import_leaves_logging_unimported():
    # the CLI prints its notices with click, so no run pays for importing
    # `logging` (about 6 ms of `-X importtime`)
    code = "import sys, rlfolio.cli; print('logging' in sys.modules)"
    assert run_python(code) == "False"
