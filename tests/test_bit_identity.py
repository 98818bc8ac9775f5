"""The bit-identity gate: the lines `tests/param_hashes.py` prints, checked
against a table of the values recorded on each machine.

The bytes of trained parameters, set-up outputs and the backtest bundle
depend on the Python and numpy versions, the BLAS build and the CPU, so the
table is keyed by a fingerprint of those. On a machine with no row the test
skips and names its fingerprint; run `PYTHONPATH=src python
tests/param_hashes.py` there on a trusted commit to make the row. A change
that alters these bits edits the rows in the same diff and says why.
"""
import platform

import numpy as np
import pytest

from param_hashes import bundle_hash, param_hashes, setup_hashes


def fingerprint() -> str:
    """Python and numpy versions, the BLAS build, the machine type and the
    SIMD extensions numpy found on this CPU."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return " ".join([f"python-{platform.python_version()}",
                     f"numpy-{np.__version__}",
                     f"{blas['name']}-{blas['version']}", platform.machine(),
                     "+".join(config["SIMD Extensions"]["found"])])


EXPECTED = {
    "python-3.11.7 numpy-2.4.6 scipy-openblas-0.3.31.188.0 x86_64 "
    "X86_V3+X86_V4+AVX512_ICL+AVX512_SPR": {
        "PPO": "70dfc18a76f0c3f1",
        "A2C": "44e2f592a3399901",
        "DDPG": "114fc51237025604",
        "PPO_D30": "a1ecd0cd0a7140d6",
        "A2C_D30": "b90b363920693b91",
        "DDPG_D30": "df2d2ddb01dd06f6",
        "load_bars": "25607618d048df05",
        "build_features_D8": "65230011ef7f3865",
        "rolling_turbulence_D8": "f0ac0a8325a15abd",
        "build_features_D30": "b722f55a0d82e79c",
        "rolling_turbulence_D30": "9b99e28378710b7b",
        "bundle": "a9d9bd4a9a2d5d25",
    },
}


def test_hashes_match_the_recorded_row():
    key = fingerprint()
    if key not in EXPECTED:
        pytest.skip(f"no recorded hashes for fingerprint {key!r}")
    assert {**param_hashes(), **setup_hashes(), **bundle_hash()} == \
        EXPECTED[key]
