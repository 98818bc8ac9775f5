"""What the benchmark under `perfbench/` reads from the package, checked
from the package's side: its environment fingerprint imports `rlfolio`
from the checkout and records `KERNEL_BACKEND`, and its digest reads only
files that `backtest` writes."""
import sys
from pathlib import Path

import rlfolio

import param_hashes

REPO = Path(__file__).resolve().parents[1]


def perfbench_run():
    """perfbench's `run` module, imported from the checkout."""
    sys.path.insert(0, str(REPO / "perfbench"))
    try:
        import run
    finally:
        sys.path.remove(str(REPO / "perfbench"))
    return run


def test_fingerprint_reads_the_checkout():
    fp = perfbench_run().fingerprint(REPO)
    assert fp["kernel_backend"] == rlfolio.KERNEL_BACKEND == "python"
    assert fp["numpy"] and fp["python"] and fp["commit"]


def test_digest_reads_only_bundle_files():
    # a bundle file renamed or dropped in the program fails here, not as a
    # `missing` run in the benchmark
    assert set(perfbench_run().BUNDLE_FILES) <= set(param_hashes.BUNDLE_FILES)
