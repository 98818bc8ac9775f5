"""What the benchmark under `perfbench/` reads from the package, checked
from the package's side: its environment fingerprint imports `rlfolio`
from the checkout and records `KERNEL_BACKEND`."""
import sys
from pathlib import Path

import rlfolio

REPO = Path(__file__).resolve().parents[1]


def test_fingerprint_reads_the_checkout():
    sys.path.insert(0, str(REPO / "perfbench"))
    try:
        import run
    finally:
        sys.path.remove(str(REPO / "perfbench"))
    fp = run.fingerprint(REPO)
    assert fp["kernel_backend"] == rlfolio.KERNEL_BACKEND == "python"
    assert fp["numpy"] and fp["python"] and fp["commit"]
