import sys
from pathlib import Path

import rlfolio  # noqa: F401  # before numpy: BLAS runs on one thread

sys.path.insert(0, str(Path(__file__).parent))
