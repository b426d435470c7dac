"""Put the benchmark's modules and the splitlq sources on the path.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]
