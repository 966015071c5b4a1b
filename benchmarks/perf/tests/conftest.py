"""Harness self-tests: `pytest benchmarks/perf/tests -q`.

Outside tier-1's ``testpaths`` on purpose — these test the benchmark,
not the simulator.
"""

import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parents[1]
if str(PERF_DIR) not in sys.path:
    sys.path.insert(0, str(PERF_DIR))
