"""A scenario run loads neither numpy nor the byte-level erasure codec.

The simulator tracks cell identities; bytes and the Reed-Solomon codec
belong to the oracle tests only. A re-export that pulls ``repro.erasure``
(and with it numpy) into the run path makes every run pay numpy's
import time and resident memory, so this pins the run path's imports
in a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

RUN = """
import json, sys
from repro.experiments.scenario import Scenario, ScenarioConfig
from repro.params import PandasParams

scenario = Scenario(
    ScenarioConfig(num_nodes=60, params=PandasParams.reduced(16), seed=3, slots=1)
).run()
print(json.dumps({
    "events": scenario.sim.events_processed,
    "loaded": [m for m in ("numpy", "repro.erasure") if m in sys.modules],
}))
"""


def test_scenario_run_never_imports_numpy_or_the_codec():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", RUN],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["events"] > 0
    assert result["loaded"] == []
