"""Smoke test for the demos: they run and print what they promise.

Demo 03's last line pins the branch and bound's node count end to end, and
demo 04's n = 12 rows pin both experiment series' means.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name, expected", [
    ("01_chip_firing_basics.py", ()),
    ("02_gonality_and_certificates.py", ("certificate verifies: True", "(effective: True)")),
    ("03_bounds_sandwich.py", ("branch and bound found 25 (exact, 4740 nodes)",)),
    ("04_random_graph_experiment.py", (
        "12,3.4641016151377544,40,0.4104166666666666,0.08520860107997139,",
        "12,10.8,40,0.8166666666666662,0.033757978902788886,",
        "every row's seed is a pure mix of (master seed, n, trial).",
    )),
])
def test_demo_runs(name, expected):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for text in expected:
        assert text in proc.stdout
