"""Smoke tests: every shipped example runs to completion.

Examples are the documentation users execute first, so they are part of
the test surface.  Each runs in a subprocess with a generous timeout.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[1] / "examples"
EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def test_expected_examples_present():
    assert {"quickstart.py", "forests_in_cities.py", "join_tuning.py",
            "persistence_and_recovery.py", "containment_and_knn.py",
            "spatial_database.py"} <= set(EXAMPLES)


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name):
    script = EXAMPLES_DIR / name
    args = [sys.executable, str(script)]
    if name == "join_tuning.py":
        args.append("0.01")     # smaller scale for the smoke run
    completed = subprocess.run(
        args, capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip(), "examples must narrate their work"
