"""Every walkthrough under ``examples/`` runs to a zero exit.

The closure test in tests/test_package_layers.py lets go of any
``src/`` module no command reaches; an example that still imported one
would break silently without this run.  Each script runs in its own
interpreter with ``PYTHONPATH=src``, as the README runs it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted(path.name for path in (ROOT / "examples").glob("*.py"))


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, str(ROOT / "examples" / name)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip(), f"{name} printed nothing"
