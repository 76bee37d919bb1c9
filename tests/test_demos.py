"""Every demo script and the README quick start run against the package in ``src``."""

import doctest
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env)
    assert done.returncode == 0, done.stderr.decode()[-2000:]


def test_readme_examples_pass():
    results = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert results.attempted == 10
    assert results.failed == 0
