"""Every demo script and the README quick start run against the package in ``src``."""

import doctest
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import child_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    done = subprocess.run([sys.executable, str(demo)], capture_output=True, env=child_env())
    assert done.returncode == 0, done.stderr.decode()[-2000:]


def test_readme_examples_pass():
    results = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert results.attempted == 10
    assert results.failed == 0
