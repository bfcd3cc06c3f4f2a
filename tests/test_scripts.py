"""Smoke test of the demo script: it runs every bundled example through
the library and must keep printing the golden reducts."""

import os
import subprocess
import sys

import pytest

from conftest import golden_path

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts",
                      "run_problems.py")


@pytest.mark.parametrize("trace", [False, True])
def test_run_problems_prints_golden_reducts(trace):
    argv = [sys.executable, SCRIPT] + (["--trace"] if trace else [])
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(golden_path("run_problems.out")) as f:
        assert proc.stdout == f.read()
    traced = [line for line in proc.stderr.splitlines()
              if line.startswith("   | ")]
    assert bool(traced) == trace
    assert len(traced) == len(proc.stderr.splitlines())
