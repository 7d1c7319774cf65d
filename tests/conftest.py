"""Shared fixtures for the test suite."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import zdg


@pytest.fixture
def child_env() -> dict[str, str]:
    """Environment for a child interpreter that imports the `zdg` under test.

    `PYTHONPATH` starts with the directory holding the imported package and
    keeps any existing entries after it, so a child runs this code whether or
    not the package is installed, and from any working directory.
    """
    src = str(Path(zdg.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


@pytest.fixture
def run_optimized(child_env):
    """Run a Python script in a child interpreter started with -O.

    Returns the CompletedProcess with text stdout and stderr.  Checks that
    must survive -O are exercised this way, since pytest itself runs
    without it.
    """

    def run(script: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env=child_env,
        )

    return run
