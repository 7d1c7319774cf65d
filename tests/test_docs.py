"""The documentation's Python examples run as written."""
from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)


@pytest.mark.parametrize("doc", ["README.md", "PAPER.md"])
def test_python_blocks_run(tmp_path, child_env, doc):
    blocks = _PYTHON_BLOCK.findall((_ROOT / doc).read_text())
    assert blocks, f"{doc} has no python block"
    for block in blocks:
        proc = subprocess.run(
            [sys.executable, "-c", block],
            capture_output=True,
            text=True,
            env=child_env,
            cwd=tmp_path,
            timeout=60,
        )
        assert proc.returncode == 0, f"{doc}:\n{block}\n{proc.stderr}"
