"""The runnable examples: each is a documented entry point to the public
API, so each must still run to completion against the current library.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))


@pytest.mark.parametrize(
    "example",
    ["quickstart.py", "protocol_zoo.py", "key_transport.py", "reflection_attack.py"],
)
def test_example_runs(example):
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else f"{src}{os.pathsep}{path}")
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "examples", example)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()
