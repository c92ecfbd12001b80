"""The ``mypy --strict`` gate on the typed core, run where mypy exists.

CI's ``static-analysis`` job runs the same command.  The build image has no
mypy, so there this test is a *visible* skip (``pytest -rs``) rather than a
gate silently "checked by hand".
"""

import importlib.util
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TYPED_CORE = ["src/repro/sim", "src/repro/core", "src/repro/dht"]


def test_mypy_strict_on_the_typed_core():
    if importlib.util.find_spec("mypy") is None:
        pytest.skip("mypy not installed — strict gate unverified")
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--strict", *TYPED_CORE],
        cwd=ROOT, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
