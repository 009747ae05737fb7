"""Each narrative demo runs to completion against the public API."""
import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    res = subprocess.run([sys.executable, path], capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()
