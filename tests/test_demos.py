"""Smoke test: the quick demos (01-04) run to completion and leave no files
behind.  Demo 05 runs two whole adaptive solves and is left out for time."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK_DEMOS = sorted((ROOT / "demos").glob("0[1234]_*.py"))


def test_quick_demos_found():
    assert len(QUICK_DEMOS) == 4


@pytest.mark.parametrize("demo", QUICK_DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    # demo files written to the temporary directory land under tmp_path
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert not any(tmp_path.iterdir()), sorted(p.name for p in tmp_path.iterdir())
