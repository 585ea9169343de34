"""Smoke test: every demo (01-05) runs to completion and leaves no files
behind.  Demo 05 runs a multimesh and a singlemesh solve end to end, through
the union pass that recombines the solution."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
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
