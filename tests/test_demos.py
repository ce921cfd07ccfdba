"""The demos run end to end against this checkout's library.

Each demo runs from a copy of demos/ and data/ in a temporary directory,
so the files a demo writes next to itself stay out of the checkout.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0*.py"))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("demos")
    for name in ("demos", "data"):
        shutil.copytree(ROOT / name, root / name, ignore=shutil.ignore_patterns("*.csv"))
    return root


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(workdir, demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(workdir / "demos" / demo)],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
