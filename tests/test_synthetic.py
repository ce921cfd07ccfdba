import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from efgtp import random_geometric_network

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_bad_seed_rejected(seed):
    message = f"seed must be a non-negative integer, got {seed}"
    with pytest.raises(ValueError, match=re.escape(message)):
        random_geometric_network(10, 15, seed=seed)


@pytest.mark.parametrize("n", [2, 3, 7, 13, 14, 20])
def test_complete_graph_widening_ends(n):
    m = n * (n - 1) // 2
    net = random_geometric_network(n, m, seed=n)
    assert sorted((u, v) for u, v, _ in net.edges) == [
        (u, v) for u in range(n) for v in range(u + 1, n)
    ]


def test_import_skips_scipy_spatial():
    # the k-d tree is imported where a network is generated, not with the package
    code = "import sys, efgtp; print('scipy.spatial' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
