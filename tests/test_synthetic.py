import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from efgtp import is_connected, random_geometric_network

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf, 2.0**511])
def test_bad_scale_rejected_before_drawing(scale):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        message = f"scale must be positive and at most 2**510, got {scale}"
        with pytest.raises(ValueError, match=re.escape(message)):
            random_geometric_network(10, 15, seed=1, scale=scale)


# the smallest scale whose coincident-point weight scale * 1e-12 is positive
SMALLEST_SCALE = 2.47032822921e-312


@pytest.mark.parametrize("scale", [5e-324, float(np.nextafter(SMALLEST_SCALE, 0.0))])
def test_scale_whose_coincident_weight_underflows_rejected(scale):
    message = (
        "scale must be large enough that scale * 1e-12, the weight of an edge "
        f"between coincident points, is positive, got {scale}"
    )
    with pytest.raises(ValueError, match=re.escape(message)):
        random_geometric_network(10, 15, seed=1, scale=scale)


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


@pytest.mark.parametrize("scale", [SMALLEST_SCALE, 1e-300, 2.0**510])
def test_extreme_scales_build(scale):
    net = random_geometric_network(60, 150, seed=3, scale=scale)
    assert net.edge_count == 150 and is_connected(net)
    assert all(0.0 < w < math.inf for _, _, w in net.edges)


def test_import_skips_scipy_spatial():
    # the k-d tree is imported where a network is generated, not with the package
    code = "import sys, efgtp; print('scipy.spatial' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
