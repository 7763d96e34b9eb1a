"""Import the benchmark modules and floqnet from this checkout.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
for path in (ROOT / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import floqnet  # noqa: E402
import floqnet.cli  # noqa: E402,F401


@pytest.fixture(scope="session")
def fq():
    return floqnet


@pytest.fixture(scope="session")
def vdp(fq):
    model = fq.vdp_model(1.0)
    return model, fq.find_limit_cycle(model)
