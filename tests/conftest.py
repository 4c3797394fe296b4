"""Fixtures shared across test modules."""

import time

import pytest

from maskdg import checks


@pytest.fixture(scope="session")
def oracle_runs():
    """One run of each `checks.ORACLES` routine at seed 0, as `maskdg
    oracle` runs them: {name: (result, wall seconds)}. Criteria 2-5 and the
    oracle CLI test assert on these instead of recomputing them."""
    runs = {}
    for name, oracle in checks.ORACLES.items():
        start = time.monotonic()
        result = oracle(0)
        runs[name] = (result, time.monotonic() - start)
    return runs
