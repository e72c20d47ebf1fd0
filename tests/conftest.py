"""Every test starts and ends with cold process-wide caches, so no test
depends on what an earlier one left behind, whatever the order they run in."""

import pytest

from lattice_gf import circulant, loops, system


def clear_caches():
    """Drop every staircase record, reciprocal loop series and solved system."""
    circulant._staircase.cache_clear()
    loops._reciprocals.clear()
    system._solutions.clear()


@pytest.fixture(autouse=True)
def cold_caches():
    clear_caches()
    yield
    clear_caches()
