import os

import numpy as np
import pytest

from graphstate import moments
from graphstate.catalog import random_marginal, star_graph
from graphstate.montecarlo import estimate


@pytest.fixture(autouse=True)
def default_budget(monkeypatch):
    """Every test starts at the default work budget, whatever the calling shell sets."""
    for name in [name for name in os.environ if name.startswith("GRAPHSTATE_BUDGET_")]:
        monkeypatch.delenv(name)


@pytest.fixture(scope="session")
def corpus():
    """Fixed random corpus of valid marginals (n <= 8, d_i <= 3)."""
    rng = np.random.default_rng(20240817)
    return [random_marginal(rng, max_bonds=4, max_dim=3) for _ in range(50)]


@pytest.fixture(scope="session")
def small_corpus():
    """Smaller instances, cheap enough for exact-engine cross-checks."""
    rng = np.random.default_rng(91)
    return [random_marginal(rng, max_bonds=2, max_dim=2) for _ in range(20)]


@pytest.fixture(scope="session")
def star_estimate():
    """Haar estimate of star(1,1) at N = 16: 300 trials, p = 1, 2, seed 11, no entropy."""
    return estimate(star_graph(2, 1, 1), 16, 300, p_list=(1, 2), seed=11, entropy=False)


@pytest.fixture
def cold_flows():
    """No marginal's max flow solved before the test, and none of its flows kept after."""
    moments._solved.cache_clear()
    yield
    moments._solved.cache_clear()
