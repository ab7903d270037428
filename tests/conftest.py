from __future__ import annotations

import numpy as np
import pytest

from ielab import det_parameters, micro_det_1, micro_stoch_1
from ielab.priors import shared_tables


@pytest.fixture(scope="session")
def det_factored():
    return micro_det_1()


@pytest.fixture(scope="session")
def det_prior(det_factored):
    return det_factored.expand()


@pytest.fixture(scope="session")
def det_config(det_factored):
    cfg, _ = det_parameters(det_factored)
    return cfg


@pytest.fixture(scope="session")
def det_tables(det_prior):
    return shared_tables(det_prior)


@pytest.fixture(scope="session")
def stoch_factored():
    return micro_stoch_1()


@pytest.fixture(scope="session")
def stoch_prior(stoch_factored):
    return stoch_factored.expand()


@pytest.fixture(scope="session")
def stoch_tables(stoch_prior):
    return shared_tables(stoch_prior)


class TopDrawGenerator:
    """Stub generator whose uniform draws are all the largest double below 1."""

    def random(self, size=None):
        u = 1 - 2**-53
        return u if size is None else np.full(size, u)


@pytest.fixture
def top_draw_rng():
    return TopDrawGenerator()
