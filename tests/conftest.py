import cmclab  # noqa: F401  (first, so its BLAS pin precedes numpy)
import numpy as np
import pytest
from hypothesis import settings

from cmclab.sphere import QuadratureGrid

settings.register_profile("ci", deadline=None, max_examples=25)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def grid():
    """Default production grid."""
    return QuadratureGrid(32, 64)


@pytest.fixture(scope="session")
def small_grid():
    return QuadratureGrid(16, 32)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
