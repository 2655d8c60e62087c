import numpy as np
import pytest

from drowsekit.preprocess import reference_kernels


@pytest.fixture(scope="session")
def default_kernels():
    """One (hp, lp) kernel pair shared across the suite; design is pure."""
    return reference_kernels()


@pytest.fixture(scope="session")
def hp_kernel(default_kernels):
    return default_kernels[0]


@pytest.fixture(scope="session")
def lp_kernel(default_kernels):
    return default_kernels[1]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
