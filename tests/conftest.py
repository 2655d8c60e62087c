import numpy as np
import pytest

from drowsekit import preprocess


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(params=[1, 2, 3], ids=lambda n: f"{n}-workers")
def workers(request, monkeypatch):
    """The worker count of the epoch-block split, patched to 1, 2 and 3."""
    monkeypatch.setattr(preprocess, "available_cpus", lambda: request.param)
    return request.param
