import shutil

import numpy as np
import pytest

import epictrl as ec
from epictrl import native


@pytest.fixture(scope="session")
def covid19():
    return ec.preset("covid19")


@pytest.fixture(scope="session")
def default_weights():
    return ec.CostWeights()


@pytest.fixture(scope="session")
def default_solution(covid19, default_weights):
    """Converged sweep on the default scenario (tau=35, h=0.01), solved once."""
    params, initial = covid19
    grid = ec.TimeGrid(35.0, 0.01)
    return ec.fbsm_solve(initial, params, default_weights, grid)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(params=["C", "numpy"])
def segment_path(request, monkeypatch):
    """The compiled path (``native._library``'s C from the first step: marches, the sweep's
    update and the oracle's segments) or the numpy one (``native._library`` patched to None)."""
    monkeypatch.setattr(native, "_PAYBACK", 0)
    if request.param == "numpy":
        monkeypatch.setattr(native, "_library", lambda n, to_exposed: None)
    elif shutil.which("cc") is None:
        pytest.skip("no C compiler")
    return request.param
