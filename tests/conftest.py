"""Shared fixtures: benchmark models and their limit cycles, computed once
per session (cycle finding dominates suite runtime otherwise)."""
import numpy as np
import pytest

from floqnet.limit_cycle import find_limit_cycle
from floqnet.models import get_model, linear_rotation_model, \
    repressilator_model, vdp_model


@pytest.fixture(scope="session")
def vdp():
    return vdp_model(1.0)


@pytest.fixture(scope="session")
def repressilator():
    return repressilator_model()


@pytest.fixture(scope="session")
def rotation():
    return linear_rotation_model()


@pytest.fixture(scope="session")
def vdp_cycle(vdp):
    return find_limit_cycle(vdp)


@pytest.fixture(scope="session")
def rep_cycle(repressilator):
    return find_limit_cycle(repressilator)


@pytest.fixture(scope="session")
def rotation_cycle(rotation):
    return find_limit_cycle(rotation)


@pytest.fixture(scope="session")
def cycle_of():
    """``cycle_of(name, **params)``: the model and its limit cycle, cached
    per model."""
    cache = {}

    def build(name, **params):
        key = (name, tuple(sorted(params.items())))
        if key not in cache:
            model = get_model(name, params)
            cache[key] = model, find_limit_cycle(model)
        return cache[key]

    return build


@pytest.fixture(scope="session")
def fig2_initial():
    return np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])


@pytest.fixture(scope="session")
def fig3_initial():
    return np.array([0.0, 1.0, 0.0, 3.0, 0.0, 5.0,
                     0.0, 7.0, 0.0, 9.0, 0.0, 11.0,
                     0.0, 13.0, 15.0, 17.0, 4.0, 6.0])
