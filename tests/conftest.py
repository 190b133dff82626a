import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from fuotacast.config import load_default_spec

settings.register_profile(
    "ci", max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "fast", max_examples=15, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def spec():
    return load_default_spec()


@pytest.fixture(scope="session")
def phy(spec):
    return spec.phy


@pytest.fixture(scope="session")
def link(spec):
    return spec.network.link


@pytest.fixture(scope="session")
def field(spec):
    return spec.network.interferers


@pytest.fixture(scope="session")
def law(spec):
    return spec.law


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
