from dataclasses import replace

import pytest

from lrspp.materials import DielectricModel, SILVER, surface_plasma_frequency


def lossless(model: DielectricModel) -> DielectricModel:
    """The same metal with damping and imaginary offset removed."""
    return replace(model, damping_rate=0.0, imag_correction=0.0)


@pytest.fixture(scope="session")
def silver() -> DielectricModel:
    return SILVER


@pytest.fixture(scope="session")
def silver_lossless() -> DielectricModel:
    return lossless(SILVER)


@pytest.fixture(scope="session")
def w_sp() -> float:
    return surface_plasma_frequency(SILVER)
