import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from hpqkit import CircuitParams, NanowireChannels

settings.register_profile(
    "ci",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def hpq_params() -> CircuitParams:
    """Globals of the gate-tunable device (GHz)."""
    return CircuitParams(ej1=55.03, ej2=55.03, ecj=0.675, ec=0.28, gap=40.06)


@pytest.fixture(scope="session")
def dj_params() -> CircuitParams:
    """Globals of the plain double-junction device (GHz)."""
    return CircuitParams(ej1=59.96, ej2=59.96, ecj=0.583, ec=0.28, gap=40.06)


@pytest.fixture(scope="session")
def odd_channels() -> NanowireChannels:
    return NanowireChannels((0.68, 0.47, 0.46))


@pytest.fixture(scope="session")
def mixed_channels() -> NanowireChannels:
    return NanowireChannels((0.94, 0.58, 0.58))


@pytest.fixture(scope="session")
def even_channels() -> NanowireChannels:
    return NanowireChannels((0.98, 0.98, 0.75, 0.54))


def project_cosine_sine(values: np.ndarray, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Independent Fourier projector used as an oracle for the harmonic kernel.

    Direct Riemann sums on a uniform periodic grid, deliberately not
    sharing code with the package's closed-form amplitudes.
    """
    n = len(values)
    phi = -np.pi + 2.0 * np.pi * np.arange(n) / n
    cos_out = np.empty(k_max + 1)
    sin_out = np.empty(k_max + 1)
    cos_out[0] = values.mean()
    sin_out[0] = 0.0
    for k in range(1, k_max + 1):
        cos_out[k] = 2.0 * np.mean(values * np.cos(k * phi))
        sin_out[k] = 2.0 * np.mean(values * np.sin(k * phi))
    return cos_out, sin_out
