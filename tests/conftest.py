import math

import mpmath
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


def from_real_form(z: np.ndarray) -> np.ndarray:
    """Allocating oracle for the in-place ``spectrum._from_real_form``.

    The charge-basis columns of real-form eigenvectors ``z`` (rows ``|0>``,
    ``(|n>+|-n>)/sqrt2``, ``i(|n>-|-n>)/sqrt2``), written with plain
    complex arithmetic on fresh arrays.
    """
    n_cut = (len(z) - 1) // 2
    scale = math.sqrt(0.5)
    even, odd = scale * z[1 : n_cut + 1], scale * z[n_cut + 1 :]
    vectors = np.empty(z.shape, dtype=complex)
    vectors[n_cut] = z[0]
    vectors[n_cut + 1 :] = even + 1j * odd
    vectors[:n_cut] = (even - 1j * odd)[::-1]
    return vectors


def exact_phi_min(params: CircuitParams, transmissions, phi_e: float, *, include_bo: bool = True) -> float:
    """Independent oracle for the minimum of the total potential on [0, pi].

    The exact branch sum and its derivative are written out in 40-digit
    mpmath, deliberately not sharing code with the package: a coarse scan
    of U picks the lowest point, and the root of dU/dphi in the bracket
    around it is the minimum, or an end of [0, pi] where dU/dphi already
    points inward.
    """
    with mpmath.workdps(40):
        ej1, ej2 = mpmath.mpf(params.ej1), mpmath.mpf(params.ej2)
        ej = ej1 + ej2
        lam = 4 * ej1 * ej2 / ej**2
        ecj, gap, pe = mpmath.mpf(params.ecj), mpmath.mpf(params.gap), mpmath.mpf(phi_e)
        ts = [mpmath.mpf(t) for t in transmissions]

        def junction_root(phi):
            return mpmath.sqrt(1 - lam * mpmath.sin(phi / 2) ** 2)

        def u(phi):
            root = junction_root(phi)
            out = -ej * root + (ej * mpmath.sqrt(ecj / ej * root) if include_bo else 0)
            return out - gap * mpmath.fsum(mpmath.sqrt(1 - t * mpmath.sin((phi - pe) / 2) ** 2) for t in ts)

        def du(phi):
            root = junction_root(phi)
            droot = -lam * mpmath.sin(phi) / (4 * root)
            out = -ej * droot + (mpmath.sqrt(ej * ecj) * droot / (2 * mpmath.sqrt(root)) if include_bo else 0)
            return out + gap * mpmath.fsum(
                t * mpmath.sin(phi - pe) / (4 * mpmath.sqrt(1 - t * mpmath.sin((phi - pe) / 2) ** 2)) for t in ts
            )

        scan = [mpmath.pi * i / 256 for i in range(257)]
        best = min(range(len(scan)), key=lambda i: u(scan[i]))
        lo, hi = scan[max(best - 1, 0)], scan[min(best + 1, len(scan) - 1)]
        if du(lo) >= 0:
            return float(lo)
        if du(hi) <= 0:
            return float(hi)
        return float(mpmath.findroot(du, (lo, hi), solver="anderson"))
