"""Branch potentials of the hybrid SQUID and their Fourier harmonics.

The circuit element modeled here is a SQUID with a serial double tunnel
junction in one arm and a gated multi-channel nanowire junction in the
other. Both arms contribute 2pi-periodic potentials whose cosine Fourier
amplitudes interfere as a function of the external flux; at half flux
quantum the odd harmonics of the two arms subtract while the even ones
add, which is the knob this package is built around.

Conventions used throughout:

* energies are in GHz (implicitly GHz * h),
* phases and the reduced flux are in radians,
* ``u[0]``, ``v[0]``, ``c[0]`` store the mean value of the potential;
  coefficients with k >= 1 are full cosine amplitudes, i.e.
  ``U(phi) = c[0] + sum_k c[k] cos(k phi) + s[k] sin(k phi)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import binom, hyp2f1

from .tables import write_csv

__all__ = [
    "CircuitParams",
    "NanowireChannels",
    "FluxBias",
    "HarmonicSpectrum",
    "ParitySums",
    "Regime",
    "RegimeLabel",
    "RegimeThresholds",
    "BOValidity",
    "sissis_potential",
    "bo_correction",
    "sns_potential",
    "total_potential",
    "fourier_u",
    "fourier_v",
    "combine_harmonics",
    "parity_sums",
    "find_phi_min",
    "locate_minimum",
    "classify_regime",
    "internal_mode_freq",
    "validate_bo",
    "write_harmonics_csv",
]

#: |c[k_max]| / max_k |c[k]| above which a spectrum is flagged unconverged.
CONVERGENCE_RATIO = 1e-4

#: |c_odd| below this (GHz) makes the even/odd ratio report +inf.
ODD_SUM_FLOOR = 1e-6

#: default harmonic truncation order of the Fourier decomposition
K_MAX = 10

#: dense-grid points on [0, pi] that bracket the potential minimum
MINIMUM_GRID_POINTS = 4097

#: distance (rad) within which a minimum snaps to 0, pi/2 or pi
MINIMUM_TOL = 1e-6

#: smallest E_Jsigma / E_CJ that keeps the junction arm in the phase regime
BO_RATIO_MIN = 10.0


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class CircuitParams:
    """Global device constants, all in GHz.

    Parameters
    ----------
    ej1, ej2:
        Josephson energies of the two serial tunnel junctions.
    ecj:
        Charging energy of the junctions (sets the internal mode).
    ec:
        Charging energy of the qubit island.
    gap:
        Superconducting gap entering the nanowire-arm potential.
    """

    ej1: float
    ej2: float
    ecj: float
    ec: float
    gap: float

    def __post_init__(self) -> None:
        for name in ("ej1", "ej2", "ecj", "ec", "gap"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")

    @property
    def ej_sigma(self) -> float:
        """Sum of the two junction energies."""
        return self.ej1 + self.ej2

    @property
    def lam(self) -> float:
        """Effective transmission 4*ej1*ej2/(ej1+ej2)^2 of the double junction."""
        return 4.0 * self.ej1 * self.ej2 / (self.ej1 + self.ej2) ** 2


@dataclass(frozen=True)
class NanowireChannels:
    """Ordered channel transmissions of the nanowire arm.

    Stored sorted descending; permutations of the same multiset are one
    physical configuration. An empty tuple models an open (pinched-off)
    nanowire arm.
    """

    transmissions: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        values = tuple(float(t) for t in self.transmissions)
        for t in values:
            if not math.isfinite(t) or t < 0.0 or t > 1.0:
                raise ValueError(f"transmission {t!r} outside [0, 1]")
        object.__setattr__(self, "transmissions", tuple(sorted(values, reverse=True)))

    def __len__(self) -> int:
        return len(self.transmissions)

    def __iter__(self) -> Iterator[float]:
        return iter(self.transmissions)


@dataclass(frozen=True)
class FluxBias:
    """Reduced external flux phi_e = 2*pi*Phi_e/Phi_0, canonical in [-pi, pi)."""

    phi_e: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.phi_e):
            raise ValueError(f"phi_e must be finite, got {self.phi_e!r}")
        wrapped = (self.phi_e + math.pi) % (2.0 * math.pi) - math.pi
        object.__setattr__(self, "phi_e", wrapped)

    @classmethod
    def from_phi0(cls, flux_in_phi0: float) -> "FluxBias":
        """Build from flux in units of the flux quantum."""
        return cls(2.0 * math.pi * flux_in_phi0)

    @property
    def phi0_units(self) -> float:
        return self.phi_e / (2.0 * math.pi)


@dataclass(frozen=True)
class HarmonicSpectrum:
    """Truncated Fourier content of the total potential at one flux bias.

    ``u`` holds the double-junction-arm cosine amplitudes (including the
    internal-mode correction unless it was disabled), ``v`` the
    nanowire-arm amplitudes at zero flux, and ``c``/``s`` the combined
    cosine/sine amplitudes at the stored flux.
    """

    k_max: int
    u: np.ndarray
    v: np.ndarray
    c: np.ndarray
    s: np.ndarray
    phi_e: float = 0.0

    def __post_init__(self) -> None:
        for name in ("u", "v", "c", "s"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (self.k_max + 1,):
                raise ValueError(
                    f"{name} must have length k_max+1={self.k_max + 1}, got {arr.shape}"
                )
            object.__setattr__(self, name, arr)

    @classmethod
    def from_cosine(cls, c: Sequence[float], s: Sequence[float] | None = None) -> "HarmonicSpectrum":
        """Synthetic spectrum from explicit cosine (and optional sine) amplitudes."""
        c_arr = np.asarray(c, dtype=float)
        s_arr = np.zeros_like(c_arr) if s is None else np.asarray(s, dtype=float)
        if s_arr.shape != c_arr.shape:
            raise ValueError("c and s must have the same length")
        return cls(k_max=len(c_arr) - 1, u=c_arr.copy(), v=np.zeros_like(c_arr), c=c_arr, s=s_arr)

    @property
    def converged(self) -> bool:
        """True when the truncation tail is negligible against the largest harmonic."""
        if self.k_max < 1:
            return True
        scale = float(np.max(np.abs(self.c[1:])))
        if scale == 0.0:
            return True
        return abs(float(self.c[self.k_max])) <= CONVERGENCE_RATIO * scale

    def potential(self, phi: np.ndarray | float) -> np.ndarray | float:
        """Evaluate the truncated series (constant term included)."""
        phi = np.asarray(phi, dtype=float)
        k = np.arange(1, self.k_max + 1)
        phases = np.multiply.outer(phi, k)
        out = self.c[0] + np.cos(phases) @ self.c[1:] + np.sin(phases) @ self.s[1:]
        return out if out.shape else float(out)


class Regime(Enum):
    """Which harmonic parity shapes the potential minimum."""

    ODD_DOMINATED = "OddDominated"
    MIXED = "Mixed"
    EVEN_DOMINATED = "EvenDominated"


@dataclass(frozen=True)
class RegimeThresholds:
    """Bands on phi_min used to assign a regime.

    :func:`classify_regime` takes other bands; :func:`find_phi_min` and
    the gate sweeps use these defaults.
    """

    odd_max: float = 0.1
    even_halfwidth: float = 0.35


@dataclass(frozen=True)
class RegimeLabel:
    regime: Regime
    phi_min: float


@dataclass(frozen=True)
class ParitySums:
    """Signed sums of even-k and odd-k cosine amplitudes (k >= 1)."""

    c_even: float
    c_odd: float
    ratio: float


@dataclass(frozen=True)
class BOValidity:
    """Checks for the internal-mode elimination behind the double-junction arm."""

    charge_hierarchy_ok: bool
    junction_ratio_ok: bool
    internal_mode_clear: bool | None
    internal_mode_freq: float
    junction_ratio: float

    @property
    def all_ok(self) -> bool:
        return (
            self.charge_hierarchy_ok
            and self.junction_ratio_ok
            and self.internal_mode_clear is not False
        )


# ---------------------------------------------------------------------------
# branch potentials


def sissis_potential(phi: np.ndarray | float, params: CircuitParams) -> np.ndarray | float:
    """Potential of the serial double tunnel junction.

    ``-E_Jsigma * sqrt(1 - lam * sin^2(phi/2))`` with the total Josephson
    energy and effective transmission taken from ``params``. Even in phi
    and 2pi-periodic.
    """
    phi = np.asarray(phi, dtype=float)
    out = -params.ej_sigma * np.sqrt(1.0 - params.lam * np.sin(phi / 2.0) ** 2)
    return out if out.shape else float(out)


def bo_correction(phi: np.ndarray | float, params: CircuitParams) -> np.ndarray | float:
    """Zero-point energy of the internal mode of the double junction.

    ``E_Jsigma * sqrt((E_CJ/E_Jsigma) * sqrt(1 - lam * sin^2(phi/2)))``;
    nonnegative, even, 2pi-periodic. Valid while the internal mode sits
    well above the qubit levels, see :func:`validate_bo`.
    """
    phi = np.asarray(phi, dtype=float)
    root = np.sqrt(1.0 - params.lam * np.sin(phi / 2.0) ** 2)
    out = params.ej_sigma * np.sqrt((params.ecj / params.ej_sigma) * root)
    return out if out.shape else float(out)


def sns_potential(
    phi: np.ndarray | float,
    channels: NanowireChannels,
    gap: float,
    flux: FluxBias = FluxBias(0.0),
) -> np.ndarray | float:
    """Nanowire-arm potential ``-gap * sum_i sqrt(1 - T_i sin^2((phi - phi_e)/2))``.

    Each term is the phase dispersion of one bound-state channel; an empty
    channel list gives identically zero.
    """
    phi = np.asarray(phi, dtype=float)
    s2 = np.sin((phi - flux.phi_e) / 2.0) ** 2
    out = np.zeros_like(s2)
    for t in channels:
        out -= gap * np.sqrt(1.0 - t * s2)
    return out if out.shape else float(out)


def total_potential(
    phi: np.ndarray | float,
    params: CircuitParams,
    channels: NanowireChannels,
    flux: FluxBias,
    *,
    include_bo: bool = True,
) -> np.ndarray | float:
    """Sum of the two arm potentials (internal-mode correction optional).

    The ``include_bo=False`` switch evaluates the double-junction arm in
    the vanishing-junction-capacitance limit; it exists so analytic
    closed forms stay reachable for validation.
    """
    out = np.asarray(sissis_potential(phi, params), dtype=float)
    if include_bo:
        out = out + bo_correction(phi, params)
    out = out + sns_potential(phi, channels, params.gap, flux)
    return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# harmonic kernel
#
# Both arms are sums of g(phi) = (1 - m sin^2(phi/2))**nu with nu = 1/2
# (junction and nanowire dispersions) or nu = 1/4 (internal-mode
# correction). Their cosine amplitudes are Gauss hypergeometric
# functions (DLMF 15.2, 15.4(ii)):
#
#   A_0 = 2F1(-nu, 1/2; 1; m),
#   A_k = 2 (-m/4)^k (-nu)_k / k! * 2F1(k - nu, k + 1/2; 2k + 1; m).
#
# For nu = 1/2 that 2F1 has c - a - b = 1, where scipy's hyp2f1 loses up
# to 3e-4 of the leading amplitude near m = 0.9 by k = 60. The kernel
# evaluates the same amplitudes after the change of variable
# m = 4 rho / (1 + rho)^2 (DLMF 15.8(iii)), i.e. rho = (1 - r)/(1 + r)
# with r = sqrt(1 - m):
#
#   A_k = eps_k ((1 + r)/2)^(2 nu) binom(nu, k) rho^k 2F1(-nu, k - nu; k + 1; rho^2),
#
# with eps_0 = 1 and eps_k = 2. This series has terms of one sign and
# the cusp m = 1 is Gauss's sum, so every amplitude is accurate to about
# 1e-13 relative over m in [0, 1].


def _power_amplitudes(m: np.ndarray | float, nu: np.ndarray | float, k_max: int) -> np.ndarray:
    """Cosine amplitudes A_0..A_k_max of ``(1 - m sin^2(phi/2))**nu``.

    ``m`` and ``nu`` broadcast against each other; the result has their
    broadcast shape plus a trailing axis of length ``k_max + 1``.
    """
    m = np.asarray(m, dtype=float)[..., None]
    nu = np.asarray(nu, dtype=float)[..., None]
    k = np.arange(k_max + 1)
    r = np.sqrt(1.0 - m)
    rho = m / (1.0 + r) ** 2
    scale = np.where(k == 0, 1.0, 2.0) * ((1.0 + r) / 2.0) ** (2.0 * nu)
    return scale * binom(nu, k) * rho**k * hyp2f1(-nu, k - nu, k + 1, rho * rho)


# ---------------------------------------------------------------------------
# Fourier decomposition


def fourier_u(params: CircuitParams, k_max: int, *, include_bo: bool = True) -> np.ndarray:
    """Cosine amplitudes of the double-junction arm.

    Index 0 stores the mean value; indices k >= 1 are the full amplitudes
    of cos(k phi). The arm is ``-E_Jsigma * A(lam, 1/2)``, plus
    ``sqrt(E_Jsigma * E_CJ) * A(lam, 1/4)`` with the internal-mode
    correction, where ``A(m, nu)`` are the closed-form amplitudes of
    ``(1 - m sin^2(phi/2))**nu``.

    Parameters
    ----------
    params:
        Device constants; the arm shape depends on ej1, ej2 and ecj.
    k_max:
        Truncation order, must be >= 1.
    include_bo:
        Include the internal-mode correction (the default; disable only
        to compare against closed forms).
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    junction, correction = _power_amplitudes(params.lam, (0.5, 0.25), k_max)
    u = -params.ej_sigma * junction
    if include_bo:
        u = u + math.sqrt(params.ej_sigma * params.ecj) * correction
    return u


def fourier_v(channels: NanowireChannels, gap: float, k_max: int) -> np.ndarray:
    """Cosine amplitudes of the nanowire arm at zero flux offset.

    The arm is ``-gap * sum_i A(T_i, 1/2)``, with every channel's
    closed-form amplitudes evaluated in one call; an open nanowire gives
    all zeros.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    amplitudes = _power_amplitudes(np.array(channels.transmissions), 0.5, k_max)
    # subtracting from +0.0 keeps zero amplitudes from printing as -0
    return np.zeros(k_max + 1) - gap * amplitudes.sum(axis=0)


def combine_harmonics(u: np.ndarray, v: np.ndarray, flux: FluxBias) -> HarmonicSpectrum:
    """Interfere the two arms at a flux bias.

    ``c[k] = u[k] + cos(k phi_e) v[k]`` and ``s[k] = sin(k phi_e) v[k]``;
    at half flux quantum the sine content vanishes and odd-k cosine
    amplitudes become differences of the two arms.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError(f"u and v must be 1-d arrays of equal length, got {u.shape} vs {v.shape}")
    k = np.arange(len(u))
    c = u + np.cos(k * flux.phi_e) * v
    s = np.sin(k * flux.phi_e) * v
    return HarmonicSpectrum(k_max=len(u) - 1, u=u, v=v, c=c, s=s, phi_e=flux.phi_e)


def parity_sums(spec: HarmonicSpectrum) -> ParitySums:
    """Signed even-k and odd-k sums of the cosine amplitudes (k >= 1).

    The constant term is excluded. The even/odd magnitude ratio reports
    ``inf`` once |c_odd| falls below :data:`ODD_SUM_FLOOR`, where the
    ratio formally diverges.
    """
    c_even = float(np.sum(spec.c[2::2]))
    c_odd = float(np.sum(spec.c[1::2]))
    ratio = math.inf if abs(c_odd) < ODD_SUM_FLOOR else abs(c_even / c_odd)
    return ParitySums(c_even=c_even, c_odd=c_odd, ratio=ratio)


# ---------------------------------------------------------------------------
# minima and regimes


def locate_minimum(potential: Callable[[np.ndarray], np.ndarray]) -> float:
    """Global minimizer of an even periodic potential over [0, pi].

    Dense grid bracketing followed by a bounded scalar polish; the result
    snaps to the landmark points {0, pi/2, pi} when within
    :data:`MINIMUM_TOL` so the symmetric cases come out exact.
    """
    grid = np.linspace(0.0, math.pi, MINIMUM_GRID_POINTS)
    values = np.asarray(potential(grid), dtype=float)
    best = int(np.argmin(values))
    h = grid[1] - grid[0]
    lo = max(grid[best] - h, 0.0)
    hi = min(grid[best] + h, math.pi)
    result = minimize_scalar(
        lambda p: float(potential(np.asarray(p))),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": MINIMUM_TOL * 1e-3},
    )
    x = float(result.x)
    fx = float(potential(np.asarray(x)))
    if values[best] < fx:
        x, fx = float(grid[best]), float(values[best])
    scale = 1.0 + abs(fx)
    for landmark in (0.0, math.pi / 2.0, math.pi):
        if abs(x - landmark) <= MINIMUM_TOL and float(potential(np.asarray(landmark))) <= fx + 1e-9 * scale:
            return landmark
    return x


def classify_regime(phi_min: float, thresholds: RegimeThresholds | None = None) -> Regime:
    """Assign the parity regime from the location of the potential minimum."""
    th = thresholds or RegimeThresholds()
    if phi_min < th.odd_max:
        return Regime.ODD_DOMINATED
    if abs(phi_min - math.pi / 2.0) < th.even_halfwidth:
        return Regime.EVEN_DOMINATED
    return Regime.MIXED


def find_phi_min(
    params: CircuitParams,
    channels: NanowireChannels,
    flux: FluxBias,
    *,
    include_bo: bool = True,
) -> RegimeLabel:
    """Locate the total-potential minimum and classify the parity regime.

    Minima come in +/- pairs; the nonnegative representative in [0, pi]
    is reported. The landscape is the exact branch sum, not its truncated
    Fourier series, so shallow features near the junction cusps are kept.
    """
    phi_min = locate_minimum(
        lambda phi: total_potential(phi, params, channels, flux, include_bo=include_bo)
    )
    return RegimeLabel(regime=classify_regime(phi_min), phi_min=phi_min)


# ---------------------------------------------------------------------------
# internal-mode validity


def internal_mode_freq(params: CircuitParams) -> float:
    """Lowest internal-mode transition of the double junction, sqrt(4*E_CJ*E_Jsigma)."""
    return math.sqrt(4.0 * params.ecj * params.ej_sigma)


def validate_bo(
    params: CircuitParams,
    *,
    max_transition_freq: float | None = None,
) -> BOValidity:
    """Check the assumptions behind the internal-mode correction.

    Three conditions: the junction charging energy exceeds the island
    charging energy, the junction arm is deep in the phase regime
    (``E_Jsigma / E_CJ`` at least :data:`BO_RATIO_MIN`), and the internal
    mode lies above the largest transition frequency the caller intends
    to use (skipped when not supplied).
    """
    f_int = internal_mode_freq(params)
    ratio = params.ej_sigma / params.ecj
    clear: bool | None
    if max_transition_freq is None:
        clear = None
    else:
        clear = f_int > max_transition_freq
    return BOValidity(
        charge_hierarchy_ok=params.ecj > params.ec,
        junction_ratio_ok=ratio >= BO_RATIO_MIN,
        internal_mode_clear=clear,
        internal_mode_freq=f_int,
        junction_ratio=ratio,
    )


# ---------------------------------------------------------------------------
# export


def write_harmonics_csv(spec: HarmonicSpectrum, path: str) -> None:
    """Write the harmonic table as CSV with columns k, u_k, v_k, c_k, s_k (GHz)."""
    rows = zip(range(spec.k_max + 1), spec.u, spec.v, spec.c, spec.s)
    write_csv(path, ("k", "u_k", "v_k", "c_k", "s_k"), rows)
