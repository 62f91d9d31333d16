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
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .tables import write_csv

__all__ = [
    "CircuitParams",
    "NanowireChannels",
    "FluxBias",
    "HarmonicSpectrum",
    "ParitySums",
    "Regime",
    "RegimeLabel",
    "BOValidity",
    "sissis_potential",
    "bo_correction",
    "sns_potential",
    "total_potential",
    "fourier_u",
    "fourier_v",
    "combine_harmonics",
    "interfere_arms",
    "parity_sums",
    "find_phi_min",
    "find_phi_mins",
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

_MINIMUM_GRID = np.linspace(0.0, math.pi, MINIMUM_GRID_POINTS)
_MINIMUM_GRID.flags.writeable = False

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: golden-section steps that shrink a two-spacing bracket below MINIMUM_TOL * 1e-3
_POLISH_STEPS = math.ceil(
    math.log(2.0 * (_MINIMUM_GRID[1] - _MINIMUM_GRID[0]) / (MINIMUM_TOL * 1e-3)) / -math.log(_INV_GOLDEN)
)

#: phi_min (rad) below which the potential is odd dominated
ODD_MAX = 0.1

#: half-width (rad) of the band around pi/2 where it is even dominated
EVEN_HALFWIDTH = 0.35

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
        """Effective transmission 4*ej1*ej2/(ej1+ej2)^2 of the double junction, at most 1.

        With ej1 == ej2 the quotient can round to 1 + 2**-52 (at ej = 55.0259...),
        which would make ``sqrt(1 - lam)`` NaN, so it is capped at 1.
        """
        return min(1.0, 4.0 * self.ej1 * self.ej2 / (self.ej1 + self.ej2) ** 2)


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
        # the modulo rounds up to 2pi when phi_e + pi is a tiny negative number
        object.__setattr__(self, "phi_e", -math.pi if wrapped == math.pi else wrapped)

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
    internal-mode correction), ``v`` the
    nanowire-arm amplitudes at zero flux, and ``c``/``s`` the combined
    cosine/sine amplitudes at the flux bias; all four have length
    ``k_max + 1``.
    """

    u: np.ndarray
    v: np.ndarray
    c: np.ndarray
    s: np.ndarray

    def __post_init__(self) -> None:
        length = len(self.c)
        for name in ("u", "v", "c", "s"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (length,):
                raise ValueError(f"{name} must have the length of c, {length}, got {arr.shape}")
            object.__setattr__(self, name, arr)

    @property
    def k_max(self) -> int:
        """Truncation order: the highest harmonic stored."""
        return len(self.c) - 1

    @classmethod
    def from_cosine(cls, c: Sequence[float], s: Sequence[float] | None = None) -> "HarmonicSpectrum":
        """Synthetic spectrum from explicit cosine (and optional sine) amplitudes."""
        c_arr = np.asarray(c, dtype=float)
        s_arr = np.zeros_like(c_arr) if s is None else np.asarray(s, dtype=float)
        if s_arr.shape != c_arr.shape:
            raise ValueError("c and s must have the same length")
        return cls(u=c_arr.copy(), v=np.zeros_like(c_arr), c=c_arr, s=s_arr)

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
    internal_mode_clear: bool
    internal_mode_freq: float
    junction_ratio: float


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
    out = _nanowire_arm(s2, channels.transmissions, [gap] * len(channels))
    return out if out.shape else float(out)


def _nanowire_arm(s2: np.ndarray, transmissions: Iterable, gaps: Iterable) -> np.ndarray:
    """``-sum_i gaps[i] * sqrt(1 - transmissions[i] * s2)``, summed channel by channel.

    Entries may be arrays that broadcast against ``s2``; a channel with
    zero gap adds nothing, which pads channel sets to a common width.
    """
    out = np.zeros_like(s2)
    for t, gap in zip(transmissions, gaps):
        out -= gap * np.sqrt(1.0 - t * s2)
    return out


def total_potential(
    phi: np.ndarray | float,
    params: CircuitParams,
    channels: NanowireChannels,
    flux: FluxBias,
) -> np.ndarray | float:
    """Sum of the two arm potentials, the double-junction arm with its internal-mode correction.

    The bare double junction is the ``ecj -> 0`` limit, where the
    correction vanishes.
    """
    out = _junction_arm(phi, params) + sns_potential(phi, channels, params.gap, flux)
    return out if out.shape else float(out)


def _junction_arm(phi: np.ndarray | float, params: CircuitParams) -> np.ndarray:
    """Double-junction arm with its internal-mode correction."""
    return np.asarray(sissis_potential(phi, params), dtype=float) + bo_correction(phi, params)


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
    # imported here, so that a command that never makes an arm does not load scipy.special
    from scipy.special import binom, hyp2f1

    m = np.asarray(m, dtype=float)[..., None]
    nu = np.asarray(nu, dtype=float)[..., None]
    k, weight, k_plus_one = _orders(k_max)
    r = np.sqrt(1.0 - m)
    rho = m / (1.0 + r) ** 2
    scale = weight * ((1.0 + r) / 2.0) ** (2.0 * nu)
    return scale * binom(nu, k) * rho**k * hyp2f1(-nu, k - nu, k_plus_one, rho * rho)


@lru_cache(maxsize=16)
def _orders(k_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The k-only factors of :func:`_power_amplitudes`: ``k``, the weight 1 or 2 of ``A_k``, and ``k + 1``."""
    k = np.arange(k_max + 1)
    orders = (k, np.where(k == 0, 1.0, 2.0), k + 1)
    for array in orders:
        array.flags.writeable = False
    return orders


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
        Include the internal-mode correction (the default). ``False``
        gives the bare series for closed-form checks; above this kernel
        the bare junction is the ``ecj -> 0`` limit.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    junction, correction = _junction_terms(params, k_max)
    return junction + correction if include_bo else junction


def _junction_terms(params: CircuitParams, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The junction term ``-E_Jsigma A(lam, 1/2)`` and the correction ``sqrt(E_Jsigma E_CJ) A(lam, 1/4)``."""
    junction, correction = _power_amplitudes(params.lam, (0.5, 0.25), k_max)
    return -params.ej_sigma * junction, math.sqrt(params.ej_sigma * params.ecj) * correction


def fourier_v(channels: NanowireChannels, gap: float, k_max: int) -> np.ndarray:
    """Cosine amplitudes of the nanowire arm at zero flux offset.

    The arm is ``-gap * sum_i A(T_i, 1/2)``, with every channel's
    closed-form amplitudes evaluated in one call; an open nanowire gives
    all zeros.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    return _nanowire_v(_power_amplitudes(np.array(channels.transmissions), 0.5, k_max), gap)


def _nanowire_v(amplitudes: np.ndarray, gap: float) -> np.ndarray:
    """The nanowire arm ``-gap * sum_i A(T_i, 1/2)`` from each channel's row of amplitudes."""
    # subtracting from +0.0 keeps zero amplitudes from printing as -0
    return np.zeros(amplitudes.shape[-1]) - gap * amplitudes.sum(axis=0)


def combine_harmonics(u: np.ndarray, v: np.ndarray, flux: FluxBias) -> HarmonicSpectrum:
    """Interfere the two arms at a flux bias: the one-point case of :func:`interfere_arms`."""
    c, s = interfere_arms(u, v, [flux])
    return HarmonicSpectrum(u=u, v=v, c=c[0], s=s[0])


def interfere_arms(
    u: np.ndarray, v: np.ndarray, fluxes: Iterable[FluxBias]
) -> tuple[np.ndarray, np.ndarray]:
    """Cosine and sine amplitudes ``c[p, k]``, ``s[p, k]`` of the arms interfered at each flux bias.

    ``c[p, k] = u[k] + cos(k phi_p) v[k]`` and ``s[p, k] = sin(k phi_p) v[k]``;
    at half flux quantum the sine content vanishes and odd-k cosine
    amplitudes become differences of the two arms. It is the fluxes'
    :func:`_flux_table` and its one product with the arms, :func:`_interfere`.
    """
    phi = np.array([flux.phi_e for flux in fluxes], dtype=float)
    return _interfere(u, v, _flux_table(phi, np.size(u) - 1))


def _flux_table(phi: np.ndarray, k_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``cos(k phi)``, ``sin(k phi)`` (k = 0..k_max) at each canonical flux ``phi``, and which are half flux."""
    k = np.arange(k_max + 1)
    return np.cos(k * phi[:, None]), np.sin(k * phi[:, None]), phi == -math.pi


def _interfere(
    u: np.ndarray, v: np.ndarray, table: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`interfere_arms` at the fluxes of a :func:`_flux_table`."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError(f"u and v must be 1-d arrays of equal length, got {u.shape} vs {v.shape}")
    cos, sin, half = table
    c = u + cos * v
    s = sin * v
    # sin(k * -pi) rounds to about k * 1e-16, not 0; half flux (wrapped to
    # -pi) gets exactly zero sine content, so its potential stays even
    s[half] = 0.0
    return c, s


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


def _polish(
    potential: Callable[[np.ndarray], np.ndarray], best: np.ndarray, low: np.ndarray
) -> np.ndarray:
    """Minimizers of several curves at once, one per grid bracket.

    ``potential(phi)`` evaluates curve ``g`` at ``phi[g]`` for every
    curve; ``best[g]`` is curve ``g``'s lowest grid index and ``low[g]``
    its value there. A lockstep golden-section search runs the same
    :data:`_POLISH_STEPS` steps on every bracket
    ``[grid[best] - h, grid[best] + h]`` clipped to [0, pi], so one
    curve's result never depends on the others. The grid point wins if
    it is lower than the polished one, and a result within
    :data:`MINIMUM_TOL` of 0, pi/2 or pi snaps there if no higher.
    """
    h = _MINIMUM_GRID[1] - _MINIMUM_GRID[0]
    a = np.maximum(_MINIMUM_GRID[best] - h, 0.0)
    b = np.minimum(_MINIMUM_GRID[best] + h, math.pi)
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = potential(x1), potential(x2)
    for _ in range(_POLISH_STEPS):
        # keep the lower interior point; ties keep the left part
        left = f1 <= f2
        a = np.where(left, a, x1)
        b = np.where(left, x2, b)
        kept, f_kept = np.where(left, x1, x2), np.where(left, f1, f2)
        new = np.where(left, b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a))
        f_new = potential(new)
        x1, f1 = np.where(left, new, kept), np.where(left, f_new, f_kept)
        x2, f2 = np.where(left, kept, new), np.where(left, f_kept, f_new)
    lower = f1 <= f2
    x, fx = np.where(lower, x1, x2), np.where(lower, f1, f2)
    grid_wins = low < fx
    x = np.where(grid_wins, _MINIMUM_GRID[best], x)
    fx = np.where(grid_wins, low, fx)
    scale = 1.0 + np.abs(fx)
    for landmark in (0.0, math.pi / 2.0, math.pi):
        near = np.abs(x - landmark) <= MINIMUM_TOL
        x = np.where(near & (potential(np.full_like(x, landmark)) <= fx + 1e-9 * scale), landmark, x)
    return x


def classify_regime(phi_min: float) -> Regime:
    """Assign the parity regime from the location of the potential minimum."""
    if phi_min < ODD_MAX:
        return Regime.ODD_DOMINATED
    if abs(phi_min - math.pi / 2.0) < EVEN_HALFWIDTH:
        return Regime.EVEN_DOMINATED
    return Regime.MIXED


def find_phi_min(
    params: CircuitParams,
    channels: NanowireChannels,
    flux: FluxBias,
) -> RegimeLabel:
    """Locate the total-potential minimum and classify the parity regime.

    The one-gate case of :func:`find_phi_mins`, which documents the
    search; the result is bit-identical to that gate's entry in any
    batch.
    """
    return find_phi_mins(params, [channels], flux)[0]


def find_phi_mins(
    params: CircuitParams,
    channel_sets: Sequence[NanowireChannels],
    flux: FluxBias,
) -> list[RegimeLabel]:
    """Potential minimum and parity regime of every gate's channel set.

    Minima come in +/- pairs; the nonnegative representative in [0, pi]
    is reported. The landscape is the exact branch sum, the junction arm
    with its internal-mode correction, not its truncated Fourier series,
    so shallow features near the junction cusps are kept.
    Each gate's grid values (:func:`_grid_rows`) bracket its minimum, and
    one lockstep polish (:func:`_polish`) fixes every bracket at once to
    about 1e-7 rad, channels padded to the widest gate; a result within
    :data:`MINIMUM_TOL` of 0, pi/2 or pi snaps to that landmark, so the
    symmetric cases come out exact. A gate's result does not depend on
    the other gates in the list.
    """
    channel_sets = list(channel_sets)
    if not channel_sets:
        return []
    best, low = [], []
    for values in _grid_rows(params, channel_sets, flux):
        best.append(np.argmin(values))
        low.append(values[best[-1]])
    # channels padded to the widest gate; a padding channel has zero gap
    width = max(len(channels) for channels in channel_sets)
    transmissions = np.zeros((width, len(channel_sets)))
    gaps = np.zeros((width, len(channel_sets)))
    for g, channels in enumerate(channel_sets):
        transmissions[: len(channels), g] = channels.transmissions
        gaps[: len(channels), g] = params.gap

    def potential(phi: np.ndarray) -> np.ndarray:
        s2_phi = np.sin((phi - flux.phi_e) / 2.0) ** 2
        return _junction_arm(phi, params) + _nanowire_arm(s2_phi, transmissions, gaps)

    phi_min = _polish(potential, np.array(best), np.array(low))
    return [RegimeLabel(regime=classify_regime(p), phi_min=p) for p in phi_min.tolist()]


def _grid_rows(
    params: CircuitParams, channel_sets: Sequence[NanowireChannels], flux: FluxBias
) -> Iterator[np.ndarray]:
    """Each channel set's :func:`total_potential` on the minimum grid, bit for bit, one row at a time.

    The junction arm and ``sin^2((phi - phi_e)/2)`` are evaluated once;
    a row adds only its nanowire sum. Rows are made one by one because a
    gates x grid array would dominate the memory of a large sweep.
    """
    junction = _junction_arm(_MINIMUM_GRID, params)
    s2 = np.sin((_MINIMUM_GRID - flux.phi_e) / 2.0) ** 2
    for channels in channel_sets:
        yield junction + _nanowire_arm(s2, channels.transmissions, [params.gap] * len(channels))


# ---------------------------------------------------------------------------
# internal-mode validity


def internal_mode_freq(params: CircuitParams) -> float:
    """Lowest internal-mode transition of the double junction, sqrt(4*E_CJ*E_Jsigma)."""
    return math.sqrt(4.0 * params.ecj * params.ej_sigma)


def validate_bo(params: CircuitParams, *, max_transition_freq: float) -> BOValidity:
    """Check the assumptions behind the internal-mode correction.

    Three conditions: the junction charging energy exceeds the island
    charging energy, the junction arm is deep in the phase regime
    (``E_Jsigma / E_CJ`` at least :data:`BO_RATIO_MIN`), and the internal
    mode lies above ``max_transition_freq``, the largest transition
    frequency (GHz) the caller uses.
    """
    f_int = internal_mode_freq(params)
    ratio = params.ej_sigma / params.ecj
    return BOValidity(
        charge_hierarchy_ok=params.ecj > params.ec,
        junction_ratio_ok=ratio >= BO_RATIO_MIN,
        internal_mode_clear=f_int > max_transition_freq,
        internal_mode_freq=f_int,
        junction_ratio=ratio,
    )


# ---------------------------------------------------------------------------
# export


def write_harmonics_csv(spec: HarmonicSpectrum, path: str) -> None:
    """Write the harmonic table as CSV with columns k, u_k, v_k, c_k, s_k (GHz)."""
    columns = (range(spec.k_max + 1), spec.u, spec.v, spec.c, spec.s)
    write_csv(path, ("k", "u_k", "v_k", "c_k", "s_k"), [columns])
