"""Charge-basis Hamiltonian, spectra, and charge-parity structure.

The island Hamiltonian is ``4 E_C (n - n_g)^2`` plus the periodic
potential given by a :class:`~hpqkit.potentials.HarmonicSpectrum`. In the
Cooper-pair number basis each cos(k phi) harmonic couples charge states
k apart with strength c_k/2 and each sin(k phi) adds an antisymmetric
imaginary coupling of magnitude s_k/2, so the matrix is Hermitian and
banded with bandwidth k_max.

:func:`eigensolve` solves such a matrix in one of two forms. At n_g = 0
the cosine bands are even and the sine bands odd in n - m, so
``H[-n, -m] = conj(H[n, m])``: an antiunitary charge-reflection symmetry.
In the basis ``|0>``, ``(|n> + |-n>)/sqrt2``, ``i(|n> - |-n>)/sqrt2``
(n = 1..n_cut) such a matrix is real symmetric with the same dimension,
and it is solved in that real form with LAPACK ``dsyevr``. A real matrix
(no sine content) goes to ``dsyevr`` as it is, and a complex matrix
without the symmetry (n_g != 0) to ``zheevr``.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.linalg import lapack

from .potentials import K_MAX, CircuitParams, HarmonicSpectrum, NanowireChannels, fourier_u, fourier_v
from .tables import write_csv

__all__ = [
    "ChargeBasisConfig",
    "ParityWeights",
    "TransitionTable",
    "FluxGrid",
    "SolverError",
    "build_hamiltonian",
    "eigensolve",
    "parse_transition_label",
    "check_levels",
    "transition_frequencies",
    "charge_matrix_element",
    "parity_weights",
    "solve_flux_grid",
    "spectrum_vs_flux",
]

logger = logging.getLogger(__name__)

#: energies closer than this (GHz) count as degenerate for state labeling
DEGENERACY_TOL = 1e-9

#: flux points whose Hamiltonians are assembled at once; bounds the memory
#: of a block (64 complex 61x61 matrices are 3.8 MB) on long sweeps
GRID_BLOCK = 64

#: charge states a basis keeps past the coupling range: n_cut >= k_max + CUTOFF_HEADROOM
CUTOFF_HEADROOM = 5

#: transitions a sweep tabulates unless told otherwise
DEFAULT_LABELS = ("f01", "f12", "f02")

#: level pairs whose charge matrix elements a sweep tabulates unless told otherwise
DEFAULT_PAIRS = ((0, 1), (1, 2))

_LABEL_RE = re.compile(r"^f(\d)(\d)(?:/(\d))?$")


class SolverError(RuntimeError):
    """Eigensolver failure, annotated with whatever context is available."""


@dataclass(frozen=True)
class ChargeBasisConfig:
    """Charge-basis truncation: states n = -n_cut .. +n_cut."""

    n_cut: int = 30
    n_g: float = 0.0
    n_levels: int = 6

    def __post_init__(self) -> None:
        if self.n_cut < 0:
            raise ValueError(f"n_cut must be >= 0, got {self.n_cut}")
        if not 1 <= self.n_levels <= 2 * self.n_cut + 1:
            raise ValueError(
                f"n_levels must be in [1, {2 * self.n_cut + 1}], got {self.n_levels}"
            )

    @property
    def dim(self) -> int:
        return 2 * self.n_cut + 1

    @property
    def charges(self) -> np.ndarray:
        return np.arange(-self.n_cut, self.n_cut + 1)


@dataclass(frozen=True)
class ParityWeights:
    even_weight: float
    odd_weight: float


def build_hamiltonian(spec: HarmonicSpectrum, ec: float, cfg: ChargeBasisConfig) -> np.ndarray:
    """Assemble the charge-basis Hamiltonian for one harmonic spectrum.

    The constant term ``c[0]`` is dropped (pure energy offset). The basis
    must leave headroom beyond the coupling range: ``n_cut >= k_max + CUTOFF_HEADROOM``.
    """
    return _hamiltonian_stack(spec.c[np.newaxis], spec.s[np.newaxis], ec, cfg)[0]


@lru_cache(maxsize=16)
def _band_index(dim: int, k_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # flat positions of the upper and lower band entries of a dim x dim
    # matrix, with the harmonic order k = col - row of each
    rows, cols = np.triu_indices(dim, 1)
    keep = cols - rows <= k_max
    rows, cols = rows[keep], cols[keep]
    index = (rows * dim + cols, cols * dim + rows, cols - rows)
    for arr in index:
        arr.flags.writeable = False
    return index


def _hamiltonian_stack(
    c: np.ndarray, s: np.ndarray, ec: float, cfg: ChargeBasisConfig
) -> np.ndarray:
    """Hamiltonians for rows of cosine/sine amplitudes, shape ``(rows, dim, dim)``.

    The stack is real unless some row has sine content.
    """
    k_max = c.shape[1] - 1
    if k_max >= 1 and cfg.n_cut < k_max + CUTOFF_HEADROOM:
        raise ValueError(
            f"n_cut={cfg.n_cut} too small for k_max={k_max}; need n_cut >= k_max + {CUTOFF_HEADROOM}"
        )
    dim = cfg.dim
    upper, lower, ks = _band_index(dim, k_max)
    band = c[:, ks] / 2.0
    complex_needed = bool(np.any(s[:, 1:] != 0.0))
    if complex_needed:
        band = band + 1j * s[:, ks] / 2.0
    h = np.zeros((len(c), dim * dim), dtype=complex if complex_needed else float)
    h[:, :: dim + 1] = 4.0 * ec * (cfg.charges - cfg.n_g) ** 2
    # adding +0.0 stores a -0.0 amplitude as +0.0, as accumulating into the
    # zeroed matrix does; the sign of a zero steers LAPACK's reflections
    h[:, upper] = band + 0.0
    h[:, lower] = np.conj(band) + 0.0
    return h.reshape(len(c), dim, dim)


def _close_to_next(energies: np.ndarray) -> np.ndarray:
    """``close[..., n]``: level ``n + 1`` lies within :data:`DEGENERACY_TOL` of level ``n``."""
    return energies[..., 1:] - energies[..., :-1] < DEGENERACY_TOL


def _degeneracy_reorder(
    energies: np.ndarray, vectors: np.ndarray, n_cut: int
) -> tuple[np.ndarray, np.ndarray]:
    """Order states inside degenerate clusters by descending even weight."""
    close = _close_to_next(energies)
    if not close.any():
        return energies, vectors
    order = np.arange(len(energies))
    start = 0
    even_mask = np.arange(-n_cut, n_cut + 1) % 2 == 0
    while start < len(energies):
        stop = start + 1
        while stop < len(energies) and close[stop - 1]:
            stop += 1
        if stop - start > 1:
            weights = [
                float(np.sum(np.abs(vectors[even_mask, i]) ** 2)) for i in order[start:stop]
            ]
            order[start:stop] = order[start:stop][np.argsort(weights)[::-1]]
        start = stop
    return energies[order], vectors[:, order]


def _real_form(h: np.ndarray) -> np.ndarray:
    """A charge-reflection-symmetric ``h`` in the basis ``|0>, (|n>+|-n>)/sqrt2, i(|n>-|-n>)/sqrt2``.

    The result is real symmetric, in Fortran order, with the even
    combinations n = 1..n_cut after ``|0>`` and the odd ones after them.
    """
    dim = len(h)
    n_cut = (dim - 1) // 2
    pos = h[n_cut + 1 :, n_cut + 1 :]  # H[p, q], p, q = 1..n_cut
    mirror = h[n_cut + 1 :, :n_cut][:, ::-1]  # H[p, -q]
    row = math.sqrt(2.0) * h[n_cut, n_cut + 1 :]  # sqrt2 H[0, q]
    even, odd = slice(1, n_cut + 1), slice(n_cut + 1, dim)
    r = np.empty((dim, dim), order="F")
    r[0, 0] = h[n_cut, n_cut].real
    r[0, even] = r[even, 0] = row.real
    r[0, odd] = r[odd, 0] = -row.imag
    r[even, even] = pos.real + mirror.real
    r[odd, odd] = pos.real - mirror.real
    r[even, odd] = mirror.imag - pos.imag
    r[odd, even] = r[even, odd].T
    return r


def _from_real_form(z: np.ndarray) -> np.ndarray:
    """Charge-basis columns of real-form eigenvectors ``z`` (the inverse basis change of :func:`_real_form`)."""
    n_cut = (len(z) - 1) // 2
    scale = math.sqrt(0.5)
    even, odd = scale * z[1 : n_cut + 1], scale * z[n_cut + 1 :]
    vectors = np.empty(z.shape, dtype=complex)
    vectors[n_cut] = z[0]
    vectors[n_cut + 1 :] = even + 1j * odd
    vectors[:n_cut] = (even - 1j * odd)[::-1]
    return vectors


@lru_cache(maxsize=16)
def _evr_workspace(complex_input: bool, dim: int) -> dict[str, int]:
    """Workspace sizes of ``zheevr`` or ``dsyevr`` for a dim x dim matrix, queried once."""
    if complex_input:
        work, rwork, iwork, info = lapack.zheevr_lwork(dim, lower=1)
        sizes = {"lwork": work.real, "lrwork": rwork, "liwork": iwork}
    else:
        work, iwork, info = lapack.dsyevr_lwork(dim, lower=1)
        sizes = {"lwork": work, "liwork": iwork}
    if info != 0:
        raise SolverError(f"LAPACK workspace query failed for dim={dim}: info={info}")
    return {name: int(size) for name, size in sizes.items()}


def _evr(a: np.ndarray, n_levels: int, overwrite_a: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Lowest ``n_levels`` eigenpairs from the lower triangle of ``a``, as ``scipy.linalg.eigh`` gives them."""
    complex_input = np.iscomplexobj(a)
    name = "zheevr" if complex_input else "dsyevr"
    energies, vectors, found, _, info = getattr(lapack, name)(
        a, range="I", lower=1, il=1, iu=n_levels, overwrite_a=overwrite_a,
        **_evr_workspace(complex_input, len(a)),
    )
    if info != 0:
        raise SolverError(f"LAPACK {name} failed for dim={len(a)}: info={info}")
    return energies[:found], vectors[:, :found]


def eigensolve(h: np.ndarray, n_levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest eigenpairs of a Hermitian charge-basis matrix.

    Returns energies ascending and orthonormal eigenvectors as columns.
    States degenerate within 1e-9 GHz are ordered by descending
    even-charge weight so labeling stays deterministic.

    A complex ``h`` with ``h[::-1, ::-1] == conj(h)`` (any n_g = 0
    Hamiltonian) is solved in its real form and its vectors are mapped
    back to the charge basis; they match the complex solve up to a
    phase. A real ``h`` is solved as it is, and any other complex ``h``
    with ``zheevr``; both give ``scipy.linalg.eigh``'s result bit for
    bit. A non-finite entry or a LAPACK failure raises :class:`SolverError`.
    """
    dim = h.shape[0]
    if h.shape != (dim, dim):
        raise ValueError(f"expected a square matrix, got {h.shape}")
    if not 1 <= n_levels <= dim:
        raise ValueError(f"n_levels must be in [1, {dim}], got {n_levels}")
    if not np.isfinite(h).all():
        raise SolverError(f"matrix of dim={dim} has non-finite entries")
    if np.iscomplexobj(h) and np.array_equal(h, h[::-1, ::-1].conj()):
        energies, z = _evr(_real_form(h), n_levels, overwrite_a=True)
        vectors = _from_real_form(z)
    else:
        energies, vectors = _evr(h, n_levels)
    return _degeneracy_reorder(energies, vectors, (dim - 1) // 2)


def parse_transition_label(label: str) -> tuple[int, int, int]:
    """Split a transition label into (i, j, divisor).

    ``f01`` means the 0->1 frequency; ``f02/2`` the two-photon variant
    (E_2 - E_0)/2.
    """
    match = _LABEL_RE.match(label)
    if not match:
        raise ValueError(f"bad transition label {label!r}; expected e.g. 'f01' or 'f02/2'")
    i, j = int(match.group(1)), int(match.group(2))
    divisor = int(match.group(3)) if match.group(3) else 1
    if j <= i:
        raise ValueError(f"label {label!r} must have j > i")
    if divisor < 1:
        raise ValueError(f"label {label!r} has a zero divisor")
    return i, j, divisor


def check_levels(n_levels: int, labels: Sequence[str], me_pairs: Sequence[tuple[int, int]] = ()) -> None:
    """Raise ``ValueError`` when a label or level pair needs a level beyond ``n_levels``."""
    needs = {f"label {label!r}": parse_transition_label(label)[1] for label in labels}
    needs.update({f"matrix element n{i}{j}": max(i, j) for i, j in me_pairs})
    for name, level in needs.items():
        if level >= n_levels:
            raise ValueError(f"{name} needs level {level}, but n_levels = {n_levels}")


def transition_frequencies(energies: np.ndarray, labels: Sequence[str]) -> dict[str, np.ndarray]:
    """Transition frequencies (GHz) of ``labels`` over the last axis of ``energies``."""
    check_levels(energies.shape[-1], labels)
    out: dict[str, np.ndarray] = {}
    for label in labels:
        i, j, divisor = parse_transition_label(label)
        out[label] = (energies[..., j] - energies[..., i]) / divisor
    return out


def charge_matrix_element(vec_i: np.ndarray, vec_j: np.ndarray, n_g: float = 0.0) -> float:
    """``|<i| n - n_g |j>|`` in the charge basis (dimensionless)."""
    if vec_i.shape != vec_j.shape or vec_i.ndim != 1 or len(vec_i) % 2 == 0:
        raise ValueError("eigenvectors must be equal-length odd-dimension 1-d arrays")
    n_cut = (len(vec_i) - 1) // 2
    n = np.arange(-n_cut, n_cut + 1) - n_g
    return abs(complex(np.vdot(vec_i, n * vec_j)))


def parity_weights(vec: np.ndarray) -> ParityWeights:
    """Even/odd Cooper-pair-number weights of a normalized eigenvector."""
    vec = np.asarray(vec)
    if vec.ndim != 1 or len(vec) % 2 == 0:
        raise ValueError("expected an odd-dimension 1-d eigenvector")
    norm = float(np.sum(np.abs(vec) ** 2))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"eigenvector not normalized: |psi|^2 = {norm!r}")
    n_cut = (len(vec) - 1) // 2
    even_mask = np.arange(-n_cut, n_cut + 1) % 2 == 0
    even = float(np.sum(np.abs(vec[even_mask]) ** 2))
    return ParityWeights(even_weight=even, odd_weight=norm - even)


# ---------------------------------------------------------------------------
# flux sweeps


@dataclass
class TransitionTable:
    """Spectra tabulated on a flux grid.

    ``frequencies[label]`` and ``matrix_elements[(i, j)]`` are aligned
    with ``flux_radians``; failed points carry NaN rows.
    """

    flux_radians: np.ndarray
    energies: np.ndarray
    frequencies: dict[str, np.ndarray]
    matrix_elements: dict[tuple[int, int], np.ndarray]
    labels: tuple[str, ...]
    me_pairs: tuple[tuple[int, int], ...]
    failed: np.ndarray

    @property
    def flux_phi0(self) -> np.ndarray:
        return self.flux_radians / (2.0 * math.pi)

    def to_csv(self, path: str) -> None:
        """CSV with flux in flux-quantum units, one column per label, then matrix elements."""
        header = ["flux_phi0"] + list(self.labels) + [f"n{i}{j}" for i, j in self.me_pairs]
        columns = [self.flux_phi0]
        columns += [self.frequencies[lab] for lab in self.labels]
        columns += [self.matrix_elements[p] for p in self.me_pairs]
        write_csv(path, header, zip(*columns))


@dataclass(frozen=True)
class FluxGrid:
    """Lowest eigenpairs on a flux grid: ``energies[point, level]``, ``vectors[point, :, level]``.

    A failed point holds NaN. ``clustered[point, level]`` flags a level
    in a degenerate cluster, as :func:`eigensolve` finds them.
    """

    flux: np.ndarray
    energies: np.ndarray
    vectors: np.ndarray
    failed: np.ndarray
    clustered: np.ndarray


def solve_flux_grid(
    u: np.ndarray,
    v: np.ndarray,
    flux_values: Sequence[float] | np.ndarray,
    ec: float,
    cfg: ChargeBasisConfig,
    *,
    strict: bool = True,
) -> FluxGrid:
    """Lowest ``cfg.n_levels`` eigenpairs at each flux, stacked in a :class:`FluxGrid`.

    ``u`` and ``v`` are the arm amplitudes of
    :func:`~hpqkit.potentials.combine_harmonics`; each flux is wrapped
    into [-pi, pi) exactly as :class:`~hpqkit.potentials.FluxBias` does.
    Up to :data:`GRID_BLOCK` Hamiltonians are assembled in one vectorised
    fill, and each point is solved with :func:`eigensolve`, real without
    sine content, so it matches :func:`build_hamiltonian` bit for bit. A
    failed solve raises a :class:`SolverError` naming its point when
    ``strict``; otherwise it logs a warning and flags the point.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError(f"u and v must be 1-d arrays of equal length, got {u.shape} vs {v.shape}")
    flux_values = np.asarray(flux_values, dtype=float)
    if not np.all(np.isfinite(flux_values)):
        raise ValueError("flux values must be finite")
    phi_e = (flux_values + math.pi) % (2.0 * math.pi) - math.pi
    angles = phi_e[:, np.newaxis] * np.arange(len(u))
    c = u + np.cos(angles) * v
    s = np.sin(angles) * v
    real = ~np.any(s[:, 1:] != 0.0, axis=1)
    n_points = len(flux_values)
    energies = np.full((n_points, cfg.n_levels), np.nan)
    vectors = np.full((n_points, cfg.dim, cfg.n_levels), np.nan, float if real.all() else complex)
    for start in range(0, n_points, GRID_BLOCK):
        block = slice(start, start + GRID_BLOCK)
        hs = _hamiltonian_stack(c[block], s[block], ec, cfg)
        for idx, h in enumerate(hs, start):
            try:
                energies[idx], vectors[idx] = eigensolve(h.real if real[idx] else h, cfg.n_levels)
            except SolverError as exc:
                if strict:
                    raise SolverError(
                        f"flux point {idx} (phi_e={flux_values[idx]!r}): {exc}"
                    ) from exc
                logger.warning("flux point %d (phi_e=%g) failed: %s", idx, flux_values[idx], exc)
        # h is a view of the block: drop both so the next fill does not overlap it
        del hs, h
    close = _close_to_next(energies)
    clustered = np.zeros(energies.shape, dtype=bool)
    clustered[:, 1:] = close
    clustered[:, :-1] |= close
    return FluxGrid(flux_values, energies, vectors, np.isnan(energies[:, 0]), clustered)


def spectrum_vs_flux(
    params: CircuitParams,
    channels: NanowireChannels,
    flux_values: np.ndarray,
    cfg: ChargeBasisConfig,
    *,
    k_max: int = K_MAX,
    include_bo: bool = True,
    labels: tuple[str, ...] = DEFAULT_LABELS,
    me_pairs: tuple[tuple[int, int], ...] = DEFAULT_PAIRS,
) -> TransitionTable:
    """Tabulate eigenenergies, transitions, and matrix elements over flux.

    The arm Fourier amplitudes are flux independent and computed once;
    :func:`solve_flux_grid` re-interferes them and solves at each grid
    point. Labels and pairs pass :func:`check_levels` before any solve.
    A failed point logs a warning and leaves a NaN row flagged in
    ``failed``.
    """
    check_levels(cfg.n_levels, labels, me_pairs)
    u = fourier_u(params, k_max, include_bo=include_bo)
    v = fourier_v(channels, params.gap, k_max)
    grid = solve_flux_grid(u, v, flux_values, params.ec, cfg, strict=False)
    vectors = grid.vectors
    n = cfg.charges - cfg.n_g
    return TransitionTable(
        flux_radians=grid.flux,
        energies=grid.energies,
        frequencies=transition_frequencies(grid.energies, labels),
        matrix_elements={
            (i, j): np.abs(np.einsum("pm,pm->p", vectors[:, :, i].conj(), n * vectors[:, :, j]))
            for i, j in me_pairs
        },
        labels=tuple(labels),
        me_pairs=tuple(me_pairs),
        failed=grid.failed,
    )
