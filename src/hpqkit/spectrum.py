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
without the symmetry (n_g != 0) to ``zheevr``. The real form is one
gather: each cell is the sum of two entries of a table of the matrix's
cells. :func:`solve_flux_grid` takes the same routes, and gathers each
point's matrix, or its real form, straight from the point's cells: its
band entries followed by its charging energies.

Both solvers rotate the states of a degenerate cluster (levels within
:data:`DEGENERACY_TOL`), LAPACK's arbitrary mix, into eigenstates of the
even-charge weight: where even and odd charges decouple, each state then
has one Cooper-pair parity. There both solve one level more, so that no
doublet is split by the top level asked for.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.linalg import lapack

from .potentials import K_MAX, CircuitParams, FluxBias, HarmonicSpectrum, NanowireChannels
from .potentials import _flux_table, _interfere, fourier_u, fourier_v
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
    "levels_read",
    "transition_frequencies",
    "charge_matrix_element",
    "parity_weights",
    "solve_flux_grid",
    "spectrum_vs_flux",
]

logger = logging.getLogger(__name__)

#: energies closer than this (GHz) count as degenerate for state labeling
DEGENERACY_TOL = 1e-9

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
        if not math.isfinite(self.n_g):
            raise ValueError(f"n_g must be finite, got {self.n_g!r}")
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

    The one-point case of the gather :func:`solve_flux_grid` makes at each
    flux. The matrix is real unless the spectrum has sine content. The
    constant term ``c[0]`` is dropped (pure energy offset). The basis must
    leave headroom beyond the coupling range: ``n_cut >= k_max + CUTOFF_HEADROOM``.
    """
    dense = _slots(cfg.n_cut, spec.k_max)
    return np.concatenate((_band_entries(spec.c, spec.s), _diagonal(ec, cfg)))[dense].T


def _diagonal(ec: float, cfg: ChargeBasisConfig) -> np.ndarray:
    """The charging energies ``4 E_C (n - n_g)^2`` on the diagonal."""
    return 4.0 * ec * (cfg.charges - cfg.n_g) ** 2


def _band_entries(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """``[0, H[n, n+k], H[n+k, n]]`` (k = 1..k_max) for each row of amplitudes ``c``, ``s``.

    Followed by the diagonal, a row is the table whose entries the slots of
    :func:`_slots` pick. It is complex when some row has sine content.
    """
    band = c[..., 1:] / 2.0
    if s[..., 1:].any():
        band = band + 1j * s[..., 1:] / 2.0
    zero = np.zeros(band.shape[:-1] + (1,), band.dtype)
    # adding +0.0 stores a -0.0 amplitude as +0.0, as accumulating into a
    # zeroed matrix does; the sign of a zero steers LAPACK's reflections
    return np.concatenate((zero, band + 0.0, np.conj(band) + 0.0), axis=-1)


@lru_cache(maxsize=16)
def _slots(n_cut: int, k_max: int) -> np.ndarray:
    """Where the entries of a charge-basis matrix sit in its table ``[band entries, diagonal]``.

    The array gathers the transposed matrix, so that its ``.T`` is the
    matrix in Fortran order.
    """
    if k_max >= 1 and n_cut < k_max + CUTOFF_HEADROOM:
        raise ValueError(
            f"n_cut={n_cut} too small for k_max={k_max}; need n_cut >= k_max + {CUTOFF_HEADROOM}"
        )
    dim = 2 * n_cut + 1
    k = np.arange(dim) - np.arange(dim)[:, None]  # column minus row
    slots = np.where(k > 0, k, k_max - k)
    slots[np.abs(k) > k_max] = 0
    np.fill_diagonal(slots, 2 * k_max + 1 + np.arange(dim))
    dense = np.ascontiguousarray(slots.T)
    dense.flags.writeable = False
    return dense


def _close_to_next(energies: np.ndarray) -> np.ndarray:
    """``close[..., n]``: level ``n + 1`` lies within :data:`DEGENERACY_TOL` of level ``n``."""
    return energies[..., 1:] - energies[..., :-1] < DEGENERACY_TOL


def _even_charges(vectors: np.ndarray) -> np.ndarray:
    """The even-charge rows of charge-basis ``vectors``: every other row, from ``n_cut % 2``."""
    return vectors[(len(vectors) - 1) // 2 % 2 :: 2]


def _clusters(close: np.ndarray) -> np.ndarray:
    """``(start, stop)`` of each degenerate cluster (levels start..stop) of one row of :func:`_close_to_next`."""
    # a cluster runs from a rise of ``close`` to one past its fall
    return np.flatnonzero(np.diff(close, prepend=False, append=False)).reshape(-1, 2)


def _rotate_clusters(vectors: np.ndarray, close: np.ndarray) -> None:
    """Rotate each degenerate cluster's states, in place, into eigenstates of their even-charge overlap.

    ``close`` is :func:`_close_to_next` of the energies, which stay as
    they are. The states go in descending order of even weight.
    """
    for start, stop in _clusters(close):
        # a fresh contiguous copy, so a grid row and eigensolve's vectors take the same products
        cluster = np.ascontiguousarray(vectors[:, start : stop + 1])
        even = _even_charges(cluster)
        _, rotation = np.linalg.eigh(even.conj().T @ even)
        vectors[:, start : stop + 1] = cluster @ rotation[:, ::-1]


def _average_clusters(values: np.ndarray, close: np.ndarray) -> np.ndarray:
    """``values[point, level, ...]`` with each degenerate cluster's levels set, in place, to their mean.

    ``close`` is :func:`_close_to_next` of the energies (a grid's
    ``close``), so the clusters are those :func:`_rotate_clusters`
    rotates. For Hellmann-Feynman derivatives the mean is the trace of
    dH/dtheta over the cluster, which no choice of basis inside it
    changes; for sorted levels it is the limit of a central difference.
    """
    for point in np.flatnonzero(close.any(axis=1)):
        for start, stop in _clusters(close[point]):
            values[point, start : stop + 1] = values[point, start : stop + 1].mean(axis=0)
    return values


#: real-form points whose tables :func:`solve_flux_grid` builds at once
REAL_FORM_CHUNK = 8


def _real_form_tables(cells: np.ndarray) -> np.ndarray:
    """One table per row of complex ``cells``, from which a charge-reflection-symmetric matrix's real form is gathered.

    A row ``x`` gives ``[x, sqrt2 * x]`` as (real, imaginary) pairs; then
    all of that negated; then one ``-0.0``. Every real-form cell is the sum
    of two table entries: the ``-0.0`` is the addend that leaves any entry
    as it is, signed zeros included, and ``x - y`` is spelled ``x + (-y)``,
    which IEEE arithmetic rounds the same. A row is a matrix's cells,
    ``h.ravel()``, or a grid point's band entries of :func:`_band_entries`
    followed by its charging energies.
    """
    pairs = np.concatenate((cells, math.sqrt(2.0) * cells), axis=-1).view(float)
    half = pairs.shape[-1]
    tables = np.empty(pairs.shape[:-1] + (2 * half + 1,))
    tables[..., :half] = pairs
    np.negative(pairs, out=tables[..., half:-1])
    tables[..., -1] = -0.0
    return tables


@lru_cache(maxsize=16)
def _real_form_map(n_cut: int, k_max: int | None = None) -> np.ndarray:
    """Where the two addends of each real-form cell sit in a table of :func:`_real_form_tables`.

    The table's cells are a dense matrix's, or with ``k_max`` a band row
    and the charging energies, which :func:`_slots` places in the matrix.
    ``entry[part, cell]`` is the table position of part 0, 1, 2 or 3
    (``Re h``, ``Im h``, ``Re sqrt2 h``, ``Im sqrt2 h``) of the dense cell
    ``i * dim + j`` of ``h``; ``half`` is where the negated entries start.
    In the basis ``|0>, (|n>+|-n>)/sqrt2, i(|n>-|-n>)/sqrt2`` with
    ``pos = h[n, m]``, ``mirror = h[n, -m]`` and ``row = sqrt2 * h[0, m]``
    (charges n, m = 1..n_cut), the real form is:

    - ``r[0, 0] = Re h[0, 0]``;
    - ``r[0, even] = Re row`` and ``r[0, odd] = -Im row``, and their transposes;
    - ``r[even, even] = Re pos + Re mirror`` and ``r[odd, odd] = Re pos - Re mirror``;
    - ``r[even, odd] = Im mirror - Im pos``, and its transpose.

    The array is ``[first addends, second addends]`` of the transposed
    matrix, so that the sum's ``.T`` is the real form in Fortran order.
    """
    dim = 2 * n_cut + 1
    if k_max is None:
        slots, width = np.arange(dim * dim), dim * dim
    else:
        slots, width = _slots(n_cut, k_max).T.ravel(), 2 * k_max + 1 + dim
    half = 4 * width
    part = np.arange(4)[:, None]
    # (real, imaginary) pairs of the cells, then of sqrt2 times them
    entry = 2 * slots + part % 2 + 2 * width * (part // 2)
    charges = n_cut + np.arange(1, n_cut + 1)
    pos = charges[:, None] * dim + charges
    mirror = charges[:, None] * dim + (2 * n_cut - charges)
    row = n_cut * dim + charges
    index = np.full((2, dim, dim), 2 * half, dtype=np.intp)
    first, second = index[0].T, index[1].T
    even, odd = slice(1, n_cut + 1), slice(n_cut + 1, dim)
    first[0, 0] = entry[0, n_cut * dim + n_cut]
    first[0, even] = first[even, 0] = entry[2, row]
    first[0, odd] = first[odd, 0] = half + entry[3, row]
    first[even, even] = first[odd, odd] = entry[0, pos]
    second[even, even] = entry[0, mirror]
    second[odd, odd] = half + entry[0, mirror]
    first[even, odd] = entry[1, mirror]
    second[even, odd] = half + entry[1, pos]
    first[odd, even] = first[even, odd].T
    second[odd, even] = second[even, odd].T
    index.flags.writeable = False
    return index


def _gather_real_form(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The real form, in Fortran order, from one table of :func:`_real_form_tables` and its map."""
    addends = table[index]
    return np.add(addends[0], addends[1], out=addends[0]).T


def _from_real_form(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Charge-basis columns of real-form eigenvectors ``z``, undoing the basis change of :func:`_real_form_map`.

    They are written into ``out`` (complex, shaped like ``z``) with
    ``even ± 1j * odd`` spelled as ufunc calls on its rows, so each cell
    matches that complex arithmetic, signed zeros included. ``1j * odd``
    is the one temporary.
    """
    n_cut = (len(z) - 1) // 2
    scale = math.sqrt(0.5)
    # charges 1..n_cut, and -1..-n_cut in the same order
    pos, neg = out[n_cut + 1 :], out[:n_cut][::-1]
    odd = np.multiply(z[n_cut + 1 :], 1j * scale)
    np.multiply(z[1 : n_cut + 1], scale, out=pos)
    np.subtract(pos, odd, out=neg)
    np.add(pos, odd, out=pos)
    out[n_cut] = z[0]
    return out


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


def _evr(a: np.ndarray, n_levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest ``n_levels`` eigenpairs from the lower triangle of ``a``, as ``scipy.linalg.eigh`` gives them.

    ``a`` is overwritten when it is a Fortran-ordered array of the driver's
    dtype, so a caller passes a matrix it owns.
    """
    complex_input = np.iscomplexobj(a)
    name = "zheevr" if complex_input else "dsyevr"
    energies, vectors, found, _, info = getattr(lapack, name)(
        a, range="I", lower=1, il=1, iu=n_levels, overwrite_a=True, **_evr_workspace(complex_input, len(a))
    )
    if info != 0:
        raise SolverError(f"LAPACK {name} failed for dim={len(a)}: info={info}")
    return energies[:found], vectors[:, :found]


def eigensolve(h: np.ndarray, n_levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest eigenpairs of a Hermitian charge-basis matrix.

    Returns energies ascending and orthonormal eigenvectors as columns.
    The states of a cluster degenerate within :data:`DEGENERACY_TOL` are
    rotated into eigenstates of their even-charge weight, in descending
    order of it; the energies stay as solved. Where no entry couples
    charges an odd number apart, ``min(n_levels + 1, dim)`` levels are
    solved and rotated and ``n_levels`` returned, so that a parity doublet
    at the top level is rotated whole, as :func:`solve_flux_grid` does.

    A complex ``h`` of odd dimension with ``h[::-1, ::-1] == conj(h)``
    (any n_g = 0 Hamiltonian) is solved in its real form, whose cells
    :func:`_real_form_map` spells out, and its vectors are mapped back to
    the charge basis; they match the complex solve up to a phase. A real
    ``h`` is solved as it is, and any other complex ``h`` with ``zheevr``;
    both give ``scipy.linalg.eigh``'s result bit for bit. A non-finite
    entry or a LAPACK failure raises :class:`SolverError`.
    """
    dim = h.shape[0]
    if h.shape != (dim, dim):
        raise ValueError(f"expected a square matrix, got {h.shape}")
    if not 1 <= n_levels <= dim:
        raise ValueError(f"n_levels must be in [1, {dim}], got {n_levels}")
    _require_finite(np.isfinite(h).all(), dim)
    # without a coupling between charges an odd number apart, the levels pair into parity
    # doublets: the top level's partner is solved too, so that the pair is rotated whole
    decoupled = not (h[::2, 1::2].any() or h[1::2, ::2].any())
    solved = min(n_levels + 1, dim) if decoupled else n_levels
    if np.iscomplexobj(h) and dim % 2 and np.array_equal(h, h[::-1, ::-1].conj()):
        energies, z = _evr(_gather_real_form(_real_form_tables(h.ravel()), _real_form_map(dim // 2)), solved)
        vectors = _from_real_form(z, np.empty(z.shape, dtype=complex))
    else:
        # a copy, so that the caller's ``h`` is never overwritten
        energies, vectors = _evr(np.array(h, order="F"), solved)
    _rotate_clusters(vectors, _close_to_next(energies))
    return energies[:n_levels], vectors[:, :n_levels]


def _require_finite(finite: bool, dim: int) -> None:
    """Raise :class:`SolverError` unless ``finite``: the entries of a dim x dim matrix are all finite."""
    if not finite:
        raise SolverError(f"matrix of dim={dim} has non-finite entries")


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


def _levels_needed(labels: Sequence[str], me_pairs: Sequence[tuple[int, int]]) -> dict[str, int]:
    """The highest level each label and level pair reads, keyed by how an error names it."""
    needs = {f"label {label!r}": parse_transition_label(label)[1] for label in labels}
    needs.update({f"matrix element n{i}{j}": max(i, j) for i, j in me_pairs})
    return needs


def check_levels(n_levels: int, labels: Sequence[str], me_pairs: Sequence[tuple[int, int]] = ()) -> None:
    """Raise ``ValueError`` when a label or level pair needs a level beyond ``n_levels``."""
    for name, level in _levels_needed(labels, me_pairs).items():
        if level >= n_levels:
            raise ValueError(f"{name} needs level {level}, but n_levels = {n_levels}")


def levels_read(n_levels: int, labels: Sequence[str], me_pairs: Sequence[tuple[int, int]] = ()) -> int:
    """Levels a table of ``labels`` and ``me_pairs`` reads: ``1 +`` the highest one.

    A table that reads no level keeps ``n_levels``, as its energies are
    then its only output. The fit plans its solves by the same rule.
    """
    needs = _levels_needed(labels, me_pairs).values()
    return 1 + max(needs) if needs else n_levels


def transition_frequencies(energies: np.ndarray, labels: Sequence[str]) -> dict[str, np.ndarray]:
    """Transition frequencies (GHz) of ``labels`` over the last axis of ``energies``."""
    check_levels(energies.shape[-1], labels)
    return {label: _transition(energies, *parse_transition_label(label)) for label in labels}


def _transition(values: np.ndarray, i, j, divisor, rows=Ellipsis) -> np.ndarray:
    """``(E_j - E_i) / divisor`` from ``values[rows, level]``: energies, or their derivatives."""
    return (values[rows, j] - values[rows, i]) / divisor


def charge_matrix_element(vec_i: np.ndarray, vec_j: np.ndarray, n_g: float = 0.0) -> float:
    """``|<i| n - n_g |j>|`` in the charge basis (dimensionless)."""
    if vec_i.shape != vec_j.shape or vec_i.ndim != 1 or len(vec_i) % 2 == 0:
        raise ValueError("eigenvectors must be equal-length odd-dimension 1-d arrays")
    return float(_charge_elements(vec_i, vec_j, n_g))


def _charge_elements(bra: np.ndarray, ket: np.ndarray, n_g: float) -> np.ndarray:
    """``|<i| n - n_g |j>|`` of charge-basis states along the last axis of ``bra`` and ``ket``."""
    n_cut = (bra.shape[-1] - 1) // 2
    n = np.arange(-n_cut, n_cut + 1) - n_g
    return np.abs(np.einsum("...m,...m->...", bra.conj(), n * ket))


def parity_weights(vec: np.ndarray) -> ParityWeights:
    """Even/odd Cooper-pair-number weights of a normalized eigenvector."""
    vec = np.asarray(vec)
    if vec.ndim != 1 or len(vec) % 2 == 0:
        raise ValueError("expected an odd-dimension 1-d eigenvector")
    norm = float(np.sum(np.abs(vec) ** 2))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"eigenvector not normalized: |psi|^2 = {norm!r}")
    even = float(np.sum(np.abs(_even_charges(vec)) ** 2))
    return ParityWeights(even_weight=even, odd_weight=norm - even)


# ---------------------------------------------------------------------------
# flux sweeps


@dataclass
class TransitionTable:
    """Spectra tabulated on a flux grid.

    ``frequencies[label]`` and ``matrix_elements[(i, j)]`` are aligned
    with ``flux_radians``; failed points carry NaN rows. ``energies``
    holds the levels the table reads, as :func:`levels_read` counts them.
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
        write_csv(path, header, [columns])


@dataclass(frozen=True)
class FluxGrid:
    """Lowest eigenpairs on a flux grid: ``energies[point, level]``, ``vectors[point, :, level]``.

    It holds the levels :func:`solve_flux_grid` solved, and a failed point
    holds NaN. ``close`` is :func:`_close_to_next` of the energies: the
    degenerate clusters the solve rotated.
    """

    flux: np.ndarray
    energies: np.ndarray
    vectors: np.ndarray
    failed: np.ndarray
    close: np.ndarray


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

    ``u`` and ``v`` are the arm amplitudes, which
    :func:`~hpqkit.potentials._interfere` interferes at every flux at
    once. Each point takes one LAPACK call and gives ``eigensolve(
    build_hamiltonian(combine_harmonics(u, v, FluxBias(phi)), ec, cfg),
    levels)`` bit for bit in the levels eigensolve returns, where
    ``levels`` are those the grid solves, or one fewer at a point whose
    levels pair into doublets.
    ``vectors`` is complex when some point has sine content. A failed
    solve raises a :class:`SolverError` naming its point when ``strict``;
    otherwise it logs a warning and flags the point.

    Where every odd-k harmonic of a point vanishes, the even and odd
    charges decouple and the levels pair into doublets. A grid with such a
    point solves ``min(cfg.n_levels + 1, dim)`` levels at every point, so
    the top level asked for never loses its doublet partner and each
    doublet is rotated whole.

    The call lays the grid out (:func:`_flux_layout`: everything that
    depends on the grid alone) and solves that layout
    (:func:`_solve_flux_layout`: everything the amplitudes change). A fit
    keeps one layout per dataset and repeats only the solve.
    """
    return _solve_flux_layout(_flux_layout(flux_values, ec, cfg, np.size(u) - 1), u, v, strict=strict)


@dataclass(frozen=True, eq=False)
class _FluxLayout:
    """What a solve on one flux grid reads that the arm amplitudes do not change.

    ``flux`` holds the fluxes as given and ``arms`` the
    :func:`~hpqkit.potentials._flux_table` of their canonical values.
    ``charging`` is :data:`REAL_FORM_CHUNK` rows of the charging
    energies, the last cells of a chunk's real-form tables; ``reflected``
    and ``finite`` say that they are charge-reflection symmetric (n_g = 0)
    and finite. ``dense`` and ``real_form`` are the gather maps.
    """

    flux: np.ndarray
    arms: tuple[np.ndarray, np.ndarray, np.ndarray]
    basis: ChargeBasisConfig
    charging: np.ndarray
    reflected: bool
    finite: bool
    dense: np.ndarray
    real_form: np.ndarray


def _flux_layout(
    flux_values: Sequence[float] | np.ndarray, ec: float, cfg: ChargeBasisConfig, k_max: int
) -> _FluxLayout:
    """Lay out a grid of :func:`solve_flux_grid` once: its fluxes, charging energies and gather maps."""
    flux = np.asarray(flux_values, dtype=float)
    if not np.all(np.isfinite(flux)):
        raise ValueError("flux values must be finite")
    arms = _flux_table(np.array([FluxBias(phi).phi_e for phi in flux], dtype=float), k_max)
    diag = _diagonal(ec, cfg)
    # only the diagonal can break the charge-reflection symmetry (at n_g != 0)
    reflected, finite = np.array_equal(diag, diag[::-1]), bool(np.isfinite(diag).all())
    charging = diag[None].repeat(REAL_FORM_CHUNK, axis=0)
    maps = _slots(cfg.n_cut, k_max), _real_form_map(cfg.n_cut, k_max)
    return _FluxLayout(flux, arms, cfg, charging, reflected, finite, *maps)


def _solve_flux_layout(layout: _FluxLayout, u: np.ndarray, v: np.ndarray, *, strict: bool = True) -> FluxGrid:
    """:func:`solve_flux_grid` on a laid-out grid.

    Each point's matrix is gathered from its band row, followed by the
    charging energies, through the slots :func:`build_hamiltonian` uses:
    real without sine content and complex otherwise. At n_g = 0 a point
    with sine content is solved in its real form instead, gathered through
    :func:`_real_form_map` from a table of the same cells; the tables are
    built :data:`REAL_FORM_CHUNK` points at a time. Finiteness is checked
    once over the band rows (a non-finite point fails before any LAPACK
    call), real-form vectors are mapped back straight into ``vectors``,
    and degenerate clusters are found once and rotated only at the points
    that have one.
    """
    cfg, flux, diag = layout.basis, layout.flux, layout.charging[0]
    c, s = _interfere(u, v, layout.arms)
    sine = s[:, 1:].any(axis=1)
    decoupled = not (c[:, 1::2].any(axis=1) | s[:, 1::2].any(axis=1)).all()
    n_levels = min(cfg.n_levels + 1, cfg.dim) if decoupled else cfg.n_levels
    rows = _band_entries(c, s)
    finite = np.isfinite(rows).all(axis=1) & layout.finite
    # the points solved in the real form, and how many of them are solved so far
    real = sine & finite & layout.reflected
    points, place = np.flatnonzero(real), 0
    energies = np.full((len(rows), n_levels), np.nan)
    vectors = np.full((len(rows), cfg.dim, n_levels), np.nan, rows.dtype)
    # Python bools, which the per-point tests read faster than numpy scalars
    flags = zip(rows, finite.tolist(), real.tolist(), sine.tolist())
    for idx, (row, is_finite, is_real, has_sine) in enumerate(flags):
        try:
            _require_finite(is_finite, cfg.dim)
            if is_real:
                at = place % REAL_FORM_CHUNK
                if at == 0:
                    chunk = points[place : place + REAL_FORM_CHUNK]
                    tables = _real_form_tables(np.concatenate((rows[chunk], layout.charging[: len(chunk)]), axis=1))
                place += 1
                energies[idx], z = _evr(_gather_real_form(tables[at], layout.real_form), n_levels)
                _from_real_form(z, vectors[idx])
            else:
                h = np.concatenate((row if has_sine else row.real, diag))[layout.dense].T
                energies[idx], vectors[idx] = _evr(h, n_levels)
        except SolverError as exc:
            if strict:
                raise SolverError(f"flux point {idx} (phi_e={flux[idx]:g}): {exc}") from exc
            logger.warning("flux point %d (phi_e=%g) failed: %s", idx, flux[idx], exc)
    close = _close_to_next(energies)
    for idx in np.flatnonzero(close.any(axis=1)):
        # a point solved as a real matrix is rotated in real arithmetic, as eigensolve rotates it
        _rotate_clusters(vectors[idx] if sine[idx] else vectors[idx].real, close[idx])
    return FluxGrid(flux, energies, vectors, np.isnan(energies[:, 0]), close)


def spectrum_vs_flux(
    params: CircuitParams,
    channels: NanowireChannels,
    flux_values: np.ndarray,
    cfg: ChargeBasisConfig,
    *,
    k_max: int = K_MAX,
    labels: tuple[str, ...] = DEFAULT_LABELS,
    me_pairs: tuple[tuple[int, int], ...] = DEFAULT_PAIRS,
) -> TransitionTable:
    """Tabulate eigenenergies, transitions, and matrix elements over flux.

    The arm Fourier amplitudes (the junction arm's with its internal-mode
    correction) are flux independent and computed once;
    :func:`solve_flux_grid` re-interferes them and solves at each grid
    point. Labels and pairs pass :func:`check_levels` before any solve,
    so ``cfg.n_levels`` bounds the levels they may read, and each point
    solves only the levels they do read (:func:`levels_read`), as the fit
    does; where parity doublets form, the grid solves one more and the
    table keeps the levels read. A failed point logs a warning and leaves
    a NaN row flagged in ``failed``.
    """
    check_levels(cfg.n_levels, labels, me_pairs)
    cfg = replace(cfg, n_levels=levels_read(cfg.n_levels, labels, me_pairs))
    u = fourier_u(params, k_max)
    v = fourier_v(channels, params.gap, k_max)
    grid = solve_flux_grid(u, v, flux_values, params.ec, cfg, strict=False)
    return TransitionTable(
        flux_radians=grid.flux,
        energies=grid.energies[:, : cfg.n_levels],
        frequencies=transition_frequencies(grid.energies, labels),
        matrix_elements={
            (i, j): _charge_elements(grid.vectors[:, :, i], grid.vectors[:, :, j], cfg.n_g)
            for i, j in me_pairs
        },
        labels=tuple(labels),
        me_pairs=tuple(me_pairs),
        failed=grid.failed,
    )
