import math
from dataclasses import dataclass
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from scipy.linalg import lapack
from scipy.special import expit

import hpqkit.fitstack as fitstack
import hpqkit.spectrum as spectrum
from hpqkit import CircuitParams, NanowireChannels, fourier_v
from hpqkit.potentials import K_MAX, _power_amplitudes
from hpqkit.spectrum import ChargeBasisConfig, FluxGrid, TransitionTable, solve_flux_grid

settings.register_profile(
    "ci",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def drivers(monkeypatch):
    """Record the LAPACK eigensolver of every solve and the levels it asks for (``iu``); call
    number ``fail_at`` reports ``info = 1``."""
    record = SimpleNamespace(calls=[], levels=[], fail_at=None)

    def wrap(name: str) -> None:
        driver = getattr(lapack, name)

        def call(*args, **kwargs):
            record.calls.append(name)
            record.levels.append(kwargs["iu"])
            out = driver(*args, **kwargs)
            return (*out[:-1], 1) if len(record.calls) == record.fail_at else out

        monkeypatch.setattr(lapack, name, call)

    wrap("dsyevr")
    wrap("zheevr")
    return record


@pytest.fixture
def fail_solve(drivers):
    """``fail_solve(n)`` makes the LAPACK call of the n-th solve from then on fail."""

    def arm(n: int) -> None:
        drivers.fail_at = len(drivers.calls) + n

    return arm


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


def real_form(h: np.ndarray) -> np.ndarray:
    """Slice-based oracle for the real form ``eigensolve`` and the grid gather through ``spectrum._real_form_map``.

    A charge-reflection-symmetric ``h`` in the basis ``|0>``,
    ``(|n>+|-n>)/sqrt2``, ``i(|n>-|-n>)/sqrt2`` (n = 1..n_cut), built block
    by block from slices of ``h``, in Fortran order.
    """
    dim = len(h)
    n_cut = (dim - 1) // 2
    row, pos, mirror = h[n_cut, n_cut + 1 :], h[n_cut + 1 :, n_cut + 1 :], h[n_cut + 1 :, :n_cut][:, ::-1]
    row = math.sqrt(2.0) * row
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


def full_level_table(
    params, channels, flux, cfg, *, k_max=K_MAX,
    labels=spectrum.DEFAULT_LABELS, me_pairs=spectrum.DEFAULT_PAIRS,
) -> TransitionTable:
    """Reference for ``spectrum.spectrum_vs_flux``: every point solves all ``cfg.n_levels`` levels.

    The frequencies are energy differences over the divisor and the matrix
    elements ``|<i| n - n_g |j>|``, written out per label and pair. The arms
    are looked up on ``spectrum``, so a test that patches them patches both
    routes.
    """
    u = spectrum.fourier_u(params, k_max)
    v = spectrum.fourier_v(channels, params.gap, k_max)
    grid = solve_flux_grid(u, v, flux, params.ec, cfg, strict=False)
    frequencies = {}
    for label in labels:
        i, j, divisor = spectrum.parse_transition_label(label)
        frequencies[label] = (grid.energies[:, j] - grid.energies[:, i]) / divisor
    n = cfg.charges - cfg.n_g
    matrix_elements = {
        (i, j): np.abs(np.sum(grid.vectors[:, :, i].conj() * n * grid.vectors[:, :, j], axis=1))
        for i, j in me_pairs
    }
    return TransitionTable(
        grid.flux, grid.energies, frequencies, matrix_elements, tuple(labels), tuple(me_pairs), grid.failed
    )


@dataclass(frozen=True)
class PerEvaluationGrid:
    """One dataset's solve on the per-evaluation route: its grid and the bookkeeping it rebuilt."""

    grid: FluxGrid
    points: tuple
    rows: np.ndarray
    levels: np.ndarray

    def model(self) -> np.ndarray:
        i, j, divisor = self.levels
        return (self.grid.energies[self.rows, j] - self.grid.energies[self.rows, i]) / divisor


def _per_evaluation_solve(params, channels, points, cfg) -> PerEvaluationGrid:
    # looked up on fitstack, so a test that patches the fit's junction arm patches both routes
    u = fitstack.fourier_u(params, cfg.k_max)
    v = fourier_v(channels, params.gap, cfg.k_max)
    rows: dict[float, int] = {}
    point_rows = np.array([rows.setdefault(p.flux, len(rows)) for p in points])
    levels = np.array([p.levels for p in points]).T
    basis = ChargeBasisConfig(n_cut=cfg.n_cut, n_g=cfg.n_g, n_levels=int(levels[1].max()) + 1)
    return PerEvaluationGrid(solve_flux_grid(u, v, list(rows), cfg.ec, basis), tuple(points), point_rows, levels)


def _per_evaluation_sigmas(points, cfg) -> np.ndarray:
    return np.array([max(p.sigma, cfg.sigma_floor) for p in points])


def per_evaluation_residuals(theta, datasets, cfg, layout, *, grids=None) -> np.ndarray:
    """Reference for ``fitstack.model_residuals``: the route that rebuilds everything per evaluation.

    Every call makes both arms from ``fourier_u`` and ``fourier_v`` and
    each dataset's rows, levels, data, sigmas and basis anew, as the fit
    did before it planned them once. ``grids`` collects
    :class:`PerEvaluationGrid` objects for :func:`per_evaluation_jacobian`.
    """
    params, channel_sets = layout.unpack(theta, cfg)
    chunks = []
    for dataset, channels in zip(datasets, channel_sets):
        points = dataset.used_points
        solution = _per_evaluation_solve(params, channels, points, cfg)
        if grids is not None:
            grids.append(solution)
        data = np.array([p.freq for p in points])
        chunks.append((solution.model() - data) / _per_evaluation_sigmas(points, cfg))
    return np.concatenate(chunks)


def per_evaluation_jacobian(theta, cfg, layout, solutions) -> np.ndarray:
    """Reference for ``fitstack._model_jacobian`` on grids of :func:`per_evaluation_residuals`.

    The arms' derivatives come from their own amplitude calls, the phase
    table and each conjugate are made per call, and the levels of a
    degenerate cluster take their mean, summed level by level.
    """
    params, _ = layout.unpack(theta, cfg)
    k = np.arange(1, cfg.k_max + 1)
    du = np.zeros((cfg.k_max, layout.n_params))
    if layout.globals_free:
        junction, correction = _power_amplitudes(params.lam, (0.5, 0.25), cfg.k_max)[:, 1:]
        junction = -params.ej_sigma * junction
        correction = math.sqrt(params.ej_sigma * params.ecj) * correction
        du[:, 0] = junction + correction / 2.0
        du[:, 1] = correction / 2.0
    blocks = []
    for d, solution in enumerate(solutions):
        t_slice = layout.t_slice(d)
        dv = np.zeros((cfg.k_max, layout.n_params))
        logits = theta[t_slice]
        amplitudes = _power_amplitudes(expit(logits)[:, None], (0.5, -0.5), cfg.k_max)[..., 1:]
        dv[:, t_slice] = (-0.5 * params.gap * expit(-logits)[:, None] * (amplitudes[:, 0] - amplitudes[:, 1])).T
        if layout.globals_free:
            dv[:, 2] = -params.gap * amplitudes[:, 0].sum(axis=0)
        vectors = solution.grid.vectors
        g = np.stack([np.einsum("rml,rml->rl", vectors[:, :-kk].conj(), vectors[:, kk:]) for kk in k], axis=-1)
        phase = np.exp(1j * np.outer(solution.grid.flux, k))[:, np.newaxis, :]
        d_energy = cluster_means(g.real @ du + (phase * g).real @ dv, solution.grid.energies)
        rows, (i, j, divisor) = solution.rows, solution.levels
        sigmas = _per_evaluation_sigmas(solution.points, cfg)
        blocks.append((d_energy[rows, j] - d_energy[rows, i]) / (divisor * sigmas)[:, None])
    return np.vstack(blocks)


def clusters(energies: np.ndarray) -> list[list[int]]:
    """The levels of one point's ``energies``, grouped into runs joined by ``spectrum._close_to_next``."""
    groups = [[0]]
    for level, joined in enumerate(spectrum._close_to_next(energies), start=1):
        if joined:
            groups[-1].append(level)
        else:
            groups.append([level])
    return groups


def cluster_means(values: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """A copy of ``values[point, level, ...]`` whose degenerate clusters hold their mean, summed level by level."""
    out = values.copy()
    for point, row in enumerate(energies):
        for group in clusters(row):
            if len(group) > 1:
                out[point, group] = sum(values[point, group[1:]], values[point, group[0]]) / len(group)
    return out


def exact_phi_min(params: CircuitParams, transmissions, phi_e: float) -> float:
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
            out = -ej * root + ej * mpmath.sqrt(ecj / ej * root)
            return out - gap * mpmath.fsum(mpmath.sqrt(1 - t * mpmath.sin((phi - pe) / 2) ** 2) for t in ts)

        def du(phi):
            root = junction_root(phi)
            droot = -lam * mpmath.sin(phi) / (4 * root)
            out = -ej * droot + mpmath.sqrt(ej * ecj) * droot / (2 * mpmath.sqrt(root))
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
