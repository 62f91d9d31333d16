import logging
import math
import re
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import lapack

import hpqkit.spectrum as spectrum

from hpqkit import (
    ChargeBasisConfig,
    FluxBias,
    HarmonicSpectrum,
    NanowireChannels,
    SolverError,
    build_hamiltonian,
    charge_matrix_element,
    combine_harmonics,
    eigensolve,
    fourier_u,
    fourier_v,
    parity_weights,
    parse_transition_label,
    solve_flux_grid,
    spectrum_vs_flux,
    transition_frequencies,
)
from hpqkit.spectrum import DEGENERACY_TOL, GRID_BLOCK

SRC = Path(__file__).resolve().parents[1] / "src" / "hpqkit"


def transmon_oracle(ej: float, ec: float, ng: float, n_cut: int, n_levels: int) -> np.ndarray:
    """Independent textbook transmon: tridiagonal solve, no shared code."""
    diag = 4.0 * ec * (np.arange(-n_cut, n_cut + 1) - ng) ** 2
    off = np.full(2 * n_cut, -ej / 2.0)
    return scipy.linalg.eigh_tridiagonal(
        diag, off, select="i", select_range=(0, n_levels - 1), eigvals_only=True
    )


@pytest.fixture
def drivers(monkeypatch):
    """Record the LAPACK eigensolver of every solve; call number ``fail_at`` reports ``info = 1``."""
    record = SimpleNamespace(calls=[], fail_at=None)

    def wrap(name: str) -> None:
        driver = getattr(lapack, name)

        def call(*args, **kwargs):
            record.calls.append(name)
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


def reflection_basis(n_cut: int) -> np.ndarray:
    """Columns ``|0>``, ``(|n>+|-n>)/sqrt2`` (n = 1..n_cut), then ``i(|n>-|-n>)/sqrt2``."""
    dim = 2 * n_cut + 1
    q = np.zeros((dim, dim), dtype=complex)
    q[n_cut, 0] = 1.0
    for n in range(1, n_cut + 1):
        q[n_cut + n, n] = q[n_cut - n, n] = math.sqrt(0.5)
        q[n_cut + n, n_cut + n] = 1j * math.sqrt(0.5)
        q[n_cut - n, n_cut + n] = -1j * math.sqrt(0.5)
    return q


@st.composite
def reflection_symmetric_cases(draw):
    """A spectrum with sine content at n_g = 0, a charging energy and a basis."""
    k_max = draw(st.integers(1, 10))
    amplitude = st.floats(-60.0, 60.0)
    sign = st.sampled_from([-1.0, 1.0])
    c = [0.0, draw(sign) * draw(st.floats(5.0, 60.0))]
    c += draw(st.lists(amplitude, min_size=k_max - 1, max_size=k_max - 1))
    s = [0.0, draw(sign) * draw(st.floats(0.1, 60.0))]
    s += draw(st.lists(amplitude, min_size=k_max - 1, max_size=k_max - 1))
    cfg = ChargeBasisConfig(
        n_cut=k_max + 5 + draw(st.integers(0, 10)), n_levels=draw(st.integers(1, 6))
    )
    return HarmonicSpectrum.from_cosine(c, s=s), draw(st.floats(0.1, 1.0)), cfg


def transmon_spectrum(ej: float) -> HarmonicSpectrum:
    return HarmonicSpectrum.from_cosine([0.0, -ej])


def banded_loop_hamiltonian(
    spec: HarmonicSpectrum, ec: float, cfg: ChargeBasisConfig
) -> np.ndarray:
    """Band-by-band accumulation of the charge-basis matrix, sharing no code with the package."""
    dim = cfg.dim
    complex_needed = bool(np.any(spec.s[1:] != 0.0))
    h = np.zeros((dim, dim), dtype=complex if complex_needed else float)
    h[np.diag_indices(dim)] = 4.0 * ec * (cfg.charges - cfg.n_g) ** 2
    for k in range(1, spec.k_max + 1):
        rows = np.arange(dim - k)
        upper = spec.c[k] / 2.0
        if complex_needed:
            upper = upper + 1j * spec.s[k] / 2.0
        h[rows, rows + k] += upper
        h[rows + k, rows] += np.conj(upper)
    return h


class TestBuildHamiltonian:
    def test_single_harmonic_reduces_to_transmon_matrix(self):
        cfg = ChargeBasisConfig(n_cut=6, n_g=0.0, n_levels=3)
        h = build_hamiltonian(transmon_spectrum(9.8), 0.28, cfg)
        n = np.arange(-6, 7)
        expected = np.diag(4.0 * 0.28 * n.astype(float) ** 2)
        rows = np.arange(12)
        expected[rows, rows + 1] = -9.8 / 2.0
        expected[rows + 1, rows] = -9.8 / 2.0
        assert h.dtype == np.float64
        assert np.array_equal(h, expected)

    def test_real_symmetric_without_sine_content(self):
        spec = HarmonicSpectrum.from_cosine([0.0, -5.0, 1.0, -0.2])
        h = build_hamiltonian(spec, 0.3, ChargeBasisConfig(n_cut=8, n_levels=4))
        assert h.dtype == np.float64
        assert np.array_equal(h, h.T)

    def test_hermitian_with_sine_content(self):
        spec = HarmonicSpectrum.from_cosine([0.0, -5.0, 1.0], s=[0.0, 0.7, -0.3])
        h = build_hamiltonian(spec, 0.3, ChargeBasisConfig(n_cut=8, n_levels=4))
        assert np.iscomplexobj(h)
        assert np.array_equal(h, h.conj().T)
        assert h[1, 0] == pytest.approx(-2.5 - 0.35j)
        assert h[0, 1] == pytest.approx(-2.5 + 0.35j)

    def test_even_harmonics_only_gives_parity_blocks(self):
        spec = HarmonicSpectrum.from_cosine([0.0, 0.0, 4.0, 0.0, 0.5])
        cfg = ChargeBasisConfig(n_cut=9, n_g=0.0, n_levels=4)
        h = build_hamiltonian(spec, 0.3, cfg)
        n = cfg.charges
        odd = n % 2 != 0
        assert np.all(h[np.ix_(odd, ~odd)] == 0.0)
        assert np.all(h[np.ix_(~odd, odd)] == 0.0)

    def test_offset_charge_on_diagonal(self):
        cfg = ChargeBasisConfig(n_cut=6, n_g=0.25, n_levels=3)
        h = build_hamiltonian(transmon_spectrum(2.0), 0.5, cfg)
        n = cfg.charges
        assert np.allclose(np.diag(h), 4.0 * 0.5 * (n - 0.25) ** 2)

    def test_rejects_insufficient_cutoff(self):
        spec = HarmonicSpectrum.from_cosine([0.0] + [1.0] * 10)
        with pytest.raises(ValueError):
            build_hamiltonian(spec, 0.3, ChargeBasisConfig(n_cut=12, n_levels=3))

    def test_constant_spectrum_allows_single_site(self):
        spec = HarmonicSpectrum.from_cosine([3.0])
        cfg = ChargeBasisConfig(n_cut=0, n_g=0.3, n_levels=1)
        h = build_hamiltonian(spec, 0.5, cfg)
        assert h.shape == (1, 1)
        assert h[0, 0] == pytest.approx(4.0 * 0.5 * 0.3**2)


class TestEigensolve:
    def test_transmon_frequency_against_asymptotic_form(self):
        h = build_hamiltonian(transmon_spectrum(9.8), 0.28, ChargeBasisConfig(n_cut=30))
        energies, vectors = eigensolve(h, 4)
        f01 = energies[1] - energies[0]
        assert f01 == pytest.approx(4.405296148590823, rel=0.03)

    def test_matches_independent_tridiagonal_oracle(self):
        h = build_hamiltonian(transmon_spectrum(9.8), 0.28, ChargeBasisConfig(n_cut=30))
        energies, _ = eigensolve(h, 4)
        oracle = transmon_oracle(9.8, 0.28, 0.0, 30, 4)
        assert np.max(np.abs(energies - oracle)) < 1e-9

    def test_orthonormal_eigenvectors(self):
        spec = HarmonicSpectrum.from_cosine([0.0, -6.0, 1.5], s=[0.0, 0.4, -0.2])
        h = build_hamiltonian(spec, 0.3, ChargeBasisConfig(n_cut=12, n_levels=5))
        _, vectors = eigensolve(h, 5)
        gram = vectors.conj().T @ vectors
        assert np.max(np.abs(gram - np.eye(5))) < 1e-10

    def test_single_site_edge_case(self):
        spec = HarmonicSpectrum.from_cosine([3.0])
        cfg = ChargeBasisConfig(n_cut=0, n_g=0.3, n_levels=1)
        energies, vectors = eigensolve(build_hamiltonian(spec, 0.5, cfg), 1)
        assert energies[0] == pytest.approx(4.0 * 0.5 * 0.3**2)
        assert abs(vectors[0, 0]) == pytest.approx(1.0)

    def test_cutoff_doubling_converged(self, hpq_params, mixed_channels):
        u = fourier_u(hpq_params, 10)
        v = fourier_v(mixed_channels, hpq_params.gap, 10)
        spec = combine_harmonics(u, v, FluxBias.from_phi0(0.5))
        low = eigensolve(
            build_hamiltonian(spec, hpq_params.ec, ChargeBasisConfig(n_cut=30)), 4
        )[0]
        high = eigensolve(
            build_hamiltonian(spec, hpq_params.ec, ChargeBasisConfig(n_cut=60)), 4
        )[0]
        assert np.max(np.abs(low - high)) < 1e-6

    def test_degenerate_doublet_parity_ordering(self):
        # deep half-period double well: lowest doublet nearly degenerate,
        # even-parity state listed first
        spec = HarmonicSpectrum.from_cosine([0.0, 0.0, 60.0])
        h = build_hamiltonian(spec, 0.25, ChargeBasisConfig(n_cut=25))
        energies, vectors = eigensolve(h, 2)
        assert energies[1] - energies[0] < 1e-3
        w0 = parity_weights(vectors[:, 0])
        w1 = parity_weights(vectors[:, 1])
        assert w0.even_weight > 1.0 - 1e-10
        assert w1.odd_weight > 1.0 - 1e-10

    def test_rejects_bad_level_count(self):
        h = np.eye(3)
        with pytest.raises(ValueError):
            eigensolve(h, 4)


class TestSolverForms:
    """The real form at n_g = 0 against the complex solve, and the driver each matrix takes."""

    SPEC = HarmonicSpectrum.from_cosine([0.0, -6.0, 1.5, -0.2], s=[0.0, 0.4, -0.2, 0.05])

    #: route -> (n_g, sine content, the LAPACK drivers its solve calls)
    ROUTES = {
        "real": (0.0, False, ["dsyevr"]),
        "real form": (0.0, True, ["dsyevr"]),
        "complex, n_g = 0.3": (0.3, True, ["zheevr"]),
        "complex, n_g = 0.5": (0.5, True, ["zheevr"]),
    }

    def matrix(self, route: str) -> np.ndarray:
        n_g, sine, _ = self.ROUTES[route]
        spec = self.SPEC if sine else HarmonicSpectrum.from_cosine(self.SPEC.c)
        return build_hamiltonian(spec, 0.3, ChargeBasisConfig(n_cut=12, n_g=n_g, n_levels=4))

    @given(case=reflection_symmetric_cases())
    def test_real_form_matches_complex_oracle(self, case):
        spec, ec, cfg = case
        h = build_hamiltonian(spec, ec, cfg)
        assert np.iscomplexobj(h) and np.array_equal(h, h[::-1, ::-1].conj())
        energies, vectors = eigensolve(h, cfg.n_levels)
        # the complex solve stays the oracle; one level more gives every level's gaps
        want_e, want_v = scipy.linalg.eigh(h, subset_by_index=(0, cfg.n_levels))
        assert np.max(np.abs(energies - want_e[:-1])) <= 1e-12 * np.max(np.abs(spec.c))
        gaps = np.diff(want_e)
        for n in range(cfg.n_levels):
            if min(gaps[n], gaps[n - 1] if n else math.inf) > 1e-6:
                overlap = abs(np.vdot(want_v[:, n], vectors[:, n]))
                assert abs(overlap - 1.0) < 1e-9, n
        q = reflection_basis(cfg.n_cut)
        full = q.conj().T @ h @ q
        atol = 8.0 * np.finfo(float).eps * np.max(np.abs(h))
        assert np.max(np.abs(full.real - spectrum._real_form(h))) <= atol
        assert np.max(np.abs(full.imag)) <= atol

    @pytest.mark.parametrize("route", list(ROUTES))
    def test_each_matrix_takes_its_driver(self, drivers, route):
        h = self.matrix(route)
        assert np.iscomplexobj(h) == self.ROUTES[route][1]
        eigensolve(h, 4)
        assert drivers.calls == self.ROUTES[route][2]

    def test_real_and_off_symmetry_inputs_match_scipy_bit_for_bit(self):
        for route in ("real", "complex, n_g = 0.3", "complex, n_g = 0.5"):
            h = self.matrix(route)
            energies, vectors = eigensolve(h, 4)
            want_e, want_v = scipy.linalg.eigh(h, subset_by_index=(0, 3))
            assert energies.tobytes() == want_e.tobytes(), route
            assert vectors.dtype == want_v.dtype and vectors.tobytes() == want_v.tobytes(), route

    @pytest.mark.parametrize("route", list(ROUTES))
    def test_lapack_failure_raises_solver_error(self, drivers, route):
        drivers.fail_at = 1
        with pytest.raises(SolverError, match=r"LAPACK (dsyevr|zheevr) failed for dim=25: info=1"):
            eigensolve(self.matrix(route), 4)

    @pytest.mark.parametrize("route", list(ROUTES))
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_matrix_raises_before_lapack(self, drivers, route, bad):
        h = self.matrix(route)
        h[3, 5] = h[5, 3] = bad
        with pytest.raises(SolverError, match="non-finite"):
            eigensolve(h, 4)
        assert drivers.calls == []


class TestTransitionFrequencies:
    def test_simple_differences(self):
        energies = np.array([0.0, 5.0, 11.0])
        out = transition_frequencies(energies, ("f01", "f12", "f02", "f02/2"))
        assert out["f01"] == pytest.approx(5.0)
        assert out["f12"] == pytest.approx(6.0)
        assert out["f02"] == pytest.approx(11.0)
        assert out["f02/2"] == pytest.approx(5.5)

    def test_sum_rule_exact(self):
        energies = np.array([0.1, 4.7, 9.2, 15.0])
        out = transition_frequencies(energies, ("f01", "f12", "f02"))
        assert out["f02"] == out["f01"] + out["f12"]

    def test_degenerate_doublet_zero_frequency(self):
        out = transition_frequencies(np.array([1.0, 1.0]), ("f01",))
        assert out["f01"] == 0.0

    def test_label_parsing(self):
        assert parse_transition_label("f13") == (1, 3, 1)
        assert parse_transition_label("f03/3") == (0, 3, 3)
        for bad in ("f10", "01", "f0", "f012", "g01"):
            with pytest.raises(ValueError):
                parse_transition_label(bad)

    def test_missing_level_rejected(self):
        with pytest.raises(ValueError):
            transition_frequencies(np.array([0.0, 1.0]), ("f02",))


class TestChargeStructure:
    def test_diagonal_element_vanishes_on_parity_eigenstate(self):
        spec = HarmonicSpectrum.from_cosine([0.0, 0.0, 8.0])
        h = build_hamiltonian(spec, 0.3, ChargeBasisConfig(n_cut=10))
        _, vectors = eigensolve(h, 1)
        assert charge_matrix_element(vectors[:, 0], vectors[:, 0]) < 1e-12

    def test_selection_rule_for_even_potential(self):
        # two selection rules at once for an even-harmonic potential at
        # n_g=0: the charge operator conserves Cooper-number parity and is
        # odd under charge inversion, so only pairs in the same number
        # sector with opposite inversion character survive
        spec = HarmonicSpectrum.from_cosine([0.0, 0.0, 30.0])
        h = build_hamiltonian(spec, 0.25, ChargeBasisConfig(n_cut=20))
        _, vectors = eigensolve(h, 4)
        cooper_even = [parity_weights(vectors[:, m]).even_weight > 0.5 for m in range(4)]
        inversion = [float(np.dot(vectors[:, m], vectors[::-1, m])) for m in range(4)]
        for a in range(4):
            for b in range(a + 1, 4):
                element = charge_matrix_element(vectors[:, a], vectors[:, b])
                same_sector = cooper_even[a] == cooper_even[b]
                opposite_inversion = inversion[a] * inversion[b] < 0.0
                if same_sector and opposite_inversion:
                    assert element > 1e-3, (a, b)
                else:
                    assert element < 1e-10, (a, b)
        # the lowest doublet is a same-inversion pair: drive-forbidden
        assert charge_matrix_element(vectors[:, 0], vectors[:, 1]) < 1e-10

    def test_parity_weights_sum_to_one(self):
        spec = HarmonicSpectrum.from_cosine([0.0, -7.0, 1.2])
        h = build_hamiltonian(spec, 0.3, ChargeBasisConfig(n_cut=15))
        _, vectors = eigensolve(h, 3)
        for m in range(3):
            w = parity_weights(vectors[:, m])
            assert w.even_weight + w.odd_weight == pytest.approx(1.0, abs=1e-12)

    def test_transmon_mixes_parities(self):
        h = build_hamiltonian(transmon_spectrum(9.8), 0.28, ChargeBasisConfig(n_cut=30))
        _, vectors = eigensolve(h, 2)
        w = parity_weights(vectors[:, 0])
        assert 0.05 < w.even_weight < 0.95
        assert 0.05 < w.odd_weight < 0.95

    def test_unnormalized_vector_rejected(self):
        with pytest.raises(ValueError):
            parity_weights(np.array([1.0, 1.0, 1.0]))

    def test_gauge_shift_of_offset_charge(self):
        spec = HarmonicSpectrum.from_cosine([0.0, -7.0, 1.5, -0.3])
        for ng in (0.0, 0.2):
            a = eigensolve(
                build_hamiltonian(spec, 0.3, ChargeBasisConfig(n_cut=25, n_g=ng)), 4
            )[0]
            b = eigensolve(
                build_hamiltonian(spec, 0.3, ChargeBasisConfig(n_cut=25, n_g=ng + 1.0)), 4
            )[0]
            assert np.max(np.abs(a - b)) < 1e-9


class TestSpectrumVsFlux:
    def test_flux_reversal_symmetry(self, hpq_params, mixed_channels):
        cfg = ChargeBasisConfig(n_cut=25, n_levels=4)
        grid = np.array([0.3, 1.1, 2.2])
        fwd = spectrum_vs_flux(hpq_params, mixed_channels, grid, cfg)
        rev = spectrum_vs_flux(hpq_params, mixed_channels, -grid, cfg)
        for label in fwd.labels:
            assert np.max(np.abs(fwd.frequencies[label] - rev.frequencies[label])) < 1e-9

    def test_open_nanowire_is_flux_flat(self, hpq_params):
        cfg = ChargeBasisConfig(n_cut=25, n_levels=4)
        grid = np.linspace(0.0, math.pi, 5)
        table = spectrum_vs_flux(hpq_params, NanowireChannels(()), grid, cfg)
        f01 = table.frequencies["f01"]
        assert np.max(f01) - np.min(f01) < 1e-10

    def test_mixed_gate_dispersion_dips_at_half_flux(self, hpq_params, mixed_channels):
        cfg = ChargeBasisConfig(n_cut=25, n_levels=4)
        grid = 2.0 * math.pi * np.linspace(0.0, 0.5, 21)
        table = spectrum_vs_flux(hpq_params, mixed_channels, grid, cfg)
        f01 = table.frequencies["f01"]
        assert int(np.argmin(f01)) == len(grid) - 1
        assert f01[-1] < 1.5

    def test_matrix_elements_match_per_point_dot_product(self, hpq_params, mixed_channels):
        cfg = ChargeBasisConfig(n_cut=25, n_g=0.3, n_levels=4)
        flux = np.linspace(0.0, math.pi, 7)
        pairs = ((0, 1), (1, 2), (0, 3))
        table = spectrum_vs_flux(hpq_params, mixed_channels, flux, cfg, me_pairs=pairs)
        u, v = fourier_u(hpq_params, 10), fourier_v(mixed_channels, hpq_params.gap, 10)
        # the stacked product sums in another order: allow dim rounding errors of terms <= n_cut
        atol = cfg.dim * cfg.n_cut * np.finfo(float).eps
        for p, phi in enumerate(flux):
            _, vectors = eigensolve(build_hamiltonian(combine_harmonics(u, v, FluxBias(phi)), 0.28, cfg), 4)
            for i, j in pairs:
                want = charge_matrix_element(vectors[:, i], vectors[:, j], cfg.n_g)
                assert abs(table.matrix_elements[(i, j)][p] - want) <= atol, (phi, i, j)

    @pytest.mark.parametrize(
        "labels, pairs, message",
        [
            (("f01", "f04"), ((0, 1),), "label 'f04' needs level 4"),
            (("f01", "f14/2"), ((0, 1),), "label 'f14/2' needs level 4"),
            (("f01",), ((0, 1), (4, 2)), "matrix element n42 needs level 4"),
        ],
    )
    def test_level_beyond_basis_raises_before_any_solve(
        self, hpq_params, mixed_channels, monkeypatch, labels, pairs, message
    ):
        solves = []
        monkeypatch.setattr(spectrum, "eigensolve", lambda *args: solves.append(args))
        cfg = ChargeBasisConfig(n_cut=25, n_levels=4)
        with pytest.raises(ValueError, match=message):
            spectrum_vs_flux(
                hpq_params, mixed_channels, np.linspace(0.0, math.pi, 5), cfg,
                labels=labels, me_pairs=pairs,
            )
        assert solves == []

    def test_csv_export(self, tmp_path, hpq_params, odd_channels):
        cfg = ChargeBasisConfig(n_cut=25, n_levels=4)
        grid = 2.0 * math.pi * np.linspace(0.0, 0.5, 3)
        table = spectrum_vs_flux(hpq_params, odd_channels, grid, cfg)
        path = tmp_path / "transitions.csv"
        table.to_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "flux_phi0,f01,f12,f02,n01,n12"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(0.0)
        assert float(first[1]) == pytest.approx(table.frequencies["f01"][0], rel=1e-11)


class TestSolveFluxGrid:
    """The vectorised grid solver against per-point assembly and solve."""

    #: 0, +-pi, points outside [-pi, pi), and a sweep that spills into a second block
    GRID = np.concatenate(
        [[0.0, math.pi, -math.pi, 7.5, -9.0], np.linspace(-math.pi, math.pi, GRID_BLOCK + 4)]
    )

    def cases(self, hpq_params, mixed_channels):
        u = fourier_u(hpq_params, 10)
        even_u = np.zeros(11)
        even_u[2], even_u[4] = -150.0, 2.0
        even_v = np.zeros(11)
        even_v[2] = -4.0
        return {
            "mixed": (u, fourier_v(mixed_channels, hpq_params.gap, 10), 0.0),
            "mixed, n_g = 0.3": (u, fourier_v(mixed_channels, hpq_params.gap, 10), 0.3),
            "open nanowire": (u, fourier_v(NanowireChannels(()), hpq_params.gap, 10), 0.0),
            "even-only doublet": (even_u, even_v, 0.0),
        }

    def test_bit_identical_to_per_point_solve(self, hpq_params, mixed_channels):
        assert len(self.GRID) > GRID_BLOCK
        for name, (u, v, n_g) in self.cases(hpq_params, mixed_channels).items():
            cfg = ChargeBasisConfig(n_cut=25, n_g=n_g, n_levels=4)
            grid = solve_flux_grid(u, v, self.GRID, 0.28, cfg)
            assert np.array_equal(grid.flux, self.GRID), name
            assert grid.energies.shape == (len(self.GRID), cfg.n_levels), name
            assert grid.vectors.shape == (len(self.GRID), cfg.dim, cfg.n_levels), name
            assert not grid.failed.any(), name
            for p, phi in enumerate(self.GRID):
                spec = combine_harmonics(u, v, FluxBias(phi))
                h = build_hamiltonian(spec, 0.28, cfg)
                loop = banded_loop_hamiltonian(spec, 0.28, cfg)
                assert h.dtype == loop.dtype and h.tobytes() == loop.tobytes(), (name, phi)
                want_e, want_v = eigensolve(h, cfg.n_levels)
                assert np.array_equal(grid.energies[p], want_e), (name, phi)
                assert np.array_equal(grid.vectors[p], want_v), (name, phi)

    def test_cases_cover_real_complex_and_degenerate_points(
        self, hpq_params, mixed_channels, monkeypatch
    ):
        solved = []

        def recording(h, n_levels):
            solved.append(h.dtype)
            return eigensolve(h, n_levels)

        monkeypatch.setattr(spectrum, "eigensolve", recording)
        cases = self.cases(hpq_params, mixed_channels)
        cfg = ChargeBasisConfig(n_cut=25, n_levels=4)

        def solve(name):
            solved.clear()
            u, v, _ = cases[name]
            return solve_flux_grid(u, v, self.GRID, 0.28, cfg)

        assert solve("mixed").vectors.dtype == complex
        assert set(solved) == {np.dtype(float), np.dtype(complex)}
        assert solve("open nanowire").vectors.dtype == float
        assert set(solved) == {np.dtype(float)}
        grid = solve("even-only doublet")
        assert len(solved) == len(self.GRID)
        for energies, vectors in zip(grid.energies, grid.vectors):
            # inside DEGENERACY_TOL, so the pair is ordered by even weight
            assert energies[1] - energies[0] < 1e-9
            w0, w1 = (parity_weights(vectors[:, m]).even_weight for m in (0, 1))
            assert w0 > 0.5 > w1

    def test_clustered_flags_levels_next_to_a_degenerate_neighbour(self, hpq_params, mixed_channels):
        cfg = ChargeBasisConfig(n_cut=25, n_levels=4)
        for name, (u, v, _) in self.cases(hpq_params, mixed_channels).items():
            grid = solve_flux_grid(u, v, self.GRID, 0.28, cfg)
            energies = grid.energies

            def close(p, n):
                return n + 1 < cfg.n_levels and energies[p, n + 1] - energies[p, n] < DEGENERACY_TOL

            want = [
                [close(p, n) or (n > 0 and close(p, n - 1)) for n in range(cfg.n_levels)]
                for p in range(len(self.GRID))
            ]
            assert grid.clustered.tolist() == want, name
            assert grid.clustered[:, :2].all() == (name == "even-only doublet"), name

    def test_wraps_flux_like_flux_bias(self, hpq_params, mixed_channels):
        u, v, _ = self.cases(hpq_params, mixed_channels)["mixed"]
        cfg = ChargeBasisConfig(n_cut=25, n_levels=4)
        raw = np.array([7.5, -9.0, 3.0 * math.pi, -math.pi, 1e-20])
        wrapped = [FluxBias(phi).phi_e for phi in raw]
        assert np.array_equal(
            solve_flux_grid(u, v, raw, 0.28, cfg).energies,
            solve_flux_grid(u, v, wrapped, 0.28, cfg).energies,
        )

    def test_frees_each_block_before_the_next_fill(self, hpq_params, mixed_channels):
        u, v, _ = self.cases(hpq_params, mixed_channels)["mixed"]
        cfg = ChargeBasisConfig(n_cut=30, n_levels=6)
        # off 0 and pi every point has sine content, so every block is complex
        flux = np.linspace(0.1, 3.0, 3 * GRID_BLOCK)
        block_bytes = GRID_BLOCK * cfg.dim**2 * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            grid = solve_flux_grid(u, v, flux, 0.28, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grid.vectors.dtype == complex and not grid.failed.any()
        assert peak < 2 * block_bytes

    def test_failed_point_leaves_nan_row(self, hpq_params, mixed_channels, fail_solve, caplog):
        cfg = ChargeBasisConfig(n_cut=25, n_levels=4)
        grid = np.linspace(0.0, math.pi, 5)
        clean = spectrum_vs_flux(hpq_params, mixed_channels, grid, cfg)
        fail_solve(3)
        with caplog.at_level(logging.WARNING, logger="hpqkit.spectrum"):
            table = spectrum_vs_flux(hpq_params, mixed_channels, grid, cfg)
        assert table.failed.tolist() == [False, False, True, False, False]
        assert "flux point 2" in caplog.text
        assert np.all(np.isnan(table.energies[2]))
        keep = ~table.failed
        for label in table.labels:
            assert math.isnan(table.frequencies[label][2])
            assert np.array_equal(table.frequencies[label][keep], clean.frequencies[label][keep])
        for pair in table.me_pairs:
            assert math.isnan(table.matrix_elements[pair][2])

    def test_strict_failure_names_flux_index(self, hpq_params, mixed_channels, fail_solve):
        u, v, _ = self.cases(hpq_params, mixed_channels)["mixed"]
        cfg = ChargeBasisConfig(n_cut=25, n_levels=4)
        fail_solve(3)
        with pytest.raises(SolverError, match=r"flux point 2 \(phi_e="):
            solve_flux_grid(u, v, np.linspace(0.0, math.pi, 5), hpq_params.ec, cfg)


def test_only_spectrum_module_names_the_degeneracy_tolerance():
    """The degeneracy rule lives in ``spectrum``; others read ``FluxGrid.clustered``."""
    offenders = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if path.name != "spectrum.py" and "DEGENERACY_TOL" in path.read_text(encoding="utf-8")
    ]
    assert offenders == []


def test_only_spectrum_module_spells_the_cutoff_headroom():
    """``n_cut >= k_max + CUTOFF_HEADROOM`` has one home; the fit and the CLI read it."""
    rule = re.compile(r"k_max\s*\+\s*5\b")
    offenders = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if path.name != "spectrum.py" and rule.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def test_only_spectrum_module_calls_an_eigen_driver():
    """Every eigensolve goes through ``spectrum.eigensolve``, which picks the form."""
    driver = re.compile(r"\beigh\b|syevr|heevr|linalg\.eig")
    assert driver.search((SRC / "spectrum.py").read_text(encoding="utf-8"))
    offenders = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if path.name != "spectrum.py" and driver.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
