import ast
import itertools
import logging
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import hpqkit.spectrum as spectrum
from hpqkit.cli import main

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
from hpqkit.spectrum import DEFAULT_LABELS, DEFAULT_PAIRS, DEGENERACY_TOL

from conftest import cluster_means, from_real_form, full_level_table, real_form

SRC = Path(__file__).resolve().parents[1] / "src" / "hpqkit"


def transmon_oracle(ej: float, ec: float, ng: float, n_cut: int, n_levels: int) -> np.ndarray:
    """Independent textbook transmon: tridiagonal solve, no shared code."""
    diag = 4.0 * ec * (np.arange(-n_cut, n_cut + 1) - ng) ** 2
    off = np.full(2 * n_cut, -ej / 2.0)
    return scipy.linalg.eigh_tridiagonal(
        diag, off, select="i", select_range=(0, n_levels - 1), eigvals_only=True
    )


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


@st.composite
def flux_grid_cases(draw):
    """Arm amplitudes (``v`` zero or not), a flux grid, a charging energy and a basis at one of four n_g."""
    k_max = draw(st.integers(1, 10))
    amplitudes = st.lists(st.floats(-60.0, 60.0), min_size=k_max + 1, max_size=k_max + 1)
    u = np.array(draw(amplitudes))
    v = np.array(draw(amplitudes)) if draw(st.booleans()) else np.zeros(k_max + 1)
    # 0, +-pi (half flux), their images beyond 2 pi, and arbitrary points
    landmarks = st.sampled_from([0.0, math.pi, -math.pi, 3.0 * math.pi, -5.0 * math.pi, 2.0 * math.pi])
    flux = draw(st.lists(landmarks | st.floats(-20.0, 20.0), min_size=1, max_size=6))
    cfg = ChargeBasisConfig(
        n_cut=k_max + 5 + draw(st.integers(0, 10)),
        n_g=draw(st.sampled_from([0.0, 0.3, 0.5, -0.5])),
        n_levels=draw(st.integers(1, 6)),
    )
    return u, v, np.array(flux), draw(st.floats(0.1, 1.0)), cfg


@st.composite
def reused_layout_cases(draw):
    """A flux grid, a charging energy and a basis, with several arm draws to solve on that one grid.

    The grids are empty, hold exact +-pi, values beyond +-pi or repeated
    fluxes, or are arbitrary; ``v`` may be zero (an open nanowire), and
    one draw may carry a non-finite amplitude.
    """
    k_max = draw(st.integers(1, 10))
    named = [[], [math.pi, -math.pi, 0.0], [7.5, -9.0, 3.0 * math.pi, -5.0 * math.pi], [1.0, -2.0, 1.0, 1.0]]
    flux = draw(st.sampled_from(named) | st.lists(st.floats(-20.0, 20.0), max_size=6))
    cfg = ChargeBasisConfig(
        n_cut=k_max + 5 + draw(st.integers(0, 6)),
        n_g=draw(st.sampled_from([0.0, 0.3, -0.5])),
        n_levels=draw(st.integers(1, 5)),
    )
    amplitudes = st.lists(st.floats(-60.0, 60.0), min_size=k_max + 1, max_size=k_max + 1).map(np.array)
    arms = [(draw(amplitudes), draw(amplitudes | st.just(np.zeros(k_max + 1)))) for _ in range(draw(st.integers(2, 4)))]
    if draw(st.booleans()):
        u, v = arms[draw(st.integers(0, len(arms) - 1))]
        u[draw(st.integers(1, k_max))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return np.array(flux, dtype=float), draw(st.floats(0.1, 1.0)), cfg, arms


def even_only_arms() -> tuple[np.ndarray, np.ndarray]:
    """Arms with only even harmonics: the even and odd charges decouple, and the levels pair into
    doublets (0, 1), (2, 3) split by less than ``DEGENERACY_TOL``."""
    u = np.zeros(11)
    u[2], u[4] = -150.0, 2.0
    v = np.zeros(11)
    v[2] = -4.0
    return u, v


@pytest.fixture
def even_only(monkeypatch):
    """``spectrum_vs_flux`` and ``full_level_table`` read the arms of :func:`even_only_arms`."""
    u, v = even_only_arms()
    monkeypatch.setattr(spectrum, "fourier_u", lambda *args, **kwargs: u)
    monkeypatch.setattr(spectrum, "fourier_v", lambda *args, **kwargs: v)


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

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"n_cut": -1}, "n_cut must be >= 0, got -1"),
            ({"n_levels": 0}, r"n_levels must be in \[1, 61\], got 0"),
            ({"n_g": math.nan}, "n_g must be finite, got nan"),
            ({"n_g": math.inf}, "n_g must be finite, got inf"),
        ],
    )
    def test_out_of_range_basis_rejected(self, fields, message):
        # a NaN offset would otherwise fail every point of a flux grid
        with pytest.raises(ValueError, match=f"^{message}$"):
            ChargeBasisConfig(**fields)

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

    @pytest.mark.parametrize("shape", [(3, 4), (3,), (2, 2, 2)])
    def test_rejects_a_non_square_matrix(self, shape):
        with pytest.raises(ValueError, match=f"^expected a square matrix, got {re.escape(str(shape))}$"):
            eigensolve(np.zeros(shape), 1)


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
        # the real form as eigensolve gathers it from the dense matrix
        r = spectrum._gather_real_form(spectrum._real_form_tables(h.ravel()), spectrum._real_form_map(cfg.n_cut))
        assert np.max(np.abs(full.real - r)) <= atol
        assert np.max(np.abs(full.imag)) <= atol

    @given(
        n_cut=st.integers(0, 30),
        n_levels=st.integers(1, 6),
        fortran=st.booleans(),
        data=st.data(),
    )
    def test_in_place_back_map_matches_the_allocating_oracle(self, n_cut, n_levels, fortran, data):
        cells = st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0])
        dim = 2 * n_cut + 1
        values = data.draw(st.lists(cells, min_size=dim * n_levels, max_size=dim * n_levels))
        z = np.array(values).reshape(dim, n_levels, order="F" if fortran else "C")
        want = from_real_form(z)
        # a row of a grid's vectors, as the grid solver passes it
        grid = np.full((3, dim, n_levels), np.nan, complex)
        out = grid[1]
        assert spectrum._from_real_form(z, out) is out
        assert grid[1].tobytes() == want.tobytes()
        assert np.isnan(grid[[0, 2]]).all()
        # a fresh array, as eigensolve passes it
        assert spectrum._from_real_form(z, np.empty(z.shape, dtype=complex)).tobytes() == want.tobytes()

    @given(
        k_max=st.integers(1, 10),
        headroom=st.integers(0, 10),
        ec=st.floats(0.1, 1.0),
        data=st.data(),
    )
    def test_gathered_real_form_matches_the_slice_oracle(self, k_max, headroom, ec, data):
        amplitudes = st.lists(
            st.floats(-60.0, 60.0) | st.sampled_from([0.0, -0.0]), min_size=k_max, max_size=k_max
        )
        c = np.array([0.0, *data.draw(amplitudes)])
        # some sine content, so that the matrix is complex
        s = np.array([0.0, *data.draw(amplitudes)])
        s[data.draw(st.integers(1, k_max))] = data.draw(st.sampled_from([-1.0, 1.0])) * data.draw(st.floats(0.1, 60.0))
        cfg = ChargeBasisConfig(n_cut=k_max + 5 + headroom, n_levels=1)
        h = build_hamiltonian(HarmonicSpectrum.from_cosine(c, s=s), ec, cfg)
        want = real_form(h)
        # from the dense matrix, as eigensolve gathers it
        dense = spectrum._gather_real_form(spectrum._real_form_tables(h.ravel()), spectrum._real_form_map(cfg.n_cut))
        # from the band row and the charging energies, as the grid gathers it
        cells = np.concatenate((spectrum._band_entries(c, s), spectrum._diagonal(ec, cfg)))
        tables = spectrum._real_form_tables(cells[None])
        grid = spectrum._gather_real_form(tables[0], spectrum._real_form_map(cfg.n_cut, k_max))
        for got in (dense, grid):
            assert got.flags.f_contiguous
            assert got.tobytes(order="F") == want.tobytes(order="F")
            assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("route", list(ROUTES))
    def test_each_matrix_takes_its_driver(self, drivers, route):
        h = self.matrix(route)
        assert np.iscomplexobj(h) == self.ROUTES[route][1]
        eigensolve(h, 4)
        assert drivers.calls == self.ROUTES[route][2]

    @pytest.mark.parametrize("dim", [2, 4])
    def test_even_dimension_reflection_symmetric_input_matches_scipy_bit_for_bit(self, drivers, dim):
        # ``h[::-1, ::-1] == conj(h)``, but the basis of the real form needs odd dimension
        if dim == 2:
            h = np.array([[1.0, 0.5j], [-0.5j, 1.0]])
        else:
            rng = np.random.default_rng(3)
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            a = a + a.conj().T
            h = (a + a[::-1, ::-1].conj()) / 2.0
        assert np.array_equal(h, h[::-1, ::-1].conj()) and h[0, 1].imag != 0.0
        energies, vectors = eigensolve(h, dim)
        want_e, want_v = scipy.linalg.eigh(h, subset_by_index=(0, dim - 1))
        assert drivers.calls == ["zheevr"]
        assert energies.tobytes() == want_e.tobytes()
        assert vectors.dtype == want_v.dtype and vectors.tobytes() == want_v.tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("route", list(ROUTES))
    def test_input_is_left_unchanged(self, route, order):
        # a Fortran-ordered matrix of the driver's dtype is one LAPACK could overwrite in place
        h = np.array(self.matrix(route), order=order)
        before = h.tobytes(order="A")
        eigensolve(h, 4)
        assert h.tobytes(order="A") == before

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

    def test_workspace_query_failure_raises_solver_error(self, monkeypatch):
        query = scipy.linalg.lapack.dsyevr_lwork
        monkeypatch.setattr(
            scipy.linalg.lapack, "dsyevr_lwork", lambda *args, **kwargs: (*query(*args, **kwargs)[:-1], -1)
        )
        # the sizes are cached per (form, dim): clear them so the query runs, and so no failed entry stays
        spectrum._evr_workspace.cache_clear()
        try:
            with pytest.raises(SolverError, match="^LAPACK workspace query failed for dim=25: info=-1$"):
                eigensolve(self.matrix("real"), 4)
        finally:
            spectrum._evr_workspace.cache_clear()

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

    @pytest.mark.parametrize("vec", [np.full(4, 0.5), np.eye(3)], ids=["even-dimension", "two-d"])
    def test_parity_weights_reject_a_non_odd_vector(self, vec):
        with pytest.raises(ValueError, match="^expected an odd-dimension 1-d eigenvector$"):
            parity_weights(vec)

    @pytest.mark.parametrize(
        "bra, ket",
        [(np.ones(3), np.ones(5)), (np.ones(4), np.ones(4)), (np.ones((3, 3)), np.ones((3, 3)))],
        ids=["lengths", "even-dimension", "two-d"],
    )
    def test_matrix_element_rejects_bad_shapes(self, bra, ket):
        with pytest.raises(ValueError, match="^eigenvectors must be equal-length odd-dimension 1-d arrays$"):
            charge_matrix_element(bra, ket)

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


class TestEvenOnlyParity:
    """With even-only arms H does not couple even and odd charges, so each solved state has one
    parity, including both states of a doublet inside ``DEGENERACY_TOL``."""

    FLUX = np.linspace(-math.pi, math.pi, 9)
    PAIRS = ((0, 1), (1, 2), (0, 3))
    #: the merged block energies agree to 3.4e-13 GHz at both level counts
    ENERGY_TOL = 1e-12

    @staticmethod
    def block_oracle(phi: float, cfg: ChargeBasisConfig) -> tuple[np.ndarray, np.ndarray]:
        """The loop-built matrix at ``phi``, and the lowest energies of its even- and odd-charge
        blocks, each solved with ``scipy.linalg.eigh`` and merged by energy."""
        u, v = even_only_arms()
        h = banded_loop_hamiltonian(combine_harmonics(u, v, FluxBias(phi)), 0.28, cfg)
        even = cfg.charges % 2 == 0
        blocks = [scipy.linalg.eigh(h[np.ix_(rows, rows)], eigvals_only=True) for rows in (even, ~even)]
        return h, np.sort(np.concatenate(blocks))[: cfg.n_levels]

    @staticmethod
    def even_weights(vectors: np.ndarray, cfg: ChargeBasisConfig) -> np.ndarray:
        return np.sum(np.abs(vectors[cfg.charges % 2 == 0]) ** 2, axis=0)

    def assert_single_parity(self, weights: np.ndarray, elements) -> None:
        assert np.max(np.minimum(weights, 1.0 - weights)) <= 1e-12
        for i, j in self.PAIRS:
            # each pair joins an even and an odd state, so n - n_g cannot connect them
            assert round(weights[i]) != round(weights[j]), (i, j)
            assert elements(i, j) <= 1e-12, (i, j)

    @pytest.mark.parametrize("levels", [4, 6])
    def test_eigensolve_gives_single_parity_states(self, levels):
        cfg = ChargeBasisConfig(n_cut=25, n_levels=levels)
        n = cfg.charges.astype(float)
        for phi in self.FLUX:
            h, want = self.block_oracle(phi, cfg)
            energies, vectors = eigensolve(h, levels)
            assert np.max(np.abs(energies - want)) <= self.ENERGY_TOL, phi
            self.assert_single_parity(
                self.even_weights(vectors, cfg), lambda i, j: abs(np.vdot(vectors[:, i], n * vectors[:, j]))
            )

    @pytest.mark.parametrize("phi", [0.0, 1.0, math.pi])
    def test_eigensolve_keeps_the_top_doublet_whole(self, phi):
        # levels 2 and 3 are a doublet; asked for 3 levels, eigensolve solves and rotates both
        cfg = ChargeBasisConfig(n_cut=25, n_levels=3)
        h, _ = self.block_oracle(phi, cfg)
        energies, vectors = eigensolve(h, 3)
        n = cfg.charges.astype(float)
        assert abs(np.vdot(vectors[:, 1], n * vectors[:, 2])) <= 1e-12
        grid = solve_flux_grid(*even_only_arms(), [phi], 0.28, cfg)
        assert energies.tobytes() == grid.energies[0, :3].tobytes()
        assert vectors.tobytes() == grid.vectors[0, :, :3].astype(vectors.dtype).tobytes()

    @pytest.mark.parametrize("levels", [4, 6])
    def test_sweep_gives_single_parity_states(self, hpq_params, even_only, levels):
        cfg = ChargeBasisConfig(n_cut=25, n_levels=levels)
        # a label on the top level makes the sweep solve all of them
        table = spectrum_vs_flux(
            hpq_params, NanowireChannels(()), self.FLUX, cfg, labels=(f"f0{levels - 1}",), me_pairs=self.PAIRS
        )
        grid = solve_flux_grid(*even_only_arms(), self.FLUX, hpq_params.ec, cfg)
        # the parities decouple, so the grid solves one level more than the table keeps
        assert table.energies.shape == (len(self.FLUX), levels)
        assert grid.energies.shape == (len(self.FLUX), levels + 1)
        for p, phi in enumerate(self.FLUX):
            _, want = self.block_oracle(phi, cfg)
            assert np.max(np.abs(table.energies[p] - want)) <= self.ENERGY_TOL, phi
            assert np.array_equal(grid.energies[p, :levels], table.energies[p]), phi
            self.assert_single_parity(
                self.even_weights(grid.vectors[p, :, :levels], cfg), lambda i, j: table.matrix_elements[(i, j)][p]
            )


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
        self, hpq_params, mixed_channels, drivers, labels, pairs, message
    ):
        cfg = ChargeBasisConfig(n_cut=25, n_levels=4)
        with pytest.raises(ValueError, match=message):
            spectrum_vs_flux(
                hpq_params, mixed_channels, np.linspace(0.0, math.pi, 5), cfg,
                labels=labels, me_pairs=pairs,
            )
        assert drivers.calls == []

    #: n_g and flux: only real points (0 and half flux), sine content at n_g = 0, n_g = 0.3, and
    #: the arms of the ``even_only`` fixture
    ORACLE_GRIDS = {
        "real": (0.0, np.array([0.0, math.pi, -math.pi, 2.0 * math.pi])),
        "sine": (0.0, np.linspace(0.1, 3.0, 9)),
        "n_g = 0.3": (0.3, np.linspace(0.0, math.pi, 9)),
        "even-only doublet": (0.0, np.linspace(-math.pi, math.pi, 9)),
    }
    #: labels, level pairs and the levels they read
    READS = {
        "default": (DEFAULT_LABELS, DEFAULT_PAIRS, 3),
        "f03/3": (("f01", "f03/3"), ((0, 1),), 4),
        "pairs only": (("f01",), ((2, 3),), 4),
    }

    @staticmethod
    def assert_close(table, want, atol):
        assert np.array_equal(table.failed, want.failed)
        assert table.labels == want.labels and table.me_pairs == want.me_pairs
        read = table.energies.shape[1]
        assert np.max(np.abs(table.energies - want.energies[:, :read])) <= atol
        for label in table.labels:
            assert np.max(np.abs(table.frequencies[label] - want.frequencies[label])) <= atol, label
        for pair in table.me_pairs:
            assert np.max(np.abs(table.matrix_elements[pair] - want.matrix_elements[pair])) <= atol, pair

    @pytest.mark.parametrize("grid, read", itertools.product(ORACLE_GRIDS, READS))
    def test_matches_the_full_level_route(self, hpq_params, mixed_channels, request, grid, read):
        if grid == "even-only doublet":
            request.getfixturevalue("even_only")
        n_g, flux = self.ORACLE_GRIDS[grid]
        labels, pairs, levels = self.READS[read]
        cfg = ChargeBasisConfig(n_cut=25, n_g=n_g, n_levels=6)
        table = spectrum_vs_flux(hpq_params, mixed_channels, flux, cfg, labels=labels, me_pairs=pairs)
        want = full_level_table(hpq_params, mixed_channels, flux, cfg, labels=labels, me_pairs=pairs)
        assert table.energies.shape == (len(flux), levels)
        self.assert_close(table, want, 1e-9)

    def test_doublet_at_the_last_level_read_is_solved_whole(self, hpq_params, mixed_channels, even_only, drivers):
        # the default labels and pairs read levels 0..2, and level 3 is level 2's doublet partner
        cfg = ChargeBasisConfig(n_cut=25, n_levels=6)
        _, flux = self.ORACLE_GRIDS["even-only doublet"]
        table = spectrum_vs_flux(hpq_params, mixed_channels, flux, cfg)
        assert drivers.levels == [4] * len(flux)
        full = full_level_table(hpq_params, mixed_channels, flux, cfg)
        assert np.all(np.abs(full.energies[:, 3] - full.energies[:, 2]) < DEGENERACY_TOL)
        # both members are solved and rotated, so level 2 is the even state, which n cannot join to level 1
        assert table.energies.shape == (len(flux), 3)
        assert np.max(table.matrix_elements[(1, 2)]) <= 1e-12
        self.assert_close(table, full, 1e-9)

    @pytest.mark.parametrize(
        "n_levels, labels, pairs, levels",
        [
            (4, DEFAULT_LABELS, DEFAULT_PAIRS, 3),
            (6, DEFAULT_LABELS, DEFAULT_PAIRS, 3),
            (6, ("f01", "f03/3"), (), 4),
            (6, ("f01",), ((2, 3),), 4),
            (6, (), (), 6),
        ],
        ids=["default-of-4", "default-of-6", "f03/3", "pair-2-3", "nothing-read"],
    )
    def test_solves_one_more_than_the_highest_level_read(
        self, hpq_params, mixed_channels, drivers, n_levels, labels, pairs, levels
    ):
        flux = np.linspace(0.0, math.pi, 5)
        cfg = ChargeBasisConfig(n_cut=25, n_levels=n_levels)
        table = spectrum_vs_flux(hpq_params, mixed_channels, flux, cfg, labels=labels, me_pairs=pairs)
        assert drivers.levels == [levels] * len(flux)
        assert table.energies.shape == (len(flux), levels)

    @pytest.mark.parametrize("command", ["decompose", "sweep", "synth"])
    def test_commands_solve_the_three_levels_their_tables_read(self, tmp_path, drivers, command):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[circuit]\nej1 = 55.03\nej2 = 55.03\necj = 0.675\nec = 0.28\ngap = 40.06\n"
            "[channels]\ntransmissions = 0.94, 0.58, 0.58\n[flux]\nphi_e = 0.5\n[synth]\nseed = 1\n"
        )
        assert main([command, "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        # decompose solves its one flux, sweep and synth the 41 of the default grid
        assert drivers.levels == [3] * (1 if command == "decompose" else 41)

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
    """The grid solver against per-point assembly and solve."""

    #: 0, +-pi, points outside [-pi, pi), and a sweep of more than 64 points
    GRID = np.concatenate([[0.0, math.pi, -math.pi, 7.5, -9.0], np.linspace(-math.pi, math.pi, 68)])

    def cases(self, hpq_params, mixed_channels):
        u = fourier_u(hpq_params, 10)
        even_u, even_v = even_only_arms()
        return {
            "mixed": (u, fourier_v(mixed_channels, hpq_params.gap, 10), 0.0),
            "mixed, n_g = 0.3": (u, fourier_v(mixed_channels, hpq_params.gap, 10), 0.3),
            "open nanowire": (u, fourier_v(NanowireChannels(()), hpq_params.gap, 10), 0.0),
            "even-only doublet": (even_u, even_v, 0.0),
        }

    def test_bit_identical_to_per_point_solve(self, hpq_params, mixed_channels):
        for name, (u, v, n_g) in self.cases(hpq_params, mixed_channels).items():
            cfg = ChargeBasisConfig(n_cut=25, n_g=n_g, n_levels=4)
            grid = solve_flux_grid(u, v, self.GRID, 0.28, cfg)
            # the even-only arms decouple the parities, so that grid solves one level more
            levels = cfg.n_levels + (name == "even-only doublet")
            assert np.array_equal(grid.flux, self.GRID), name
            assert grid.energies.shape == (len(self.GRID), levels), name
            assert grid.vectors.shape == (len(self.GRID), cfg.dim, levels), name
            assert not grid.failed.any(), name
            for p, phi in enumerate(self.GRID):
                spec = combine_harmonics(u, v, FluxBias(phi))
                h = build_hamiltonian(spec, 0.28, cfg)
                loop = banded_loop_hamiltonian(spec, 0.28, cfg)
                assert h.dtype == loop.dtype and h.tobytes() == loop.tobytes(), (name, phi)
                # eigensolve also solves a doublet partner beyond the levels it returns, as the grid does
                want_e, want_v = eigensolve(h, cfg.n_levels)
                assert np.array_equal(grid.energies[p, : cfg.n_levels], want_e), (name, phi)
                assert np.array_equal(grid.vectors[p, :, : cfg.n_levels], want_v), (name, phi)

    def test_cases_cover_real_complex_and_degenerate_points(
        self, hpq_params, mixed_channels, drivers
    ):
        solved = {}
        for name, (u, v, n_g) in self.cases(hpq_params, mixed_channels).items():
            drivers.calls.clear()
            grid = solve_flux_grid(u, v, self.GRID, 0.28, ChargeBasisConfig(n_cut=25, n_g=n_g, n_levels=4))
            sine = [combine_harmonics(u, v, FluxBias(phi)).s[1:].any() for phi in self.GRID]
            # dsyevr at every n_g = 0 point; zheevr only off n_g = 0 with sine content
            assert drivers.calls == ["zheevr" if n_g and has else "dsyevr" for has in sine], name
            assert grid.vectors.dtype == (complex if any(sine) else float), name
            solved[name] = (grid, sine)
        # the cases cover real and sine-content points at both offset charges
        for name in ("mixed", "mixed, n_g = 0.3"):
            assert 0 < sum(solved[name][1]) < len(self.GRID), name
        assert not any(solved["open nanowire"][1])
        grid = solved["even-only doublet"][0]
        for energies, vectors in zip(grid.energies, grid.vectors):
            # inside DEGENERACY_TOL, so the pair is rotated by even weight, the even state first
            assert energies[1] - energies[0] < 1e-9
            w0, w1 = (parity_weights(vectors[:, m]).even_weight for m in (0, 1))
            assert w0 > 0.5 > w1

    def test_average_clusters_sets_each_cluster_to_its_mean(self, hpq_params, mixed_channels):
        cfg = ChargeBasisConfig(n_cut=25, n_levels=4)
        rng = np.random.default_rng(3)
        for name, (u, v, _) in self.cases(hpq_params, mixed_channels).items():
            grid = solve_flux_grid(u, v, self.GRID, 0.28, cfg)
            energies = grid.energies
            assert np.array_equal(grid.close, spectrum._close_to_next(energies)), name
            values = rng.normal(size=(*energies.shape, 3))
            want = cluster_means(values, energies)
            assert np.array_equal(spectrum._average_clusters(values.copy(), grid.close), want), name
            # only the even-only arms pair levels, both doublets (0, 1) and (2, 3) at every point
            assert np.array_equal(want, values) == (name != "even-only doublet"), name
            if name == "even-only doublet":
                assert np.array_equal(want[:, 0], want[:, 1]) and np.array_equal(want[:, 2], want[:, 3])

    def test_wraps_flux_like_flux_bias(self, hpq_params, mixed_channels):
        u, v, _ = self.cases(hpq_params, mixed_channels)["mixed"]
        cfg = ChargeBasisConfig(n_cut=25, n_levels=4)
        raw = np.array([7.5, -9.0, 3.0 * math.pi, -math.pi, 1e-20])
        wrapped = [FluxBias(phi).phi_e for phi in raw]
        assert np.array_equal(
            solve_flux_grid(u, v, raw, 0.28, cfg).energies,
            solve_flux_grid(u, v, wrapped, 0.28, cfg).energies,
        )

    @settings(max_examples=80)
    @given(case=flux_grid_cases())
    def test_bit_identical_to_the_public_route(self, case):
        u, v, flux, ec, cfg = case
        grid = solve_flux_grid(u, v, flux, ec, cfg)
        spectra = [combine_harmonics(u, v, FluxBias(phi)) for phi in flux]
        # a point without odd harmonics pairs the levels into parity doublets: the grid solves one
        # level more at every point, and eigensolve one more than it returns at such a point
        odd = [spec.c[1::2].any() or spec.s[1::2].any() for spec in spectra]
        levels = min(cfg.n_levels + (not all(odd)), cfg.dim)
        want = [
            eigensolve(build_hamiltonian(spec, ec, cfg), levels if has_odd else cfg.n_levels)
            for spec, has_odd in zip(spectra, odd)
        ]
        assert grid.energies.shape == (len(flux), levels)
        assert grid.vectors.dtype == np.result_type(*(vectors for _, vectors in want))
        for p, (want_e, want_v) in enumerate(want):
            read = len(want_e)
            assert grid.energies[p, :read].tobytes() == want_e.tobytes(), flux[p]
            assert grid.vectors[p, :, :read].tobytes() == want_v.astype(grid.vectors.dtype).tobytes(), flux[p]
        assert not grid.failed.any()

    @settings(max_examples=80)
    @given(case=reused_layout_cases())
    def test_a_reused_layout_matches_a_fresh_solve(self, case):
        flux, ec, cfg, arms = case
        layout = spectrum._flux_layout(flux, ec, cfg, len(arms[0][0]) - 1)

        def outcome(solve):
            try:
                grid = solve()
            except SolverError as exc:
                return str(exc)
            return [(a.dtype, a.shape, a.tobytes()) for a in (grid.flux, grid.energies, grid.vectors, grid.failed)]

        for u, v in arms:
            for strict in (True, False):
                reused = outcome(lambda: spectrum._solve_flux_layout(layout, u, v, strict=strict))
                assert reused == outcome(lambda: solve_flux_grid(u, v, flux, ec, cfg, strict=strict))
                # a non-finite harmonic fails every point, which only the strict solve raises
                fails = len(flux) > 0 and not np.isfinite(u).all()
                assert isinstance(reused, str) == (fails and strict)
                if fails and not strict:
                    assert reused[3][2] == np.ones(len(flux), bool).tobytes()

    def test_real_form_points_across_table_chunks(self, hpq_params, mixed_channels):
        u, v, _ = self.cases(hpq_params, mixed_channels)["mixed"]
        cfg = ChargeBasisConfig(n_cut=25, n_levels=4)
        chunk = spectrum.REAL_FORM_CHUNK
        # chunks that open on a point solved directly (0 or half flux, no sine content), runs of
        # real-form points longer and shorter than a chunk, and a grid that ends mid-chunk
        runs = [(0.0, chunk - 1), (math.pi, chunk + 2), (0.0, 1), (math.pi, 2 * chunk - 3), (0.0, 5)]
        # every other point distinct, so that a table of the wrong point shows
        between = iter(np.linspace(0.1, 3.0, sum(n for _, n in runs)))
        flux = np.array([phi for landmark, n in runs for phi in (landmark, *itertools.islice(between, n))])
        sine = [combine_harmonics(u, v, FluxBias(phi)).s[1:].any() for phi in flux]
        assert sum(sine) > 3 * chunk and not all(sine)
        grid = solve_flux_grid(u, v, flux, 0.28, cfg)
        for p, phi in enumerate(flux):
            want_e, want_v = eigensolve(build_hamiltonian(combine_harmonics(u, v, FluxBias(phi)), 0.28, cfg), 4)
            assert grid.energies[p].tobytes() == want_e.tobytes(), p
            assert grid.vectors[p].tobytes() == want_v.astype(complex).tobytes(), p

    def test_peak_memory_is_the_grid_plus_a_few_matrices(self, hpq_params, mixed_channels):
        u, v, _ = self.cases(hpq_params, mixed_channels)["mixed"]
        cfg = ChargeBasisConfig(n_cut=30, n_levels=6)
        # off 0 and pi every point has sine content, so every matrix is complex
        flux = np.linspace(0.1, 3.0, 192)
        matrix_bytes = cfg.dim**2 * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            grid = solve_flux_grid(u, v, flux, 0.28, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grid.vectors.dtype == complex and not grid.failed.any()
        grid_bytes = sum(arr.nbytes for arr in (grid.flux, grid.energies, grid.vectors, grid.failed))
        # the matrix in hand, eigensolve's copies of it, and the per-point harmonics
        assert peak < grid_bytes + 8 * matrix_bytes

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("n_g", [0.0, 0.3])
    def test_non_finite_harmonics_fail_before_lapack(self, hpq_params, mixed_channels, drivers, bad, n_g):
        u, v, _ = self.cases(hpq_params, mixed_channels)["mixed"]
        u = u.copy()
        u[3] = bad
        cfg = ChargeBasisConfig(n_cut=25, n_g=n_g, n_levels=4)
        flux = np.linspace(0.0, math.pi, 5)
        with pytest.raises(SolverError, match=r"^flux point 0 \(phi_e=0\): matrix of dim=51 has non-finite entries$"):
            solve_flux_grid(u, v, flux, hpq_params.ec, cfg)
        grid = solve_flux_grid(u, v, flux, hpq_params.ec, cfg, strict=False)
        assert np.isnan(grid.energies).all() and np.isnan(grid.vectors).all()
        assert grid.failed.all()
        assert drivers.calls == []

    def test_non_finite_flux_raises_before_any_solve(self, hpq_params, mixed_channels, drivers):
        u, v, _ = self.cases(hpq_params, mixed_channels)["mixed"]
        cfg = ChargeBasisConfig(n_cut=25, n_levels=4)
        for strict in (True, False):
            with pytest.raises(ValueError, match="^flux values must be finite$"):
                solve_flux_grid(u, v, [0.0, math.nan], hpq_params.ec, cfg, strict=strict)
        assert drivers.calls == []

    def test_strict_failure_names_flux_index(self, hpq_params, mixed_channels, fail_solve):
        u, v, _ = self.cases(hpq_params, mixed_channels)["mixed"]
        cfg = ChargeBasisConfig(n_cut=25, n_levels=4)
        fail_solve(3)
        with pytest.raises(SolverError, match=r"^flux point 2 \(phi_e=1\.5708\): "):
            solve_flux_grid(u, v, np.linspace(0.0, math.pi, 5), hpq_params.ec, cfg)


def test_only_spectrum_module_names_the_degeneracy_tolerance():
    """The degeneracy rule lives in ``spectrum``; the fit averages clusters through its helper."""
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


def test_one_spelling_of_the_band_fill_and_the_real_form():
    """The band row is filled, and the real form's tables and map are built, once; every route reads them.

    Every table is of one kind of row, a matrix's cells, so one map with one entry formula serves the
    dense matrix and the grid's band row with its charging energies alike.
    """
    spellings = (
        "band + 0.0",
        "np.conj(band) + 0.0",
        "math.sqrt(2.0) * cells",
        "entry = 2 * slots + part % 2 + 2 * width * (part // 2)",
        "first[even, even] = first[odd, odd] = entry[0, pos]",
        "second[odd, odd] = half + entry[0, mirror]",
        "second[even, odd] = half + entry[1, pos]",
    )
    spectrum_text = (SRC / "spectrum.py").read_text(encoding="utf-8")
    assert [spectrum_text.count(text) for text in spellings] == [1] * len(spellings)
    assert re.findall(r"def (\w*real_form_(?:map|index)\w*)\(([^)]*)\)", spectrum_text) == [
        ("_real_form_map", "n_cut: int, k_max: int | None = None")
    ]


def test_one_real_form_pipeline_for_both_solve_routes():
    """``eigensolve`` and the grid each gather a real form, ``_evr`` it and ``_from_real_form`` the vectors
    into an array they give: no wrapper spells the pipeline a second time, and neither step keeps an option."""
    callers: dict[str, list[str]] = {"_evr": [], "_from_real_form": []}
    functions: dict[str, ast.FunctionDef] = {}
    for path in sorted(SRC.glob("*.py")):
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(function, ast.FunctionDef):
                functions[f"{path.stem}.{function.name}"] = function
                for call in (node for node in ast.walk(function) if isinstance(node, ast.Call)):
                    # ``_evr(...)`` or ``spectrum._evr(...)``
                    name = getattr(call.func, "id", getattr(call.func, "attr", None))
                    if name in callers:
                        assert not call.keywords, (path.stem, function.name, name)
                        callers[name].append(f"{path.stem}.{function.name}")
    assert not {"spectrum._real_form", "spectrum._solve_real_form"} & set(functions)
    assert {name: sorted(set(sites)) for name, sites in callers.items()} == dict.fromkeys(
        callers, ["spectrum._solve_flux_layout", "spectrum.eigensolve"]
    )
    signatures = {name: ast.unparse(functions[f"spectrum.{name}"].args) for name in callers}
    assert signatures == {"_evr": "a: np.ndarray, n_levels: int", "_from_real_form": "z: np.ndarray, out: np.ndarray"}
    # the one array to write into is a required argument, and no spectrum function asks whether to overwrite
    params = [
        (name, arg.arg)
        for name, function in functions.items()
        if name.startswith("spectrum.")
        for arg in ast.walk(function.args)
        if isinstance(arg, ast.arg) and arg.arg in ("out", "overwrite_a")
    ]
    assert params == [("spectrum._from_real_form", "out")]


def test_one_spelling_of_each_formula_a_solved_grid_yields():
    """Frequencies, matrix elements and parity weights each read one formula in the package."""
    rules = {
        "(E_j - E_i) / divisor": r"\bj\] - \w+\[[^\]]*\bi\]",
        # a contraction over the charge axis alone, whichever its subscripts
        "|<i| n - n_g |j>|": r'einsum\("[^"]*m,[^"]*m->|\bvdot\(',
        # the dimension checks ``len(vec) % 2 == 0:`` are not a selection
        "even-charge rows": r"% 2 :: 2\]|% 2 == 0(?!:)",
    }
    text = "".join(path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py")))
    assert {name: len(re.findall(rule, text)) for name, rule in rules.items()} == dict.fromkeys(rules, 1)


def test_only_potentials_module_wraps_flux_and_interferes_the_arms():
    """``FluxBias`` wraps the flux and ``combine_harmonics`` interferes the arms; no copy elsewhere."""
    spellings = ("% (2.0 * math.pi)", "np.cos(k", "np.sin(k")
    potentials_text = (SRC / "potentials.py").read_text(encoding="utf-8")
    assert [potentials_text.count(text) for text in spellings] == [1, 1, 1]
    offenders = [
        (path.name, text)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "potentials.py"
        for text in spellings
        if text in path.read_text(encoding="utf-8")
    ]
    assert offenders == []


def test_only_spectrum_module_calls_an_eigen_driver():
    """Every eigensolve goes through the ``spectrum`` module, which picks the form."""
    driver = re.compile(r"\beigh\b|syevr|heevr|linalg\.eig")
    assert driver.search((SRC / "spectrum.py").read_text(encoding="utf-8"))
    offenders = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if path.name != "spectrum.py" and driver.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
