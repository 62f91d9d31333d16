import ast
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import brentq, least_squares

from hpqkit import (
    ChargeBasisConfig,
    CircuitParams,
    FluxBias,
    HarmonicSpectrum,
    NanowireChannels,
    Regime,
    bo_correction,
    classify_regime,
    combine_harmonics,
    find_phi_min,
    find_phi_mins,
    fourier_u,
    fourier_v,
    internal_mode_freq,
    parity_sums,
    sissis_potential,
    sns_potential,
    solve_flux_grid,
    total_potential,
    validate_bo,
    write_harmonics_csv,
)

from hpqkit.potentials import _MINIMUM_GRID, _grid_rows, _junction_terms, _power_amplitudes

from conftest import exact_phi_min, project_cosine_sine

SRC = Path(__file__).resolve().parents[1] / "src" / "hpqkit"
PHI = np.linspace(-np.pi, np.pi, 301)


def closed_form_sqrt_series(scale: float, k: int) -> float:
    """Cosine amplitude of -scale*|cos(phi/2)|, the unit-transmission limit."""
    return scale * (4.0 / math.pi) * (-1.0) ** k / (4.0 * k**2 - 1.0)


# ---------------------------------------------------------------------------
# domain types


class TestCircuitParams:
    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            CircuitParams(ej1=0.0, ej2=1.0, ecj=0.5, ec=0.2, gap=40.0)
        with pytest.raises(ValueError):
            CircuitParams(ej1=1.0, ej2=1.0, ecj=-0.5, ec=0.2, gap=40.0)
        with pytest.raises(ValueError):
            CircuitParams(ej1=1.0, ej2=1.0, ecj=0.5, ec=0.2, gap=float("nan"))

    def test_lambda_in_unit_interval(self):
        equal = CircuitParams(ej1=3.0, ej2=3.0, ecj=0.5, ec=0.2, gap=40.0)
        assert equal.lam == 1.0
        skew = CircuitParams(ej1=5.0, ej2=1.0, ecj=0.5, ec=0.2, gap=40.0)
        assert 0.0 < skew.lam < 1.0
        assert skew.ej_sigma == 6.0

    @given(st.floats(0.01, 100.0), st.floats(0.01, 100.0))
    def test_lambda_bounds_property(self, ej1, ej2):
        p = CircuitParams(ej1=ej1, ej2=ej2, ecj=0.5, ec=0.2, gap=40.0)
        assert 0.0 < p.lam <= 1.0

    @pytest.mark.parametrize("ej", [55.02591307073187, 58.41363697536405])
    def test_equal_junctions_whose_quotient_rounds_above_one(self, ej):
        # 4 ej^2 / (2 ej)^2 reads 1 + 2**-52 here; sqrt(1 - lam) would be NaN
        p = CircuitParams(ej1=ej, ej2=ej, ecj=0.675, ec=0.28, gap=40.06)
        assert p.lam == 1.0
        assert np.all(np.isfinite(fourier_u(p, 10)))
        potential = total_potential(PHI, p, NanowireChannels((0.9, 0.5)), FluxBias.from_phi0(0.5))
        assert np.all(np.isfinite(potential))


class TestNanowireChannels:
    def test_sorted_descending(self):
        ch = NanowireChannels((0.3, 0.9, 0.5))
        assert ch.transmissions == (0.9, 0.5, 0.3)

    def test_empty_allowed(self):
        assert len(NanowireChannels(())) == 0

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            NanowireChannels((1.2,))
        with pytest.raises(ValueError):
            NanowireChannels((-0.1,))

    @given(st.lists(st.floats(0.0, 1.0), max_size=5))
    def test_canonical_form_permutation_invariant(self, values):
        a = NanowireChannels(tuple(values))
        b = NanowireChannels(tuple(reversed(values)))
        assert a.transmissions == b.transmissions


class TestFluxBias:
    @given(st.floats(-50.0, 50.0))
    def test_canonical_range(self, phi):
        wrapped = FluxBias(phi).phi_e
        assert -math.pi <= wrapped < math.pi

    @pytest.mark.parametrize("phi", [math.nan, math.inf])
    def test_non_finite_flux_rejected(self, phi):
        with pytest.raises(ValueError, match=f"^phi_e must be finite, got {phi}$"):
            FluxBias(phi)

    def test_half_flux_quantum(self):
        flux = FluxBias.from_phi0(0.5)
        assert abs(abs(flux.phi_e) - math.pi) < 1e-15

    @given(st.floats(-3.0, 3.0))
    def test_period_in_flux_quanta(self, frac):
        a = FluxBias.from_phi0(frac)
        b = FluxBias.from_phi0(frac + 1.0)
        assert abs(a.phi_e - b.phi_e) < 1e-9

    @pytest.mark.parametrize(
        "phi", [-math.pi - 4e-16, float(np.nextafter(-math.pi, -math.inf))], ids=["minus-4e-16", "nextafter"]
    )
    def test_just_below_minus_pi_takes_the_real_half_flux_solve(self, phi, hpq_params, mixed_channels):
        # (phi + pi) % 2pi rounds up to 2pi here; the wrap must not store +pi
        assert FluxBias(phi).phi_e == -math.pi
        u = fourier_u(hpq_params, 10)
        v = fourier_v(mixed_channels, hpq_params.gap, 10)
        assert not combine_harmonics(u, v, FluxBias(phi)).s.any()
        cfg = ChargeBasisConfig(n_cut=15, n_levels=4)
        grid = solve_flux_grid(u, v, [phi], hpq_params.ec, cfg)
        half = solve_flux_grid(u, v, [FluxBias.from_phi0(0.5).phi_e], hpq_params.ec, cfg)
        assert grid.vectors.dtype == np.float64
        assert np.array_equal(grid.energies, half.energies)
        assert np.array_equal(grid.vectors, half.vectors)


# ---------------------------------------------------------------------------
# branch potentials


class TestBranchPotentials:
    def test_symmetric_junctions_at_zero(self):
        p = CircuitParams(ej1=1.0, ej2=1.0, ecj=0.1, ec=0.05, gap=1.0)
        assert sissis_potential(0.0, p) == pytest.approx(-2.0, abs=1e-14)

    def test_symmetric_junctions_at_pi(self):
        p = CircuitParams(ej1=1.0, ej2=1.0, ecj=0.1, ec=0.05, gap=1.0)
        assert sissis_potential(math.pi, p) == pytest.approx(0.0, abs=1e-12)

    def test_vanishing_second_junction_limit_is_flat(self):
        p = CircuitParams(ej1=2.5, ej2=1e-12, ecj=0.1, ec=0.05, gap=1.0)
        values = sissis_potential(PHI, p)
        assert np.allclose(values, -2.5, atol=1e-9)

    @given(st.floats(-10.0, 10.0))
    def test_even_and_periodic(self, phi):
        p = CircuitParams(ej1=3.0, ej2=2.0, ecj=0.1, ec=0.05, gap=1.0)
        assert sissis_potential(phi, p) == pytest.approx(sissis_potential(-phi, p), rel=1e-12)
        assert sissis_potential(phi, p) == pytest.approx(
            sissis_potential(phi + 2.0 * math.pi, p), rel=1e-12
        )

    def test_internal_mode_correction_at_zero(self, dj_params):
        # direct formula: sqrt(ecj * ej_sigma) at phi = 0
        assert bo_correction(0.0, dj_params) == pytest.approx(8.361420931875156, rel=1e-12)

    def test_internal_mode_correction_at_pi_unit_lambda(self):
        p = CircuitParams(ej1=1.0, ej2=1.0, ecj=0.1, ec=0.05, gap=1.0)
        assert bo_correction(math.pi, p) == pytest.approx(0.0, abs=1e-7)

    def test_internal_mode_correction_nonnegative(self, hpq_params):
        assert np.all(bo_correction(PHI, hpq_params) >= 0.0)

    def test_nanowire_empty_channels(self):
        values = sns_potential(PHI, NanowireChannels(()), 40.0, FluxBias(0.0))
        assert np.all(values == 0.0)

    def test_nanowire_unit_transmission_node(self):
        value = sns_potential(math.pi, NanowireChannels((1.0,)), 7.0, FluxBias(0.0))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_nanowire_zero_transmission_constant(self):
        values = sns_potential(PHI, NanowireChannels((0.0,)), 7.0, FluxBias(0.0))
        assert np.allclose(values, -7.0, atol=1e-14)

    @given(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0))
    def test_nanowire_periodic_in_phase_and_flux(self, phi, phi_e):
        ch = NanowireChannels((0.8, 0.3))
        a = sns_potential(phi, ch, 5.0, FluxBias(phi_e))
        b = sns_potential(phi + 2.0 * math.pi, ch, 5.0, FluxBias(phi_e))
        c = sns_potential(phi, ch, 5.0, FluxBias(phi_e + 2.0 * math.pi))
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)
        assert a == pytest.approx(c, rel=1e-12, abs=1e-12)

    def test_total_is_sum_of_branches(self, hpq_params, mixed_channels):
        flux = FluxBias.from_phi0(0.31)
        total = total_potential(PHI, hpq_params, mixed_channels, flux)
        parts = (
            sissis_potential(PHI, hpq_params)
            + bo_correction(PHI, hpq_params)
            + sns_potential(PHI, mixed_channels, hpq_params.gap, flux)
        )
        assert np.allclose(total, parts, rtol=1e-14)

    def test_total_without_channels_reduces_to_junction_arm(self, hpq_params):
        total = total_potential(PHI, hpq_params, NanowireChannels(()), FluxBias(0.0))
        parts = sissis_potential(PHI, hpq_params) + bo_correction(PHI, hpq_params)
        assert np.allclose(total, parts, rtol=1e-14)

    def test_total_even_at_zero_flux(self, hpq_params, mixed_channels):
        flux = FluxBias(0.0)
        left = total_potential(PHI, hpq_params, mixed_channels, flux)
        right = total_potential(-PHI, hpq_params, mixed_channels, flux)
        assert np.allclose(left, right, rtol=1e-13)


# ---------------------------------------------------------------------------
# Fourier decomposition


class TestFourierU:
    def test_closed_form_at_unit_lambda_without_correction(self):
        # analytic oracle: the series of -E * |cos(phi/2)|
        p = CircuitParams(ej1=59.96, ej2=59.96, ecj=0.583, ec=0.28, gap=40.06)
        u = _junction_terms(p, 40)[0]
        for k in range(1, 41):
            expected = closed_form_sqrt_series(p.ej_sigma, k)
            assert u[k] == pytest.approx(expected, rel=1e-8), f"k={k}"

    def test_second_to_first_ratio_at_unit_lambda(self):
        p = CircuitParams(ej1=7.0, ej2=7.0, ecj=0.1, ec=0.05, gap=1.0)
        u = _junction_terms(p, 4)[0]
        assert u[2] / u[1] == pytest.approx(-0.2, abs=1e-6)

    def test_flat_potential_limit(self):
        p = CircuitParams(ej1=2.0, ej2=1e-12, ecj=1e-9, ec=1e-10, gap=1.0)
        u = _junction_terms(p, 6)[0]
        assert np.all(np.abs(u[1:]) < 1e-10)

    def test_double_junction_harmonic_ratio(self, dj_params):
        u = fourier_u(dj_params, 10)
        assert abs(u[2] / u[1]) == pytest.approx(0.19, abs=0.015)

    def test_rejects_bad_truncation(self, hpq_params):
        with pytest.raises(ValueError):
            fourier_u(hpq_params, 0)

    def test_mean_convention(self):
        # k=0 entry stores the plain average of the branch potential;
        # asymmetric junctions keep the sampling oracle spectrally exact
        p = CircuitParams(ej1=50.0, ej2=30.0, ecj=0.6, ec=0.25, gap=35.0)
        u = fourier_u(p, 8)
        phi = -np.pi + 2.0 * np.pi * np.arange(1 << 14) / (1 << 14)
        mean = np.mean(sissis_potential(phi, p) + bo_correction(phi, p))
        assert u[0] == pytest.approx(mean, rel=1e-10)


class TestFourierV:
    def test_weak_channel_leading_order(self):
        gap, t = 13.0, 1e-4
        v = fourier_v(NanowireChannels((t,)), gap, 4)
        assert v[1] / (-gap * t / 4.0) == pytest.approx(1.0, abs=1e-3)
        assert abs(v[2]) < gap * t**2 / 16.0

    def test_unit_transmission_closed_form(self):
        gap = 40.06
        v = fourier_v(NanowireChannels((1.0,)), gap, 40)
        for k in range(1, 41):
            assert v[k] == pytest.approx(closed_form_sqrt_series(gap, k), rel=1e-8), f"k={k}"

    def test_empty_channels_all_zero(self):
        assert np.all(fourier_v(NanowireChannels(()), 40.0, 6) == 0.0)

    def test_channels_additive(self):
        gap = 9.0
        both = fourier_v(NanowireChannels((0.7, 0.4)), gap, 6)
        split = fourier_v(NanowireChannels((0.7,)), gap, 6) + fourier_v(
            NanowireChannels((0.4,)), gap, 6
        )
        assert np.allclose(both, split, rtol=1e-12, atol=1e-12)

    @given(
        st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)).filter(
            lambda ab: abs(ab[0] - ab[1]) > 1e-3
        )
    )
    def test_first_harmonic_strictly_monotone_in_transmission(self, pair):
        low, high = sorted(pair)
        gap = 5.0
        v_low = fourier_v(NanowireChannels((low,)), gap, 2)
        v_high = fourier_v(NanowireChannels((high,)), gap, 2)
        assert abs(v_high[1]) > abs(v_low[1])

    def test_rejects_bad_truncation(self):
        with pytest.raises(ValueError):
            fourier_v(NanowireChannels((0.5,)), 40.0, 0)


def params_with_lambda(m: float) -> CircuitParams:
    """Junction pair with ej_sigma = 110 and effective transmission m (0 < m <= 1)."""
    r = math.sqrt(1.0 - m)
    return CircuitParams(
        ej1=55.0 * (1.0 + r), ej2=55.0 * m / (1.0 + r), ecj=0.675, ec=0.28, gap=40.06
    )


def oracle_cosines(values: np.ndarray, k_max: int) -> tuple[np.ndarray, float]:
    cos_ref, _ = project_cosine_sine(values, k_max)
    return cos_ref, float(np.max(np.abs(cos_ref)))


ORACLE_PHI = -np.pi + 2.0 * np.pi * np.arange(1 << 15) / (1 << 15)


class TestKernelAgainstOracles:
    @given(
        st.floats(0.0, 0.99, exclude_min=True),
        st.integers(1, 40),
        st.booleans(),
    )
    def test_fourier_u_matches_independent_projector(self, m, k_max, include_bo):
        p = params_with_lambda(m)
        # the kernel's two series, sampled from the arm functions it sums
        sampled = sissis_potential(ORACLE_PHI, p) + (bo_correction(ORACLE_PHI, p) if include_bo else 0.0)
        cos_ref, scale = oracle_cosines(sampled, k_max)
        u = fourier_u(p, k_max) if include_bo else _junction_terms(p, k_max)[0]
        assert np.allclose(u, cos_ref, rtol=0.0, atol=1e-9 * scale)

    @given(st.lists(st.floats(0.0, 0.99), min_size=1, max_size=4), st.integers(1, 40))
    def test_fourier_v_matches_independent_projector(self, transmissions, k_max):
        channels = NanowireChannels(tuple(transmissions))
        cos_ref, scale = oracle_cosines(sns_potential(ORACLE_PHI, channels, 40.06), k_max)
        assert np.allclose(fourier_v(channels, 40.06, k_max), cos_ref, rtol=0.0, atol=1e-9 * scale)

    @given(st.floats(1e-3, 0.99), st.sampled_from([0.5, 0.25]), st.integers(1, 40))
    def test_amplitude_m_derivative_matches_projector(self, m, nu, k_max):
        # d/dm (1 - m s)^nu = -nu s (1 - m s)^(nu - 1), s = sin^2(phi/2); the fit's
        # Jacobian uses it as (nu/m) (A(m, nu) - A(m, nu - 1))
        s = np.sin(ORACLE_PHI / 2.0) ** 2
        cos_ref, scale = oracle_cosines(-nu * s * (1.0 - m * s) ** (nu - 1.0), k_max)
        amplitudes = _power_amplitudes(m, (nu, nu - 1.0), k_max)
        derivative = (nu / m) * (amplitudes[0] - amplitudes[1])
        assert np.allclose(derivative, cos_ref, rtol=0.0, atol=1e-9 * scale)

    @pytest.mark.parametrize("m", [0.9125, 0.95, 1.0 - 1e-7])
    def test_high_harmonics_near_the_cusp(self, m):
        # near m = 0.91 the unreduced 2F1(k - 1/2, k + 1/2; 2k + 1; m) loses
        # accuracy by k ~ 40; at m = 1 - 1e-7 the cusp is rounded over
        # |phi - pi| ~ 6e-4, which the oracle grid resolves but which moves
        # the amplitudes ~1e-6 of scale away from the m = 1 closed form
        p = params_with_lambda(m)
        channels = NanowireChannels((m,))
        for got, sampled in (
            (fourier_u(p, 60), total_potential(ORACLE_PHI, p, NanowireChannels(()), FluxBias(0.0))),
            (fourier_v(channels, 40.06, 60), sns_potential(ORACLE_PHI, channels, 40.06)),
        ):
            cos_ref, scale = oracle_cosines(sampled, 60)
            assert np.allclose(got, cos_ref, rtol=0.0, atol=1e-9 * scale)

    @pytest.mark.parametrize("m", [1.0 - 1e-7, 1.0])
    def test_k60_amplitudes_finite_at_the_cusp(self, m):
        p = params_with_lambda(m)
        for u in (fourier_u(p, 60), _junction_terms(p, 60)[0]):
            assert np.all(np.isfinite(u))
        assert np.all(np.isfinite(fourier_v(NanowireChannels((m, 0.5)), 40.06, 60)))


class TestCombineHarmonics:
    def test_zero_flux(self):
        u = np.array([1.0, -2.0, 0.5])
        v = np.array([0.3, -1.0, 0.2])
        spec = combine_harmonics(u, v, FluxBias(0.0))
        assert np.allclose(spec.c, u + v)
        assert np.all(spec.s == 0.0)

    def test_half_flux_quantum_alternating(self):
        u = np.array([1.0, -2.0, 0.5, 0.1])
        v = np.array([0.3, -1.0, 0.2, 0.05])
        spec = combine_harmonics(u, v, FluxBias.from_phi0(0.5))
        signs = np.array([1.0, -1.0, 1.0, -1.0])
        assert np.allclose(spec.c, u + signs * v, atol=1e-12)
        assert np.all(spec.s == 0.0)

    def test_matched_arms_cancel_odd(self):
        u = np.array([0.0, -3.0, 1.2, -0.4, 0.2])
        spec = combine_harmonics(u, u.copy(), FluxBias.from_phi0(0.5))
        assert np.allclose(spec.c[1::2], 0.0, atol=1e-12)
        assert np.allclose(spec.c[2::2], 2.0 * u[2::2], atol=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            combine_harmonics(np.zeros(3), np.zeros(4), FluxBias(0.0))

    @given(st.floats(-math.pi, math.pi))
    def test_flux_parity(self, phi_e):
        u = np.array([0.5, -2.0, 0.6, -0.2])
        v = np.array([0.1, -1.5, 0.4, -0.1])
        plus = combine_harmonics(u, v, FluxBias(phi_e))
        minus = combine_harmonics(u, v, FluxBias(-phi_e))
        assert np.allclose(plus.c, minus.c, atol=1e-12)
        assert np.allclose(plus.s, -minus.s, atol=1e-12)


class TestHarmonicSpectrum:
    @pytest.mark.parametrize(
        "build, message",
        [(lambda: HarmonicSpectrum(u=np.zeros(2), v=np.zeros(3), c=np.zeros(3), s=np.zeros(3)),
          "u must have the length of c, 3, got (2,)"),
         (lambda: HarmonicSpectrum(u=np.zeros(3), v=np.zeros(3), c=np.zeros(3), s=np.zeros((3, 1))),
          "s must have the length of c, 3, got (3, 1)"),
         (lambda: HarmonicSpectrum.from_cosine([0.0, 1.0], s=[0.0]), "c and s must have the same length")],
        ids=["u", "s", "from-cosine"],
    )
    def test_length_mismatch_rejected(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_sine_constant_always_zero(self, hpq_params, mixed_channels):
        u = fourier_u(hpq_params, 6)
        v = fourier_v(mixed_channels, hpq_params.gap, 6)
        spec = combine_harmonics(u, v, FluxBias(1.234))
        assert spec.s[0] == 0.0

    def test_convergence_flag(self):
        decaying = HarmonicSpectrum.from_cosine([0.0, 1.0, 0.1, 1e-7])
        assert decaying.converged
        flat = HarmonicSpectrum.from_cosine([0.0, 1.0, 0.9, 0.8])
        assert not flat.converged

    @pytest.mark.parametrize("c", [[3.0], [3.0, 0.0, 0.0]], ids=["k-max-0", "all-zero-harmonics"])
    def test_no_harmonic_content_is_converged(self, c):
        assert HarmonicSpectrum.from_cosine(c).converged

    def test_series_evaluation_matches_direct_sum(self):
        spec = HarmonicSpectrum.from_cosine([0.5, -1.0, 0.3], s=[0.0, 0.2, -0.1])
        phi = np.linspace(-2.0, 2.0, 7)
        direct = (
            0.5
            - 1.0 * np.cos(phi)
            + 0.3 * np.cos(2 * phi)
            + 0.2 * np.sin(phi)
            - 0.1 * np.sin(2 * phi)
        )
        assert np.allclose(spec.potential(phi), direct, rtol=1e-13)

    def test_csv_export(self, tmp_path, hpq_params, even_channels):
        u = fourier_u(hpq_params, 5)
        v = fourier_v(even_channels, hpq_params.gap, 5)
        spec = combine_harmonics(u, v, FluxBias.from_phi0(0.5))
        path = tmp_path / "harmonics.csv"
        write_harmonics_csv(spec, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,u_k,v_k,c_k,s_k"
        assert len(lines) == 7
        cells = lines[2].split(",")
        assert int(cells[0]) == 1
        assert float(cells[3]) == pytest.approx(spec.c[1], rel=1e-11)


class TestParitySums:
    def test_signed_arithmetic(self):
        spec = HarmonicSpectrum.from_cosine([9.9, 3.0, 4.0, -1.0])
        sums = parity_sums(spec)
        assert sums.c_even == pytest.approx(4.0)
        assert sums.c_odd == pytest.approx(2.0)
        assert sums.ratio == pytest.approx(2.0)

    def test_divergence_sentinel(self):
        spec = HarmonicSpectrum.from_cosine([0.0, 0.0, 4.0, 0.0])
        assert parity_sums(spec).ratio == math.inf

    def test_odd_sum_of_low_gate_setting(self, hpq_params, odd_channels):
        u = fourier_u(hpq_params, 10)
        v = fourier_v(odd_channels, hpq_params.gap, 10)
        sums = parity_sums(combine_harmonics(u, v, FluxBias.from_phi0(0.5)))
        assert abs(sums.c_odd) == pytest.approx(30.9, abs=1.0)

    @given(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=9))
    def test_matches_hand_summation(self, coeffs):
        spec = HarmonicSpectrum.from_cosine(coeffs)
        sums = parity_sums(spec)
        even = sum(coeffs[k] for k in range(2, len(coeffs), 2))
        odd = sum(coeffs[k] for k in range(1, len(coeffs), 2))
        assert sums.c_even == pytest.approx(even, abs=1e-12)
        assert sums.c_odd == pytest.approx(odd, abs=1e-12)


# ---------------------------------------------------------------------------
# minima, regimes, internal mode


class TestMinimaAndRegimes:
    # devices whose exact minimum lies on a landmark, which the search returns exactly
    def test_zero_flux_minimum_exact_zero(self):
        p = CircuitParams(ej1=5.0, ej2=4.0, ecj=0.1, ec=0.05, gap=1.0)
        [label] = find_phi_mins(p, [NanowireChannels((0.3,))], FluxBias(0.0))
        assert label.phi_min == 0.0

    def test_matched_arms_minimum_exact_half_pi(self):
        # -40|cos(phi/2)| - 40|sin(phi/2)| at half flux, lowest at pi/2
        p = CircuitParams(ej1=20.0, ej2=20.0, ecj=1e-30, ec=0.3, gap=40.0)
        [label] = find_phi_mins(p, [NanowireChannels((1.0,))], FluxBias.from_phi0(0.5))
        assert label.phi_min == math.pi / 2.0

    def test_nanowire_dominated_minimum_exact_pi(self):
        p = CircuitParams(ej1=1.0, ej2=1.0, ecj=0.1, ec=0.05, gap=40.0)
        [label] = find_phi_mins(p, [NanowireChannels((0.9,))], FluxBias.from_phi0(0.5))
        assert label.phi_min == math.pi

    def test_classification_bands(self):
        assert classify_regime(0.0) is Regime.ODD_DOMINATED
        assert classify_regime(math.pi / 2.0) is Regime.EVEN_DOMINATED
        assert classify_regime(1.0) is Regime.MIXED

    def test_open_nanowire_is_odd_dominated(self):
        p = CircuitParams(ej1=5.0, ej2=4.0, ecj=0.1, ec=0.05, gap=1.0)
        label = find_phi_min(p, NanowireChannels(()), FluxBias(0.0))
        assert label.phi_min == 0.0
        assert label.regime is Regime.ODD_DOMINATED

    def test_high_transmission_gate_is_even_dominated(self, hpq_params, even_channels):
        label = find_phi_min(hpq_params, even_channels, FluxBias.from_phi0(0.5))
        assert abs(label.phi_min - math.pi / 2.0) < 0.35
        assert label.regime is Regime.EVEN_DOMINATED

    def test_minimum_location_tolerance(self, hpq_params, mixed_channels):
        label = find_phi_min(hpq_params, mixed_channels, FluxBias.from_phi0(0.5))
        oracle = exact_phi_min(hpq_params, mixed_channels, FluxBias.from_phi0(0.5).phi_e)
        assert abs(label.phi_min - oracle) < 1e-6


class TestFindPhiMins:
    HALF = FluxBias.from_phi0(0.5)
    SETS = [
        NanowireChannels((0.68, 0.47, 0.46)),
        NanowireChannels((0.94, 0.58, 0.58)),
        NanowireChannels((0.98, 0.98, 0.75, 0.54)),
        NanowireChannels((1.0,)),
        NanowireChannels(()),
        NanowireChannels((0.9, 0.9)),
    ]

    def test_each_gate_matches_its_one_gate_call_bit_for_bit(self, hpq_params):
        labels = find_phi_mins(hpq_params, self.SETS, self.HALF)
        assert len(labels) == len(self.SETS)
        for label, channels in zip(labels, self.SETS):
            single = find_phi_min(hpq_params, channels, self.HALF)
            assert label == single
            assert label.phi_min.hex() == single.phi_min.hex()

    def test_independent_of_order_and_of_the_other_gates(self, hpq_params):
        labels = find_phi_mins(hpq_params, self.SETS, self.HALF)
        assert find_phi_mins(hpq_params, self.SETS[::-1], self.HALF) == labels[::-1]
        assert find_phi_mins(hpq_params, self.SETS[1:4], self.HALF) == labels[1:4]
        assert find_phi_mins(hpq_params, self.SETS[4:], self.HALF) == labels[4:]

    def test_grid_rows_equal_total_potential_bit_for_bit(self, hpq_params):
        rows = list(_grid_rows(hpq_params, self.SETS, self.HALF))
        assert len(rows) == len(self.SETS)
        for row, channels in zip(rows, self.SETS):
            expected = total_potential(_MINIMUM_GRID, hpq_params, channels, self.HALF)
            assert np.array_equal(row, expected)

    def test_empty_list(self, hpq_params):
        assert find_phi_mins(hpq_params, [], self.HALF) == []

    def test_landmarks_stay_exact_in_a_batch(self):
        p = CircuitParams(ej1=5.0, ej2=4.0, ecj=0.1, ec=0.05, gap=1.0)
        sets = [NanowireChannels(()), NanowireChannels((0.5,)), NanowireChannels((0.3, 0.2))]
        labels = find_phi_mins(p, sets, FluxBias(0.0))
        assert [label.phi_min for label in labels] == [0.0, 0.0, 0.0]

    # the device, and its bare-junction limit ecj -> 0
    @pytest.mark.parametrize("ecj", [0.675, 1e-30])
    def test_against_exact_oracle(self, hpq_params, ecj):
        params = replace(hpq_params, ecj=ecj)
        labels = find_phi_mins(params, self.SETS, self.HALF)
        for label, channels in zip(labels, self.SETS):
            oracle = exact_phi_min(params, channels, self.HALF.phi_e)
            assert abs(label.phi_min - oracle) < 1e-6, channels


def test_one_spelling_of_a_minimum_search():
    """Every minimum comes from ``find_phi_mins``: it alone polishes, and the minimum grid stays in its module."""
    polish_callers, grid_readers, defined = [], set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef):
                defined.add(function.name)
                polish_callers += [
                    function.name
                    for node in ast.walk(function)
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_polish"
                ]
        if any(getattr(node, "id", getattr(node, "attr", None)) == "_MINIMUM_GRID" for node in ast.walk(tree)):
            grid_readers.add(path.name)
    assert polish_callers == ["find_phi_mins"]
    assert grid_readers == {"potentials.py"}
    assert "locate_minimum" not in defined


def test_one_spelling_of_interfering_the_arms():
    """The arms interfere in one product, ``_interfere`` on a ``_flux_table``: ``combine_harmonics`` is its
    one-point case and the grid solver its only other caller."""
    callers: dict[str, list[str]] = {"_interfere": [], "_flux_table": []}
    defined = set()
    for path in sorted(SRC.glob("*.py")):
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(function, ast.FunctionDef):
                defined.add(function.name)
                for node in ast.walk(function):
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) in callers:
                        callers[node.func.id].append(f"{path.stem}.{function.name}")
    assert "interfere_arms" not in defined
    assert sorted(callers["_interfere"]) == ["potentials.combine_harmonics", "spectrum._solve_flux_layout"]
    assert sorted(callers["_flux_table"]) == ["potentials.combine_harmonics", "spectrum._flux_layout"]


class TestInternalMode:
    def test_double_junction_value(self, dj_params):
        assert internal_mode_freq(dj_params) == pytest.approx(16.72284186375031, rel=1e-12)

    def test_square_root_scaling(self):
        p1 = CircuitParams(ej1=10.0, ej2=10.0, ecj=0.4, ec=0.1, gap=1.0)
        p2 = CircuitParams(ej1=10.0, ej2=10.0, ecj=1.6, ec=0.1, gap=1.0)
        assert internal_mode_freq(p2) == pytest.approx(2.0 * internal_mode_freq(p1), rel=1e-12)

    def test_validity_report_passes_for_device(self, hpq_params):
        report = validate_bo(hpq_params, max_transition_freq=10.0)
        assert report.charge_hierarchy_ok
        assert report.junction_ratio_ok
        assert report.internal_mode_clear

    def test_charge_hierarchy_failure(self):
        p = CircuitParams(ej1=50.0, ej2=50.0, ecj=0.1, ec=0.3, gap=40.0)
        assert not validate_bo(p, max_transition_freq=10.0).charge_hierarchy_ok

    def test_junction_ratio_failure(self):
        p = CircuitParams(ej1=0.5, ej2=0.5, ecj=1.0, ec=0.2, gap=40.0)
        assert not validate_bo(p, max_transition_freq=10.0).junction_ratio_ok

    def test_internal_mode_below_max_transition_fails(self, hpq_params):
        high = internal_mode_freq(hpq_params) + 1.0
        assert validate_bo(hpq_params, max_transition_freq=high).internal_mode_clear is False


# ---------------------------------------------------------------------------
# cross-cutting invariants


class TestInvariants:
    def test_parseval(self):
        # moderate transmissions keep the k > 20 tail below the tolerance
        p = CircuitParams(ej1=50.0, ej2=30.0, ecj=0.6, ec=0.25, gap=35.0)
        ch = NanowireChannels((0.9, 0.6))
        flux = FluxBias(0.3 * 2.0 * math.pi)
        k_max = 20
        spec = combine_harmonics(
            fourier_u(p, k_max), fourier_v(ch, p.gap, k_max), flux
        )
        n = 1 << 15
        phi = -np.pi + 2.0 * np.pi * np.arange(n) / n
        mean_square = float(np.mean(total_potential(phi, p, ch, flux) ** 2))
        series = spec.c[0] ** 2 + 0.5 * float(np.sum(spec.c[1:] ** 2 + spec.s[1:] ** 2))
        assert series == pytest.approx(mean_square, rel=1e-6)

    def test_flux_periodicity_of_coefficients(self, hpq_params, mixed_channels):
        u = fourier_u(hpq_params, 8)
        v = fourier_v(mixed_channels, hpq_params.gap, 8)
        a = combine_harmonics(u, v, FluxBias(0.7))
        b = combine_harmonics(u, v, FluxBias(0.7 + 2.0 * math.pi))
        assert np.allclose(a.c, b.c, rtol=1e-12, atol=1e-12)
        assert np.allclose(a.s, b.s, rtol=1e-12, atol=1e-12)

    def test_branch_additivity_against_independent_projector(self, hpq_params, mixed_channels):
        k_max = 10
        flux = FluxBias(0.4 * 2.0 * math.pi)
        spec = combine_harmonics(
            fourier_u(hpq_params, k_max),
            fourier_v(mixed_channels, hpq_params.gap, k_max),
            flux,
        )
        n = 1 << 15
        phi = -np.pi + 2.0 * np.pi * np.arange(n) / n
        sampled = total_potential(phi, hpq_params, mixed_channels, flux)
        cos_ref, sin_ref = project_cosine_sine(sampled, k_max)
        scale = np.max(np.abs(cos_ref))
        assert np.allclose(spec.c, cos_ref, atol=1e-9 * scale)
        assert np.allclose(spec.s, sin_ref, atol=1e-9 * scale)

    def test_matched_arms_make_total_half_periodic(self):
        # channels fitted so the nanowire arm reproduces the junction-arm
        # harmonics; at half flux quantum the total must be pi-periodic
        # ecj -> 0: the bare junction arm
        p = CircuitParams(ej1=8.0, ej2=2.0, ecj=1e-30, ec=0.2, gap=5.0)  # lam = 0.64
        k_max = 8
        u = fourier_u(p, k_max)

        def mismatch(x):
            t = 1.0 / (1.0 + np.exp(-x))
            v = fourier_v(NanowireChannels(tuple(t)), p.gap, k_max)
            return v[1:] - u[1:]

        sol = least_squares(mismatch, np.array([0.5, 0.5]), method="lm")
        fitted = NanowireChannels(tuple(1.0 / (1.0 + np.exp(-sol.x))))
        v = fourier_v(fitted, p.gap, k_max)
        assert np.max(np.abs(v[1:] - u[1:])) < 1e-8 * np.max(np.abs(u[1:]))

        flux = FluxBias.from_phi0(0.5)
        phi = np.linspace(-np.pi, np.pi, 401)
        left = total_potential(phi, p, fitted, flux)
        right = total_potential(phi + np.pi, p, fitted, flux)
        scale = np.max(np.abs(left))
        assert np.max(np.abs(left - right)) < 1e-7 * scale

    def test_odd_content_cancellation_is_reachable(self, hpq_params):
        # a single strong channel can null the signed odd-harmonic sum
        k_max = 10
        gap = 150.0
        u = fourier_u(hpq_params, k_max)

        def signed_odd(t):
            v = fourier_v(NanowireChannels((t,)), gap, k_max)
            spec = combine_harmonics(u, v, FluxBias.from_phi0(0.5))
            return float(np.sum(spec.c[1::2]))

        t_star = brentq(signed_odd, 0.3, 0.999, xtol=1e-14)
        v = fourier_v(NanowireChannels((t_star,)), gap, k_max)
        sums = parity_sums(combine_harmonics(u, v, FluxBias.from_phi0(0.5)))
        assert abs(sums.c_odd) < 1e-6
        assert sums.ratio == math.inf
