import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import brentq, least_squares

from hpqkit import (
    CircuitParams,
    FluxBias,
    HarmonicSpectrum,
    NanowireChannels,
    Regime,
    RegimeThresholds,
    bo_correction,
    classify_regime,
    combine_harmonics,
    find_phi_min,
    fourier_u,
    fourier_v,
    internal_mode_freq,
    locate_minimum,
    parity_sums,
    sissis_potential,
    sns_potential,
    total_potential,
    validate_bo,
    write_harmonics_csv,
)

from conftest import project_cosine_sine

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

    def test_half_flux_quantum(self):
        flux = FluxBias.from_phi0(0.5)
        assert abs(abs(flux.phi_e) - math.pi) < 1e-15

    @given(st.floats(-3.0, 3.0))
    def test_period_in_flux_quanta(self, frac):
        a = FluxBias.from_phi0(frac)
        b = FluxBias.from_phi0(frac + 1.0)
        assert abs(a.phi_e - b.phi_e) < 1e-9


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
        u = fourier_u(p, 40, include_bo=False)
        for k in range(1, 41):
            expected = closed_form_sqrt_series(p.ej_sigma, k)
            assert u[k] == pytest.approx(expected, rel=1e-8), f"k={k}"

    def test_second_to_first_ratio_at_unit_lambda(self):
        p = CircuitParams(ej1=7.0, ej2=7.0, ecj=0.1, ec=0.05, gap=1.0)
        u = fourier_u(p, 4, include_bo=False)
        assert u[2] / u[1] == pytest.approx(-0.2, abs=1e-6)

    def test_flat_potential_limit(self):
        p = CircuitParams(ej1=2.0, ej2=1e-12, ecj=1e-9, ec=1e-10, gap=1.0)
        u = fourier_u(p, 6, include_bo=False)
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
        sampled = total_potential(ORACLE_PHI, p, NanowireChannels(()), FluxBias(0.0), include_bo=include_bo)
        cos_ref, scale = oracle_cosines(sampled, k_max)
        assert np.allclose(fourier_u(p, k_max, include_bo=include_bo), cos_ref, rtol=0.0, atol=1e-9 * scale)

    @given(st.lists(st.floats(0.0, 0.99), min_size=1, max_size=4), st.integers(1, 40))
    def test_fourier_v_matches_independent_projector(self, transmissions, k_max):
        channels = NanowireChannels(tuple(transmissions))
        cos_ref, scale = oracle_cosines(sns_potential(ORACLE_PHI, channels, 40.06), k_max)
        assert np.allclose(fourier_v(channels, 40.06, k_max), cos_ref, rtol=0.0, atol=1e-9 * scale)

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
        for include_bo in (True, False):
            assert np.all(np.isfinite(fourier_u(p, 60, include_bo=include_bo)))
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
        assert np.max(np.abs(spec.s)) < 1e-12 * np.max(np.abs(spec.c))

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
    def test_pure_first_harmonic_minimum_exact_zero(self):
        spec = HarmonicSpectrum.from_cosine([0.0, -5.0])
        assert locate_minimum(spec.potential) == 0.0

    def test_pure_second_harmonic_minimum_exact_half_pi(self):
        spec = HarmonicSpectrum.from_cosine([0.0, 0.0, 5.0])
        assert locate_minimum(spec.potential) == math.pi / 2.0

    def test_classification_bands(self):
        assert classify_regime(0.0) is Regime.ODD_DOMINATED
        assert classify_regime(math.pi / 2.0) is Regime.EVEN_DOMINATED
        assert classify_regime(1.0) is Regime.MIXED
        custom = RegimeThresholds(odd_max=1.2, even_halfwidth=0.1)
        assert classify_regime(1.0, custom) is Regime.ODD_DOMINATED

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
        # oracle: dense scan plus local quadratic refinement
        grid = np.linspace(0.0, math.pi, 200001)
        values = total_potential(grid, hpq_params, mixed_channels, FluxBias.from_phi0(0.5))
        oracle = grid[int(np.argmin(values))]
        assert abs(label.phi_min - oracle) < 1e-4


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
        assert report.all_ok

    def test_charge_hierarchy_failure(self):
        p = CircuitParams(ej1=50.0, ej2=50.0, ecj=0.1, ec=0.3, gap=40.0)
        assert not validate_bo(p).charge_hierarchy_ok

    def test_junction_ratio_failure(self):
        p = CircuitParams(ej1=0.5, ej2=0.5, ecj=1.0, ec=0.2, gap=40.0)
        assert not validate_bo(p).junction_ratio_ok

    def test_internal_mode_check_optional(self, hpq_params):
        assert validate_bo(hpq_params).internal_mode_clear is None
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
        p = CircuitParams(ej1=8.0, ej2=2.0, ecj=1e-6, ec=0.2, gap=5.0)  # lam = 0.64
        k_max = 8
        u = fourier_u(p, k_max, include_bo=False)

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
        left = total_potential(phi, p, fitted, flux, include_bo=False)
        right = total_potential(phi + np.pi, p, fitted, flux, include_bo=False)
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
