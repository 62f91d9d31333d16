"""Acceptance suite: every criterion at its pinned tolerance.

Each test prints one ``[criterion NN] PASS/FAIL`` line (run with ``-s``
to see them all). Criteria use the published device constants:
shared junction energies 55.03 GHz (double-junction device: 59.96 GHz),
junction charging energy 0.675 GHz (0.583 GHz), island charging energy
0.28 GHz, gap 40.06 GHz.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg

from hpqkit import (
    ChargeBasisConfig,
    CircuitParams,
    FitConfig,
    FluxBias,
    HarmonicSpectrum,
    NanowireChannels,
    Regime,
    SpectroscopyDataset,
    SynthConfig,
    build_hamiltonian,
    charge_matrix_element,
    combine_harmonics,
    eigensolve,
    extract_transitions,
    find_phi_min,
    fit_global,
    fourier_u,
    fourier_v,
    hints_from_table,
    parity_sums,
    parity_weights,
    select_channel_count,
    spectrum_vs_flux,
    synthesize_map,
)
from hpqkit.potentials import _junction_terms

HPQ = CircuitParams(ej1=55.03, ej2=55.03, ecj=0.675, ec=0.28, gap=40.06)
DOUBLE_JUNCTION = CircuitParams(ej1=59.96, ej2=59.96, ecj=0.583, ec=0.28, gap=40.06)
T_ODD = NanowireChannels((0.68, 0.47, 0.46))
T_MIXED = NanowireChannels((0.94, 0.58, 0.58))
T_EVEN = NanowireChannels((0.98, 0.98, 0.75, 0.54))
HALF_FLUX = FluxBias.from_phi0(0.5)


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except AssertionError:
        print(f"[criterion {num:02d}] FAIL  {description}")
        raise
    print(f"[criterion {num:02d}] PASS  {description}")


def spectrum_at_half_flux(channels: NanowireChannels, k_max: int = 10) -> HarmonicSpectrum:
    u = fourier_u(HPQ, k_max)
    v = fourier_v(channels, HPQ.gap, k_max)
    return combine_harmonics(u, v, HALF_FLUX)


def test_criterion_01_double_junction_harmonic_ratio():
    with criterion(1, "double-junction |u2/u1| = 0.19 +/- 0.015 in < 1 s"):
        start = time.perf_counter()
        u = fourier_u(DOUBLE_JUNCTION, 10)
        elapsed = time.perf_counter() - start
        ratio = abs(u[2] / u[1])
        assert ratio == pytest.approx(0.19, abs=0.015), f"|u2/u1| = {ratio:.5f}"
        assert elapsed < 1.0, f"took {elapsed:.3f} s"


def test_criterion_02_analytic_fourier_oracle():
    with criterion(2, "unit-transmission series matches closed form to 1e-8"):
        u = _junction_terms(DOUBLE_JUNCTION, 10)[0]
        scale = DOUBLE_JUNCTION.ej_sigma
        for k in range(1, 11):
            expected = scale * (4.0 / math.pi) * (-1.0) ** k / (4.0 * k**2 - 1.0)
            rel = abs(u[k] - expected) / abs(expected)
            assert rel < 1e-8, f"k={k}: rel error {rel:.2e}"
        assert abs(u[2] / u[1]) == pytest.approx(0.2, abs=1e-6)


def test_criterion_03_mixed_regime_harmonic_ratio():
    with criterion(3, "mixed gate setting |c2/c1| = 0.71 +/- 0.05"):
        spec = spectrum_at_half_flux(T_MIXED)
        ratio = abs(spec.c[2] / spec.c[1])
        assert ratio == pytest.approx(0.71, abs=0.05), f"|c2/c1| = {ratio:.4f}"


def test_criterion_04_even_regime_ratio_and_minimum():
    with criterion(4, "even gate setting |c2/c1| = 3.47 +/- 0.20, minimum near pi/2"):
        label = find_phi_min(HPQ, T_EVEN, HALF_FLUX)
        assert abs(label.phi_min - math.pi / 2.0) < 0.35, f"phi_min = {label.phi_min:.4f}"
        assert label.regime is Regime.EVEN_DOMINATED
        spec = spectrum_at_half_flux(T_EVEN)
        ratio = abs(spec.c[2] / spec.c[1])
        assert ratio == pytest.approx(3.47, abs=0.20), (
            f"|c2/c1| = {ratio:.4f}: the published two-decimal transmissions do not "
            "reproduce the published ratio; c1 is a near-cancellation of ~44 GHz arm "
            "amplitudes, so the third decimal of T matters "
            "(T = (0.985, 0.985, 0.75, 0.54) gives 3.46)"
        )


def test_criterion_05_odd_sum_magnitude():
    with criterion(5, "low gate setting |c_odd| = 30.9 +/- 1.5 GHz"):
        sums = parity_sums(spectrum_at_half_flux(T_ODD))
        assert abs(sums.c_odd) == pytest.approx(30.9, abs=1.5), f"|c_odd| = {abs(sums.c_odd):.3f}"


def test_criterion_06_parity_conservation():
    with criterion(6, "even-harmonic potentials conserve charge parity"):
        cases = [
            ([0.0, 0.0, 30.0], 0.25),
            ([0.0, 0.0, 15.0, 0.0, 2.0], 0.3),
            ([0.0, 0.0, 8.0, 0.0, 1.0, 0.0, 0.5], 0.2),
        ]
        for coeffs, ec in cases:
            spec = HarmonicSpectrum.from_cosine(coeffs)
            h = build_hamiltonian(spec, ec, ChargeBasisConfig(n_cut=25, n_g=0.0))
            _, vectors = eigensolve(h, 4)
            w0 = parity_weights(vectors[:, 0])
            w1 = parity_weights(vectors[:, 1])
            assert max(w0.even_weight, w0.odd_weight) >= 1.0 - 1e-10
            assert max(w1.even_weight, w1.odd_weight) >= 1.0 - 1e-10
            assert (w0.even_weight > 0.5) != (w1.even_weight > 0.5), "same sector"
            # same-parity pairs are drive-forbidden; the lowest doublet is
            # inversion-even in both sectors, and same-sector pairs with
            # equal inversion character must also vanish
            assert charge_matrix_element(vectors[:, 0], vectors[:, 1]) < 1e-10
            inversion = [float(np.dot(vectors[:, m], vectors[::-1, m])) for m in range(4)]
            sector = [parity_weights(vectors[:, m]).even_weight > 0.5 for m in range(4)]
            for a in range(4):
                for b in range(a + 1, 4):
                    same_parity = sector[a] == sector[b] and inversion[a] * inversion[b] > 0.0
                    if same_parity:
                        assert charge_matrix_element(vectors[:, a], vectors[:, b]) < 1e-10


def test_criterion_07_transmon_regression():
    with criterion(7, "single-junction limit matches the textbook transmon"):
        ej, ec = 9.8, 0.28
        spec = HarmonicSpectrum.from_cosine([0.0, -ej])
        energies, _ = eigensolve(build_hamiltonian(spec, ec, ChargeBasisConfig(n_cut=30)), 4)
        f01 = energies[1] - energies[0]
        asymptotic = math.sqrt(8.0 * ej * ec) - ec
        assert abs(f01 - asymptotic) / asymptotic < 0.03
        # independently coded dense oracle: tridiagonal charge-basis solve
        diag = 4.0 * ec * np.arange(-30, 31).astype(float) ** 2
        off = np.full(60, -ej / 2.0)
        oracle = scipy.linalg.eigh_tridiagonal(
            diag, off, select="i", select_range=(0, 3), eigvals_only=True
        )
        assert np.max(np.abs(energies - oracle)) < 1e-9


def test_criterion_08_round_trip_fit():
    with criterion(8, "3-gate synthetic corpus round trip with model selection"):
        start_time = time.perf_counter()
        truth = {
            -7.0: (0.68, 0.47, 0.46),
            -0.2: (0.94, 0.58, 0.58),
            3.0: (0.88, 0.66, 0.35),
        }
        flux = 2.0 * math.pi * np.linspace(0.0, 0.5, 41)
        labels = ("f01", "f12", "f02")
        basis = ChargeBasisConfig(n_cut=25, n_levels=4)
        datasets = []
        for seed_offset, (gate, ts) in enumerate(truth.items()):
            channels = NanowireChannels(ts)
            table = spectrum_vs_flux(
                HPQ, channels, flux, basis, k_max=10, labels=labels, me_pairs=()
            )
            low = min(float(np.nanmin(table.frequencies[lab])) for lab in labels)
            high = max(float(np.nanmax(table.frequencies[lab])) for lab in labels)
            freqs = np.arange(max(0.05, low - 0.5), high + 0.5, 0.005)
            cfg = SynthConfig(
                seed=101 + seed_offset,
                fwhm=0.025,
                amplitude=1.0,
                noise_sigma=0.02,  # 2% of the line amplitude
                weight_by_matrix_element=False,
            )
            traces, _ = synthesize_map(
                HPQ, channels, flux, freqs, cfg, labels=labels, basis=basis, k_max=10
            )
            points = extract_transitions(traces, hints_from_table(table, labels, 0.06))
            assert len(points) > 85, f"gate {gate}: only {len(points)} points extracted"
            datasets.append(SpectroscopyDataset(gate=gate, points=tuple(points)))

        fit_cfg = FitConfig(ec=0.28, k_max=10, n_cut=25, globals_mode="free")
        initial = CircuitParams(ej1=57.0, ej2=57.0, ecj=0.6, ec=0.28, gap=39.0)
        result = fit_global(
            datasets, [3, 3, 3], fit_cfg,
            initial_params=initial,
            initial_transmissions=[(0.75, 0.55, 0.4)] * 3,
        )
        for dataset, channels in zip(datasets, result.channels):
            expected = sorted(truth[dataset.gate], reverse=True)
            for got, want in zip(channels.transmissions, expected):
                assert abs(got - want) < 0.02, (
                    f"gate {dataset.gate}: T={got:.4f} vs {want}"
                )
        assert abs(result.params.ej1 - HPQ.ej1) / HPQ.ej1 < 0.01
        assert abs(result.params.ecj - HPQ.ecj) / HPQ.ecj < 0.01
        assert abs(result.params.gap - HPQ.gap) / HPQ.gap < 0.01

        select_cfg = FitConfig(
            ec=0.28, k_max=10, n_cut=25, globals_mode="fixed",
            fixed_params=result.params, max_nfev=60,
        )
        for dataset in datasets:
            selection = select_channel_count(dataset, (2, 3, 4, 5), select_cfg)
            assert selection.chosen == 3, (
                f"gate {dataset.gate}: chose {selection.chosen} ({selection.rmse_by_count})"
            )
            ratio = selection.rmse_by_count[2] / selection.rmse_by_count[3]
            assert ratio >= 10.0, f"gate {dataset.gate}: rmse(2)/rmse(3) = {ratio:.2f}"

        elapsed = time.perf_counter() - start_time
        print(f"  round trip completed in {elapsed:.0f} s")
        assert elapsed < 600.0


def test_criterion_09_convergence_and_symmetry():
    with criterion(9, "basis convergence, flux reversal, and sine suppression"):
        for channels in (T_ODD, T_MIXED, T_EVEN):
            for phi0 in (0.25, 0.5):
                spec = combine_harmonics(
                    fourier_u(HPQ, 10),
                    fourier_v(channels, HPQ.gap, 10),
                    FluxBias.from_phi0(phi0),
                )
                small = eigensolve(
                    build_hamiltonian(spec, HPQ.ec, ChargeBasisConfig(n_cut=30)), 4
                )[0]
                large = eigensolve(
                    build_hamiltonian(spec, HPQ.ec, ChargeBasisConfig(n_cut=60)), 4
                )[0]
                freqs_small = np.diff(small)
                freqs_large = np.diff(large)
                assert np.max(np.abs(freqs_small - freqs_large)) < 1e-6

        grid = np.array([0.4, 1.3, 2.8])
        cfg = ChargeBasisConfig(n_cut=30, n_levels=4)
        fwd = spectrum_vs_flux(HPQ, T_MIXED, grid, cfg)
        rev = spectrum_vs_flux(HPQ, T_MIXED, -grid, cfg)
        for label in fwd.labels:
            assert np.max(np.abs(fwd.frequencies[label] - rev.frequencies[label])) < 1e-9

        spec = spectrum_at_half_flux(T_EVEN)
        assert np.max(np.abs(spec.s)) < 1e-12 * np.max(np.abs(spec.c))


def test_criterion_10_gate_sweep_span():
    with criterion(10, "monotone synthetic sweep spans two decades with a sign change"):
        anchors = np.array(
            [[0.68, 0.47, 0.46, 0.0], [0.94, 0.58, 0.58, 0.0], [0.98, 0.98, 0.75, 0.54]]
        )
        u = fourier_u(HPQ, 10)
        ratios = []
        c1_values = []
        for x in np.linspace(0.0, 2.0, 161):
            seg = min(int(x), 1)
            frac = x - seg
            ts = (1.0 - frac) * anchors[seg] + frac * anchors[seg + 1]
            channels = NanowireChannels(tuple(t for t in ts if t > 1e-12))
            spec = combine_harmonics(u, fourier_v(channels, HPQ.gap, 10), HALF_FLUX)
            sums = parity_sums(spec)
            ratios.append(sums.ratio)
            c1_values.append(spec.c[1])
        finite = np.array([r for r in ratios if math.isfinite(r)])
        span = finite.max() / finite.min()
        assert span >= 100.0, f"span = {span:.1f}"
        signs = np.sign(c1_values)
        assert np.any(signs[:-1] != signs[1:]), "c1 never changes sign"
