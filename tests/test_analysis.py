import math

import numpy as np
import pytest
from scipy.optimize import brentq

from hpqkit import (
    ChargeBasisConfig,
    CircuitParams,
    FluxBias,
    NanowireChannels,
    Regime,
    combine_harmonics,
    find_phi_mins,
    fourier_u,
    fourier_v,
    gate_sweep_harmonics,
    gate_sweep_regimes,
    parity_sums,
    parity_weights,
    solve_flux_grid,
)
from hpqkit.analysis import write_gate_harmonics_csv, write_regimes_csv

from conftest import exact_phi_min

HALF_FLUX = FluxBias.from_phi0(0.5)


def interpolated_sweep() -> list[tuple[float, NanowireChannels]]:
    """21 gates with per-channel monotone interpolation through the three published settings."""
    anchors = np.array(
        [[0.68, 0.47, 0.46, 0.0], [0.94, 0.58, 0.58, 0.0], [0.98, 0.98, 0.75, 0.54]]
    )
    gates = []
    for i, x in enumerate(np.linspace(0.0, 2.0, 21)):
        seg = min(int(x), 1)
        frac = x - seg
        ts = (1.0 - frac) * anchors[seg] + frac * anchors[seg + 1]
        gates.append((float(i), NanowireChannels(tuple(t for t in ts if t > 1e-12))))
    return gates


class TestGateSweepHarmonics:
    def test_identical_gates_give_constant_table(self, hpq_params, mixed_channels):
        gates = [(-1.0, mixed_channels), (0.0, mixed_channels), (1.0, mixed_channels)]
        rows = gate_sweep_harmonics(hpq_params, gates, HALF_FLUX, k_max=8)
        for row in rows[1:]:
            assert np.array_equal(row.c, rows[0].c)
            assert row.ratio == rows[0].ratio

    def test_rows_match_independent_recomputation(self, hpq_params, odd_channels, even_channels):
        gates = [(-7.0, odd_channels), (7.2, even_channels)]
        rows = gate_sweep_harmonics(hpq_params, gates, HALF_FLUX, k_max=10)
        u = fourier_u(hpq_params, 10)
        for row, (_, channels) in zip(rows, gates):
            spec = combine_harmonics(u, fourier_v(channels, hpq_params.gap, 10), HALF_FLUX)
            sums = parity_sums(spec)
            assert np.allclose(row.c, spec.c, rtol=1e-12, atol=1e-12)
            assert row.c_even == pytest.approx(sums.c_even, rel=1e-12)
            assert row.c_odd == pytest.approx(sums.c_odd, rel=1e-12)

    def test_normalization_to_reference_gate(self, hpq_params, odd_channels, mixed_channels):
        gates = [(-7.0, odd_channels), (-0.2, mixed_channels)]
        rows = gate_sweep_harmonics(hpq_params, gates, HALF_FLUX, k_max=6)
        assert np.allclose(rows[0].c_normalized[1:], 1.0)
        expected = rows[1].c[2] / rows[0].c[2]
        assert rows[1].c_normalized[2] == pytest.approx(expected, rel=1e-12)

    def test_cancellation_gate_hits_sentinel(self, hpq_params):
        # tune a single strong channel to null the signed odd sum, then
        # sweep through it
        gap = 150.0
        u = fourier_u(hpq_params, 10)

        def signed_odd(t: float) -> float:
            spec = combine_harmonics(
                u, fourier_v(NanowireChannels((t,)), gap, 10), HALF_FLUX
            )
            return float(np.sum(spec.c[1::2]))

        t_star = brentq(signed_odd, 0.3, 0.999, xtol=1e-14)
        probe = CircuitParams(
            ej1=hpq_params.ej1, ej2=hpq_params.ej2, ecj=hpq_params.ecj,
            ec=hpq_params.ec, gap=gap,
        )
        gates = [
            (-1.0, NanowireChannels((t_star - 0.05,))),
            (0.0, NanowireChannels((t_star,))),
            (1.0, NanowireChannels((t_star + 0.05,))),
        ]
        rows = gate_sweep_harmonics(probe, gates, HALF_FLUX, k_max=10)
        assert rows[1].ratio == math.inf
        assert math.isfinite(rows[0].ratio)
        assert math.isfinite(rows[2].ratio)

    def test_empty_sweep(self, hpq_params):
        assert gate_sweep_harmonics(hpq_params, [], HALF_FLUX) == []


class TestGateSweepRegimes:
    def test_published_gate_settings_span_three_regimes(
        self, hpq_params, odd_channels, mixed_channels, even_channels
    ):
        gates = [(-7.0, odd_channels), (-0.2, mixed_channels), (7.2, even_channels)]
        rows = gate_sweep_regimes(hpq_params, gates, HALF_FLUX)
        assert rows[0].regime is Regime.ODD_DOMINATED
        assert rows[1].regime is Regime.MIXED
        assert rows[2].regime is Regime.EVEN_DOMINATED
        assert abs(rows[2].phi_min - math.pi / 2.0) < 0.35

    def test_regime_ratio_coherence_on_monotone_sweep(self, hpq_params):
        gates = interpolated_sweep()
        harmonic_rows = gate_sweep_harmonics(hpq_params, gates, HALF_FLUX)
        regime_rows = gate_sweep_regimes(hpq_params, gates, HALF_FLUX)
        even_ratios = [
            h.ratio for h, r in zip(harmonic_rows, regime_rows)
            if r.regime is Regime.EVEN_DOMINATED
        ]
        odd_ratios = [
            h.ratio for h, r in zip(harmonic_rows, regime_rows)
            if r.regime is Regime.ODD_DOMINATED
        ]
        assert even_ratios and odd_ratios
        assert min(even_ratios) > max(odd_ratios)

    def test_sweep_minima_match_exact_oracle(self, hpq_params):
        gates = interpolated_sweep()
        labels = find_phi_mins(hpq_params, [channels for _, channels in gates], HALF_FLUX)
        rows = gate_sweep_regimes(hpq_params, gates, HALF_FLUX)
        for label, row, (_, channels) in zip(labels, rows, gates):
            assert (row.phi_min, row.regime) == (label.phi_min, label.regime)
            assert abs(label.phi_min - exact_phi_min(hpq_params, channels, HALF_FLUX.phi_e)) < 1e-6


class TestParityTable:
    @staticmethod
    def lowest_parity_weights(params, channels, flux, n_cut, n_states, include_bo=True):
        u = fourier_u(params, 10, include_bo=include_bo)
        v = fourier_v(channels, params.gap, 10)
        cfg = ChargeBasisConfig(n_cut=n_cut, n_levels=n_states)
        vectors = solve_flux_grid(u, v, [flux.phi_e], params.ec, cfg).vectors[0]
        return [parity_weights(vectors[:, m]) for m in range(n_states)]

    def test_pure_even_potential_weights(self):
        # matched arms: unit-transmission channel against equal junctions
        ej = 20.0
        params = CircuitParams(ej1=ej, ej2=ej, ecj=1e-6, ec=0.3, gap=2.0 * ej)
        w0, w1 = self.lowest_parity_weights(
            params, NanowireChannels((1.0,)), FluxBias.from_phi0(0.5), 25, 2, include_bo=False
        )
        assert w0.even_weight == pytest.approx(1.0, abs=1e-10)
        assert w1.odd_weight == pytest.approx(1.0, abs=1e-10)

    def test_open_nanowire_mixes_parities(self, hpq_params):
        weights = self.lowest_parity_weights(hpq_params, NanowireChannels(()), FluxBias(0.0), 30, 2)
        for w in weights:
            assert 0.3 < w.even_weight < 0.7

    def test_high_transmission_gate_separates_parity(self, hpq_params, even_channels):
        w0, w1 = self.lowest_parity_weights(hpq_params, even_channels, FluxBias.from_phi0(0.5), 30, 2)
        assert w0.even_weight >= 0.95
        assert w1.odd_weight >= 0.95


class TestTableExports:
    def test_gate_harmonics_csv(self, tmp_path, hpq_params, mixed_channels):
        rows = gate_sweep_harmonics(hpq_params, [(0.0, mixed_channels)], HALF_FLUX, k_max=4)
        path = tmp_path / "harmonics_by_gate.csv"
        write_gate_harmonics_csv(rows, str(path))
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["gate", "c1", "c2"]
        assert "parity_ratio" in header
        assert len(lines) == 2

    def test_regimes_csv(self, tmp_path, hpq_params, odd_channels):
        rows = gate_sweep_regimes(hpq_params, [(-7.0, odd_channels)], HALF_FLUX)
        path = tmp_path / "regimes.csv"
        write_regimes_csv(rows, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "gate,phi_min_rad,regime"
        assert lines[1].endswith("OddDominated")
