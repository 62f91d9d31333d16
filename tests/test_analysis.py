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
    fourier_u,
    fourier_v,
    gate_sweep_harmonics,
    gate_sweep_regimes,
    parity_sums,
    parity_table,
    sns_branch_report,
)
from hpqkit.analysis import (
    DOMINANT_CUTOFF,
    write_gate_harmonics_csv,
    write_parity_csv,
    write_plot_data,
    write_regimes_csv,
    write_sns_report_csv,
)

HALF_FLUX = FluxBias.from_phi0(0.5)


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
        # per-channel monotone interpolation through the three settings
        anchors = np.array(
            [[0.68, 0.47, 0.46, 0.0], [0.94, 0.58, 0.58, 0.0], [0.98, 0.98, 0.75, 0.54]]
        )
        gates = []
        for i, x in enumerate(np.linspace(0.0, 2.0, 21)):
            seg = min(int(x), 1)
            frac = x - seg
            ts = (1.0 - frac) * anchors[seg] + frac * anchors[seg + 1]
            gates.append((float(i), NanowireChannels(tuple(t for t in ts if t > 1e-12))))
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


class TestSnsBranchReport:
    def test_open_channel_rows_are_zero(self):
        report = sns_branch_report([(0.0, NanowireChannels(()))], 40.0, k_max=6)
        row = report.rows[0]
        assert np.all(row.v == 0.0)
        assert row.v_even == 0.0 and row.v_odd == 0.0 and row.t_sum == 0.0

    def test_first_harmonic_grows_with_transmission(self):
        report = sns_branch_report(
            [(0.0, NanowireChannels((0.2,))), (1.0, NanowireChannels((0.4,)))], 40.0
        )
        assert abs(report.rows[1].v[1]) > abs(report.rows[0].v[1])

    def test_fixed_junction_arm_overlay(self, hpq_params, odd_channels):
        report = sns_branch_report(
            [(0.0, odd_channels)], hpq_params.gap, k_max=8, params=hpq_params
        )
        u = fourier_u(hpq_params, 8)
        assert report.u_even == pytest.approx(float(np.sum(u[2::2])), rel=1e-12)
        assert report.u_odd == pytest.approx(float(np.sum(u[1::2])), rel=1e-12)

    def test_transmission_sum_column(self, even_channels):
        report = sns_branch_report([(0.0, even_channels)], 40.0)
        assert report.rows[0].t_sum == pytest.approx(sum(even_channels), rel=1e-12)


class TestParityTable:
    def test_pure_even_potential_weights(self):
        # matched arms: unit-transmission channel against equal junctions
        ej = 20.0
        params = CircuitParams(ej1=ej, ej2=ej, ecj=1e-6, ec=0.3, gap=2.0 * ej)
        rows = parity_table(
            params, NanowireChannels((1.0,)), HALF_FLUX,
            ChargeBasisConfig(n_cut=25), 2, include_bo=False,
        )
        assert rows[0].even_weight == pytest.approx(1.0, abs=1e-10)
        assert rows[1].odd_weight == pytest.approx(1.0, abs=1e-10)

    def test_open_nanowire_mixes_parities(self, hpq_params):
        rows = parity_table(
            hpq_params, NanowireChannels(()), FluxBias(0.0), ChargeBasisConfig(n_cut=30), 2
        )
        for row in rows:
            assert 0.3 < row.even_weight < 0.7

    def test_high_transmission_gate_separates_parity(self, hpq_params, even_channels):
        rows = parity_table(
            hpq_params, even_channels, HALF_FLUX, ChargeBasisConfig(n_cut=30), 2
        )
        assert rows[0].even_weight >= 0.95
        assert rows[1].odd_weight >= 0.95

    def test_dominant_components_sorted_and_cut(self, hpq_params, mixed_channels):
        rows = parity_table(hpq_params, mixed_channels, HALF_FLUX, ChargeBasisConfig(n_cut=30), 1)
        probs = [p for _, p in rows[0].dominant]
        assert all(p > DOMINANT_CUTOFF for p in probs)
        assert probs == sorted(probs, reverse=True)
        assert sum(probs) == pytest.approx(1.0, abs=0.05)

    def test_equal_probabilities_listed_by_ascending_charge(self, hpq_params, mixed_channels):
        # at n_g = 0 the solve is charge-reflection symmetric, so |psi_n|^2 = |psi_-n|^2 exactly
        rows = parity_table(
            hpq_params, mixed_channels, FluxBias.from_phi0(0.3), ChargeBasisConfig(n_cut=25), 2,
        )
        for row in rows:
            probs = dict(row.dominant)
            assert all(probs[-n] == p for n, p in row.dominant)
            assert list(row.dominant) == sorted(row.dominant, key=lambda np_: (-np_[1], np_[0]))
        assert [n for n, _ in rows[0].dominant] == [0, -1, 1, -2, 2, -3, 3, -4, 4]
        assert [n for n, _ in rows[1].dominant] == [-2, 2, -3, 3, -1, 1, -4, 4, -5, 5]


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

    def test_sns_report_csv(self, tmp_path, hpq_params, odd_channels):
        report = sns_branch_report(
            [(0.0, odd_channels)], hpq_params.gap, k_max=4, params=hpq_params
        )
        path = tmp_path / "sns.csv"
        write_sns_report_csv(report, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("gate,v1,v2,v3,v4,v_even,v_odd,t_sum,u_even")

    def test_parity_csv(self, tmp_path, hpq_params, even_channels):
        rows = parity_table(
            hpq_params, even_channels, HALF_FLUX, ChargeBasisConfig(n_cut=30), 2
        )
        path = tmp_path / "parity.csv"
        write_parity_csv(rows, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "state,energy_ghz,even_weight,odd_weight,dominant"
        assert len(lines) == 3
        assert ":" in lines[1].split(",")[4]

    def test_plot_data_emitter(self, tmp_path):
        path = tmp_path / "plot.csv"
        write_plot_data([(0.0, 1.5, "c_even"), (0.2, -0.5, "c_odd")], str(path))
        lines = path.read_text().strip().splitlines()
        assert lines == ["x,y,series", "0,1.5,c_even", "0.2,-0.5,c_odd"]
