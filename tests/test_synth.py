import math

import numpy as np
import pytest
from scipy.linalg import lapack
from scipy.optimize import curve_fit

import hpqkit.spectrum as spectrum
from hpqkit import (
    ChargeBasisConfig,
    CircuitParams,
    NanowireChannels,
    SynthConfig,
    Trace,
    synthesize_map,
    synthesize_trace,
    write_map_csv,
)

GRID = np.linspace(4.0, 6.0, 801)


class TestTrace:
    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            Trace(phi_e=0.0, freqs=np.array([1.0, 0.5, 2.0]), signal=np.zeros(3))

    def test_rejects_nonfinite_signal(self):
        with pytest.raises(ValueError):
            Trace(phi_e=0.0, freqs=np.array([1.0, 2.0]), signal=np.array([0.0, np.inf]))

    @pytest.mark.parametrize("signal", [np.zeros(3), np.zeros((2, 1))], ids=["longer", "two-d"])
    def test_rejects_signal_of_another_shape(self, signal):
        with pytest.raises(ValueError, match="^signal must match the frequency grid$"):
            Trace(phi_e=0.0, freqs=np.array([1.0, 2.0]), signal=signal)


class TestSynthesizeTrace:
    def test_single_line_peak_amplitude(self):
        trace = synthesize_trace([(5.0, 0.8, 0.02)], GRID)
        peak = int(np.argmax(trace.signal))
        assert GRID[peak] == pytest.approx(5.0, abs=GRID[1] - GRID[0])
        assert trace.signal[peak] == pytest.approx(0.8, rel=1e-6)

    def test_no_lines_noise_averages_out(self):
        trace = synthesize_trace([], GRID, noise_sigma=0.3, seed=7)
        assert abs(float(np.mean(trace.signal))) < 4.0 * 0.3 / math.sqrt(len(GRID))

    def test_overlapping_lines_add(self):
        one = synthesize_trace([(5.0, 0.5, 0.05)], GRID)
        two = synthesize_trace([(5.0, 0.5, 0.05), (5.0, 0.5, 0.05)], GRID)
        assert np.allclose(two.signal, 2.0 * one.signal, rtol=1e-12)

    def test_deterministic_per_seed(self):
        a = synthesize_trace([(5.0, 1.0, 0.05)], GRID, noise_sigma=0.1, seed=42)
        b = synthesize_trace([(5.0, 1.0, 0.05)], GRID, noise_sigma=0.1, seed=42)
        c = synthesize_trace([(5.0, 1.0, 0.05)], GRID, noise_sigma=0.1, seed=43)
        assert np.array_equal(a.signal, b.signal)
        assert not np.array_equal(a.signal, c.signal)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            synthesize_trace([(5.0, 1.0, 0.05)], np.array([]))

    def test_bad_linewidth_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(seed=1, fwhm=0.0)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"fwhm": math.nan}, "fwhm must be > 0, got nan"),
            ({"noise_sigma": -0.1}, "noise_sigma must be >= 0, got -0.1"),
            ({"noise_sigma": math.nan}, "noise_sigma must be >= 0, got nan"),
            ({"amplitude": math.nan}, "amplitude must be finite, got nan"),
            ({"amplitude": -math.inf}, "amplitude must be finite, got -inf"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"fwhm": math.inf}, "fwhm must be finite, got inf"),
            ({"noise_sigma": math.inf}, "noise_sigma must be finite, got inf"),
        ],
    )
    def test_nan_or_negative_setting_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message):
            SynthConfig(**{"seed": 1, **fields})

    def test_nan_linewidth_fails_before_any_eigensolve(self, monkeypatch):
        solves = []
        monkeypatch.setattr(spectrum, "eigensolve", lambda *args: solves.append(args))
        params = CircuitParams(ej1=55.03, ej2=55.03, ecj=0.675, ec=0.28, gap=40.06)
        with pytest.raises(ValueError, match="fwhm must be > 0, got nan"):
            synthesize_map(
                params, NanowireChannels((0.9,)), np.array([0.0]), GRID,
                SynthConfig(seed=1, fwhm=math.nan), basis=ChargeBasisConfig(n_cut=20, n_levels=3),
            )
        assert solves == []


@pytest.fixture(scope="module")
def device():
    params = CircuitParams(ej1=55.03, ej2=55.03, ecj=0.675, ec=0.28, gap=40.06)
    channels = NanowireChannels((0.94, 0.58, 0.58))
    return params, channels


class TestSynthesizeMap:
    def test_noiseless_ridge_follows_model_curve(self, device):
        params, channels = device
        flux = 2.0 * math.pi * np.linspace(0.0, 0.5, 7)
        freqs = np.linspace(0.2, 14.0, 3001)
        cfg = SynthConfig(seed=3, fwhm=0.04, noise_sigma=0.0, weight_by_matrix_element=False)
        traces, table = synthesize_map(
            params, channels, flux, freqs, cfg, labels=("f01",),
            basis=ChargeBasisConfig(n_cut=25, n_levels=2),
        )
        step = freqs[1] - freqs[0]
        for trace, f_model in zip(traces, table.frequencies["f01"]):
            ridge = trace.freqs[int(np.argmax(trace.signal))]
            assert abs(ridge - f_model) <= 0.5 * step

    def test_matrix_element_weighting_kills_forbidden_line(self):
        # matched arms at half flux quantum make the potential purely
        # even, so the charge drive cannot connect opposite number-parity
        # sectors: those lines must carry zero weight; ecj -> 0 is the
        # bare junction arm, whose series the nanowire channel matches
        from hpqkit import build_hamiltonian, combine_harmonics, eigensolve, fourier_u, fourier_v, parity_weights
        from hpqkit.potentials import FluxBias

        ej = 20.0
        params = CircuitParams(ej1=ej, ej2=ej, ecj=1e-30, ec=0.3, gap=2.0 * ej)
        channels = NanowireChannels((1.0,))
        flux = np.array([math.pi])
        freqs = np.linspace(0.2, 30.0, 500)
        cfg = SynthConfig(seed=5, fwhm=0.05, noise_sigma=0.0)
        basis = ChargeBasisConfig(n_cut=25, n_levels=3)
        labels = ("f01", "f02", "f12")
        traces, table = synthesize_map(params, channels, flux, freqs, cfg, labels=labels, basis=basis)
        spec = combine_harmonics(
            fourier_u(params, 10),
            fourier_v(channels, params.gap, 10),
            FluxBias(math.pi),
        )
        assert np.max(np.abs(spec.c[1::2])) < 1e-10  # arms matched: even only
        _, vectors = eigensolve(build_hamiltonian(spec, params.ec, basis), 3)
        sector = [parity_weights(vectors[:, m]).even_weight > 0.5 for m in range(3)]
        pairs = {"f01": (0, 1), "f02": (0, 2), "f12": (1, 2)}
        seen_allowed = False
        for label, (i, j) in pairs.items():
            element = float(table.matrix_elements[(i, j)][0])
            if sector[i] != sector[j]:
                assert element < 1e-8, label
            else:
                seen_allowed = True
                assert element > 1e-3, label
        assert seen_allowed
        assert np.max(traces[0].signal) > 1e-5

    def test_failed_point_has_a_trace_without_lines(self, device, monkeypatch):
        params, channels = device
        flux = 2.0 * math.pi * np.linspace(0.0, 0.5, 4)
        freqs = np.linspace(0.2, 14.0, 501)
        cfg = SynthConfig(seed=3, fwhm=0.05, noise_sigma=0.0, weight_by_matrix_element=False)
        # at n_g = 0 every point is solved by dsyevr; its second call reports a failure
        calls = []
        dsyevr = lapack.dsyevr

        def failing(*args, **kwargs):
            calls.append(1)
            out = dsyevr(*args, **kwargs)
            return (*out[:-1], 1) if len(calls) == 2 else out

        monkeypatch.setattr(lapack, "dsyevr", failing)
        basis = ChargeBasisConfig(n_cut=25, n_levels=3)
        traces, table = synthesize_map(params, channels, flux, freqs, cfg, labels=("f01", "f12"), basis=basis)
        assert len(calls) == len(flux)
        assert table.failed.tolist() == [False, True, False, False]
        assert np.isnan(table.frequencies["f01"][1])
        assert [trace.phi_e for trace in traces] == flux.tolist()
        # the failed point's NaN lines are skipped, so its trace is flat; the others carry both lines
        assert not traces[1].signal.any()
        for p in (0, 2, 3):
            assert traces[p].signal.max() > 0.5 * cfg.amplitude, p

    def test_map_determinism_and_substreams(self, device):
        params, channels = device
        flux = 2.0 * math.pi * np.linspace(0.0, 0.5, 5)
        freqs = np.linspace(0.2, 14.0, 501)
        cfg = SynthConfig(seed=11, fwhm=0.05, noise_sigma=0.05)
        first, _ = synthesize_map(params, channels, flux, freqs, cfg)
        second, _ = synthesize_map(params, channels, flux, freqs, cfg)
        for a, b in zip(first, second):
            assert np.array_equal(a.signal, b.signal)
        # per-point substreams: identical flux point, same noise regardless
        # of how many points precede it is not required, but points must
        # differ from each other
        assert not np.array_equal(first[0].signal, first[1].signal)

    def test_map_csv_round_shape(self, tmp_path, device):
        params, channels = device
        flux = 2.0 * math.pi * np.linspace(0.0, 0.4, 3)
        freqs = np.linspace(1.0, 10.0, 11)
        cfg = SynthConfig(seed=2, fwhm=0.1, noise_sigma=0.0)
        traces, _ = synthesize_map(params, channels, flux, freqs, cfg)
        path = tmp_path / "map.csv"
        write_map_csv(traces, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "flux_phi0,drive_freq_ghz,signal"
        assert len(lines) == 1 + 3 * 11

    def test_map_csv_of_generated_traces_each_on_its_own_grid(self, tmp_path):
        # each grid is freed once its trace is written, so a new grid may take its address
        def traces():
            for i in range(200):
                yield Trace(phi_e=0.0, freqs=np.array([1.0, 2.0, 3.0]) + i, signal=np.zeros(3))

        path = tmp_path / "map.csv"
        write_map_csv(traces(), str(path))
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert [float(row[1]) for row in rows] == [i + f for i in range(200) for f in (1.0, 2.0, 3.0)]


class TestNoiseScaling:
    def test_fitted_center_error_scales_linearly(self):
        # high-SNR regime: center standard error doubles with noise sigma
        grid = np.linspace(4.5, 5.5, 401)
        true = (5.003, 0.05, 1.0)

        def model(f, f0, fwhm, amp, off):
            return amp * (fwhm / 2.0) ** 2 / ((f - f0) ** 2 + (fwhm / 2.0) ** 2) + off

        def center_std(sigma: float) -> float:
            centers = []
            for seed in range(100):
                trace = synthesize_trace(
                    [(true[0], true[2], true[1])], grid, noise_sigma=sigma, seed=seed
                )
                popt, _ = curve_fit(
                    model, grid, trace.signal, p0=(5.0, 0.06, 0.9, 0.0), maxfev=5000
                )
                centers.append(popt[0])
            return float(np.std(centers))

        low, high = center_std(0.01), center_std(0.02)
        assert high / low == pytest.approx(2.0, rel=0.2)
