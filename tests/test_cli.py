import configparser
import math
import re

import numpy as np
import pytest

from hpqkit import (
    ChargeBasisConfig,
    CircuitParams,
    NanowireChannels,
    SpectroscopyDataset,
    SynthConfig,
    extract_transitions,
    hints_from_table,
    spectrum_vs_flux,
    synthesize_map,
    write_dataset_csv,
)
from hpqkit.cli import main

HPQ_CONFIG = """
[circuit]
ej1 = 55.03
ej2 = 55.03
ecj = 0.675
ec = 0.28
gap = 40.06

[channels]
transmissions = 0.98, 0.98, 0.75, 0.54

[flux]
phi_e = 0.5
"""


def write(path, text: str) -> str:
    path.write_text(text)
    return str(path)


class TestDecompose:
    def test_writes_table_and_summary(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.ini", HPQ_CONFIG)
        assert main(["decompose", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "harmonics.csv").read_text().strip().splitlines()
        assert lines[0] == "k,u_k,v_k,c_k,s_k"
        assert len(lines) == 12
        summary = (tmp_path / "summary.txt").read_text()
        assert "|c2/c1| = " in summary
        assert "regime = EvenDominated" in summary
        out = capsys.readouterr().out
        assert "|c2/c1| = " in out

    def test_summary_ratio_matches_library(self, tmp_path):
        from hpqkit import FluxBias, combine_harmonics, fourier_u, fourier_v

        cfg = write(tmp_path / "run.ini", HPQ_CONFIG)
        main(["decompose", "--config", cfg, "--out-dir", str(tmp_path)])
        summary = (tmp_path / "summary.txt").read_text()
        reported = float(
            [ln for ln in summary.splitlines() if ln.startswith("|c2/c1|")][0].split("=")[1]
        )
        params = CircuitParams(ej1=55.03, ej2=55.03, ecj=0.675, ec=0.28, gap=40.06)
        spec = combine_harmonics(
            fourier_u(params, 10),
            fourier_v(NanowireChannels((0.98, 0.98, 0.75, 0.54)), params.gap, 10),
            FluxBias.from_phi0(0.5),
        )
        assert reported == pytest.approx(abs(spec.c[2] / spec.c[1]), rel=1e-9)

    def test_open_nanowire_zeroes_v_column(self, tmp_path):
        cfg = write(
            tmp_path / "run.ini",
            HPQ_CONFIG.replace("transmissions = 0.98, 0.98, 0.75, 0.54", "transmissions ="),
        )
        assert main(["decompose", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        for line in (tmp_path / "harmonics.csv").read_text().strip().splitlines()[1:]:
            assert float(line.split(",")[2]) == 0.0

    def test_malformed_flux_names_field(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.ini", HPQ_CONFIG.replace("phi_e = 0.5", "phi_e = half"))
        assert main(["decompose", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "flux.phi_e" in err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["decompose", "--config", str(tmp_path / "nope.ini"),
                     "--out-dir", str(tmp_path)]) == 2

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write(tmp_path / "run.ini", HPQ_CONFIG)
        main(["decompose", "--config", cfg, "--out-dir", str(tmp_path)])
        first = (tmp_path / "harmonics.csv").read_bytes()
        main(["decompose", "--config", cfg, "--out-dir", str(tmp_path)])
        assert (tmp_path / "harmonics.csv").read_bytes() == first

    @pytest.mark.parametrize("name", ["KMAX", "NCUT", "SEED"])
    def test_malformed_integer_env_exits_two(self, tmp_path, monkeypatch, capsys, name):
        monkeypatch.setenv(f"HPQKIT_{name}", "abc")
        cfg = write(tmp_path / "run.ini", HPQ_CONFIG)
        assert main(["decompose", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert f"HPQKIT_{name}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, env, section",
        [
            (["--kmax", "0"], None, ""),
            (["--kmax", "-3"], None, ""),
            ([], "0", ""),
            ([], None, "\n[decompose]\nk_max = 0\n"),
        ],
        ids=["flag-zero", "flag-negative", "env", "section-key"],
    )
    def test_kmax_below_one_exits_two(self, tmp_path, monkeypatch, capsys, argv, env, section):
        if env is not None:
            monkeypatch.setenv("HPQKIT_KMAX", env)
        cfg = write(tmp_path / "run.ini", HPQ_CONFIG + section)
        assert main(["decompose", "--config", cfg, "--out-dir", str(tmp_path), *argv]) == 2
        assert "decompose: k_max must be >= 1" in capsys.readouterr().err

    def test_env_out_dir_override(self, tmp_path, monkeypatch):
        out = tmp_path / "from_env"
        monkeypatch.setenv("HPQKIT_OUT_DIR", str(out))
        cfg = write(tmp_path / "run.ini", HPQ_CONFIG)
        assert main(["decompose", "--config", cfg]) == 0
        assert (out / "harmonics.csv").exists()


SWEEP_CONFIG = """
[circuit]
ej1 = 55.03
ej2 = 55.03
ecj = 0.675
ec = 0.28
gap = 40.06

[channels]
transmissions =

[sweep]
flux_start = -0.3
flux_stop = 0.3
flux_points = 7
labels = f01, f12, f02/2
"""


class TestSweep:
    def test_open_nanowire_flat_and_matches_module(self, tmp_path):
        cfg = write(tmp_path / "run.ini", SWEEP_CONFIG)
        assert main(["sweep", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "transitions.csv").read_text().strip().splitlines()
        assert lines[0].startswith("flux_phi0,f01,f12,f02/2")
        f01 = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert max(f01) - min(f01) < 1e-10
        params = CircuitParams(ej1=55.03, ej2=55.03, ecj=0.675, ec=0.28, gap=40.06)
        oracle = spectrum_vs_flux(
            params, NanowireChannels(()), np.array([0.0]), ChargeBasisConfig()
        )
        assert f01[0] == pytest.approx(float(oracle.frequencies["f01"][0]), rel=1e-9)

    @pytest.mark.parametrize("command", ["sweep", "synth"])
    def test_label_beyond_solved_levels_exits_two(self, tmp_path, capsys, command):
        base = SWEEP_CONFIG if command == "sweep" else SYNTH_CONFIG
        text = re.sub(r"labels = .*", "labels = f01, f07", base)
        cfg = write(tmp_path / "run.ini", text + "\n[basis]\nn_levels = 6\n")
        assert main([command, "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "f07" in err and "n_levels = 6" in err

    def test_symmetric_grid_symmetric_table(self, tmp_path):
        text = SWEEP_CONFIG.replace("transmissions =", "transmissions = 0.94, 0.58, 0.58")
        cfg = write(tmp_path / "run.ini", text)
        assert main(["sweep", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "transitions.csv").read_text().strip().splitlines()[1:]
        f01 = [float(ln.split(",")[1]) for ln in lines]
        assert f01 == pytest.approx(f01[::-1], rel=1e-9)


SYNTH_CONFIG = """
[circuit]
ej1 = 55.03
ej2 = 55.03
ecj = 0.675
ec = 0.28
gap = 40.06

[channels]
transmissions = 0.94, 0.58, 0.58

[synth]
seed = 17
noise_sigma = 0.02
fwhm = 0.05
flux_start = 0.0
flux_stop = 0.5
flux_points = 4
freq_start = 0.2
freq_stop = 14.0
freq_points = 600
labels = f01
"""


class TestSynth:
    def test_deterministic_and_metadata(self, tmp_path):
        cfg = write(tmp_path / "run.ini", SYNTH_CONFIG)
        assert main(["synth", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        first = (tmp_path / "map.csv").read_bytes()
        assert main(["synth", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "map.csv").read_bytes() == first
        meta = configparser.ConfigParser()
        meta.read(tmp_path / "map_meta.ini")
        assert meta.getint("synth", "seed") == 17
        assert meta.getfloat("circuit", "ej1") == pytest.approx(55.03)

    def test_missing_seed_is_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.ini", SYNTH_CONFIG.replace("seed = 17\n", ""))
        assert main(["synth", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert "seed" in capsys.readouterr().err

    def test_noiseless_ridge_matches_sweep(self, tmp_path):
        text = SYNTH_CONFIG.replace("noise_sigma = 0.02", "noise_sigma = 0.0")
        cfg = write(tmp_path / "run.ini", text)
        main(["synth", "--config", cfg, "--out-dir", str(tmp_path)])
        rows = (tmp_path / "map.csv").read_text().strip().splitlines()[1:]
        by_flux: dict[float, list[tuple[float, float]]] = {}
        for row in rows:
            flux, freq, signal = (float(c) for c in row.split(","))
            by_flux.setdefault(flux, []).append((freq, signal))
        params = CircuitParams(ej1=55.03, ej2=55.03, ecj=0.675, ec=0.28, gap=40.06)
        table = spectrum_vs_flux(
            params,
            NanowireChannels((0.94, 0.58, 0.58)),
            2.0 * math.pi * np.linspace(0.0, 0.5, 4),
            ChargeBasisConfig(),
            labels=("f01",),
        )
        step = (14.0 - 0.2) / 599
        for flux, cells, f_model in zip(
            sorted(by_flux), [by_flux[k] for k in sorted(by_flux)], table.frequencies["f01"]
        ):
            ridge = max(cells, key=lambda fs: fs[1])[0]
            assert abs(ridge - f_model) < step


FIT_CONFIG = """
[circuit]
ej1 = 55.03
ej2 = 55.03
ecj = 0.675
ec = 0.28
gap = 40.06

[fit]
globals = fixed
ec = 0.28
k_max = 6
n_cut = 11
channels = 2
"""


@pytest.fixture(scope="module")
def fit_dataset_csv(tmp_path_factory):
    """Small single-gate corpus extracted from a synthetic map."""
    base = tmp_path_factory.mktemp("fitdata")
    params = CircuitParams(ej1=55.03, ej2=55.03, ecj=0.675, ec=0.28, gap=40.06)
    channels = NanowireChannels((0.8, 0.45))
    flux = 2.0 * math.pi * np.linspace(0.0, 0.5, 21)
    freqs = np.arange(0.2, 16.0, 0.005)
    cfg = SynthConfig(seed=23, fwhm=0.025, noise_sigma=0.02, weight_by_matrix_element=False)
    traces, table = synthesize_map(
        params, channels, flux, freqs, cfg,
        labels=("f01", "f12"), basis=ChargeBasisConfig(n_cut=25, n_levels=3), k_max=6,
    )
    hints = hints_from_table(table, ("f01", "f12"), halfwidth=0.1)
    points = extract_transitions(traces, hints)
    dataset = SpectroscopyDataset(gate=-0.5, points=tuple(points))
    path = base / "gate.csv"
    write_dataset_csv([dataset], str(path))
    return str(path), channels


class TestFit:
    def test_fixed_count_round_trip(self, tmp_path, fit_dataset_csv):
        csv_path, truth = fit_dataset_csv
        cfg = write(tmp_path / "run.ini", FIT_CONFIG)
        assert main(["fit", csv_path, "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        doc = configparser.ConfigParser()
        doc.read(tmp_path / "fit_result.ini")
        section = doc["gate:-0.5"]
        fitted = [float(t) for t in section["transmissions"].split(",")]
        for got, want in zip(fitted, truth.transmissions):
            assert got == pytest.approx(want, abs=0.02)
        assert float(section["rmse_ghz"]) < 0.01

    def test_channel_count_sweep_emits_table(self, tmp_path, fit_dataset_csv):
        csv_path, _ = fit_dataset_csv
        cfg = write(tmp_path / "run.ini", FIT_CONFIG)
        code = main([
            "fit", csv_path, "--config", cfg, "--out-dir", str(tmp_path), "--channels", "2..3",
        ])
        assert code == 0
        lines = (tmp_path / "rmse_by_count.csv").read_text().strip().splitlines()
        assert lines[0] == "gate_v,channels,rmse_ghz,chosen"
        assert len(lines) == 3
        chosen = {int(ln.split(",")[1]): int(ln.split(",")[3]) for ln in lines[1:]}
        assert chosen[2] == 1  # two channels suffice for two-channel data

    def test_unused_only_dataset_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.ini", FIT_CONFIG)
        data = tmp_path / "unused.csv"
        data.write_text(
            "gate_v,flux_phi0,label,freq_ghz,sigma_ghz,used\n0.0,0.1,f01,5.0,0.01,0\n"
        )
        assert main(["fit", str(data), "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert "no fittable points" in capsys.readouterr().err

    def test_non_finite_frequency_exits_two(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.ini", FIT_CONFIG)
        data = tmp_path / "bad.csv"
        data.write_text(
            "gate_v,flux_phi0,label,freq_ghz,sigma_ghz,used\n0.0,0.1,f01,nan,0.01,1\n"
        )
        assert main(["fit", str(data), "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert "bad.csv:2" in capsys.readouterr().err

    def test_unparseable_row_reports_line(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.ini", FIT_CONFIG)
        data = tmp_path / "bad.csv"
        data.write_text(
            "gate_v,flux_phi0,label,freq_ghz,sigma_ghz,used\n0.0,xx,f01,5.0,0.01,1\n"
        )
        assert main(["fit", str(data), "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert "bad.csv:2" in capsys.readouterr().err


CLASSIFY_CONFIG = """
[circuit]
ej1 = 55.03
ej2 = 55.03
ecj = 0.675
ec = 0.28
gap = 40.06

[flux]
phi_e = 0.5

[gates]
-7.0 = 0.68, 0.47, 0.46
-0.2 = 0.94, 0.58, 0.58
7.2 = 0.98, 0.98, 0.75, 0.54
"""


class TestParameterDocuments:
    def test_round_trip(self, tmp_path):
        from hpqkit.config import read_params_document, write_params_document
        from hpqkit.potentials import FluxBias

        params = CircuitParams(ej1=55.03, ej2=55.03, ecj=0.675, ec=0.28, gap=40.06)
        channels = NanowireChannels((0.98, 0.75))
        flux = FluxBias.from_phi0(0.5)
        path = tmp_path / "params.ini"
        write_params_document(params, channels, flux, str(path))
        got_params, got_channels, got_flux = read_params_document(str(path))
        assert got_params == params
        assert got_channels == channels
        assert got_flux.phi_e == pytest.approx(flux.phi_e, abs=1e-12)

    def test_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "decompose" in capsys.readouterr().out

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestClassify:
    def test_three_regimes(self, tmp_path):
        cfg = write(tmp_path / "run.ini", CLASSIFY_CONFIG)
        assert main(["classify", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "regimes.csv").read_text().strip().splitlines()
        assert lines[0] == "gate,phi_min_rad,regime"
        regimes = [ln.split(",")[2] for ln in lines[1:]]
        assert regimes == ["OddDominated", "Mixed", "EvenDominated"]

    def test_identical_inputs_identical_outputs(self, tmp_path):
        cfg = write(tmp_path / "run.ini", CLASSIFY_CONFIG)
        main(["classify", "--config", cfg, "--out-dir", str(tmp_path)])
        first = (tmp_path / "regimes.csv").read_bytes()
        main(["classify", "--config", cfg, "--out-dir", str(tmp_path)])
        assert (tmp_path / "regimes.csv").read_bytes() == first

    def test_transmission_outside_unit_interval_exits_two(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.ini", CLASSIFY_CONFIG.replace("0.98, 0.98", "1.5, 0.98"))
        assert main(["classify", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert "gates.7.2" in capsys.readouterr().err

    def test_empty_gate_list(self, tmp_path):
        text = CLASSIFY_CONFIG.split("[gates]")[0] + "[gates]\n"
        cfg = write(tmp_path / "run.ini", text)
        assert main(["classify", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "regimes.csv").read_text().strip() == "gate,phi_min_rad,regime"

    def test_reads_fit_result_document(self, tmp_path):
        doc = tmp_path / "fit_result.ini"
        doc.write_text(
            "[globals]\nej1 = 55.03\nej2 = 55.03\necj = 0.675\nec = 0.28\ngap = 40.06\n\n"
            "[gate:7.2]\ntransmissions = 0.98, 0.98, 0.75, 0.54\n"
        )
        assert main(["classify", "--fit-result", str(doc), "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "regimes.csv").read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[1].endswith("EvenDominated")
