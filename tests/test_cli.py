import configparser
import contextlib
import inspect
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hpqkit
from hpqkit import (
    ChargeBasisConfig,
    CircuitParams,
    FitConfig,
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


ONE_POINT_DATASET = "gate_v,flux_phi0,label,freq_ghz,sigma_ghz,used\n0.0,0.1,f01,5.0,0.01,1\n"


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

    def test_n_cut_too_small_for_k_max_exits_two(self, tmp_path, capsys):
        text = FIT_CONFIG.replace("k_max = 6", "k_max = 10").replace("n_cut = 11", "n_cut = 10")
        cfg = write(tmp_path / "run.ini", text)
        data = write(tmp_path / "data.csv", ONE_POINT_DATASET)
        assert main(["fit", data, "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "n_cut=10" in err and "runtime failure" not in err

    def test_gate_repeated_across_files_exits_two(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.ini", FIT_CONFIG)
        first = write(tmp_path / "a.csv", ONE_POINT_DATASET)
        second = write(tmp_path / "b.csv", ONE_POINT_DATASET)
        assert main(["fit", first, second, "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert "gate tag" in capsys.readouterr().err
        assert not (tmp_path / "fit_result.ini").exists()

    def test_unparseable_row_reports_line(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.ini", FIT_CONFIG)
        data = tmp_path / "bad.csv"
        data.write_text(
            "gate_v,flux_phi0,label,freq_ghz,sigma_ghz,used\n0.0,xx,f01,5.0,0.01,1\n"
        )
        assert main(["fit", str(data), "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert "bad.csv:2" in capsys.readouterr().err

    def test_fixed_globals_report_the_ec_they_solved_with(self, tmp_path, fit_dataset_csv):
        csv_path, _ = fit_dataset_csv
        text = FIT_CONFIG.replace("globals = fixed\nec = 0.28", "globals = fixed\nec = 0.35")
        cfg = write(tmp_path / "run.ini", text)
        assert main(["fit", csv_path, "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        doc = configparser.ConfigParser()
        doc.read(tmp_path / "fit_result.ini")
        assert float(doc["globals"]["ec"]) == 0.35
        assert float(doc["globals"]["ej1"]) == 55.03


class _Captured(Exception):
    """Stops a command at the library call whose arguments a test records."""


def test_empty_sections_build_the_library_defaults(tmp_path, monkeypatch):
    """The CLI spells no default of its own for a library setting."""
    seen = {}

    def capture(name):
        def record(*args, **kwargs):
            seen[name] = (args, kwargs)
            raise _Captured
        return record

    monkeypatch.setattr(hpqkit.spectrum, "spectrum_vs_flux", capture("sweep"))
    monkeypatch.setattr(hpqkit.synth, "synthesize_map", capture("synth"))
    monkeypatch.setattr(hpqkit.fitstack, "fit_global", capture("fit"))
    cfg = write(tmp_path / "run.ini", HPQ_CONFIG + "\n[basis]\n[fit]\n[synth]\n")
    data = write(tmp_path / "data.csv", ONE_POINT_DATASET)
    common = ["--config", cfg, "--out-dir", str(tmp_path)]
    for argv in (["sweep"], ["synth", "--seed", "1"], ["fit", data]):
        assert main(argv + common) == 1

    sweep_defaults = inspect.signature(spectrum_vs_flux).parameters
    args, kwargs = seen["sweep"]
    assert args[3] == ChargeBasisConfig()
    for name in ("k_max", "labels", "me_pairs", "include_bo"):
        assert kwargs[name] == sweep_defaults[name].default, name

    synth_defaults = inspect.signature(synthesize_map).parameters
    args, kwargs = seen["synth"]
    assert args[4] == SynthConfig(seed=1)
    assert kwargs["basis"] == ChargeBasisConfig()
    for name in ("k_max", "labels"):
        assert kwargs[name] == synth_defaults[name].default, name

    # fixed globals from [circuit] are the CLI's own choice; every other field is the library's
    circuit = CircuitParams(ej1=55.03, ej2=55.03, ecj=0.675, ec=0.28, gap=40.06)
    args, _ = seen["fit"]
    assert args[2] == FitConfig(ec=0.28, globals_mode="fixed", fixed_params=circuit)


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

    @pytest.mark.parametrize("tag", ["nan", "inf", "minus-seven"])
    def test_gate_tag_not_a_finite_number_exits_two(self, tmp_path, capsys, tag):
        cfg = write(tmp_path / "run.ini", CLASSIFY_CONFIG.replace("-7.0 = ", f"{tag} = "))
        assert main(["classify", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert f"gate tag '{tag}' is not a finite number" in capsys.readouterr().err

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


@pytest.mark.parametrize(
    "command, config, field",
    [
        ("decompose", HPQ_CONFIG + "\n[basis]\nn_g = nan\n", "basis.n_g"),
        ("decompose", HPQ_CONFIG.replace("phi_e = 0.5", "phi_e = inf"), "flux.phi_e"),
        ("synth", SYNTH_CONFIG.replace("fwhm = 0.05", "fwhm = nan"), "synth.fwhm"),
        ("sweep", SWEEP_CONFIG.replace("flux_start = -0.3", "flux_start = nan"), "sweep.flux_start"),
        ("fit", FIT_CONFIG.replace("channels = 2", "channels = 2..3\nrmse_factor = nan"),
         "fit.rmse_factor"),
    ],
    ids=["basis-n_g", "flux-phi_e", "synth-fwhm", "sweep-flux_start", "fit-rmse_factor"],
)
def test_non_finite_config_number_exits_two(tmp_path, capsys, command, config, field):
    argv = [command, "--config", write(tmp_path / "run.ini", config), "--out-dir", str(tmp_path)]
    if command == "fit":
        argv.append(write(tmp_path / "data.csv", ONE_POINT_DATASET))
    assert main(argv) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("sweep", SWEEP_CONFIG + "\n[basis]\nn_levels = 0\n", "basis.n_levels"),
        ("sweep", SWEEP_CONFIG + "\n[basis]\nn_g = 1e300\n", "basis.n_g"),
        ("synth", SYNTH_CONFIG.replace("fwhm = 0.05", "fwhm = 0"), "synth.fwhm"),
        ("synth", SYNTH_CONFIG.replace("noise_sigma = 0.02", "noise_sigma = -0.1"),
         "synth.noise_sigma"),
        ("synth", SYNTH_CONFIG.replace("freq_points = 600", "freq_points = 0"), "synth.freq_points"),
        ("synth", SYNTH_CONFIG.replace("freq_points = 600", "freq_points = 1"), "synth.freq_points"),
        ("synth", SYNTH_CONFIG.replace("freq_stop = 14.0", "freq_stop = 0.1"), "synth.freq_stop"),
        ("synth", SYNTH_CONFIG.replace("seed = 17", "seed = -1"), "synth.seed must be >= 0"),
        ("decompose", HPQ_CONFIG.replace("ej1 = 55.03", "ej1 = 1e300"), "circuit.ej1"),
        ("fit", FIT_CONFIG.replace("channels = 2", "channels = -1"), "fit.channels"),
        ("fit", FIT_CONFIG.replace("channels = 2", "channels = 2..3\nrmse_factor = 0.5"),
         "fit.rmse_factor"),
        ("fit", FIT_CONFIG + "n_g = 1e300\n", "fit.n_g"),
    ],
    ids=["n_levels-0", "n_g-1e300", "fwhm-0", "noise_sigma-negative", "freq_points-0",
         "freq_points-1", "freq_stop-below-start", "seed-negative", "ej1-1e300",
         "channels-negative", "rmse_factor-below-one", "fit-n_g-1e300"],
)
def test_out_of_range_config_value_exits_two(tmp_path, capsys, command, config, message):
    argv = [command, "--config", write(tmp_path / "run.ini", config), "--out-dir", str(tmp_path)]
    if command == "fit":
        argv.append(write(tmp_path / "data.csv", ONE_POINT_DATASET))
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_negative_amplitude_draws_dips(tmp_path):
    text = SYNTH_CONFIG.replace("noise_sigma = 0.02", "noise_sigma = 0.0") + "amplitude = -1\n"
    assert main(["synth", "--config", write(tmp_path / "run.ini", text),
                 "--out-dir", str(tmp_path)]) == 0
    signal = [float(row.split(",")[2])
              for row in (tmp_path / "map.csv").read_text().strip().splitlines()[1:]]
    assert min(signal) < -0.5 and max(signal) <= 0.0


#: a small config that every command accepts: 3 flux points, 50 drive points
SMALL_CONFIG = {
    "circuit": {"ej1": "55.03", "ej2": "55.03", "ecj": "0.675", "ec": "0.28", "gap": "40.06"},
    "channels": {"transmissions": "0.94, 0.58, 0.58"},
    "flux": {"phi_e": "0.5"},
    "basis": {"n_cut": "15", "n_g": "0.0", "n_levels": "4"},
    "decompose": {"k_max": "6", "include_bo": "true"},
    "sweep": {"k_max": "6", "flux_start": "0.0", "flux_stop": "0.5", "flux_points": "3",
              "labels": "f01, f12", "matrix_elements": "0-1", "include_bo": "true"},
    "synth": {"k_max": "6", "seed": "3", "fwhm": "0.05", "amplitude": "1.0",
              "noise_sigma": "0.01", "weight_by_matrix_element": "true", "flux_start": "0.0",
              "flux_stop": "0.5", "flux_points": "3", "freq_start": "1.0", "freq_stop": "10.0",
              "freq_points": "50", "labels": "f01, f12"},
    "fit": {"globals": "fixed", "ec": "0.28", "channels": "2", "k_max": "6", "n_cut": "11",
            "n_g": "0.0", "include_bo": "true", "sigma_floor": "1e-6", "max_nfev": "3",
            "rmse_factor": "1.5"},
    "gates": {"-7.0": "0.68, 0.47", "3.0": "0.88, 0.66"},
}
SMALL_DATASET = "gate_v,flux_phi0,label,freq_ghz,sigma_ghz,used\n" + "".join(
    f"0.5,{flux},f01,{5.0 + flux},0.001,1\n" for flux in (0.0, 0.2, 0.4)
)


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("mutation")
    (base / "data.csv").write_text(SMALL_DATASET)
    return base


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([(section, key) for section, keys in SMALL_CONFIG.items() for key in keys]),
    st.sampled_from(["0", "-1", "nan", "inf", "1e300", "", "word"]),
)
def test_one_key_mutation_exits_zero_or_two(mutation_dir, field, value):
    section, key = field
    sections = {name: dict(keys) for name, keys in SMALL_CONFIG.items()}
    sections[section][key] = value
    cfg = write(mutation_dir / "run.ini", "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()
    ))
    data, out = str(mutation_dir / "data.csv"), str(mutation_dir / "out")
    for argv in (["decompose"], ["sweep"], ["synth"], ["classify"], ["fit", data],
                 ["fit", data, "--channels", "1..2"]):
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--config", cfg, "--out-dir", out])
        assert code in (0, 2), (argv, section, key, value, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()
