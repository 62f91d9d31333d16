import ast
import configparser
import contextlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hpqkit
from hpqkit import (
    ChargeBasisConfig,
    CircuitParams,
    FitConfig,
    FluxBias,
    NanowireChannels,
    SpectroscopyDataset,
    SynthConfig,
    extract_transitions,
    gate_sweep_harmonics,
    hints_from_table,
    spectrum_vs_flux,
    synthesize_map,
    write_dataset_csv,
)
from hpqkit import cli
from hpqkit.analysis import write_gate_harmonics_csv
from hpqkit.cli import main
from hpqkit.config import ConfigError, circuit_from_config, load_config, read_gate_channels

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

    def test_circuit_without_ej1_exits_two(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.ini", HPQ_CONFIG.replace("ej1 = 55.03\n", ""))
        assert main(["decompose", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert f"error: missing field circuit.ej1 in {cfg}" in capsys.readouterr().err
        assert not (tmp_path / "harmonics.csv").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["decompose", "--config", str(tmp_path / "nope.ini"),
                     "--out-dir", str(tmp_path)]) == 2

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write(tmp_path / "run.ini", HPQ_CONFIG)
        main(["decompose", "--config", cfg, "--out-dir", str(tmp_path)])
        first = (tmp_path / "harmonics.csv").read_bytes()
        main(["decompose", "--config", cfg, "--out-dir", str(tmp_path)])
        assert (tmp_path / "harmonics.csv").read_bytes() == first

    @pytest.mark.parametrize("name", ["KMAX", "NCUT"])
    def test_malformed_integer_env_exits_two(self, tmp_path, monkeypatch, capsys, name):
        monkeypatch.setenv(f"HPQKIT_{name}", "abc")
        cfg = write(tmp_path / "run.ini", HPQ_CONFIG)
        assert main(["decompose", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert f"HPQKIT_{name}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, env, section, source",
        [
            (["--kmax", "0"], None, "", "--kmax"),
            (["--kmax", "-3"], None, "", "--kmax"),
            ([], "0", "", "HPQKIT_KMAX"),
            ([], None, "\n[decompose]\nk_max = 0\n", "decompose.k_max"),
        ],
        ids=["flag-zero", "flag-negative", "env", "section-key"],
    )
    def test_kmax_below_one_exits_two(self, tmp_path, monkeypatch, capsys, argv, env, section, source):
        if env is not None:
            monkeypatch.setenv("HPQKIT_KMAX", env)
        cfg = write(tmp_path / "run.ini", HPQ_CONFIG + section)
        assert main(["decompose", "--config", cfg, "--out-dir", str(tmp_path), *argv]) == 2
        assert f"error: {source} must be >= 1, got " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, argv, env, section, source",
        [
            ("decompose", ["--ncut", "3"], None, "", "--ncut"),
            ("decompose", [], "3", "", "HPQKIT_NCUT"),
            ("decompose", [], None, "\n[basis]\nn_cut = 3\n", "basis.n_cut"),
            ("fit", ["--ncut", "3"], None, "", "--ncut"),
            ("fit", [], "3", "", "HPQKIT_NCUT"),
            ("fit", [], None, "n_cut = 3\n", "fit.n_cut"),
        ],
        ids=["flag", "env", "section-key", "fit-flag", "fit-env", "fit-section-key"],
    )
    def test_ncut_below_headroom_names_its_source(
        self, tmp_path, monkeypatch, capsys, command, argv, env, section, source
    ):
        if env is not None:
            monkeypatch.setenv("HPQKIT_NCUT", env)
        if command == "fit":
            # [fit] holds its own n_cut; k_max = 10 there as in [decompose]
            cfg = write(tmp_path / "run.ini", FIT_CONFIG.replace("k_max = 6\nn_cut = 11\n", "k_max = 10\n" + section))
            argv = [write(tmp_path / "data.csv", ONE_POINT_DATASET), *argv]
        else:
            cfg = write(tmp_path / "run.ini", HPQ_CONFIG + section)
        assert main([command, "--config", cfg, "--out-dir", str(tmp_path), *argv]) == 2
        assert f"error: {source}=3 too small for k_max=10 (need k_max+5)" in capsys.readouterr().err

    def test_env_out_dir_override(self, tmp_path, monkeypatch):
        out = tmp_path / "from_env"
        monkeypatch.setenv("HPQKIT_OUT_DIR", str(out))
        cfg = write(tmp_path / "run.ini", HPQ_CONFIG)
        assert main(["decompose", "--config", cfg]) == 0
        assert (out / "harmonics.csv").exists()

    def test_empty_out_dir_env_writes_to_the_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HPQKIT_OUT_DIR", "")
        monkeypatch.chdir(tmp_path)
        cfg = write(tmp_path / "run.ini", HPQ_CONFIG)
        assert main(["decompose", "--config", cfg]) == 0
        assert (tmp_path / "harmonics.csv").exists()

    def test_empty_out_dir_flag_writes_to_the_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write(tmp_path / "run.ini", HPQ_CONFIG)
        assert main(["decompose", "--config", cfg, "--out-dir", ""]) == 0
        assert (tmp_path / "harmonics.csv").exists() and (tmp_path / "summary.txt").exists()

    @pytest.mark.parametrize("from_env", [False, True], ids=["flag", "env"])
    def test_out_dir_that_cannot_be_made_names_its_source(self, tmp_path, monkeypatch, capsys, from_env):
        blocker = write(tmp_path / "blocker", "a file, not a directory\n")
        out = str(Path(blocker) / "out")
        cfg = write(tmp_path / "run.ini", HPQ_CONFIG)
        if from_env:
            monkeypatch.setenv("HPQKIT_OUT_DIR", out)
        argv = ["decompose", "--config", cfg] + ([] if from_env else ["--out-dir", out])
        assert main(argv) == 2
        source = "HPQKIT_OUT_DIR" if from_env else "--out-dir"
        assert f"error: {source}: cannot create directory {out!r}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["decompose", "classify"])
    def test_empty_config_env_exits_two(self, tmp_path, monkeypatch, command):
        # an empty HPQKIT_CONFIG counts as unset: the parser may report the missing flag itself
        monkeypatch.setenv("HPQKIT_CONFIG", "")
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main([command, "--out-dir", str(tmp_path)])
            except SystemExit as exc:
                code = exc.code
        assert code == 2


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

    @pytest.mark.parametrize("command", ["sweep", "synth"])
    @pytest.mark.parametrize(
        "labels, message", [("f01, f02/2, f01", "'f01' repeats 'f01'"), ("f01, f01/1", "'f01/1' repeats 'f01'")]
    )
    def test_repeated_label_exits_two(self, tmp_path, capsys, command, labels, message):
        base = SWEEP_CONFIG if command == "sweep" else SYNTH_CONFIG
        cfg = write(tmp_path / "run.ini", re.sub(r"labels = .*", f"labels = {labels}", base))
        assert main([command, "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert f"error: {command}.labels: {message}" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "pairs, message", [("0-1, 0-1", "'0-1' repeats '0-1'"), ("0-1, 1-2, 00-1", "'00-1' repeats '0-1'")]
    )
    def test_repeated_pair_exits_two(self, tmp_path, capsys, pairs, message):
        cfg = write(tmp_path / "run.ini", SWEEP_CONFIG + f"matrix_elements = {pairs}\n")
        assert main(["sweep", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert f"error: sweep.matrix_elements: {message}" in capsys.readouterr().err
        assert not (tmp_path / "transitions.csv").exists()

    def test_negative_level_in_pair_exits_two(self, tmp_path, capsys):
        # '0--1' splits into levels 0 and -1, which would read the last level solved
        cfg = write(tmp_path / "run.ini", SWEEP_CONFIG + "matrix_elements = 0-1, 0--1\n")
        assert main(["sweep", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert "error: sweep.matrix_elements: levels must be >= 0, got '0--1'" in capsys.readouterr().err
        assert not (tmp_path / "transitions.csv").exists()

    def test_empty_label_list_exits_two(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.ini", re.sub(r"labels = .*", "labels = ,", SWEEP_CONFIG))
        assert main(["sweep", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert "error: sweep.labels: no transition labels given" in capsys.readouterr().err
        assert not (tmp_path / "transitions.csv").exists()

    def test_failed_flux_point_warns_and_leaves_a_nan_row(self, tmp_path, capsys, fail_solve):
        cfg = write(tmp_path / "run.ini", SWEEP_CONFIG)
        fail_solve(3)
        assert main(["sweep", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        out, err = capsys.readouterr()
        assert "warning: 1 flux point(s) did not converge (NaN rows)" in err
        assert f"wrote {tmp_path / 'transitions.csv'} (7 flux points)" in out
        rows = [line.split(",") for line in (tmp_path / "transitions.csv").read_text().splitlines()[1:]]
        assert len(rows) == 7
        failed = [row for row in rows if any(math.isnan(float(cell)) for cell in row[1:])]
        assert len(failed) == 1 and all(math.isnan(float(cell)) for cell in failed[0][1:])

    def test_two_photon_label_is_not_a_repeat(self, tmp_path):
        cfg = write(tmp_path / "run.ini", re.sub(r"labels = .*", "labels = f02, f02/2", SWEEP_CONFIG))
        assert main(["sweep", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        header = (tmp_path / "transitions.csv").read_text().splitlines()[0]
        assert header.startswith("flux_phi0,f02,f02/2,")

    def test_malformed_seed_env_is_not_read(self, tmp_path, monkeypatch):
        # sweep has no --seed, so it never reads HPQKIT_SEED
        monkeypatch.setenv("HPQKIT_SEED", "abc")
        cfg = write(tmp_path / "run.ini", SWEEP_CONFIG)
        assert main(["sweep", "--config", cfg, "--out-dir", str(tmp_path)]) == 0

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

    @pytest.mark.parametrize("value", ["abc", "-1"])
    def test_malformed_seed_env_exits_two(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("HPQKIT_SEED", value)
        cfg = write(tmp_path / "run.ini", SYNTH_CONFIG)
        assert main(["synth", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "HPQKIT_SEED" in err and "--seed" not in err

    def test_missing_seed_is_config_error(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.ini", SYNTH_CONFIG.replace("seed = 17\n", ""))
        assert main(["synth", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert "error: synth needs a seed (--seed, HPQKIT_SEED or synth.seed)" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "argv, env, key, message",
        [
            (["--channels", "0"], None, "2", "--channels: channel counts must be >= 1, got '0'"),
            ([], "x", "2", "HPQKIT_CHANNELS: expected counts like '3', '2,3' or '2..5': 'x'"),
            ([], None, "0", "fit.channels: channel counts must be >= 1, got '0'"),
            ([], "", "0", "fit.channels: channel counts must be >= 1, got '0'"),
            (["--channels", ""], None, "0", "fit.channels: channel counts must be >= 1, got '0'"),
            (["--channels", "1,1"], None, "2", "--channels: '1' repeats '1'"),
            ([], "3,3", "2", "HPQKIT_CHANNELS: '3' repeats '3'"),
            ([], None, "2,3,3", "fit.channels: '3' repeats '3'"),
            (["--channels", "3..2"], None, "2", "--channels: expected counts like '3', '2,3' or '2..5': '3..2'"),
        ],
        ids=["flag", "env", "section-key", "empty-env", "empty-flag",
             "repeat-flag", "repeat-env", "repeat-section-key", "empty-range"],
    )
    def test_bad_channel_counts_name_their_source(self, tmp_path, monkeypatch, capsys, argv, env, key, message):
        if env is not None:
            monkeypatch.setenv("HPQKIT_CHANNELS", env)
        cfg = write(tmp_path / "run.ini", FIT_CONFIG.replace("channels = 2", f"channels = {key}"))
        data = write(tmp_path / "data.csv", ONE_POINT_DATASET)
        assert main(["fit", data, "--config", cfg, "--out-dir", str(tmp_path), *argv]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "globals_mode, argv, message",
        [
            ("both", [], "fit.globals must be 'free' or 'fixed', got 'both'"),
            ("free", ["--channels", "2..3"], "channel-count selection requires fit.globals = fixed"),
        ],
        ids=["unknown-mode", "selection-with-free-globals"],
    )
    def test_bad_globals_mode_exits_two(self, tmp_path, capsys, globals_mode, argv, message):
        cfg = write(tmp_path / "run.ini", FIT_CONFIG.replace("globals = fixed", f"globals = {globals_mode}"))
        data = write(tmp_path / "data.csv", ONE_POINT_DATASET)
        assert main(["fit", data, "--config", cfg, "--out-dir", str(tmp_path), *argv]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "rmse_by_count.csv").exists() and not (tmp_path / "fit_result.ini").exists()

    @pytest.mark.parametrize("extra", [[], ["--channels", "2..3"]], ids=["single-count", "selection"])
    def test_header_only_dataset_exits_two_before_writing(self, tmp_path, capsys, extra):
        cfg = write(tmp_path / "run.ini", FIT_CONFIG)
        data = write(tmp_path / "empty.csv", ONE_POINT_DATASET.splitlines()[0] + "\n")
        out = tmp_path / "out"
        assert main(["fit", data, "--config", cfg, "--out-dir", str(out), *extra]) == 2
        assert f"error: datasets: no points in {data}" in capsys.readouterr().err
        assert not out.exists()

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

    def test_row_with_five_fields_exits_two(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.ini", FIT_CONFIG)
        data = write(tmp_path / "bad.csv", ONE_POINT_DATASET + "0.0,0.2,f01,5.0,0.01\n")
        assert main(["fit", data, "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert f"error: {data}:3: expected 6 fields, got 5" in capsys.readouterr().err
        assert not (tmp_path / "fit_result.ini").exists()

    def test_failed_solve_exits_one_naming_its_gate(self, tmp_path, capsys, fit_dataset_csv, fail_solve):
        csv_path, _ = fit_dataset_csv
        cfg = write(tmp_path / "run.ini", FIT_CONFIG)
        fail_solve(1)
        assert main(["fit", csv_path, "--config", cfg, "--out-dir", str(tmp_path)]) == 1
        assert re.search(r"^runtime failure: dataset gate=-0\.5: .*info=1$", capsys.readouterr().err, re.M)
        assert not (tmp_path / "fit_result.ini").exists()

    def test_selection_whose_every_count_fails_exits_one(self, tmp_path, capsys, monkeypatch):
        def failing(plans, layout, cfg, initial_params, transmissions):
            raise hpqkit.SolverError("forced failure")

        monkeypatch.setattr(hpqkit.fitstack, "_fit_start", failing)
        cfg = write(tmp_path / "run.ini", FIT_CONFIG)
        data = write(tmp_path / "data.csv", ONE_POINT_DATASET)
        assert main(["fit", data, "--config", cfg, "--out-dir", str(tmp_path), "--channels", "2..3"]) == 1
        assert (
            "runtime failure: all channel-count fits failed (2 channels: forced failure; 3 channels: forced failure)"
            in capsys.readouterr().err
        )
        assert not (tmp_path / "rmse_by_count.csv").exists()

    def test_fixed_globals_report_the_ec_they_solved_with(self, tmp_path, fit_dataset_csv):
        csv_path, _ = fit_dataset_csv
        text = FIT_CONFIG.replace("globals = fixed\nec = 0.28", "globals = fixed\nec = 0.35")
        cfg = write(tmp_path / "run.ini", text)
        assert main(["fit", csv_path, "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        doc = configparser.ConfigParser()
        doc.read(tmp_path / "fit_result.ini")
        assert float(doc["globals"]["ec"]) == 0.35
        assert float(doc["globals"]["ej1"]) == 55.03

    @pytest.mark.parametrize("extra", [[], ["--channels", "2..3"]], ids=["single-count", "selection"])
    def test_writes_the_gate_harmonics_table(self, tmp_path, fit_dataset_csv, extra):
        csv_path, _ = fit_dataset_csv
        # the same points at a higher gate, listed first: the table sorts by gate
        later = write(tmp_path / "later.csv",
                      re.sub(r"^-0\.5,", "3,", Path(csv_path).read_text(), flags=re.M))
        cfg = write(tmp_path / "run.ini", FIT_CONFIG)
        assert main(["fit", later, csv_path, "--config", cfg, "--out-dir", str(tmp_path), *extra]) == 0

        result = load_config(str(tmp_path / "fit_result.ini"))
        gates = read_gate_channels(result)
        expected = gate_sweep_harmonics(
            circuit_from_config(result, section="globals"), gates, FluxBias.from_phi0(0.5), k_max=6
        )
        write_gate_harmonics_csv(expected, str(tmp_path / "expected.csv"))
        header, *rows = (tmp_path / "gate_harmonics.csv").read_text().splitlines()
        assert header == (tmp_path / "expected.csv").read_text().splitlines()[0]
        cells = np.array([[float(c) for c in row.split(",")] for row in rows])
        assert list(cells[:, 0]) == [gate for gate, _ in gates] == [-0.5, 3.0]
        # fit_result.ini and the table both keep 12 significant digits, so each
        # number is within 5e-12 of its value, relative; c_k is read from the
        # table and recomputed from rounded E_J, gap and T: four such roundings
        np.testing.assert_allclose(
            cells[:, 1:7], [row.c[1:] for row in expected], rtol=4 * 5e-12, atol=0.0
        )
        # half flux leaves the potential even: every s_k is exactly zero
        assert np.all(cells[:, 7:13] == 0.0)

    def test_selection_reports_each_gate_once_it_is_fitted(self, tmp_path, fit_dataset_csv, monkeypatch, capsys):
        csv_path, _ = fit_dataset_csv
        later = write(tmp_path / "later.csv",
                      re.sub(r"^-0\.5,", "3,", Path(csv_path).read_text(), flags=re.M))
        select = hpqkit.fitstack.select_channel_count
        printed_before = []

        def recording(*args):
            printed_before.append(capsys.readouterr().out)
            return select(*args)

        monkeypatch.setattr(hpqkit.fitstack, "select_channel_count", recording)
        # two evaluations leave every fit short of convergence
        cfg = write(tmp_path / "run.ini", FIT_CONFIG + "max_nfev = 2\n")
        argv = ["fit", csv_path, later, "--config", cfg, "--out-dir", str(tmp_path), "--channels", "2..3"]
        assert main(argv) == 0
        assert printed_before[0] == ""
        assert re.fullmatch(r"gate -0\.5: chose [23] channels, T = \[.*\], rmse = \S+ GHz\n", printed_before[1])
        assert "warning: at least one fit hit its iteration budget" in capsys.readouterr().err

    def test_a_count_that_fails_at_one_gate_is_still_tried_at_the_next(self, tmp_path, fit_dataset_csv, monkeypatch):
        csv_path, _ = fit_dataset_csv
        later = write(tmp_path / "later.csv",
                      re.sub(r"^-0\.5,", "3,", Path(csv_path).read_text(), flags=re.M))
        fit_start = hpqkit.fitstack._fit_start

        def failing_three_at_the_first_gate(plans, layout, *args):
            if layout.channel_counts == (3,) and plans[0].gate == -0.5:
                raise ValueError("count 3 fails at this gate")
            return fit_start(plans, layout, *args)

        monkeypatch.setattr(hpqkit.fitstack, "_fit_start", failing_three_at_the_first_gate)
        cfg = write(tmp_path / "run.ini", FIT_CONFIG + "max_nfev = 2\n")
        argv = ["fit", csv_path, later, "--config", cfg, "--out-dir", str(tmp_path), "--channels", "2..3"]
        assert main(argv) == 0
        rows = (tmp_path / "rmse_by_count.csv").read_text().strip().splitlines()[1:]
        assert [tuple(row.split(",")[:2]) for row in rows] == [("-0.5", "2"), ("3", "2"), ("3", "3")]

    @pytest.mark.parametrize(
        "column, row",
        [
            ("freq_ghz", "0.0,0.2,f01,1e300,0.01,1"),
            ("freq_ghz", "0.0,0.2,f01,-5,0.01,1"),
            ("freq_ghz", "0.0,0.2,f01,0,0.01,1"),
            ("sigma_ghz", "0.0,0.2,f01,5.0,1e300,1"),
            ("used", "0.0,0.2,f01,5.0,0.01,2"),
            ("flux_phi0", "0.0,1e300,f01,5.0,0.01,1"),
        ],
        ids=["freq-huge", "freq-negative", "freq-zero", "sigma-huge", "used-two", "flux-huge"],
    )
    def test_out_of_range_dataset_cell_exits_two(self, tmp_path, capsys, column, row):
        cfg = write(tmp_path / "run.ini", FIT_CONFIG)
        data = write(tmp_path / "bad.csv", ONE_POINT_DATASET + row + "\n")
        assert main(["fit", data, "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert f"bad.csv:3: {column} must be" in capsys.readouterr().err
        assert not (tmp_path / "fit_result.ini").exists()


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
    for name in ("k_max", "labels", "me_pairs"):
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


def test_one_function_reads_the_environment():
    """``parse_args`` alone reads ``os.environ``, and README's command-line paragraph names
    exactly the ``HPQKIT_*`` variables it fills."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    readers = [
        node.name for node in tree.body
        if any(isinstance(inner, ast.Attribute) and inner.attr in ("environ", "getenv")
               for inner in ast.walk(node))
    ]
    assert readers == ["parse_args"]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("## Command line\n", 1)[1].strip().split("\n\n", 1)[0]
    assert set(re.findall(r"HPQKIT_[A-Z_]+", paragraph)) == {f"HPQKIT_{dest.upper()}" for dest in cli.ENV_FLAGS}


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
    def test_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "decompose" in capsys.readouterr().out

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_items_of_a_missing_section_names_it(self, tmp_path):
        path = write(tmp_path / "run.ini", "[circuit]\nej1 = 1\n")
        cfg = load_config(path)
        assert cfg.items("circuit") == [("ej1", "1")]
        with pytest.raises(ConfigError, match=re.escape(f"missing section [gates] in {path}")):
            cfg.items("gates")


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

    @pytest.mark.parametrize(
        "extra, first, second",
        [
            ("1.0 = 0.9, 0.5\n1.00 = 0.2\n", "'1.0' in section [gates]", "'1.00' in section [gates]"),
            ("1.0 = 0.9, 0.5\n\n[gate:1]\ntransmissions = 0.2\n",
             "'1.0' in section [gates]", "'1' in section [gate:1]"),
        ],
        ids=["gates-keys", "gates-key-and-gate-section"],
    )
    def test_gate_given_twice_exits_two(self, tmp_path, capsys, extra, first, second):
        cfg = write(tmp_path / "run.ini", CLASSIFY_CONFIG + extra)
        assert main(["classify", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert f"error: gate tag {second} repeats the gate of gate tag {first}" in capsys.readouterr().err
        assert not (tmp_path / "regimes.csv").exists()

    def test_config_without_circuit_or_globals_exits_two(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.ini", CLASSIFY_CONFIG[CLASSIFY_CONFIG.index("[flux]"):])
        assert main(["classify", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert f"error: {cfg}: needs a [circuit] or [globals] section" in capsys.readouterr().err
        assert not (tmp_path / "regimes.csv").exists()

    def test_empty_gate_list(self, tmp_path):
        text = CLASSIFY_CONFIG.split("[gates]")[0] + "[gates]\n"
        cfg = write(tmp_path / "run.ini", text)
        assert main(["classify", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "regimes.csv").read_text().strip() == "gate,phi_min_rad,regime"

    @pytest.mark.parametrize("flag, value", [("--kmax", "3"), ("--ncut", "1")])
    def test_truncation_overrides_are_not_classify_flags(self, tmp_path, capsys, flag, value):
        cfg = write(tmp_path / "run.ini", CLASSIFY_CONFIG)
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--config", cfg, "--out-dir", str(tmp_path), flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "regimes.csv").exists()

    def test_malformed_kmax_env_is_not_read(self, tmp_path, monkeypatch):
        # classify has no --kmax, so it never reads HPQKIT_KMAX
        monkeypatch.setenv("HPQKIT_KMAX", "x")
        cfg = write(tmp_path / "run.ini", CLASSIFY_CONFIG)
        assert main(["classify", "--config", cfg, "--out-dir", str(tmp_path)]) == 0

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


OPTIMIZER_PROBE = """
import json, sys
import hpqkit
from hpqkit.cli import main

config, out, dataset, commands = sys.argv[1:]

def loaded():
    return ["scipy.optimize" in sys.modules, "scipy.special" in sys.modules]

report = [["import", None, *loaded()]]
for argv in ([command] for command in commands.split(",")):
    if argv == ["fit"]:
        argv.append(dataset)
    code = main([argv[0], "--config", config, "--out-dir", out, *argv[1:]])
    report.append([argv[0], code, *loaded()])
print(json.dumps(report))
"""


def run_probe(tmp_path, fit_dataset_csv, commands):
    """Run ``commands`` in order in a fresh interpreter; each row says whether
    ``scipy.optimize`` and ``scipy.special`` are loaded after it."""
    sections = [doc[doc.index(name):] for doc, name in (
        (SWEEP_CONFIG, "[sweep]"), (SYNTH_CONFIG, "[synth]"), (CLASSIFY_CONFIG, "[gates]"), (FIT_CONFIG, "[fit]")
    )]
    config = write(tmp_path / "run.ini", "\n".join([HPQ_CONFIG, *sections]))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {key: value for key, value in os.environ.items() if not key.startswith("HPQKIT_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", OPTIMIZER_PROBE, config, str(tmp_path), fit_dataset_csv[0], ",".join(commands)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_classify_loads_no_special_functions(tmp_path, fit_dataset_csv):
    # classify locates potential minima and never makes a Fourier arm, so it needs no special function
    assert run_probe(tmp_path, fit_dataset_csv, ["classify"]) == [
        ["import", None, False, False],
        ["classify", 0, False, False],
    ]


def test_no_command_loads_the_optimizer(tmp_path, fit_dataset_csv):
    # a fresh interpreter, since this one has imported scipy.optimize for its oracles; decompose
    # makes the first arm, and fit solves with fitstack's own least-squares step
    assert run_probe(tmp_path, fit_dataset_csv, ["decompose", "sweep", "synth", "classify", "fit"]) == [
        ["import", None, False, False],
        ["decompose", 0, False, True],
        ["sweep", 0, False, True],
        ["synth", 0, False, True],
        ["classify", 0, False, True],
        ["fit", 0, False, True],
    ]


def test_no_source_file_imports_the_optimizer():
    imports = []
    for path in sorted(Path(hpqkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module:
                imports += [(path.name, node.module), *((path.name, f"{node.module}.{a.name}") for a in node.names)]
            elif isinstance(node, ast.Import):
                imports += [(path.name, a.name) for a in node.names]
    assert ("fitstack.py", "numpy") in imports
    assert [(name, module) for name, module in imports if module.startswith("scipy.optimize")] == []


def test_percent_in_a_config_value_is_read_literally(tmp_path, capsys):
    # no interpolation: "%" is an ordinary character, so the value is a bad number list, not a parser error
    config = HPQ_CONFIG.replace("0.98, 0.98, 0.75, 0.54", "0.9%, 0.5")
    assert main(["decompose", "--config", write(tmp_path / "run.ini", config), "--out-dir", str(tmp_path)]) == 2
    assert "error: channels.transmissions: not a comma-separated number list: '0.9%, 0.5'" in capsys.readouterr().err


def test_non_utf8_config_exits_two(tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_bytes(HPQ_CONFIG.replace("55.03", "55.03\xb5").encode("latin-1"))
    assert main(["decompose", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
    assert f"error: config {path} is not UTF-8 text" in capsys.readouterr().err


def test_config_that_is_not_ini_exits_two(tmp_path, capsys):
    path = write(tmp_path / "run.ini", "ej1 = 55.03\n" + HPQ_CONFIG)
    assert main(["decompose", "--config", path, "--out-dir", str(tmp_path)]) == 2
    assert f"error: malformed config {path}: " in capsys.readouterr().err


def test_non_utf8_dataset_exits_two(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_bytes(ONE_POINT_DATASET.replace("f01", "f01\xb5").encode("latin-1"))
    argv = ["fit", str(data), "--config", write(tmp_path / "run.ini", FIT_CONFIG), "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    assert f"error: {data}: not UTF-8 text" in capsys.readouterr().err


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
        ("fit", FIT_CONFIG + "max_nfev = -5\n", "fit.max_nfev"),
        ("decompose", HPQ_CONFIG.replace("phi_e = 0.5", "phi_e = 1e300"), "flux.phi_e"),
        ("sweep", SWEEP_CONFIG.replace("flux_stop = 0.3", "flux_stop = 1e300"), "sweep.flux_stop"),
        ("synth", SYNTH_CONFIG.replace("flux_start = 0.0", "flux_start = -1e4"), "synth.flux_start"),
    ],
    ids=["n_levels-0", "n_g-1e300", "fwhm-0", "noise_sigma-negative", "freq_points-0",
         "freq_points-1", "freq_stop-below-start", "seed-negative", "ej1-1e300",
         "channels-negative", "rmse_factor-below-one", "fit-n_g-1e300", "max_nfev-negative",
         "phi_e-1e300", "sweep-flux_stop-1e300", "synth-flux_start-minus-1e4"],
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


#: values a mutation writes into one config key or one dataset cell
MUTATION_VALUES = ["0", "-1", "nan", "inf", "1e300", "", "word"]


def write_config(path, sections) -> str:
    return write(path, "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()
    ))


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([(section, key) for section, keys in SMALL_CONFIG.items() for key in keys]),
    st.sampled_from(MUTATION_VALUES),
)
def test_one_key_mutation_exits_zero_or_two(mutation_dir, field, value):
    section, key = field
    sections = {name: dict(keys) for name, keys in SMALL_CONFIG.items()}
    sections[section][key] = value
    cfg = write_config(mutation_dir / "run.ini", sections)
    data, out = str(mutation_dir / "data.csv"), str(mutation_dir / "out")
    for argv in (["decompose"], ["sweep"], ["synth"], ["classify"], ["fit", data],
                 ["fit", data, "--channels", "1..2"]):
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--config", cfg, "--out-dir", out])
        assert code in (0, 2), (argv, section, key, value, stderr.getvalue())
        assert "Traceback" not in stderr.getvalue()


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, len(SMALL_DATASET.splitlines()) - 1),
    st.integers(0, 5),
    st.sampled_from(MUTATION_VALUES + ["1e-300", "-0", "f09", "f01/0", "2"]),
)
def test_one_cell_dataset_mutation_exits_zero_or_two(mutation_dir, row, column, value):
    lines = SMALL_DATASET.splitlines()
    cells = lines[row].split(",")
    cells[column] = value
    lines[row] = ",".join(cells)
    data = write(mutation_dir / "mutated.csv", "\n".join(lines) + "\n")
    cfg = write_config(mutation_dir / "fit.ini", SMALL_CONFIG)
    out = mutation_dir / "fit-out"
    for argv in (["fit", data], ["fit", data, "--channels", "1..2"]):
        for leftover in out.glob("*"):
            leftover.unlink()
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--config", cfg, "--out-dir", str(out)])
        case = (argv, row, column, value, stderr.getvalue())
        assert code in (0, 2), case
        assert "Traceback" not in stderr.getvalue(), case
        if code == 0:
            assert "Warning" not in stderr.getvalue(), case
            result = configparser.ConfigParser()
            result.read(out / "fit_result.ini")
            rmses = [float(section["rmse_ghz"]) for section in result.values() if "rmse_ghz" in section]
            if (out / "rmse_by_count.csv").exists():
                rows = (out / "rmse_by_count.csv").read_text().splitlines()[1:]
                rmses += [float(line.split(",")[2]) for line in rows]
            assert rmses and all(math.isfinite(r) for r in rmses), case


@pytest.mark.parametrize("command", ["decompose", "sweep", "fit"])
def test_include_bo_false_exits_two(tmp_path, capsys, command):
    """The internal-mode correction is part of the device model: ``include_bo = true`` changes no
    byte of a command's output, and ``false``, which once dropped the correction, exits 2."""
    data = write(tmp_path / "data.csv", SMALL_DATASET)
    argv = [command, data] if command == "fit" else [command]
    outputs = {}
    for value in ("true", None, "false"):
        sections = {name: dict(keys) for name, keys in SMALL_CONFIG.items()}
        sections[command].pop("include_bo")
        if value is not None:
            sections[command]["include_bo"] = value
        out = tmp_path / f"out-{value}"
        cfg = write_config(tmp_path / f"run-{value}.ini", sections)
        code = main(argv + ["--config", cfg, "--out-dir", str(out)])
        if value == "false":
            assert code == 2
            assert f"error: {command}.include_bo: " in capsys.readouterr().err
        else:
            assert code == 0
            outputs[value] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert outputs["true"] == outputs[None]
    assert outputs["true"]
