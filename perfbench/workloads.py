"""The benchmark workloads: inputs from a seed, one timed pass, output checks.

Every workload calls hpqkit only through module attributes
(``fitstack.fit_global``, not a name imported once), so the tracer in
``spans.py`` sees the calls it wraps. ``setup`` builds the inputs (not
timed as part of the pass), ``prepare`` resets what a pass leaves behind
(not timed), ``run`` is the timed pass, and ``check``
verifies the pass's outputs and returns a digest of them; the digest
must be the same on every pass of a run and with tracing on or off.

Sizes are scaled so one pass takes a few seconds on 2 cores; README.md
says how they relate to the full-size runs of the acceptance suite.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from hpqkit import cli, fitstack, potentials, spectrum, synth

#: published device constants (GHz)
HPQ = potentials.CircuitParams(ej1=55.03, ej2=55.03, ecj=0.675, ec=0.28, gap=40.06)
#: the three gate corpora of the acceptance round trip: gate -> true transmissions
TRUTH = {-7.0: (0.68, 0.47, 0.46), -0.2: (0.94, 0.58, 0.58), 3.0: (0.88, 0.66, 0.35)}
#: published anchor transmissions for interpolated gate sweeps
ANCHORS = ((-7.0, (0.68, 0.47, 0.46, 0.0)), (-0.2, (0.94, 0.58, 0.58, 0.0)), (7.2, (0.98, 0.98, 0.75, 0.54)))
LABELS = ("f01", "f12", "f02")


@dataclass
class Outcome:
    """What one pass produced: operations attempted, failures, and an output digest."""

    ops: int = 0
    failures: dict[str, list[str]] = field(default_factory=dict)
    digest: str = ""
    files: dict[str, str] = field(default_factory=dict)

    def fail(self, op: str, message: str) -> None:
        self.failures.setdefault(op, []).append(message)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _flux_grid(points: int) -> np.ndarray:
    return 2.0 * math.pi * np.linspace(0.0, 0.5, points)


def _interpolated_channels(gate: float) -> potentials.NanowireChannels:
    """Transmissions linearly interpolated between the published anchors; zero channels dropped."""
    gates = [g for g, _ in ANCHORS]
    ts = [np.interp(gate, gates, [t[i] for _, t in ANCHORS]) for i in range(4)]
    return potentials.NanowireChannels(tuple(float(t) for t in ts if t > 0.0))


def _drive_grid(table) -> np.ndarray:
    """Drive frequencies in 5 MHz steps from 0.5 GHz below the lowest line to 0.5 GHz above the highest.

    The grid must hold every line: ``extract_transitions`` accepts a fit
    whose window is cut off by the grid's edge, so a line below the grid
    (f01 is 0.01 GHz at half flux in the even regime) is fitted on its
    tail and reported at the wrong frequency.
    """
    low = min(float(np.nanmin(table.frequencies[lab])) for lab in LABELS)
    high = max(float(np.nanmax(table.frequencies[lab])) for lab in LABELS)
    return np.arange(max(low - 0.5, 0.0025), high + 0.5, 0.005)


def _synthetic_dataset(gate, channels, flux, basis, noise, fwhm, seed):
    """One gate's map (model table, traces, extracted points), as in the acceptance round trip."""
    table = spectrum.spectrum_vs_flux(HPQ, channels, flux, basis, k_max=10, labels=LABELS, me_pairs=())
    cfg = synth.SynthConfig(seed=seed, fwhm=fwhm, amplitude=1.0, noise_sigma=noise, weight_by_matrix_element=False)
    traces, _ = synth.synthesize_map(HPQ, channels, flux, _drive_grid(table), cfg, labels=LABELS, basis=basis, k_max=10)
    points = fitstack.extract_transitions(traces, fitstack.hints_from_table(table, LABELS, 0.06))
    return fitstack.SpectroscopyDataset(gate=gate, points=tuple(points))


class Workload:
    """Base of the workloads: ``prepare`` does nothing unless a pass leaves something behind."""

    def prepare(self, inputs):
        pass


class FitFree(Workload):
    """Free-globals joint fit of three gate corpora from a fixed start."""

    sizes = {
        "full": {"gates": 3, "flux_points": 11, "noise": 0.005, "max_nfev": 10},
        "small": {"gates": 3, "flux_points": 7, "noise": 0.005, "max_nfev": 10},
    }
    #: fixed start: globals about 1 % off the truth, transmissions 0.03 above it
    START_PARAMS = potentials.CircuitParams(ej1=55.6, ej2=55.6, ecj=0.665, ec=0.28, gap=40.4)
    START_T = {-7.0: (0.71, 0.50, 0.49), -0.2: (0.97, 0.61, 0.61), 3.0: (0.91, 0.69, 0.38)}

    def setup(self, seed, size, workdir):
        basis = spectrum.ChargeBasisConfig(n_cut=25, n_levels=4)
        flux = _flux_grid(size["flux_points"])
        gates = list(TRUTH)[: size["gates"]]
        datasets = [
            _synthetic_dataset(gate, potentials.NanowireChannels(TRUTH[gate]), flux, basis, size["noise"], 0.025, s)
            for gate, s in zip(gates, _seeds(seed, len(gates)))
        ]
        cfg = fitstack.FitConfig(ec=0.28, k_max=10, n_cut=25, globals_mode="free", max_nfev=size["max_nfev"])
        return {"datasets": datasets, "cfg": cfg}

    def run(self, inputs, tracer):
        datasets = inputs["datasets"]
        return fitstack.fit_global(
            datasets,
            [3] * len(datasets),
            inputs["cfg"],
            initial_params=self.START_PARAMS,
            initial_transmissions=[self.START_T[d.gate] for d in datasets],
        )

    def check(self, inputs, result):
        out = Outcome(ops=1)
        for dataset, channels in zip(inputs["datasets"], result.channels):
            want = sorted(TRUTH[dataset.gate], reverse=True)
            for got, true in zip(channels.transmissions, want):
                if abs(got - true) >= 0.02:
                    out.fail("fit", f"gate {dataset.gate}: T={got:.4f} vs {true}")
        for name in ("ej1", "ecj", "gap"):
            got, true = getattr(result.params, name), getattr(HPQ, name)
            if abs(got - true) / true >= 0.01:
                out.fail("fit", f"{name}={got:.5f} vs {true} (over 1 %)")
        out.digest = _sha(repr((result.params, result.channels, result.rmse, result.cost, result.n_evaluations)))
        return out


class SelectFixed(Workload):
    """Channel-count selection (counts 2..5) with the globals fixed, on one gate."""

    sizes = {
        "full": {"gate": -0.2, "flux_points": 5, "noise": 0.01, "counts": (2, 3, 4, 5), "max_nfev": 8},
        "small": {"gate": -0.2, "flux_points": 7, "noise": 0.01, "counts": (2, 3), "max_nfev": 12},
    }

    def setup(self, seed, size, workdir):
        basis = spectrum.ChargeBasisConfig(n_cut=25, n_levels=4)
        gate = size["gate"]
        dataset = _synthetic_dataset(
            gate, potentials.NanowireChannels(TRUTH[gate]), _flux_grid(size["flux_points"]), basis,
            size["noise"], 0.025, _seeds(seed, 1)[0],
        )
        cfg = fitstack.FitConfig(
            ec=0.28, k_max=10, n_cut=25, globals_mode="fixed", fixed_params=HPQ, max_nfev=size["max_nfev"]
        )
        return {"dataset": dataset, "cfg": cfg, "counts": size["counts"]}

    def run(self, inputs, tracer):
        return fitstack.select_channel_count(inputs["dataset"], inputs["counts"], inputs["cfg"])

    def check(self, inputs, selection):
        out = Outcome(ops=1)
        if selection.chosen != 3:
            out.fail("select", f"chose {selection.chosen} channels, expected 3 ({selection.rmse_by_count})")
        ratio = selection.rmse_by_count[2] / selection.rmse_by_count[3]
        if not ratio >= 10.0:
            out.fail("select", f"rmse(2)/rmse(3) = {ratio:.3f} < 10")
        fits = selection.fits_by_count
        out.digest = _sha(repr(sorted((n, f.rmse, f.channels, f.cost, f.n_evaluations) for n, f in fits.items())))
        return out


class MapExtract(Workload):
    """Sweep, synthesize and extract over gates interpolated between the published anchors; no fit."""

    sizes = {
        "full": {"gates": 8, "flux_points": 41, "noise": 0.02},
        "small": {"gates": 2, "flux_points": 11, "noise": 0.02},
    }
    #: an extracted frequency must lie this close (GHz) to the model table
    FREQ_TOL = 0.005
    #: at least this share of the flux x label grid must yield a point on every gate
    MIN_KEPT_SHARE = 0.5

    def setup(self, seed, size, workdir):
        gates = np.linspace(ANCHORS[0][0], ANCHORS[-1][0], size["gates"])
        return {
            "gates": [(float(g), _interpolated_channels(float(g))) for g in gates],
            "flux": _flux_grid(size["flux_points"]),
            "basis": spectrum.ChargeBasisConfig(n_cut=25, n_levels=4),
            "noise": size["noise"],
            "seeds": _seeds(seed, size["gates"]),
        }

    def run(self, inputs, tracer):
        flux, basis = inputs["flux"], inputs["basis"]
        per_gate = []
        for (gate, channels), seed in zip(inputs["gates"], inputs["seeds"]):
            table = spectrum.spectrum_vs_flux(HPQ, channels, flux, basis, k_max=10, labels=LABELS, me_pairs=())
            cfg = synth.SynthConfig(seed=seed, fwhm=0.025, amplitude=1.0, noise_sigma=inputs["noise"],
                                    weight_by_matrix_element=False)
            traces, _ = synth.synthesize_map(
                HPQ, channels, flux, _drive_grid(table), cfg, labels=LABELS, basis=basis, k_max=10
            )
            points = fitstack.extract_transitions(traces, fitstack.hints_from_table(table, LABELS, 0.06))
            per_gate.append((gate, table, points))
        return per_gate

    def check(self, inputs, per_gate):
        out = Outcome(ops=len(per_gate))
        grid = len(inputs["flux"]) * len(LABELS)
        digest = []
        for gate, table, points in per_gate:
            if len(points) < self.MIN_KEPT_SHARE * grid:
                out.fail(repr(gate), f"gate {gate:.4f}: {len(points)} points of {grid}")
            index = {float(phi): i for i, phi in enumerate(table.flux_radians)}
            for p in points:
                model = float(table.frequencies[p.label][index[p.flux]])
                if not abs(p.freq - model) <= self.FREQ_TOL:
                    out.fail(repr(gate), f"gate {gate:.4f} {p.label} at {p.flux:.4f}: {p.freq:.6f} vs {model:.6f}")
            digest.append((gate, [(p.flux, p.label, p.freq, p.sigma) for p in points]))
        out.digest = _sha(repr(digest))
        return out


class CliBatch(Workload):
    """In-process ``hpqkit`` CLI: decompose, dense sweep, synth and a many-gate classify."""

    sizes = {
        "full": {"sweep_points": 401, "synth_flux_points": 41, "synth_freq_points": 2000, "gates": 256},
        "small": {"sweep_points": 41, "synth_flux_points": 11, "synth_freq_points": 500, "gates": 4},
    }
    COMMANDS = {
        "decompose": ("harmonics.csv", "summary.txt"),
        "sweep": ("transitions.csv",),
        "synth": ("map.csv", "map_meta.ini"),
        "classify": ("regimes.csv",),
    }

    def setup(self, seed, size, workdir):
        rng = np.random.default_rng(seed)
        device = _interpolated_channels(float(rng.uniform(-7.0, 7.2)))
        gates = sorted(float(g) for g in rng.uniform(ANCHORS[0][0], ANCHORS[-1][0], size["gates"]))
        gate_lines = [f"{g!r} = " + ", ".join(repr(t) for t in _interpolated_channels(g)) for g in gates]
        text = "\n".join([
            "[circuit]",
            *(f"{k} = {getattr(HPQ, k)!r}" for k in ("ej1", "ej2", "ecj", "ec", "gap")),
            "[channels]",
            "transmissions = " + ", ".join(repr(t) for t in device),
            "[flux]",
            "phi_e = 0.5",
            "[sweep]",
            f"flux_points = {size['sweep_points']}",
            "[synth]",
            f"seed = {_seeds(seed, 1)[0] % 2**31}",
            "noise_sigma = 0.02",
            f"flux_points = {size['synth_flux_points']}",
            f"freq_points = {size['synth_freq_points']}",
            "[gates]",
            *gate_lines,
            "",
        ])
        os.makedirs(workdir, exist_ok=True)
        config = os.path.join(workdir, "run.ini")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(text)
        return {"config": config, "out_dir": os.path.join(workdir, "out")}

    def prepare(self, inputs):
        shutil.rmtree(inputs["out_dir"], ignore_errors=True)

    def run(self, inputs, tracer):
        codes = {}
        for command in self.COMMANDS:
            with tracer.span(f"cli.{command}", cpu=True):
                codes[command] = cli.main([command, "--config", inputs["config"], "--out-dir", inputs["out_dir"]])
        if tracer.enabled:
            out_dir = inputs["out_dir"]
            tracer.add("cli.io.bytes", sum(e.stat().st_size for e in os.scandir(out_dir) if e.is_file()))
        return codes

    def check(self, inputs, codes):
        out = Outcome(ops=len(self.COMMANDS))
        for command, names in self.COMMANDS.items():
            if codes[command] != 0:
                out.fail(command, f"{command} exited {codes[command]}")
            for name in names:
                path = os.path.join(inputs["out_dir"], name)
                try:
                    with open(path, "rb") as fh:
                        out.files[f"{command}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
                except OSError as exc:
                    out.fail(command, f"{command}: {exc}")
        out.digest = _sha(repr(sorted(out.files.items())))
        return out


WORKLOADS = {"fit_free": FitFree(), "select_fixed": SelectFixed(), "map_extract": MapExtract(), "cli_batch": CliBatch()}
