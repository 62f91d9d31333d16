"""Batch command-line interface.

Subcommands: ``decompose`` (harmonics + parity summary), ``sweep``
(transition table vs flux), ``synth`` (synthetic spectroscopy map),
``fit`` (dataset ingestion + global transmission fit), ``classify``
(regime map over gates). Each run is driven by one config document plus
flags; flags override environment variables (``HPQKIT_*``), which
override the config. Exit codes: 0 success (warnings allowed), 1 runtime
failure, 2 bad configuration or input.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, replace
from typing import Sequence

import numpy as np

from . import analysis, config as cfgmod, fitstack, potentials, spectrum, synth
from .config import ConfigError, RunConfig
from .potentials import FluxBias
from .tables import fmt, write_csv, write_ini, write_lines

ENV_PREFIX = "HPQKIT_"


def _env(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name)


def _env_int(name: str) -> int | None:
    text = _env(name)
    if text is None or text == "":
        return None
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"environment {ENV_PREFIX}{name}: not an integer: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hpqkit",
        description="Hybrid-SQUID harmonic decomposition, spectra, and transmission fits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, needs_config: bool = True) -> None:
        p.add_argument("--config", required=needs_config and _env("CONFIG") is None,
                       default=_env("CONFIG"), help="run configuration document")
        p.add_argument("--out-dir", default=_env("OUT_DIR") or ".", help="output directory")
        p.add_argument("--kmax", type=int, default=_env_int("KMAX"),
                       help="harmonic truncation override")
        p.add_argument("--ncut", type=int, default=_env_int("NCUT"),
                       help="charge-basis cutoff override")

    p = sub.add_parser("decompose", help="Fourier-decompose the potential and summarize parity")
    common(p)

    p = sub.add_parser("sweep", help="tabulate transitions over a flux grid")
    common(p)

    p = sub.add_parser("synth", help="generate a synthetic two-tone map")
    common(p)
    p.add_argument("--seed", type=int, default=_env_int("SEED"),
                   help="noise seed (required here or in [synth])")

    p = sub.add_parser("fit", help="fit transmissions (and optionally globals) to datasets")
    common(p)
    p.add_argument("datasets", nargs="+", help="dataset CSV file(s)")
    p.add_argument("--channels", default=_env("CHANNELS"),
                   help="channel counts, e.g. '3' or '2..5' (selection mode)")

    p = sub.add_parser("classify", help="regime map from fitted gate channels")
    common(p, needs_config=False)
    p.add_argument("--fit-result", help="fit result document as the gate source")

    return parser


# ---------------------------------------------------------------------------
# command bodies


def _out(args: argparse.Namespace, name: str) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _n_g_from(cfg: RunConfig, section: str) -> float:
    # the spectrum repeats with period 1 in n_g, so [-1, 1] holds every distinct offset
    n_g = cfg.get_float(section, "n_g", default=0.0)
    if abs(n_g) > 1.0:
        raise ConfigError(f"{section}.n_g must lie in [-1, 1], got {n_g!r}")
    return n_g


def _basis_from(
    cfg: RunConfig, args: argparse.Namespace, k_max: int,
    labels: Sequence[str], pairs: Sequence[tuple[int, int]] = (),
) -> spectrum.ChargeBasisConfig:
    """The ``[basis]`` section; it must solve every level ``labels`` and ``pairs`` need."""
    defaults = spectrum.ChargeBasisConfig
    n_cut = args.ncut if args.ncut is not None else cfg.get_int("basis", "n_cut", default=defaults.n_cut)
    if n_cut < k_max + spectrum.CUTOFF_HEADROOM:
        raise ConfigError(
            f"basis.n_cut={n_cut} too small for k_max={k_max} (need k_max+{spectrum.CUTOFF_HEADROOM})"
        )
    n_levels = cfg.get_int("basis", "n_levels", default=defaults.n_levels)
    if not 1 <= n_levels <= 2 * n_cut + 1:
        raise ConfigError(f"basis.n_levels must be in [1, {2 * n_cut + 1}], got {n_levels}")
    try:
        spectrum.check_levels(n_levels, labels, pairs)
    except ValueError as exc:
        raise ConfigError(f"basis.n_levels: {exc}") from exc
    return spectrum.ChargeBasisConfig(n_cut=n_cut, n_g=_n_g_from(cfg, "basis"), n_levels=n_levels)


def _kmax_from(cfg: RunConfig, args: argparse.Namespace, section: str) -> int:
    k_max = args.kmax if args.kmax is not None else cfg.get_int(section, "k_max", default=potentials.K_MAX)
    if k_max < 1:
        raise ConfigError(f"{section}: k_max must be >= 1, got {k_max}")
    return k_max


def cmd_decompose(args: argparse.Namespace) -> int:
    cfg = cfgmod.load_config(args.config)
    params = cfgmod.circuit_from_config(cfg)
    channels = cfgmod.channels_from_config(cfg)
    flux = cfgmod.flux_from_config(cfg)
    k_max = _kmax_from(cfg, args, "decompose")
    include_bo = cfg.get_bool("decompose", "include_bo", default=True)

    u = potentials.fourier_u(params, k_max, include_bo=include_bo)
    v = potentials.fourier_v(channels, params.gap, k_max)
    spec = potentials.combine_harmonics(u, v, flux)
    sums = potentials.parity_sums(spec)
    regime = potentials.find_phi_min(params, channels, flux, include_bo=include_bo)

    basis = _basis_from(cfg, args, k_max, spectrum.DEFAULT_LABELS, spectrum.DEFAULT_PAIRS)
    table = spectrum.spectrum_vs_flux(
        params, channels, np.array([flux.phi_e]), basis, k_max=k_max, include_bo=include_bo
    )
    max_freq = float(np.nanmax([table.frequencies[lab][0] for lab in table.labels]))
    validity = potentials.validate_bo(params, max_transition_freq=max_freq)

    csv_path = _out(args, "harmonics.csv")
    potentials.write_harmonics_csv(spec, csv_path)

    ratio_21 = abs(spec.c[2] / spec.c[1]) if spec.c[1] != 0.0 else math.inf
    lines = [
        f"flux: phi_e = {fmt(flux.phi0_units)} Phi0 ({fmt(flux.phi_e)} rad)",
        f"k_max = {k_max}, truncation converged: {'yes' if spec.converged else 'NO'}",
        f"|c2/c1| = {fmt(ratio_21)}",
        f"c_even = {fmt(sums.c_even)} GHz, c_odd = {fmt(sums.c_odd)} GHz",
        f"|c_even/c_odd| = {fmt(sums.ratio)}",
        f"phi_min = {fmt(regime.phi_min)} rad, regime = {regime.regime.value}",
        f"internal mode f_int = {fmt(validity.internal_mode_freq)} GHz",
        f"BO check ecj > ec: {'pass' if validity.charge_hierarchy_ok else 'FAIL'}",
        (
            f"BO check ej_sigma/ecj >= {potentials.BO_RATIO_MIN:g}: "
            f"{'pass' if validity.junction_ratio_ok else 'FAIL'} ({fmt(validity.junction_ratio)})"
        ),
        (
            f"BO check f_int > max transition ({fmt(max_freq)} GHz): "
            f"{'pass' if validity.internal_mode_clear else 'FAIL'}"
        ),
    ]
    summary_path = _out(args, "summary.txt")
    write_lines(summary_path, lines)
    print("\n".join(lines))
    print(f"wrote {csv_path} and {summary_path}")
    return 0


def _flux_grid(cfg: RunConfig, section: str) -> np.ndarray:
    start = cfg.get_float(section, "flux_start", default=0.0)
    stop = cfg.get_float(section, "flux_stop", default=0.5)
    points = cfg.get_int(section, "flux_points", default=41)
    if points < 1:
        raise ConfigError(f"{section}.flux_points must be >= 1")
    return 2.0 * math.pi * np.linspace(start, stop, points)


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = cfgmod.load_config(args.config)
    params = cfgmod.circuit_from_config(cfg)
    channels = cfgmod.channels_from_config(cfg)
    k_max = _kmax_from(cfg, args, "sweep")
    include_bo = cfg.get_bool("sweep", "include_bo", default=True)
    labels = cfgmod.parse_labels(
        cfg.get_str("sweep", "labels", default=",".join(spectrum.DEFAULT_LABELS)), field="sweep.labels"
    )
    pairs_text = cfg.raw("sweep", "matrix_elements")
    pairs = spectrum.DEFAULT_PAIRS if pairs_text is None else tuple(
        cfgmod.parse_pairs(pairs_text, field="sweep.matrix_elements")
    )
    basis = _basis_from(cfg, args, k_max, labels, pairs)
    grid = _flux_grid(cfg, "sweep")
    table = spectrum.spectrum_vs_flux(
        params, channels, grid, basis,
        k_max=k_max, include_bo=include_bo, labels=labels, me_pairs=pairs,
    )
    path = _out(args, "transitions.csv")
    table.to_csv(path)
    n_failed = int(np.sum(table.failed))
    if n_failed:
        print(f"warning: {n_failed} flux point(s) did not converge (NaN rows)", file=sys.stderr)
    print(f"wrote {path} ({len(grid)} flux points)")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = cfgmod.load_config(args.config)
    params = cfgmod.circuit_from_config(cfg)
    channels = cfgmod.channels_from_config(cfg)
    k_max = _kmax_from(cfg, args, "synth")
    if args.seed is not None:
        seed, where = args.seed, "--seed"
    elif cfg.raw("synth", "seed") is not None:
        seed, where = cfg.get_int("synth", "seed"), "synth.seed"
    else:
        raise ConfigError("synth needs a seed (--seed or synth.seed)")
    if seed < 0:
        raise ConfigError(f"{where} must be >= 0, got {seed}")
    labels = cfgmod.parse_labels(
        cfg.get_str("synth", "labels", default=",".join(spectrum.DEFAULT_LABELS)), field="synth.labels"
    )
    defaults = synth.SynthConfig
    try:
        scfg = synth.SynthConfig(
            seed=seed,
            fwhm=cfg.get_energy("synth", "fwhm", default=defaults.fwhm),
            amplitude=cfg.get_float("synth", "amplitude", default=defaults.amplitude),
            noise_sigma=cfg.get_float("synth", "noise_sigma", default=defaults.noise_sigma),
            weight_by_matrix_element=cfg.get_bool(
                "synth", "weight_by_matrix_element", default=defaults.weight_by_matrix_element
            ),
        )
    except ValueError as exc:
        # each SynthConfig message starts with the field it rejects
        raise ConfigError(f"synth.{exc}") from exc
    f_start = cfg.get_float("synth", "freq_start", default=0.1)
    f_stop = cfg.get_float("synth", "freq_stop", default=20.0)
    f_points = cfg.get_int("synth", "freq_points", default=2000)
    if not 0.0 <= f_start < f_stop <= cfgmod.MAX_ENERGY_GHZ:
        raise ConfigError(
            "synth.freq_start and synth.freq_stop need "
            f"0 <= freq_start < freq_stop <= {cfgmod.MAX_ENERGY_GHZ:g} GHz, "
            f"got {f_start!r} and {f_stop!r}"
        )
    if f_points < 2:
        raise ConfigError(f"synth.freq_points must be >= 2, got {f_points}")
    freqs = np.linspace(f_start, f_stop, f_points)
    grid = _flux_grid(cfg, "synth")
    basis = _basis_from(cfg, args, k_max, labels)

    traces, _ = synth.synthesize_map(
        params, channels, grid, freqs, scfg,
        labels=labels, basis=basis, k_max=k_max,
    )
    map_path = _out(args, "map.csv")
    synth.write_map_csv(traces, map_path)

    meta_path = _out(args, "map_meta.ini")
    write_ini(meta_path, {
        "synth": {
            "seed": seed,
            "fwhm": scfg.fwhm,
            "amplitude": scfg.amplitude,
            "noise_sigma": scfg.noise_sigma,
            "weight_by_matrix_element": scfg.weight_by_matrix_element,
            "labels": ", ".join(labels),
            "flux_start": grid[0] / (2.0 * math.pi),
            "flux_stop": grid[-1] / (2.0 * math.pi),
            "flux_points": len(grid),
            "freq_start": f_start,
            "freq_stop": f_stop,
            "freq_points": f_points,
            "k_max": k_max,
        },
        "circuit": asdict(params),
        "channels": {"transmissions": channels},
    })
    print(f"wrote {map_path} and {meta_path}")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    cfg = cfgmod.load_config(args.config)
    initial = cfgmod.circuit_from_config(cfg)
    globals_mode = cfg.get_str("fit", "globals", default="fixed")
    if globals_mode not in ("free", "fixed"):
        raise ConfigError(f"fit.globals must be 'free' or 'fixed', got {globals_mode!r}")
    ec = cfg.get_energy("fit", "ec", default=initial.ec)
    k_max = _kmax_from(cfg, args, "fit")
    counts_text = args.channels or cfg.get_str("fit", "channels", default="3")
    counts = cfgmod.parse_counts(counts_text, field="fit.channels")

    defaults = fitstack.FitConfig
    n_cut = args.ncut if args.ncut is not None else cfg.get_int("fit", "n_cut", default=defaults.n_cut)
    try:
        fit_cfg = fitstack.FitConfig(
            ec=ec,
            k_max=k_max,
            n_cut=n_cut,
            n_g=_n_g_from(cfg, "fit"),
            include_bo=cfg.get_bool("fit", "include_bo", default=defaults.include_bo),
            globals_mode=globals_mode,
            fixed_params=replace(initial, ec=ec) if globals_mode == "fixed" else None,
            sigma_floor=cfg.get_float("fit", "sigma_floor", default=defaults.sigma_floor),
            max_nfev=(lambda n: n if n > 0 else None)(cfg.get_int("fit", "max_nfev", default=0)),
            rmse_factor=cfg.get_float("fit", "rmse_factor", default=defaults.rmse_factor),
        )
    except ValueError as exc:
        # each FitConfig message starts with the field it rejects
        raise ConfigError(f"fit.{exc}") from exc

    datasets: list[fitstack.SpectroscopyDataset] = []
    for path in args.datasets:
        datasets.extend(fitstack.read_dataset_csv(path))
    for dataset in datasets:
        if not dataset.used_points:
            raise ConfigError(f"dataset gate={fmt(dataset.gate)}: no fittable points")

    gates = [d.gate for d in datasets]
    if len({fmt(gate) for gate in gates}) != len(gates):
        raise ConfigError("datasets: each gate tag may appear in only one dataset file")
    chosen_counts: dict[float, int] = {}
    warnings_seen = False

    if len(counts) > 1:
        if fit_cfg.globals_mode != "fixed":
            raise ConfigError("channel-count selection requires fit.globals = fixed")
        rmse_rows: list[tuple[float, int, float, int]] = []
        per_gate_results: list[fitstack.FitResult] = []
        for dataset in datasets:
            selection = fitstack.select_channel_count(dataset, counts, fit_cfg)
            chosen_counts[dataset.gate] = selection.chosen
            per_gate_results.append(selection.fits_by_count[selection.chosen])
            for count in sorted(selection.rmse_by_count):
                chosen = 1 if count == selection.chosen else 0
                rmse_rows.append((dataset.gate, count, selection.rmse_by_count[count], chosen))
            print(
                f"gate {fmt(dataset.gate)}: chose {selection.chosen} channels, "
                "T = [" + ", ".join(fmt(t) for t in selection.fits_by_count[selection.chosen].channels[0]) + "], "
                f"rmse = {fmt(selection.rmse_by_count[selection.chosen])} GHz"
            )
            if not selection.fits_by_count[selection.chosen].converged:
                warnings_seen = True
        rmse_path = _out(args, "rmse_by_count.csv")
        write_csv(rmse_path, ("gate_v", "channels", "rmse_ghz", "chosen"), rmse_rows)
        print(f"wrote {rmse_path}")
        result = fitstack._merge_single_gate_fits(per_gate_results, datasets)
    else:
        count = counts[0]
        result = fitstack.fit_global(
            datasets, [count] * len(datasets), fit_cfg,
            initial_params=initial if fit_cfg.globals_mode == "free" else None,
        )
        for gate, channels, gate_rmse in zip(gates, result.channels, result.rmse_per_dataset):
            print(
                f"gate {fmt(gate)}: T = [" + ", ".join(fmt(t) for t in channels) + "], "
                f"rmse = {fmt(gate_rmse)} GHz"
            )
        chosen_counts = {gate: count for gate in gates}
        if not result.converged:
            warnings_seen = True

    result_path = _out(args, "fit_result.ini")
    fitstack.write_fit_result(result, gates, result_path, chosen_counts=chosen_counts)
    print(f"global rmse = {fmt(result.rmse)} GHz")
    print(f"wrote {result_path}")
    if warnings_seen:
        print("warning: at least one fit hit its iteration budget (best-so-far reported)",
              file=sys.stderr)
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    source = args.fit_result or args.config
    if source is None:
        raise ConfigError("classify needs --config or --fit-result")
    cfg = cfgmod.load_config(source)
    gates = cfgmod.read_gate_channels(cfg)
    flux = cfgmod.flux_from_config(cfg) if cfg.has_section("flux") else FluxBias.from_phi0(0.5)
    path = _out(args, "regimes.csv")
    if not gates:
        analysis.write_regimes_csv([], path)
        print(f"wrote {path} (no gates)")
        return 0
    if cfg.has_section("circuit"):
        params = cfgmod.circuit_from_config(cfg)
    elif cfg.has_section("globals"):
        params = cfgmod.circuit_from_config(cfg, section="globals")
    else:
        raise ConfigError(f"{source}: needs a [circuit] or [globals] section")
    rows = analysis.gate_sweep_regimes(params, gates, flux)
    analysis.write_regimes_csv(rows, path)
    for row in rows:
        print(f"gate {fmt(row.gate)}: phi_min = {fmt(row.phi_min)} rad, {row.regime.value}")
    print(f"wrote {path}")
    return 0


_COMMANDS = {
    "decompose": cmd_decompose,
    "sweep": cmd_sweep,
    "synth": cmd_synth,
    "fit": cmd_fit,
    "classify": cmd_classify,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        # the parser reads its defaults from the environment, which may be malformed
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ConfigError, fitstack.DatasetFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
