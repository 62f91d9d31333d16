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
from typing import Sequence

import numpy as np

from . import analysis, config as cfgmod, fitstack, potentials, spectrum, synth
from .config import ConfigError, RunConfig, fmt
from .potentials import FluxBias

ENV_PREFIX = "HPQKIT_"

_DEFAULT_LABELS = ("f01", "f12", "f02")
_DEFAULT_PAIRS = ((0, 1), (1, 2))


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


def _basis_from(cfg: RunConfig, args: argparse.Namespace, k_max: int) -> spectrum.ChargeBasisConfig:
    n_cut = args.ncut if args.ncut is not None else cfg.get_int("basis", "n_cut", default=30)
    if n_cut < k_max + 5:
        raise ConfigError(f"basis.n_cut={n_cut} too small for k_max={k_max} (need k_max+5)")
    return spectrum.ChargeBasisConfig(
        n_cut=n_cut,
        n_g=cfg.get_float("basis", "n_g", default=0.0),
        n_levels=cfg.get_int("basis", "n_levels", default=6),
    )


def _check_levels(
    basis: spectrum.ChargeBasisConfig,
    labels: Sequence[str],
    pairs: Sequence[tuple[int, int]],
    section: str,
) -> None:
    """Reject labels and level pairs that need more levels than the basis solves."""
    needs = {lab: spectrum.parse_transition_label(lab)[1] for lab in labels}
    needs.update({f"{i}-{j}": max(i, j) for i, j in pairs})
    for name, level in needs.items():
        if level >= basis.n_levels:
            raise ConfigError(
                f"{section}: {name} needs level {level}, but basis.n_levels = {basis.n_levels}"
            )


def _kmax_from(cfg: RunConfig, args: argparse.Namespace, section: str) -> int:
    k_max = args.kmax if args.kmax is not None else cfg.get_int(section, "k_max", default=10)
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

    basis = _basis_from(cfg, args, k_max)
    _check_levels(basis, _DEFAULT_LABELS, _DEFAULT_PAIRS, "decompose")
    table = spectrum.spectrum_vs_flux(
        params, channels, np.array([flux.phi_e]), basis,
        k_max=k_max, include_bo=include_bo, labels=_DEFAULT_LABELS,
        me_pairs=_DEFAULT_PAIRS,
    )
    max_freq = float(np.nanmax([table.frequencies[lab][0] for lab in _DEFAULT_LABELS]))
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
            f"BO check ej_sigma/ecj >= 10: "
            f"{'pass' if validity.junction_ratio_ok else 'FAIL'} ({fmt(validity.junction_ratio)})"
        ),
        (
            f"BO check f_int > max transition ({fmt(max_freq)} GHz): "
            f"{'pass' if validity.internal_mode_clear else 'FAIL'}"
        ),
    ]
    summary_path = _out(args, "summary.txt")
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
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
        cfg.get_str("sweep", "labels", default=",".join(_DEFAULT_LABELS)), field="sweep.labels"
    )
    pairs = tuple(
        cfgmod.parse_pairs(
            cfg.get_str("sweep", "matrix_elements", default="0-1,1-2"),
            field="sweep.matrix_elements",
        )
    )
    basis = _basis_from(cfg, args, k_max)
    _check_levels(basis, labels, pairs, "sweep")
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
    seed = args.seed if args.seed is not None else cfg.get_int("synth", "seed", default=-1)
    if seed < 0:
        raise ConfigError("synth needs a seed (--seed or synth.seed)")
    labels = cfgmod.parse_labels(
        cfg.get_str("synth", "labels", default=",".join(_DEFAULT_LABELS)), field="synth.labels"
    )
    scfg = synth.SynthConfig(
        seed=seed,
        fwhm=cfg.get_float("synth", "fwhm", default=0.05),
        amplitude=cfg.get_float("synth", "amplitude", default=1.0),
        noise_sigma=cfg.get_float("synth", "noise_sigma", default=0.0),
        weight_by_matrix_element=cfg.get_bool("synth", "weight_by_matrix_element", default=True),
    )
    f_start = cfg.get_float("synth", "freq_start", default=0.1)
    f_stop = cfg.get_float("synth", "freq_stop", default=20.0)
    f_points = cfg.get_int("synth", "freq_points", default=2000)
    freqs = np.linspace(f_start, f_stop, f_points)
    grid = _flux_grid(cfg, "synth")
    basis = _basis_from(cfg, args, k_max)
    _check_levels(basis, labels, (), "synth")

    traces, _ = synth.synthesize_map(
        params, channels, grid, freqs, scfg,
        labels=labels, basis=basis, k_max=k_max,
    )
    map_path = _out(args, "map.csv")
    synth.write_map_csv(traces, map_path)

    meta_path = _out(args, "map_meta.ini")
    meta = [
        "[synth]",
        f"seed = {seed}",
        f"fwhm = {fmt(float(scfg.fwhm))}",
        f"amplitude = {fmt(float(scfg.amplitude))}",
        f"noise_sigma = {fmt(scfg.noise_sigma)}",
        f"weight_by_matrix_element = {'true' if scfg.weight_by_matrix_element else 'false'}",
        f"labels = {', '.join(labels)}",
        f"flux_start = {fmt(grid[0] / (2.0 * math.pi))}",
        f"flux_stop = {fmt(grid[-1] / (2.0 * math.pi))}",
        f"flux_points = {len(grid)}",
        f"freq_start = {fmt(f_start)}",
        f"freq_stop = {fmt(f_stop)}",
        f"freq_points = {f_points}",
        f"k_max = {k_max}",
        "",
        "[circuit]",
        f"ej1 = {fmt(params.ej1)}",
        f"ej2 = {fmt(params.ej2)}",
        f"ecj = {fmt(params.ecj)}",
        f"ec = {fmt(params.ec)}",
        f"gap = {fmt(params.gap)}",
        "",
        "[channels]",
        "transmissions = " + ", ".join(fmt(t) for t in channels),
        "",
    ]
    with open(meta_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(meta))
    print(f"wrote {map_path} and {meta_path}")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    cfg = cfgmod.load_config(args.config)
    initial = cfgmod.circuit_from_config(cfg)
    globals_mode = cfg.get_str("fit", "globals", default="fixed")
    ec = cfg.get_float("fit", "ec", default=initial.ec)
    k_max = _kmax_from(cfg, args, "fit")
    counts_text = args.channels or cfg.get_str("fit", "channels", default="3")
    counts = cfgmod.parse_counts(counts_text, field="fit.channels")

    fit_cfg = fitstack.FitConfig(
        ec=ec,
        k_max=k_max,
        n_cut=args.ncut if args.ncut is not None else cfg.get_int("fit", "n_cut", default=25),
        n_g=cfg.get_float("fit", "n_g", default=0.0),
        include_bo=cfg.get_bool("fit", "include_bo", default=True),
        globals_mode=globals_mode if globals_mode in ("free", "fixed") else "fixed",
        fixed_params=initial if globals_mode != "free" else None,
        sigma_floor=cfg.get_float("fit", "sigma_floor", default=1e-6),
        max_nfev=(lambda n: n if n > 0 else None)(cfg.get_int("fit", "max_nfev", default=0)),
        rmse_factor=cfg.get_float("fit", "rmse_factor", default=1.5),
    )
    if globals_mode not in ("free", "fixed"):
        raise ConfigError(f"fit.globals must be 'free' or 'fixed', got {globals_mode!r}")

    datasets: list[fitstack.SpectroscopyDataset] = []
    for path in args.datasets:
        datasets.extend(fitstack.read_dataset_csv(path))
    for dataset in datasets:
        if not dataset.used_points:
            raise ConfigError(f"dataset gate={fmt(dataset.gate)}: no fittable points")

    gates = [d.gate for d in datasets]
    chosen_counts: dict[float, int] = {}
    warnings_seen = False

    if len(counts) > 1:
        if fit_cfg.globals_mode != "fixed":
            raise ConfigError("channel-count selection requires fit.globals = fixed")
        rmse_rows = ["gate_v,channels,rmse_ghz,chosen"]
        per_gate_results: list[fitstack.FitResult] = []
        for dataset in datasets:
            selection = fitstack.select_channel_count(dataset, counts, fit_cfg)
            chosen_counts[dataset.gate] = selection.chosen
            per_gate_results.append(selection.fits_by_count[selection.chosen])
            for count in sorted(selection.rmse_by_count):
                chosen = 1 if count == selection.chosen else 0
                rmse_rows.append(
                    f"{fmt(dataset.gate)},{count},{fmt(selection.rmse_by_count[count])},{chosen}"
                )
            print(
                f"gate {fmt(dataset.gate)}: chose {selection.chosen} channels, "
                "T = [" + ", ".join(fmt(t) for t in selection.fits_by_count[selection.chosen].channels[0]) + "], "
                f"rmse = {fmt(selection.rmse_by_count[selection.chosen])} GHz"
            )
            if not selection.fits_by_count[selection.chosen].converged:
                warnings_seen = True
        rmse_path = _out(args, "rmse_by_count.csv")
        with open(rmse_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(rmse_rows) + "\n")
        print(f"wrote {rmse_path}")
        result = _merge_single_gate_fits(per_gate_results, datasets)
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


def _merge_single_gate_fits(
    results: Sequence[fitstack.FitResult], datasets: Sequence[fitstack.SpectroscopyDataset]
) -> fitstack.FitResult:
    """Stitch per-gate fixed-globals fits into one result document payload."""
    residuals = np.concatenate([r.residuals for r in results])
    n_points = sum(len(d.used_points) for d in datasets)
    total_sq = sum(r.rmse**2 * len(d.used_points) for r, d in zip(results, datasets))
    return fitstack.FitResult(
        params=results[0].params,
        channels=tuple(r.channels[0] for r in results),
        rmse=math.sqrt(total_sq / n_points),
        rmse_per_dataset=tuple(r.rmse for r in results),
        residuals=residuals,
        cost=float(sum(r.cost for r in results)),
        converged=all(r.converged for r in results),
        message="; ".join(r.message for r in results),
        n_evaluations=sum(r.n_evaluations for r in results),
        boundary_active=tuple(r.boundary_active[0] for r in results),
        cost_history=(),
        start_costs=(),
        covariance=None,
    )


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
