"""Batch command-line interface.

Subcommands: ``decompose`` (harmonics + parity summary), ``sweep``
(transition table vs flux), ``synth`` (synthetic spectroscopy map),
``fit`` (dataset ingestion, global transmission fit, per-gate harmonics),
``classify`` (regime map over gates). Each run is driven by one config
document plus flags; flags override environment variables
(``HPQKIT_*``), which override the config. Exit codes: 0 success
(warnings allowed), 1 runtime failure, 2 bad configuration or input.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, replace
from typing import Any, Callable, Sequence

import numpy as np

from . import analysis, config as cfgmod, fitstack, potentials, spectrum, synth
from .config import ConfigError, RunConfig
from .potentials import FluxBias
from .tables import fmt, write_csv, write_ini, write_lines

ENV_PREFIX = "HPQKIT_"

#: the flags that an ``HPQKIT_<FLAG>`` variable fills, each with the type of its value
ENV_FLAGS = {"config": str, "out_dir": str, "channels": str, "kmax": int, "ncut": int, "seed": int}

#: flux bias of fit's per-gate harmonics and of classify without a [flux] section
HALF_FLUX = FluxBias.from_phi0(0.5)


def build_parser(*, config_in_env: bool = False) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hpqkit",
        description="Hybrid-SQUID harmonic decomposition, spectra, and transmission fits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, needs_config: bool = True) -> None:
        p.add_argument("--config", required=needs_config and not config_in_env,
                       help="run configuration document")
        p.add_argument("--out-dir", help="output directory")

    def solver(p: argparse.ArgumentParser) -> None:
        """``common`` plus the truncation overrides of the commands that read them."""
        common(p)
        p.add_argument("--kmax", type=int, help="harmonic truncation override")
        p.add_argument("--ncut", type=int, help="charge-basis cutoff override")

    p = sub.add_parser("decompose", help="Fourier-decompose the potential and summarize parity")
    solver(p)

    p = sub.add_parser("sweep", help="tabulate transitions over a flux grid")
    solver(p)

    p = sub.add_parser("synth", help="generate a synthetic two-tone map")
    solver(p)
    p.add_argument("--seed", type=int, help="noise seed (required here or in [synth])")

    p = sub.add_parser("fit", help="fit transmissions (and optionally globals) to datasets")
    solver(p)
    p.add_argument("datasets", nargs="+", help="dataset CSV file(s)")
    p.add_argument("--channels", help="channel counts, e.g. '3' or '2..5' (selection mode)")

    p = sub.add_parser("classify", help="regime map from fitted gate channels")
    common(p, needs_config=False)
    p.add_argument("--fit-result", help="fit result document as the gate source")

    return parser


def parse_args(argv: Sequence[str] | None = None) -> argparse.Namespace:
    """The command line, each unset flag filled from a non-empty ``HPQKIT_<FLAG>``; the one reader
    of the environment. ``args.from_env`` names the filled flags."""
    args = build_parser(config_in_env=bool(os.environ.get(ENV_PREFIX + "CONFIG"))).parse_args(argv)
    args.from_env = set()
    for dest, kind in ENV_FLAGS.items():
        name = ENV_PREFIX + dest.upper()
        # a flag the command lacks is absent from args, so its variable goes unread
        text = os.environ.get(name) if vars(args).get(dest, 0) is None else None
        if text:
            try:
                setattr(args, dest, kind(text))
            except ValueError as exc:
                raise ConfigError(f"environment {name}: not an integer: {text!r}") from exc
            args.from_env.add(dest)
    return args


def _flag_source(args: argparse.Namespace, dest: str) -> str:
    """``--<dest>``, or the ``HPQKIT_<DEST>`` that filled it."""
    return ENV_PREFIX + dest.upper() if dest in args.from_env else "--" + dest.replace("_", "-")


def _setting(cfg: RunConfig, args: argparse.Namespace, dest: str, key: str, default: Any) -> tuple[Any, str]:
    """A flag-backed setting and its source: ``--<dest>`` (or the ``HPQKIT_<DEST>`` that filled it),
    else the config ``key`` ("section.name"), else ``default``; an empty flag counts as unset."""
    value = getattr(args, dest)
    if value not in (None, ""):
        return value, _flag_source(args, dest)
    section, name = key.split(".")
    if cfg.raw(section, name) is None:
        return default, key
    read = cfg.get_int if ENV_FLAGS[dest] is int else cfg.get_str
    return read(section, name), key


def _require_bo(cfg: RunConfig, section: str) -> None:
    """Accept ``<section>.include_bo`` only as ``true`` or absent: the internal-mode correction is
    part of the device model, and the bare junction is its ``ecj -> 0`` limit."""
    if not cfg.get_bool(section, "include_bo", default=True):
        raise ConfigError(f"{section}.include_bo: must be true; the bare junction is circuit.ecj -> 0")


def _build(section: str, make: Callable[..., Any], **fields: Any) -> Any:
    """``make(**fields)``, a ``ValueError`` reported as ``<section>.<message>``: each domain
    config's message starts with the field it rejects."""
    try:
        return make(**fields)
    except ValueError as exc:
        raise ConfigError(f"{section}.{exc}") from exc


# ---------------------------------------------------------------------------
# command bodies


def _out(args: argparse.Namespace, name: str) -> str:
    """``name`` in the output directory, made if missing; an empty ``--out-dir`` counts as unset."""
    out_dir = args.out_dir or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"{_flag_source(args, 'out_dir')}: cannot create directory {out_dir!r}: {exc.strerror}"
        ) from exc
    return os.path.join(out_dir, name)


def _solver_settings(
    cfg: RunConfig, args: argparse.Namespace, section: str, basis_section: str, ncut_default: int,
) -> tuple[int, int, float]:
    """``k_max`` of ``section``, and ``n_cut`` and ``n_g`` of ``basis_section``."""
    k_max, source = _setting(cfg, args, "kmax", f"{section}.k_max", potentials.K_MAX)
    if k_max < 1:
        raise ConfigError(f"{source} must be >= 1, got {k_max}")
    n_cut, source = _setting(cfg, args, "ncut", f"{basis_section}.n_cut", ncut_default)
    if n_cut < k_max + spectrum.CUTOFF_HEADROOM:
        raise ConfigError(
            f"{source}={n_cut} too small for k_max={k_max} (need k_max+{spectrum.CUTOFF_HEADROOM})"
        )
    # the spectrum repeats with period 1 in n_g, so [-1, 1] holds every distinct offset
    n_g = cfg.get_float(basis_section, "n_g", default=0.0)
    if abs(n_g) > 1.0:
        raise ConfigError(f"{basis_section}.n_g must lie in [-1, 1], got {n_g!r}")
    return k_max, n_cut, n_g


def _basis_from(
    cfg: RunConfig, args: argparse.Namespace, section: str,
    labels: Sequence[str], pairs: Sequence[tuple[int, int]] = (),
) -> tuple[int, spectrum.ChargeBasisConfig]:
    """``k_max`` of ``section``, and the ``[basis]``, whose ``n_levels`` bounds the levels ``labels``
    and ``pairs`` may read; ``spectrum_vs_flux`` solves only the levels they do read."""
    defaults = spectrum.ChargeBasisConfig
    k_max, n_cut, n_g = _solver_settings(cfg, args, section, "basis", defaults.n_cut)
    basis = _build("basis", spectrum.ChargeBasisConfig, n_cut=n_cut, n_g=n_g,
                   n_levels=cfg.get_int("basis", "n_levels", default=defaults.n_levels))
    try:
        spectrum.check_levels(basis.n_levels, labels, pairs)
    except ValueError as exc:
        raise ConfigError(f"basis.n_levels: {exc}") from exc
    return k_max, basis


def cmd_decompose(args: argparse.Namespace) -> int:
    cfg = cfgmod.load_config(args.config)
    params = cfgmod.circuit_from_config(cfg)
    channels = cfgmod.channels_from_config(cfg)
    flux = cfgmod.flux_from_config(cfg)
    k_max, basis = _basis_from(cfg, args, "decompose", spectrum.DEFAULT_LABELS, spectrum.DEFAULT_PAIRS)
    _require_bo(cfg, "decompose")

    u = potentials.fourier_u(params, k_max)
    v = potentials.fourier_v(channels, params.gap, k_max)
    spec = potentials.combine_harmonics(u, v, flux)
    sums = potentials.parity_sums(spec)
    regime = potentials.find_phi_min(params, channels, flux)

    table = spectrum.spectrum_vs_flux(params, channels, np.array([flux.phi_e]), basis, k_max=k_max)
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
    start = cfg.get_flux(section, "flux_start", default=0.0)
    stop = cfg.get_flux(section, "flux_stop", default=0.5)
    points = cfg.get_int(section, "flux_points", default=41)
    if points < 1:
        raise ConfigError(f"{section}.flux_points must be >= 1")
    return 2.0 * math.pi * np.linspace(start, stop, points)


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = cfgmod.load_config(args.config)
    params = cfgmod.circuit_from_config(cfg)
    channels = cfgmod.channels_from_config(cfg)
    _require_bo(cfg, "sweep")
    labels = cfgmod.parse_labels(
        cfg.get_str("sweep", "labels", default=",".join(spectrum.DEFAULT_LABELS)), field="sweep.labels"
    )
    pairs_text = cfg.raw("sweep", "matrix_elements")
    pairs = spectrum.DEFAULT_PAIRS if pairs_text is None else tuple(
        cfgmod.parse_pairs(pairs_text, field="sweep.matrix_elements")
    )
    k_max, basis = _basis_from(cfg, args, "sweep", labels, pairs)
    grid = _flux_grid(cfg, "sweep")
    table = spectrum.spectrum_vs_flux(params, channels, grid, basis, k_max=k_max, labels=labels, me_pairs=pairs)
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
    seed, source = _setting(cfg, args, "seed", "synth.seed", None)
    if seed is None:
        raise ConfigError("synth needs a seed (--seed, HPQKIT_SEED or synth.seed)")
    if seed < 0:
        raise ConfigError(f"{source} must be >= 0, got {seed}")
    labels = cfgmod.parse_labels(
        cfg.get_str("synth", "labels", default=",".join(spectrum.DEFAULT_LABELS)), field="synth.labels"
    )
    defaults = synth.SynthConfig
    scfg = _build(
        "synth", synth.SynthConfig,
        seed=seed,
        fwhm=cfg.get_energy("synth", "fwhm", default=defaults.fwhm),
        amplitude=cfg.get_float("synth", "amplitude", default=defaults.amplitude),
        noise_sigma=cfg.get_float("synth", "noise_sigma", default=defaults.noise_sigma),
        weight_by_matrix_element=cfg.get_bool(
            "synth", "weight_by_matrix_element", default=defaults.weight_by_matrix_element
        ),
    )
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
    k_max, basis = _basis_from(cfg, args, "synth", labels)

    traces, _ = synth.synthesize_map(
        params, channels, grid, freqs, scfg,
        labels=labels, basis=basis, k_max=k_max,
    )
    map_path = _out(args, "map.csv")
    synth.write_map_csv(traces, map_path)

    meta_path = _out(args, "map_meta.ini")
    write_ini(meta_path, {
        "synth": {
            **asdict(scfg),
            "labels": ", ".join(labels),
            "flux_start": grid[0] / (2.0 * math.pi),
            "flux_stop": grid[-1] / (2.0 * math.pi),
            "flux_points": len(grid),
            "freq_start": f_start,
            "freq_stop": f_stop,
            "freq_points": f_points,
            "k_max": k_max,
        },
        "basis": asdict(basis),
        "circuit": asdict(params),
        "channels": {"transmissions": channels},
    })
    print(f"wrote {map_path} and {meta_path}")
    return 0


def _gate_line(gate: float, transmissions: Sequence[float], rmse: float, chosen: int | None = None) -> str:
    choice = "" if chosen is None else f"chose {chosen} channels, "
    return f"gate {fmt(gate)}: {choice}T = [{', '.join(fmt(t) for t in transmissions)}], rmse = {fmt(rmse)} GHz"


def cmd_fit(args: argparse.Namespace) -> int:
    cfg = cfgmod.load_config(args.config)
    initial = cfgmod.circuit_from_config(cfg)
    globals_mode = cfg.get_str("fit", "globals", default="fixed")
    if globals_mode not in ("free", "fixed"):
        raise ConfigError(f"fit.globals must be 'free' or 'fixed', got {globals_mode!r}")
    ec = cfg.get_energy("fit", "ec", default=initial.ec)
    counts_text, source = _setting(cfg, args, "channels", "fit.channels", "3")
    counts = cfgmod.parse_counts(counts_text, field=source)

    defaults = fitstack.FitConfig
    k_max, n_cut, n_g = _solver_settings(cfg, args, "fit", "fit", defaults.n_cut)
    _require_bo(cfg, "fit")
    fit_cfg = _build(
        "fit", fitstack.FitConfig,
        ec=ec,
        k_max=k_max,
        n_cut=n_cut,
        n_g=n_g,
        globals_mode=globals_mode,
        fixed_params=replace(initial, ec=ec) if globals_mode == "fixed" else None,
        sigma_floor=cfg.get_float("fit", "sigma_floor", default=defaults.sigma_floor),
        max_nfev=cfg.get_int("fit", "max_nfev", default=0) or None,
        rmse_factor=cfg.get_float("fit", "rmse_factor", default=defaults.rmse_factor),
    )

    datasets = [dataset for path in args.datasets for dataset in fitstack.read_dataset_csv(path)]
    if not datasets:
        raise ConfigError(f"datasets: no points in {', '.join(args.datasets)}")
    for dataset in datasets:
        if not dataset.used_points:
            raise ConfigError(f"dataset gate={fmt(dataset.gate)}: no fittable points")
    gates = [d.gate for d in datasets]
    # compared as the fit result's reader parses the written tags: -0 and 0 are one gate
    tags = [float(fmt(gate)) for gate in gates]
    for idx, gate in enumerate(gates):
        if tags[idx] in tags[:idx]:
            raise ConfigError(f"datasets: each gate tag may appear in only one dataset file; {fmt(gate)} repeats")

    if len(counts) > 1:
        if fit_cfg.globals_mode != "fixed":
            raise ConfigError("channel-count selection requires fit.globals = fixed")
        rmse_blocks: list[tuple[list, ...]] = []
        chosen_fits: list[fitstack.FitResult] = []
        for dataset in datasets:
            # each gate is reported once it is fitted, so a long sweep shows its progress
            selection = fitstack.select_channel_count(dataset, counts, fit_cfg)
            fit = selection.fits_by_count[selection.chosen]
            chosen_fits.append(fit)
            print(_gate_line(dataset.gate, fit.channels[0], fit.rmse, selection.chosen))
            fitted = sorted(selection.rmse_by_count)
            rmse_blocks.append(([dataset.gate] * len(fitted), fitted,
                                [selection.rmse_by_count[count] for count in fitted],
                                [int(count == selection.chosen) for count in fitted]))
        rmse_path = _out(args, "rmse_by_count.csv")
        write_csv(rmse_path, ("gate_v", "channels", "rmse_ghz", "chosen"), rmse_blocks)
        print(f"wrote {rmse_path}")
        result = fitstack._merge_single_gate_fits(chosen_fits, datasets)
    else:
        result = fitstack.fit_global(
            datasets, counts * len(datasets), fit_cfg,
            initial_params=initial if fit_cfg.globals_mode == "free" else None,
        )
        for gate, channels, gate_rmse in zip(gates, result.channels, result.rmse_per_dataset):
            print(_gate_line(gate, channels, gate_rmse))

    result_path = _out(args, "fit_result.ini")
    fitstack.write_fit_result(result, gates, result_path)
    harmonics = analysis.gate_sweep_harmonics(
        result.params, sorted(zip(gates, result.channels), key=lambda item: item[0]), HALF_FLUX,
        k_max=fit_cfg.k_max,
    )
    analysis.write_gate_harmonics_csv(harmonics, _out(args, "gate_harmonics.csv"))
    print(f"global rmse = {fmt(result.rmse)} GHz")
    print(f"wrote {result_path}")
    # the merged selection result is converged only when every chosen fit is
    if not result.converged:
        print("warning: at least one fit hit its iteration budget (best-so-far reported)",
              file=sys.stderr)
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    source = args.fit_result or args.config
    if source is None:
        raise ConfigError("classify needs --config or --fit-result")
    cfg = cfgmod.load_config(source)
    gates = cfgmod.read_gate_channels(cfg)
    flux = cfgmod.flux_from_config(cfg) if cfg.has_section("flux") else HALF_FLUX
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
        # the filled flags come from the environment, which may be malformed
        args = parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ConfigError, fitstack.DatasetFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
