"""Derived analyses over gate sweeps: parity content, regimes, and wavefunctions.

Everything here is a deterministic map of the lower-level operations
over a list of gate points; outputs are plot-ready tables, not figures.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .potentials import (
    K_MAX,
    CircuitParams,
    FluxBias,
    NanowireChannels,
    Regime,
    combine_harmonics,
    find_phi_min,
    fourier_u,
    fourier_v,
    parity_sums,
)
from .spectrum import ChargeBasisConfig, parity_weights, solve_flux_grid
from .tables import fmt, write_csv

__all__ = [
    "GateHarmonics",
    "RegimeRow",
    "SnsBranchReport",
    "SnsBranchRow",
    "ParityRow",
    "gate_sweep_harmonics",
    "gate_sweep_regimes",
    "sns_branch_report",
    "parity_table",
    "write_gate_harmonics_csv",
    "write_regimes_csv",
    "write_sns_report_csv",
    "write_parity_csv",
    "write_plot_data",
]

GatePoint = tuple[float, NanowireChannels]

#: smallest probability a parity-table row lists as dominant; it only limits the display
DOMINANT_CUTOFF = 1e-3


@dataclass(frozen=True)
class GateHarmonics:
    """Combined harmonic content at one gate point."""

    gate: float
    c: np.ndarray
    s: np.ndarray
    c_even: float
    c_odd: float
    ratio: float
    c_normalized: np.ndarray


def gate_sweep_harmonics(
    params: CircuitParams,
    gates: Sequence[GatePoint],
    flux: FluxBias,
    *,
    k_max: int = K_MAX,
    include_bo: bool = True,
    reference_gate: float | None = None,
) -> list[GateHarmonics]:
    """Harmonic coefficients and parity sums for each gate point.

    Coefficients are additionally reported normalized to their value at
    the reference gate (the first point unless given), with NaN where the
    reference coefficient vanishes.
    """
    rows: list[GateHarmonics] = []
    u = fourier_u(params, k_max, include_bo=include_bo)
    specs = []
    for gate, channels in gates:
        v = fourier_v(channels, params.gap, k_max)
        specs.append((gate, combine_harmonics(u, v, flux)))
    if not specs:
        return rows
    if reference_gate is None:
        ref_c = specs[0][1].c
    else:
        matches = [spec.c for gate, spec in specs if gate == reference_gate]
        if not matches:
            raise ValueError(f"reference gate {reference_gate!r} not in the sweep")
        ref_c = matches[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        for gate, spec in specs:
            sums = parity_sums(spec)
            normalized = np.where(ref_c != 0.0, spec.c / ref_c, np.nan)
            rows.append(
                GateHarmonics(
                    gate=gate,
                    c=spec.c,
                    s=spec.s,
                    c_even=sums.c_even,
                    c_odd=sums.c_odd,
                    ratio=sums.ratio,
                    c_normalized=normalized,
                )
            )
    return rows


@dataclass(frozen=True)
class RegimeRow:
    gate: float
    phi_min: float
    regime: Regime


def gate_sweep_regimes(
    params: CircuitParams,
    gates: Sequence[GatePoint],
    flux: FluxBias,
    *,
    include_bo: bool = True,
) -> list[RegimeRow]:
    """Potential-minimum location and parity regime for each gate point."""
    rows = []
    for gate, channels in gates:
        label = find_phi_min(params, channels, flux, include_bo=include_bo)
        rows.append(RegimeRow(gate=gate, phi_min=label.phi_min, regime=label.regime))
    return rows


@dataclass(frozen=True)
class SnsBranchRow:
    gate: float
    v: np.ndarray
    v_even: float
    v_odd: float
    t_sum: float


@dataclass(frozen=True)
class SnsBranchReport:
    """Per-gate nanowire-arm harmonics with the fixed junction-arm sums alongside."""

    rows: tuple[SnsBranchRow, ...]
    u_even: float | None
    u_odd: float | None


def sns_branch_report(
    gates: Sequence[GatePoint],
    gap: float,
    *,
    k_max: int = K_MAX,
    params: CircuitParams | None = None,
    include_bo: bool = True,
) -> SnsBranchReport:
    """Nanowire harmonic content and total transmission per gate.

    When device constants are supplied, the flat even/odd sums of the
    junction arm are attached for comparison against the gate-dependent
    nanowire sums.
    """
    rows = []
    for gate, channels in gates:
        v = fourier_v(channels, gap, k_max)
        rows.append(
            SnsBranchRow(
                gate=gate,
                v=v,
                v_even=float(np.sum(v[2::2])),
                v_odd=float(np.sum(v[1::2])),
                t_sum=float(sum(channels)),
            )
        )
    u_even = u_odd = None
    if params is not None:
        u = fourier_u(params, k_max, include_bo=include_bo)
        u_even = float(np.sum(u[2::2]))
        u_odd = float(np.sum(u[1::2]))
    return SnsBranchReport(rows=tuple(rows), u_even=u_even, u_odd=u_odd)


@dataclass(frozen=True)
class ParityRow:
    state: int
    energy: float
    even_weight: float
    odd_weight: float
    dominant: tuple[tuple[int, float], ...]


def parity_table(
    params: CircuitParams,
    channels: NanowireChannels,
    flux: FluxBias,
    cfg: ChargeBasisConfig,
    n_states: int,
    *,
    k_max: int = K_MAX,
    include_bo: bool = True,
) -> list[ParityRow]:
    """Charge-parity weights and dominant charge components of the lowest states.

    ``dominant`` lists (n, probability) pairs above :data:`DOMINANT_CUTOFF`,
    largest first and equal ones by ascending n.
    """
    u = fourier_u(params, k_max, include_bo=include_bo)
    v = fourier_v(channels, params.gap, k_max)
    basis = replace(cfg, n_levels=max(n_states, 1))
    # wrapping is idempotent, so the canonical phi_e passes through unchanged
    grid = solve_flux_grid(u, v, [flux.phi_e], params.ec, basis)
    energies, vectors = grid.energies[0], grid.vectors[0]
    charges = cfg.charges
    rows = []
    for m in range(n_states):
        weights = parity_weights(vectors[:, m])
        probs = np.abs(vectors[:, m]) ** 2
        keep = np.where(probs > DOMINANT_CUTOFF)[0]
        order = keep[np.lexsort((charges[keep], -probs[keep]))]
        rows.append(
            ParityRow(
                state=m,
                energy=float(energies[m]),
                even_weight=weights.even_weight,
                odd_weight=weights.odd_weight,
                dominant=tuple((int(charges[i]), float(probs[i])) for i in order),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# table exports


def write_gate_harmonics_csv(rows: Sequence[GateHarmonics], path: str) -> None:
    if not rows:
        write_csv(path, ["gate"], ())
        return
    k_max = len(rows[0].c) - 1
    header = (
        ["gate"]
        + [f"c{k}" for k in range(1, k_max + 1)]
        + [f"s{k}" for k in range(1, k_max + 1)]
        + ["c_even", "c_odd", "parity_ratio"]
        + [f"c{k}_norm" for k in range(1, k_max + 1)]
    )
    harmonics = slice(1, k_max + 1)
    write_csv(path, header, (
        (row.gate, *row.c[harmonics], *row.s[harmonics], row.c_even, row.c_odd, row.ratio,
         *row.c_normalized[harmonics])
        for row in rows
    ))


def write_regimes_csv(rows: Sequence[RegimeRow], path: str) -> None:
    write_csv(path, ("gate", "phi_min_rad", "regime"),
              ((row.gate, row.phi_min, row.regime.value) for row in rows))


def write_sns_report_csv(report: SnsBranchReport, path: str) -> None:
    k_max = len(report.rows[0].v) - 1 if report.rows else 0
    header = ["gate"] + [f"v{k}" for k in range(1, k_max + 1)] + ["v_even", "v_odd", "t_sum"]
    u_cells: tuple[float, ...] = ()
    if report.u_even is not None:
        header += ["u_even", "u_odd"]
        u_cells = (report.u_even, report.u_odd)
    write_csv(path, header, (
        (row.gate, *row.v[1 : k_max + 1], row.v_even, row.v_odd, row.t_sum, *u_cells)
        for row in report.rows
    ))


def write_parity_csv(rows: Sequence[ParityRow], path: str) -> None:
    write_csv(path, ("state", "energy_ghz", "even_weight", "odd_weight", "dominant"), (
        (row.state, row.energy, row.even_weight, row.odd_weight,
         ";".join(f"{n}:{fmt(p)}" for n, p in row.dominant))
        for row in rows
    ))


def write_plot_data(rows: Sequence[tuple[float, float, str]], path: str) -> None:
    """Long-format (x, y, series) CSV consumable by any plotting tool."""
    write_csv(path, ("x", "y", "series"), ((x, y, series) for x, y, series in rows))
