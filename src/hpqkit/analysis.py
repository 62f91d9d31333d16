"""Derived analyses over gate sweeps: harmonic parity content and regimes.

Everything here is a deterministic map of the lower-level operations
over a list of gate points; outputs are plot-ready tables, not figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .potentials import (
    K_MAX,
    CircuitParams,
    FluxBias,
    NanowireChannels,
    Regime,
    combine_harmonics,
    find_phi_mins,
    fourier_u,
    fourier_v,
    parity_sums,
)
from .tables import write_csv

__all__ = [
    "GateHarmonics",
    "RegimeRow",
    "gate_sweep_harmonics",
    "gate_sweep_regimes",
    "write_gate_harmonics_csv",
    "write_regimes_csv",
]

GatePoint = tuple[float, NanowireChannels]


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
) -> list[GateHarmonics]:
    """Harmonic coefficients and parity sums for each gate point.

    Coefficients are additionally reported normalized to their value at
    the first gate point, with NaN where that coefficient vanishes.
    """
    rows: list[GateHarmonics] = []
    u = fourier_u(params, k_max)
    specs = []
    for gate, channels in gates:
        v = fourier_v(channels, params.gap, k_max)
        specs.append((gate, combine_harmonics(u, v, flux)))
    if not specs:
        return rows
    ref_c = specs[0][1].c
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
) -> list[RegimeRow]:
    """Potential-minimum location and parity regime for each gate point, found in one batch."""
    labels = find_phi_mins(params, [channels for _, channels in gates], flux)
    return [
        RegimeRow(gate=gate, phi_min=label.phi_min, regime=label.regime)
        for (gate, _), label in zip(gates, labels)
    ]


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
    table = np.array([
        [row.gate, *row.c[harmonics], *row.s[harmonics], row.c_even, row.c_odd, row.ratio,
         *row.c_normalized[harmonics]]
        for row in rows
    ])
    write_csv(path, header, [table.T])


def write_regimes_csv(rows: Sequence[RegimeRow], path: str) -> None:
    columns = ([row.gate for row in rows], [row.phi_min for row in rows], [row.regime.value for row in rows])
    write_csv(path, ("gate", "phi_min_rad", "regime"), [columns])
