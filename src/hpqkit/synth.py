"""Synthetic two-tone spectroscopy maps with Lorentzian lines and seeded noise.

Used as the controlled test corpus for the extraction and fitting stack:
every trace is a sum of Lorentzians placed at model transition
frequencies plus Gaussian noise, bit-reproducible for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .potentials import K_MAX, CircuitParams, NanowireChannels
from .spectrum import (
    DEFAULT_LABELS,
    ChargeBasisConfig,
    TransitionTable,
    parse_transition_label,
    spectrum_vs_flux,
)
from .tables import fmt, write_csv

__all__ = [
    "Trace",
    "SynthConfig",
    "lorentzian",
    "synthesize_trace",
    "synthesize_map",
    "write_map_csv",
]


@dataclass(frozen=True)
class Trace:
    """One spectroscopy trace: signal versus drive frequency at fixed flux."""

    phi_e: float
    freqs: np.ndarray
    signal: np.ndarray

    def __post_init__(self) -> None:
        freqs = np.asarray(self.freqs, dtype=float)
        signal = np.asarray(self.signal, dtype=float)
        if freqs.ndim != 1 or len(freqs) == 0:
            raise ValueError("frequency grid must be a non-empty 1-d array")
        if np.any(np.diff(freqs) <= 0.0):
            raise ValueError("frequency grid must be strictly ascending")
        if signal.shape != freqs.shape:
            raise ValueError("signal must match the frequency grid")
        if not np.all(np.isfinite(signal)):
            raise ValueError("signal must be finite")
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "signal", signal)


@dataclass(frozen=True)
class SynthConfig:
    """Line shapes and noise for synthetic maps.

    Every line shares one ``fwhm`` (GHz) and one peak ``amplitude``.
    Noise is additive Gaussian in signal units; the seed makes output
    bit-reproducible, and each flux point draws from its own substream,
    so a point's noise does not depend on the rest of the grid.
    """

    seed: int
    fwhm: float = 0.05
    amplitude: float = 1.0
    noise_sigma: float = 0.0
    weight_by_matrix_element: bool = True

    def __post_init__(self) -> None:
        # each message starts with the field it rejects; written so that NaN fails
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if not self.fwhm > 0.0:
            raise ValueError(f"fwhm must be > 0, got {self.fwhm!r}")
        if not self.noise_sigma >= 0.0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma!r}")
        if not math.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite, got {self.amplitude!r}")


def lorentzian(
    freqs: np.ndarray, center: float, fwhm: float, amplitude: float
) -> np.ndarray:
    """Peak-normalized Lorentzian ``A (G/2)^2 / ((f - f0)^2 + (G/2)^2)``."""
    half = fwhm / 2.0
    return amplitude * half**2 / ((np.asarray(freqs, dtype=float) - center) ** 2 + half**2)


def synthesize_trace(
    lines: Sequence[tuple[float, float, float]],
    freqs: np.ndarray,
    noise_sigma: float = 0.0,
    seed: int | np.random.Generator | None = None,
    phi_e: float = 0.0,
) -> Trace:
    """Sum of Lorentzian lines plus Gaussian noise on a frequency grid.

    Parameters
    ----------
    lines:
        Tuples ``(center, amplitude, fwhm)`` in GHz / signal units / GHz.
    freqs:
        Strictly ascending drive-frequency grid (GHz); must be non-empty.
    noise_sigma:
        Standard deviation of the additive noise.
    seed:
        Integer seed or an existing generator; deterministic per seed.
    """
    freqs = np.asarray(freqs, dtype=float)
    signal = np.zeros_like(freqs)
    for center, amplitude, fwhm in lines:
        signal += lorentzian(freqs, center, fwhm, amplitude)
    if noise_sigma > 0.0:
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        signal = signal + rng.normal(0.0, noise_sigma, size=len(freqs))
    return Trace(phi_e=phi_e, freqs=freqs, signal=signal)


def _point_rng(seed: int, index: int) -> np.random.Generator:
    # independent substream per flux point: a point's noise depends only on
    # the seed and its index
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def synthesize_map(
    params: CircuitParams,
    channels: NanowireChannels,
    flux_values: np.ndarray,
    freqs: np.ndarray,
    cfg: SynthConfig,
    *,
    labels: tuple[str, ...] = DEFAULT_LABELS,
    basis: ChargeBasisConfig | None = None,
    k_max: int = K_MAX,
) -> tuple[list[Trace], TransitionTable]:
    """Generate one trace per flux point from the circuit model.

    Lines sit at the model transition frequencies; amplitudes are scaled
    by the squared charge matrix element of the transition unless that
    weighting is disabled. Multi-photon labels such as ``f02/2`` reuse
    the matrix element of the underlying pair. Returns the traces along
    with the transition table they were built from.
    """
    flux_values = np.asarray(flux_values, dtype=float)
    basis = basis or ChargeBasisConfig()
    pairs = tuple(sorted({parse_transition_label(lab)[:2] for lab in labels}))
    table = spectrum_vs_flux(
        params,
        channels,
        flux_values,
        basis,
        k_max=k_max,
        labels=labels,
        me_pairs=pairs,
    )
    traces: list[Trace] = []
    for idx, phi_e in enumerate(flux_values):
        lines: list[tuple[float, float, float]] = []
        for label in labels:
            center = float(table.frequencies[label][idx])
            if not math.isfinite(center):
                continue
            amplitude = cfg.amplitude
            if cfg.weight_by_matrix_element:
                i, j, _ = parse_transition_label(label)
                amplitude *= float(table.matrix_elements[(i, j)][idx]) ** 2
            lines.append((center, amplitude, cfg.fwhm))
        traces.append(
            synthesize_trace(
                lines,
                freqs,
                noise_sigma=cfg.noise_sigma,
                seed=_point_rng(cfg.seed, idx),
                phi_e=float(phi_e),
            )
        )
    return traces, table


def write_map_csv(traces: Sequence[Trace], path: str) -> None:
    """Long-format CSV: one row per (flux, drive frequency) cell, one block of columns per trace.

    A trace's flux cell is formatted once, and so is its frequency grid
    unless it is the previous trace's very array (the traces of one map
    share one grid), so only the signal is formatted per row. The
    previous array is held, not its ``id``, which a freed grid hands on.
    """
    last_grid, freqs = None, []

    def block(trace: Trace) -> tuple[list[str], list[str], list[float]]:
        nonlocal last_grid, freqs
        if trace.freqs is not last_grid:
            last_grid, freqs = trace.freqs, [fmt(f) for f in trace.freqs.tolist()]
        return [fmt(trace.phi_e / (2.0 * math.pi))] * len(freqs), freqs, trace.signal.tolist()

    write_csv(path, ("flux_phi0", "drive_freq_ghz", "signal"), map(block, traces))
