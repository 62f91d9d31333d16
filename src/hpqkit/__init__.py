"""Hybrid-SQUID Josephson potentials, spectra, and transmission fitting.

The package models a superconducting island whose Josephson element is a
SQUID combining a serial double tunnel junction with a gate-tunable
multi-channel nanowire junction. It decomposes the branch potentials
into Josephson harmonics, diagonalizes the island Hamiltonian in the
charge basis, generates synthetic two-tone spectroscopy, and fits
channel transmissions (and shared device constants) to labeled
transition data.
"""

from .potentials import (
    BOValidity,
    CircuitParams,
    FluxBias,
    HarmonicSpectrum,
    NanowireChannels,
    ParitySums,
    Regime,
    RegimeLabel,
    bo_correction,
    classify_regime,
    combine_harmonics,
    find_phi_min,
    find_phi_mins,
    fourier_u,
    fourier_v,
    internal_mode_freq,
    parity_sums,
    sissis_potential,
    sns_potential,
    total_potential,
    validate_bo,
    write_harmonics_csv,
)
from .spectrum import (
    ChargeBasisConfig,
    ParityWeights,
    SolverError,
    TransitionTable,
    build_hamiltonian,
    charge_matrix_element,
    eigensolve,
    parity_weights,
    parse_transition_label,
    solve_flux_grid,
    spectrum_vs_flux,
    transition_frequencies,
)
from .synth import SynthConfig, Trace, lorentzian, synthesize_map, synthesize_trace, write_map_csv
from .fitstack import (
    ChannelSelection,
    DatasetFormatError,
    FitConfig,
    FitRejection,
    FitResult,
    SpectroscopyDataset,
    ThetaLayout,
    TransitionHint,
    TransitionPoint,
    extract_transitions,
    fit_global,
    hints_from_table,
    lorentzian_fit,
    model_residuals,
    read_dataset_csv,
    rmse,
    select_channel_count,
    write_dataset_csv,
    write_fit_result,
)
from .analysis import (
    GateHarmonics,
    RegimeRow,
    gate_sweep_harmonics,
    gate_sweep_regimes,
)

__version__ = "0.1.0"
