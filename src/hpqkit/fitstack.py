"""Transition extraction and the global transmission fit.

The pipeline mirrors how two-tone flux maps are analyzed: Lorentzian
fits pull (frequency, uncertainty) points out of individual traces,
labeled points from one or more gate settings are fitted jointly to the
circuit model with the junction-related constants shared across gates
and only the per-gate channel transmissions free, and the channel count
is chosen as the smallest model whose RMSE is comparable to the best.

Transmissions are optimized through a logit transform (and the shared
energies through a log transform), so every iterate respects the
physical boxes without active-set logic. The Jacobian is analytic: the
Hellmann-Feynman theorem gives it from the eigenvectors the residual
evaluation already solved for. Everything here is deterministic for a
given configuration and start.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import OptimizeWarning, curve_fit, least_squares
from scipy.special import expit, logit

from .potentials import K_MAX, CircuitParams, NanowireChannels, _power_amplitudes, fourier_u, fourier_v
from .spectrum import (
    CUTOFF_HEADROOM,
    ChargeBasisConfig,
    FluxGrid,
    SolverError,
    parse_transition_label,
    solve_flux_grid,
)
from .synth import Trace, lorentzian
from .tables import fmt, write_csv, write_ini

__all__ = [
    "TransitionPoint",
    "SpectroscopyDataset",
    "TransitionHint",
    "LorentzianFit",
    "FitRejection",
    "DatasetFormatError",
    "FitConfig",
    "ThetaLayout",
    "FitResult",
    "ChannelSelection",
    "HarmonicAgreementRow",
    "lorentzian_fit",
    "hints_from_table",
    "extract_transitions",
    "model_residuals",
    "dataset_model_frequencies",
    "fit_global",
    "rmse",
    "select_channel_count",
    "harmonic_agreement",
    "read_dataset_csv",
    "write_dataset_csv",
    "write_fit_result",
]

logger = logging.getLogger(__name__)

#: multi-start transmissions per channel count: three flat levels plus a staircase
START_LEVELS = (0.5, 0.8, 0.2)

#: bound of the fitted transmission logits: T stays within about 1e-8 of 0 and 1
LOGIT_BOUND = 18.4

#: floor (GHz) of a point's frequency uncertainty, in extraction and in the fit weights
SIGMA_FLOOR = 1e-6

#: hints closer than this many window halfwidths are too crowded to extract
SEPARATION_FACTOR = 2.0

#: fits whose RMSE lies within this factor of the best one count as equally good
RMSE_FACTOR = 1.5


class FitRejection(Exception):
    """A per-trace Lorentzian fit that should not produce a point."""


class DatasetFormatError(Exception):
    """Unparseable dataset file; message carries path and line number."""


@dataclass(frozen=True)
class TransitionPoint:
    """One labeled frequency point: (flux, transition) -> f +/- sigma.

    ``levels`` is the parsed label ``(i, j, divisor)``.
    """

    flux: float
    label: str
    freq: float
    sigma: float
    used: bool = True
    levels: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", parse_transition_label(self.label))
        for name in ("flux", "freq", "sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not (self.sigma > 0.0):
            raise ValueError(f"sigma must be > 0, got {self.sigma!r}")


@dataclass(frozen=True)
class SpectroscopyDataset:
    """All labeled points for one gate setting (gate tag is metadata only)."""

    gate: float
    points: tuple[TransitionPoint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))

    @property
    def used_points(self) -> tuple[TransitionPoint, ...]:
        return tuple(p for p in self.points if p.used)


@dataclass(frozen=True)
class LorentzianFit:
    f0: float
    fwhm: float
    amplitude: float
    offset: float
    f0_sigma: float
    fwhm_sigma: float
    amplitude_sigma: float
    offset_sigma: float


def _lorentz_model(f: np.ndarray, f0: float, fwhm: float, amplitude: float, offset: float) -> np.ndarray:
    return lorentzian(f, f0, fwhm, amplitude) + offset


def lorentzian_fit(trace: Trace, window: tuple[float, float]) -> LorentzianFit:
    """Least-squares Lorentzian-plus-offset fit inside a frequency window.

    The start is the window's highest sample over its median, with the
    width of the samples above half that height. Standard errors come
    from the residual-scaled covariance. Raises
    :class:`FitRejection` when the fit does not converge, the center
    lands outside the window, or the amplitude is consistent with zero.
    """
    lo, hi = window
    mask = (trace.freqs >= lo) & (trace.freqs <= hi)
    if int(np.sum(mask)) < 5:
        raise ValueError(f"window ({lo}, {hi}) contains {int(np.sum(mask))} samples, need >= 5")
    f = trace.freqs[mask]
    y = trace.signal[mask]

    offset0 = float(np.median(y))
    peak = int(np.argmax(y))
    amp0 = float(y[peak] - offset0)
    above = y - offset0 > amp0 / 2.0
    width0 = max(float(np.sum(above)) * float(f[1] - f[0]), 2.0 * float(f[1] - f[0]))
    guess = (float(f[peak]), width0, amp0, offset0)

    try:
        with warnings.catch_warnings():
            # exact fits legitimately leave the covariance undefined
            warnings.simplefilter("ignore", OptimizeWarning)
            popt, pcov = curve_fit(
                _lorentz_model, f, y, p0=guess, maxfev=5000, xtol=1e-12, ftol=1e-12, gtol=1e-12
            )
    except (RuntimeError, ValueError) as exc:
        raise FitRejection(f"no convergence: {exc}") from exc
    f0, fwhm, amplitude, offset = (float(v) for v in popt)
    fwhm = abs(fwhm)
    sigmas = np.sqrt(np.abs(np.diag(pcov)))
    if not np.all(np.isfinite(sigmas)):
        # an exact (zero-residual) fit leaves the covariance undefined;
        # anything else non-finite is a genuinely ill-conditioned fit
        ssr = float(np.sum((y - _lorentz_model(f, *popt)) ** 2))
        scale = float(np.sum((y - np.mean(y)) ** 2)) + 1e-30
        if ssr <= 1e-18 * scale:
            sigmas = np.zeros(4)
        else:
            raise FitRejection("ill-conditioned fit (singular covariance)")
    if not lo <= f0 <= hi:
        raise FitRejection(f"center {f0:g} outside window ({lo:g}, {hi:g})")
    if not amplitude > 3.0 * float(sigmas[2]):
        raise FitRejection("amplitude consistent with zero")
    return LorentzianFit(
        f0=f0,
        fwhm=fwhm,
        amplitude=amplitude,
        offset=offset,
        f0_sigma=float(sigmas[0]),
        fwhm_sigma=float(sigmas[1]),
        amplitude_sigma=float(sigmas[2]),
        offset_sigma=float(sigmas[3]),
    )


# ---------------------------------------------------------------------------
# extraction


@dataclass(frozen=True)
class TransitionHint:
    """Coarse guide for one transition: a center per trace plus a window halfwidth."""

    centers: np.ndarray
    halfwidth: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "centers", np.asarray(self.centers, dtype=float))
        if self.halfwidth <= 0.0:
            raise ValueError("halfwidth must be > 0")


def hints_from_table(table, labels: Sequence[str], halfwidth: float) -> dict[str, TransitionHint]:
    """Build extraction hints from a model transition table."""
    return {
        lab: TransitionHint(centers=np.array(table.frequencies[lab], dtype=float), halfwidth=halfwidth)
        for lab in labels
    }


def extract_transitions(
    traces: Sequence[Trace], hints: Mapping[str, TransitionHint]
) -> list[TransitionPoint]:
    """Run windowed Lorentzian fits across a map and label the results.

    Labels whose hint centers collide within :data:`SEPARATION_FACTOR`
    times the window halfwidth at a given flux are skipped there (both
    of them), so crossings never swap labels. So are hints whose window
    reaches past either end of the trace's frequency grid: a fit on a
    cut-off line is pulled toward the grid's edge. Failed fits are
    logged and dropped; the per-point frequency uncertainty is floored
    at :data:`SIGMA_FLOOR`.
    """
    points: list[TransitionPoint] = []
    labels = list(hints)
    for idx, trace in enumerate(traces):
        centers = {
            lab: float(hints[lab].centers[idx])
            for lab in labels
            if math.isfinite(float(hints[lab].centers[idx]))
        }
        for lab, center in centers.items():
            hw = hints[lab].halfwidth
            crowded = any(
                other != lab
                and abs(centers[other] - center) < SEPARATION_FACTOR * max(hw, hints[other].halfwidth)
                for other in centers
            )
            if crowded:
                logger.debug("skip %s at flux index %d: overlapping windows", lab, idx)
                continue
            window = (center - hw, center + hw)
            if window[0] < trace.freqs[0] or window[1] > trace.freqs[-1]:
                logger.debug(
                    "skip %s at flux index %d: window %s leaves the drive grid", lab, idx, window
                )
                continue
            try:
                fit = lorentzian_fit(trace, window)
            except (FitRejection, ValueError) as exc:
                logger.debug("reject %s at flux index %d: %s", lab, idx, exc)
                continue
            points.append(
                TransitionPoint(
                    flux=trace.phi_e,
                    label=lab,
                    freq=fit.f0,
                    sigma=max(fit.f0_sigma, SIGMA_FLOOR),
                )
            )
    return points


# ---------------------------------------------------------------------------
# global model fit


@dataclass(frozen=True)
class FitConfig:
    """Settings shared by the model-fit operations.

    ``ec`` is always held fixed (it is measured independently). In
    ``globals_mode="free"`` the junction energies (with ej1 = ej2), the
    junction charging energy, and the gap float; in ``"fixed"`` they are
    pinned to ``fixed_params``, whose ``ec`` must be ``ec``. Each error
    message starts with the name of the field it rejects.
    """

    ec: float
    k_max: int = K_MAX
    n_cut: int = 25
    n_g: float = 0.0
    include_bo: bool = True
    globals_mode: str = "free"
    fixed_params: CircuitParams | None = None
    sigma_floor: float = SIGMA_FLOOR
    max_nfev: int | None = None
    rmse_factor: float = RMSE_FACTOR

    def __post_init__(self) -> None:
        if self.globals_mode not in ("free", "fixed"):
            raise ValueError(f"globals_mode must be 'free' or 'fixed', got {self.globals_mode!r}")
        if self.globals_mode == "fixed" and self.fixed_params is None:
            raise ValueError("globals_mode='fixed' requires fixed_params")
        if self.fixed_params is not None and self.fixed_params.ec != self.ec:
            raise ValueError(
                f"fixed_params.ec={self.fixed_params.ec!r} differs from ec={self.ec!r}, "
                "the charging energy the fit solves with"
            )
        if self.n_cut < self.k_max + CUTOFF_HEADROOM:
            raise ValueError(f"n_cut={self.n_cut} too small for k_max={self.k_max}")
        if not self.sigma_floor >= 0.0:
            raise ValueError(f"sigma_floor must be >= 0, got {self.sigma_floor!r}")
        # below 1 even the best count fails the selection rule
        if not self.rmse_factor >= 1.0:
            raise ValueError(f"rmse_factor must be >= 1, got {self.rmse_factor!r}")


@dataclass(frozen=True)
class ThetaLayout:
    """Packing of the optimization vector.

    Layout: ``[log ej, log ecj, log gap]`` when the globals are free,
    then one logit-transmission block per dataset.
    """

    globals_free: bool
    channel_counts: tuple[int, ...]

    @property
    def n_globals(self) -> int:
        return 3 if self.globals_free else 0

    @property
    def n_params(self) -> int:
        return self.n_globals + sum(self.channel_counts)

    def t_slice(self, dataset_index: int) -> slice:
        start = self.n_globals + sum(self.channel_counts[:dataset_index])
        return slice(start, start + self.channel_counts[dataset_index])

    def pack(self, params: CircuitParams | None, transmissions: Sequence[Sequence[float]]) -> np.ndarray:
        if len(transmissions) != len(self.channel_counts):
            raise ValueError("one transmission list per dataset required")
        parts: list[float] = []
        if self.globals_free:
            if params is None:
                raise ValueError("free globals need initial CircuitParams")
            ej = 0.5 * (params.ej1 + params.ej2)
            parts += [math.log(ej), math.log(params.ecj), math.log(params.gap)]
        t_floor = expit(-LOGIT_BOUND)
        for count, ts in zip(self.channel_counts, transmissions):
            if len(ts) != count:
                raise ValueError(f"expected {count} transmissions, got {len(ts)}")
            for t in ts:
                parts.append(float(logit(np.clip(t, t_floor, 1.0 - t_floor))))
        return np.array(parts)

    def unpack(
        self, x: np.ndarray, cfg: FitConfig
    ) -> tuple[CircuitParams, tuple[NanowireChannels, ...]]:
        if len(x) != self.n_params:
            raise ValueError(f"theta has length {len(x)}, layout needs {self.n_params}")
        if self.globals_free:
            ej, ecj, gap = (math.exp(v) for v in x[:3])
            params = CircuitParams(ej1=ej, ej2=ej, ecj=ecj, ec=cfg.ec, gap=gap)
        else:
            assert cfg.fixed_params is not None
            params = cfg.fixed_params
        channels = tuple(
            NanowireChannels(tuple(float(t) for t in expit(x[self.t_slice(d)])))
            for d in range(len(self.channel_counts))
        )
        return params, channels


@dataclass(frozen=True)
class _GridSolution:
    """One dataset's points on their solved flux grid.

    ``grid`` holds each distinct flux once, in first-seen order; ``rows``
    maps each point to its flux's row, and ``levels`` holds each point's
    ``(i, j, divisor)`` as three rows.
    """

    grid: FluxGrid
    rows: np.ndarray
    levels: np.ndarray

    def model(self) -> np.ndarray:
        """Model frequency of each point."""
        i, j, divisor = self.levels
        return (self.grid.energies[self.rows, j] - self.grid.energies[self.rows, i]) / divisor


def _solve_points(
    params: CircuitParams,
    channels: NanowireChannels,
    points: Sequence[TransitionPoint],
    cfg: FitConfig,
) -> _GridSolution:
    """Solve each distinct flux of ``points`` once: the fit's only route to eigenpairs."""
    u = fourier_u(params, cfg.k_max, include_bo=cfg.include_bo)
    v = fourier_v(channels, params.gap, cfg.k_max)
    rows: dict[float, int] = {}
    point_rows = np.array([rows.setdefault(p.flux, len(rows)) for p in points])
    levels = np.array([p.levels for p in points]).T
    basis = ChargeBasisConfig(n_cut=cfg.n_cut, n_g=cfg.n_g, n_levels=int(levels[1].max()) + 1)
    return _GridSolution(solve_flux_grid(u, v, list(rows), cfg.ec, basis), point_rows, levels)


def dataset_model_frequencies(
    params: CircuitParams,
    channels: NanowireChannels,
    points: Sequence[TransitionPoint],
    cfg: FitConfig,
) -> np.ndarray:
    """Model frequencies for arbitrary labeled points (used points or not)."""
    return _solve_points(params, channels, points, cfg).model()


def _sigmas(points: Sequence[TransitionPoint], cfg: FitConfig) -> np.ndarray:
    return np.array([max(p.sigma, cfg.sigma_floor) for p in points])


def model_residuals(
    theta: np.ndarray,
    datasets: Sequence[SpectroscopyDataset],
    cfg: FitConfig,
    layout: ThetaLayout,
    *,
    grids: list | None = None,
) -> np.ndarray:
    """Weighted residuals ``(f_model - f_data) / sigma`` over all used points.

    Points flagged unused never enter; a solver failure aborts the
    evaluation with the offending dataset identified. When ``grids`` is
    a list, each dataset's solved flux grid (energies and eigenvectors)
    is appended to it, so the Jacobian at the same ``theta`` needs no
    new solve.
    """
    params, channel_sets = layout.unpack(theta, cfg)
    chunks: list[np.ndarray] = []
    for dataset, channels in zip(datasets, channel_sets):
        points = dataset.used_points
        if not points:
            raise ValueError(f"dataset gate={dataset.gate} has no usable points")
        try:
            grid = _solve_points(params, channels, points, cfg)
        except SolverError as exc:
            raise SolverError(f"dataset gate={dataset.gate}: {exc}") from exc
        if grids is not None:
            grids.append(grid)
        data = np.array([p.freq for p in points])
        chunks.append((grid.model() - data) / _sigmas(points, cfg))
    return np.concatenate(chunks)


# ---------------------------------------------------------------------------
# analytic Jacobian
#
# In the charge basis H couples n to n + k with (u_k + v_k e^{i k phi_e})/2,
# so by Hellmann-Feynman each level moves as
#
#   dE_n/du_k = Re g_k,   dE_n/dv_k = Re(e^{i k phi_e} g_k),
#   g_k = sum_m conj(psi_m) psi_{m+k},
#
# with psi the level's eigenvector from the residual's own solve. The arm
# amplitudes follow from dA(m, nu)/dm = (nu/m) (A(m, nu) - A(m, nu - 1)):
# through the logit, dT/dx = T (1 - T) cancels the 1/m, so a channel's
# column is -gap/2 (1 - T) (A(T, 1/2) - A(T, -1/2)). With free globals
# (lam = 1, E_Jsigma = 2 ej) the junction term -E_Jsigma A(1, 1/2) is
# linear in ej and the correction sqrt(E_Jsigma E_CJ) A(1, 1/4) goes as
# sqrt(ej ecj), and dv/dlog(gap) = v. Hellmann-Feynman needs a
# nondegenerate level, so a flux point with a used level in a degenerate
# cluster (FluxGrid.clustered) takes central differences for its rows instead.

#: relative step of the degenerate-point central difference (scipy's 3-point default)
_CENTRAL_STEP = np.finfo(float).eps ** (1.0 / 3.0)


def _u_derivatives(params: CircuitParams, cfg: FitConfig, layout: ThetaLayout) -> np.ndarray:
    """d u_k / d theta for k = 1..k_max; nonzero only in the free-globals columns."""
    du = np.zeros((cfg.k_max, layout.n_params))
    if layout.globals_free:
        junction, correction = _power_amplitudes(params.lam, (0.5, 0.25), cfg.k_max)[:, 1:]
        junction = -params.ej_sigma * junction
        if cfg.include_bo:
            correction = math.sqrt(params.ej_sigma * params.ecj) * correction
        else:
            correction = 0.0
        du[:, 0] = junction + correction / 2.0
        du[:, 1] = correction / 2.0
    return du


def _v_derivatives(
    theta: np.ndarray, gap: float, cfg: FitConfig, layout: ThetaLayout, d: int
) -> np.ndarray:
    """d v_k / d theta for k = 1..k_max of dataset ``d``'s nanowire arm."""
    dv = np.zeros((cfg.k_max, layout.n_params))
    logits = theta[layout.t_slice(d)]
    amplitudes = _power_amplitudes(expit(logits)[:, None], (0.5, -0.5), cfg.k_max)[..., 1:]
    dv[:, layout.t_slice(d)] = (
        -0.5 * gap * expit(-logits)[:, None] * (amplitudes[:, 0] - amplitudes[:, 1])
    ).T
    if layout.globals_free:
        dv[:, 2] = -gap * amplitudes[:, 0].sum(axis=0)
    return dv


def _level_derivatives(grid: FluxGrid, du: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Hellmann-Feynman dE/d theta of every solved level, shape ``(fluxes, levels, params)``."""
    k = np.arange(1, len(du) + 1)
    vectors = grid.vectors
    g = np.stack(
        [np.einsum("rml,rml->rl", vectors[:, :-kk].conj(), vectors[:, kk:]) for kk in k], axis=-1
    )
    phase = np.exp(1j * np.outer(grid.flux, k))[:, np.newaxis, :]
    return g.real @ du + (phase * g).real @ dv


def _degenerate_rows(solution: _GridSolution) -> np.ndarray:
    """Flux rows where a point uses a level of a degenerate cluster."""
    clustered, rows = solution.grid.clustered, solution.rows
    i, j, _ = solution.levels
    return np.unique(rows[clustered[rows, i] | clustered[rows, j]])


def _central_rows(
    theta: np.ndarray,
    points: Sequence[TransitionPoint],
    d: int,
    cfg: FitConfig,
    layout: ThetaLayout,
) -> np.ndarray:
    """Central-difference Jacobian rows of some of dataset ``d``'s points."""
    columns = [*range(layout.n_globals), *range(layout.n_params)[layout.t_slice(d)]]
    rows = np.zeros((len(points), layout.n_params))
    for c in columns:
        h = _CENTRAL_STEP * max(1.0, abs(theta[c]))
        model = []
        for step in (h, -h):
            x = theta.copy()
            x[c] += step
            params, channel_sets = layout.unpack(x, cfg)
            model.append(_solve_points(params, channel_sets[d], points, cfg).model())
        rows[:, c] = (model[0] - model[1]) / ((theta[c] + h) - (theta[c] - h))
    return rows / _sigmas(points, cfg)[:, None]


def _model_jacobian(
    theta: np.ndarray,
    datasets: Sequence[SpectroscopyDataset],
    cfg: FitConfig,
    layout: ThetaLayout,
    solutions: Sequence[_GridSolution],
) -> tuple[np.ndarray, int]:
    """Jacobian of :func:`model_residuals` at ``theta`` from the grids it solved there.

    Returns the Jacobian and the number of flux points that fell back to
    central differences.
    """
    params, _ = layout.unpack(theta, cfg)
    du = _u_derivatives(params, cfg, layout)
    blocks: list[np.ndarray] = []
    fallbacks = 0
    for d, (dataset, solution) in enumerate(zip(datasets, solutions)):
        points = dataset.used_points
        d_energy = _level_derivatives(solution.grid, du, _v_derivatives(theta, params.gap, cfg, layout, d))
        rows = solution.rows
        i, j, divisor = solution.levels
        block = (d_energy[rows, j] - d_energy[rows, i]) / (divisor * _sigmas(points, cfg))[:, None]
        degenerate = _degenerate_rows(solution)
        if len(degenerate):
            fallbacks += len(degenerate)
            mask = np.isin(rows, degenerate)
            block[mask] = _central_rows(
                theta, [p for p, m in zip(points, mask) if m], d, cfg, layout
            )
        blocks.append(block)
    return np.vstack(blocks), fallbacks


@dataclass(frozen=True)
class FitResult:
    """Converged (or best-so-far) global fit.

    ``rmse`` follows the unweighted definition
    ``sqrt(mean((f_model - f_data)^2))`` over all used points; the
    residual vector kept here is the sigma-weighted one the optimizer
    actually minimized. ``n_jacobian_evaluations`` sums the Jacobian
    evaluations of every start, and ``jacobian_fallbacks`` counts the
    flux points whose Jacobian rows took central differences because a
    used level was degenerate.
    """

    params: CircuitParams
    channels: tuple[NanowireChannels, ...]
    rmse: float
    rmse_per_dataset: tuple[float, ...]
    residuals: np.ndarray
    cost: float
    converged: bool
    message: str
    n_evaluations: int
    boundary_active: tuple[tuple[bool, ...], ...]
    cost_history: tuple[float, ...]
    start_costs: tuple[float, ...]
    covariance: np.ndarray | None
    n_jacobian_evaluations: int = 0
    jacobian_fallbacks: int = 0


def rmse(model_freqs: Sequence[float], data_freqs: Sequence[float]) -> float:
    """Unweighted root-mean-square error between model and data (GHz)."""
    model = np.asarray(model_freqs, dtype=float)
    data = np.asarray(data_freqs, dtype=float)
    if model.shape != data.shape or model.ndim != 1:
        raise ValueError("model and data must be 1-d arrays of equal length")
    if len(model) == 0:
        raise ValueError("need at least one point")
    return float(np.sqrt(np.mean((model - data) ** 2)))


def _default_starts(counts: tuple[int, ...]) -> list[list[list[float]]]:
    starts = [[[level] * n for n in counts] for level in START_LEVELS]
    return starts + [[[max(0.9 - 0.2 * i, 0.1) for i in range(n)] for n in counts]]


def fit_global(
    datasets: Sequence[SpectroscopyDataset],
    channel_counts: Sequence[int],
    cfg: FitConfig,
    *,
    initial_params: CircuitParams | None = None,
    initial_transmissions: Sequence[Sequence[float]] | None = None,
) -> FitResult:
    """Joint least-squares fit of shared device constants and per-gate channels.

    Runs a trust-region reflective solve in transformed coordinates; when
    no transmission start is supplied, a fixed documented grid of starts
    (flat levels plus a staircase) is tried and the lowest-cost solution
    wins, ties resolved by start order. The result is flagged
    non-converged (but still returned) when the iteration budget runs
    out.
    """
    if len(datasets) == 0:
        raise ValueError("need at least one dataset")
    counts = tuple(int(n) for n in channel_counts)
    if len(counts) != len(datasets):
        raise ValueError("one channel count per dataset required")
    for dataset in datasets:
        if not dataset.used_points:
            raise ValueError(f"dataset gate={dataset.gate} has no fittable points")

    layout = ThetaLayout(globals_free=cfg.globals_mode == "free", channel_counts=counts)
    if layout.globals_free and initial_params is None:
        raise ValueError("free globals require initial_params")
    base_params = initial_params if layout.globals_free else cfg.fixed_params

    if initial_transmissions is not None:
        start_sets = [[list(ts) for ts in initial_transmissions]]
    else:
        start_sets = _default_starts(counts)

    lower = np.concatenate([np.full(layout.n_globals, -20.0), np.full(sum(counts), -LOGIT_BOUND)])
    upper = np.concatenate([np.full(layout.n_globals, 15.0), np.full(sum(counts), LOGIT_BOUND)])

    eval_costs: list[float] = []
    # x and grids of the latest evaluation; trf asks for the Jacobian
    # only at an accepted step, i.e. at the x it evaluated last. "read"
    # keeps the x and grids the latest Jacobian used: trf takes one at
    # every accepted step, so they are the grids at the x a start returns
    latest: dict[str, object] = {"x": None}
    fallbacks = 0

    def objective(x: np.ndarray) -> np.ndarray:
        grids: list[_GridSolution] = []
        r = model_residuals(x, datasets, cfg, layout, grids=grids)
        latest.update(x=x.copy(), grids=grids)
        eval_costs.append(0.5 * float(r @ r))
        return r

    def jacobian(x: np.ndarray) -> np.ndarray:
        nonlocal fallbacks
        if not np.array_equal(x, latest["x"]):
            objective(x)
        latest["read"] = (latest["x"], latest["grids"])
        jac, n_fallbacks = _model_jacobian(x, datasets, cfg, layout, latest["grids"])
        fallbacks += n_fallbacks
        return jac

    best = None
    start_costs: list[float] = []
    total_evals = 0
    total_jacobians = 0
    for transmissions in start_sets:
        x0 = layout.pack(base_params, transmissions)
        result = least_squares(
            objective,
            x0,
            jac=jacobian,
            method="trf",
            bounds=(lower, upper),
            max_nfev=cfg.max_nfev,
            x_scale="jac",
        )
        total_evals += result.nfev
        total_jacobians += result.njev
        start_costs.append(float(result.cost))
        if best is None or result.cost < best[0].cost:
            best = (result, latest["read"])
    assert best is not None
    solution, (x_read, grids) = best
    if not np.array_equal(solution.x, x_read):
        grids = []
        model_residuals(solution.x, datasets, cfg, layout, grids=grids)

    params, channel_sets = layout.unpack(solution.x, cfg)
    models = [grid.model() for grid in grids]
    data = [np.array([p.freq for p in dataset.used_points]) for dataset in datasets]
    all_data = np.concatenate(data)

    boundary = tuple(
        tuple(t < 1e-3 or t > 1.0 - 1e-3 for t in ch.transmissions) for ch in channel_sets
    )
    covariance = _covariance_estimate(solution, len(all_data))
    history = tuple(np.minimum.accumulate(eval_costs)) if eval_costs else ()
    converged = solution.status > 0
    message = solution.message if converged else f"iteration budget exhausted: {solution.message}"

    return FitResult(
        params=params,
        channels=channel_sets,
        rmse=rmse(np.concatenate(models), all_data),
        rmse_per_dataset=tuple(rmse(model, freqs) for model, freqs in zip(models, data)),
        residuals=np.asarray(solution.fun),
        cost=float(solution.cost),
        converged=converged,
        message=message,
        n_evaluations=total_evals,
        boundary_active=boundary,
        cost_history=history,
        start_costs=tuple(start_costs),
        covariance=covariance,
        n_jacobian_evaluations=total_jacobians,
        jacobian_fallbacks=fallbacks,
    )


def _covariance_estimate(solution, n_points: int) -> np.ndarray | None:
    jac = solution.jac
    dof = n_points - jac.shape[1]
    if dof <= 0:
        return None
    try:
        jtj_inv = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        return None
    return jtj_inv * (2.0 * float(solution.cost) / dof)


@dataclass(frozen=True)
class ChannelSelection:
    """Model-selection outcome: RMSE per channel count and the chosen count."""

    chosen: int
    rmse_by_count: dict[int, float]
    fits_by_count: dict[int, FitResult]


def select_channel_count(
    dataset: SpectroscopyDataset,
    counts: Sequence[int],
    cfg: FitConfig,
) -> ChannelSelection:
    """Fit one gate with each candidate channel count and keep the leanest.

    The globals stay at ``cfg.fixed_params``, so ``cfg.globals_mode`` must
    be ``"fixed"``. The chosen count is the smallest whose RMSE is within
    ``cfg.rmse_factor`` of the best count's RMSE (a parsimony rule:
    additional channels must buy real fit quality).
    """
    if cfg.globals_mode != "fixed":
        raise ValueError("channel-count selection requires globals_mode='fixed'")
    fits: dict[int, FitResult] = {}
    errors: dict[int, str] = {}
    for count in counts:
        try:
            fits[count] = fit_global([dataset], [count], cfg)
        except (SolverError, ValueError) as exc:
            errors[count] = str(exc)
    if not fits:
        detail = "; ".join(f"{count} channels: {msg}" for count, msg in errors.items())
        raise RuntimeError(f"all channel-count fits failed ({detail})")
    rmse_by_count = {count: fit.rmse for count, fit in fits.items()}
    best = min(rmse_by_count.values())
    chosen = min(count for count, value in rmse_by_count.items() if value <= cfg.rmse_factor * best)
    return ChannelSelection(chosen=chosen, rmse_by_count=rmse_by_count, fits_by_count=fits)


def _merge_single_gate_fits(
    results: Sequence[FitResult], datasets: Sequence[SpectroscopyDataset]
) -> FitResult:
    """Stitch per-gate fixed-globals fits into one result document payload."""
    residuals = np.concatenate([r.residuals for r in results])
    n_points = sum(len(d.used_points) for d in datasets)
    total_sq = sum(r.rmse**2 * len(d.used_points) for r, d in zip(results, datasets))
    return FitResult(
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
        n_jacobian_evaluations=sum(r.n_jacobian_evaluations for r in results),
        jacobian_fallbacks=sum(r.jacobian_fallbacks for r in results),
    )


@dataclass(frozen=True)
class HarmonicAgreementRow:
    """Relative nanowire-harmonic deviation of one (gate, count) model."""

    gate: float
    count: int
    included: bool
    v_rel_diff: tuple[float, ...]


def harmonic_agreement(
    fits: Mapping[float, Mapping[int, FitResult]],
    reference_count: int,
    *,
    k_max: int = 2,
) -> list[HarmonicAgreementRow]:
    """Compare nanowire harmonics across channel-count models, RMSE gated.

    For each gate, the low-order ``v_k`` of every count model are
    compared against the reference-count model. Gates where the RMSE
    values are not mutually within :data:`RMSE_FACTOR` of that gate's
    best are marked excluded, so harmonics are only compared between
    fits of similar quality.
    """
    rows: list[HarmonicAgreementRow] = []
    for gate in sorted(fits):
        by_count = fits[gate]
        if reference_count not in by_count:
            raise ValueError(f"gate {gate} lacks the reference count {reference_count}")
        best = min(fit.rmse for fit in by_count.values())
        included = all(fit.rmse <= RMSE_FACTOR * best for fit in by_count.values())
        ref = by_count[reference_count]
        v_ref = fourier_v(ref.channels[0], ref.params.gap, k_max)
        for count in sorted(by_count):
            fit = by_count[count]
            v = fourier_v(fit.channels[0], fit.params.gap, k_max)
            diffs = tuple(
                float((v[k] - v_ref[k]) / v_ref[k]) if v_ref[k] != 0.0 else math.inf
                for k in range(1, k_max + 1)
            )
            rows.append(
                HarmonicAgreementRow(gate=gate, count=count, included=included, v_rel_diff=diffs)
            )
    return rows


# ---------------------------------------------------------------------------
# dataset and result files


_DATASET_COLUMNS = ("gate_v", "flux_phi0", "label", "freq_ghz", "sigma_ghz", "used")


def write_dataset_csv(datasets: Sequence[SpectroscopyDataset], path: str) -> None:
    """CSV with columns gate_v, flux_phi0, label, freq_ghz, sigma_ghz, used."""
    write_csv(path, _DATASET_COLUMNS, (
        (dataset.gate, p.flux / (2.0 * math.pi), p.label, p.freq, p.sigma, 1 if p.used else 0)
        for dataset in datasets
        for p in dataset.points
    ))


def read_dataset_csv(path: str) -> list[SpectroscopyDataset]:
    """Parse a dataset CSV, grouping points by gate in order of appearance."""
    grouped: dict[float, list[TransitionPoint]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        expected = ",".join(_DATASET_COLUMNS)
        if header != expected:
            raise DatasetFormatError(f"{path}:1: header must be '{expected}', got '{header}'")
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != 6:
                raise DatasetFormatError(f"{path}:{line_no}: expected 6 fields, got {len(cells)}")
            try:
                gate = float(cells[0])
                if not math.isfinite(gate):
                    raise ValueError(f"gate_v must be finite, got {gate!r}")
                flux = 2.0 * math.pi * float(cells[1])
                label = cells[2]
                point = TransitionPoint(
                    flux=flux,
                    label=label,
                    freq=float(cells[3]),
                    sigma=float(cells[4]),
                    used=bool(int(cells[5])),
                )
            except ValueError as exc:
                raise DatasetFormatError(f"{path}:{line_no}: {exc}") from exc
            grouped.setdefault(gate, []).append(point)
    return [SpectroscopyDataset(gate=gate, points=tuple(pts)) for gate, pts in grouped.items()]


def write_fit_result(
    result: FitResult,
    gates: Sequence[float],
    path: str,
    *,
    chosen_counts: Mapping[float, int] | None = None,
) -> None:
    """Persist a fit as a key-value document: globals, per-gate channels, diagnostics."""
    sections: dict[str, dict[str, object]] = {
        "globals": asdict(result.params),
        "fit": {"rmse_ghz": result.rmse, "converged": bool(result.converged),
                "n_evaluations": result.n_evaluations, "message": result.message},
    }
    for gate, channels, gate_rmse, boundary in zip(
        gates, result.channels, result.rmse_per_dataset, result.boundary_active
    ):
        section: dict[str, object] = {
            "transmissions": channels, "rmse_ghz": gate_rmse, "boundary_active": any(boundary)
        }
        if chosen_counts is not None and gate in chosen_counts:
            section["channel_count"] = chosen_counts[gate]
        name = f"gate:{fmt(gate)}"
        if name in sections:
            raise ValueError(f"gate tag {fmt(gate)} appears more than once")
        sections[name] = section
    write_ini(path, sections)
