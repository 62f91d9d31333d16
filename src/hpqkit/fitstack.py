"""Transition extraction and the global transmission fit.

The pipeline mirrors how two-tone flux maps are analyzed: Lorentzian
fits pull (frequency, uncertainty) points out of individual traces,
labeled points from one or more gate settings are fitted jointly to the
circuit model with the junction-related constants shared across gates
and only the per-gate channel transmissions free, and the channel count
is chosen as the smallest model whose RMSE is comparable to the best.

Transmissions are optimized through a logit transform (and the shared
energies through a log transform), so every iterate respects the
physical boxes without active-set logic. Everything here is
deterministic for a given configuration and start.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import OptimizeWarning, curve_fit, least_squares
from scipy.special import expit, logit

from .potentials import CircuitParams, NanowireChannels, fourier_u, fourier_v
from .spectrum import ChargeBasisConfig, SolverError, parse_transition_label, solve_flux_grid
from .synth import Trace

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
    traces: tuple[Trace, ...] | None = None

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
    half = fwhm / 2.0
    return amplitude * half**2 / ((f - f0) ** 2 + half**2) + offset


def lorentzian_fit(
    trace: Trace,
    window: tuple[float, float],
    guess: tuple[float, float, float, float] | None = None,
) -> LorentzianFit:
    """Least-squares Lorentzian-plus-offset fit inside a frequency window.

    Standard errors come from the residual-scaled covariance. Raises
    :class:`FitRejection` when the fit does not converge, the center
    lands outside the window, or the amplitude is consistent with zero.
    """
    lo, hi = window
    mask = (trace.freqs >= lo) & (trace.freqs <= hi)
    if int(np.sum(mask)) < 5:
        raise ValueError(f"window ({lo}, {hi}) contains {int(np.sum(mask))} samples, need >= 5")
    f = trace.freqs[mask]
    y = trace.signal[mask]

    if guess is None:
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
    traces: Sequence[Trace],
    hints: Mapping[str, TransitionHint],
    *,
    separation_factor: float = 2.0,
    sigma_floor: float = 1e-6,
) -> list[TransitionPoint]:
    """Run windowed Lorentzian fits across a map and label the results.

    Labels whose hint centers collide within ``separation_factor`` times
    the window halfwidth at a given flux are skipped there (both of
    them), so crossings never swap labels. So are hints whose window
    reaches past either end of the trace's frequency grid: a fit on a
    cut-off line is pulled toward the grid's edge. Failed fits are
    logged and dropped; the per-point frequency uncertainty is floored
    at ``sigma_floor`` GHz.
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
                and abs(centers[other] - center) < separation_factor * max(hw, hints[other].halfwidth)
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
                    sigma=max(fit.f0_sigma, sigma_floor),
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
    pinned to ``fixed_params``.
    """

    ec: float
    k_max: int = 10
    n_cut: int = 25
    n_g: float = 0.0
    include_bo: bool = True
    globals_mode: str = "free"
    fixed_params: CircuitParams | None = None
    sigma_floor: float = 1e-6
    max_nfev: int | None = None
    rmse_factor: float = 1.5
    logit_bound: float = 18.4
    start_levels: tuple[float, ...] = START_LEVELS

    def __post_init__(self) -> None:
        if self.globals_mode not in ("free", "fixed"):
            raise ValueError(f"globals_mode must be 'free' or 'fixed', got {self.globals_mode!r}")
        if self.globals_mode == "fixed" and self.fixed_params is None:
            raise ValueError("globals_mode='fixed' requires fixed_params")
        if self.n_cut < self.k_max + 5:
            raise ValueError(f"n_cut={self.n_cut} too small for k_max={self.k_max}")


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

    def pack(
        self,
        params: CircuitParams | None,
        transmissions: Sequence[Sequence[float]],
        *,
        logit_bound: float = 18.4,
    ) -> np.ndarray:
        if len(transmissions) != len(self.channel_counts):
            raise ValueError("one transmission list per dataset required")
        parts: list[float] = []
        if self.globals_free:
            if params is None:
                raise ValueError("free globals need initial CircuitParams")
            ej = 0.5 * (params.ej1 + params.ej2)
            parts += [math.log(ej), math.log(params.ecj), math.log(params.gap)]
        t_floor = expit(-logit_bound)
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


def _u_for(params: CircuitParams, cfg: FitConfig) -> np.ndarray:
    return fourier_u(params, cfg.k_max, include_bo=cfg.include_bo)


def _model_freqs_for_points(
    u: np.ndarray,
    v: np.ndarray,
    points: Sequence[TransitionPoint],
    cfg: FitConfig,
) -> np.ndarray:
    """Model frequency for each point, solving each distinct flux once."""
    rows: dict[float, int] = {}
    point_rows = [rows.setdefault(p.flux, len(rows)) for p in points]
    i, j, divisor = np.array([p.levels for p in points]).T
    basis = ChargeBasisConfig(n_cut=cfg.n_cut, n_g=cfg.n_g, n_levels=int(j.max()) + 1)
    energies = np.array([e for e, _ in solve_flux_grid(u, v, list(rows), cfg.ec, basis)])
    return (energies[point_rows, j] - energies[point_rows, i]) / divisor


def dataset_model_frequencies(
    params: CircuitParams,
    channels: NanowireChannels,
    points: Sequence[TransitionPoint],
    cfg: FitConfig,
) -> np.ndarray:
    """Model frequencies for arbitrary labeled points (used points or not)."""
    u = _u_for(params, cfg)
    v = fourier_v(channels, params.gap, cfg.k_max)
    return _model_freqs_for_points(u, v, points, cfg)


def model_residuals(
    theta: np.ndarray,
    datasets: Sequence[SpectroscopyDataset],
    cfg: FitConfig,
    layout: ThetaLayout,
) -> np.ndarray:
    """Weighted residuals ``(f_model - f_data) / sigma`` over all used points.

    Points flagged unused never enter; a solver failure aborts the
    evaluation with the offending dataset identified.
    """
    params, channel_sets = layout.unpack(theta, cfg)
    u = _u_for(params, cfg)
    chunks: list[np.ndarray] = []
    for dataset, channels in zip(datasets, channel_sets):
        points = dataset.used_points
        if not points:
            raise ValueError(f"dataset gate={dataset.gate} has no usable points")
        v = fourier_v(channels, params.gap, cfg.k_max)
        try:
            model = _model_freqs_for_points(u, v, points, cfg)
        except SolverError as exc:
            raise SolverError(f"dataset gate={dataset.gate}: {exc}") from exc
        data = np.array([p.freq for p in points])
        sigma = np.array([max(p.sigma, cfg.sigma_floor) for p in points])
        chunks.append((model - data) / sigma)
    return np.concatenate(chunks)


@dataclass(frozen=True)
class FitResult:
    """Converged (or best-so-far) global fit.

    ``rmse`` follows the unweighted definition
    ``sqrt(mean((f_model - f_data)^2))`` over all used points; the
    residual vector kept here is the sigma-weighted one the optimizer
    actually minimized.
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


def rmse(model_freqs: Sequence[float], data_freqs: Sequence[float]) -> float:
    """Unweighted root-mean-square error between model and data (GHz)."""
    model = np.asarray(model_freqs, dtype=float)
    data = np.asarray(data_freqs, dtype=float)
    if model.shape != data.shape or model.ndim != 1:
        raise ValueError("model and data must be 1-d arrays of equal length")
    if len(model) == 0:
        raise ValueError("need at least one point")
    return float(np.sqrt(np.mean((model - data) ** 2)))


def _default_starts(counts: tuple[int, ...], levels: tuple[float, ...]) -> list[list[list[float]]]:
    starts: list[list[list[float]]] = []
    for level in levels:
        starts.append([[level] * n for n in counts])
    starts.append([[max(0.9 - 0.2 * i, 0.1) for i in range(n)] for n in counts])
    return starts


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
        start_sets = _default_starts(counts, cfg.start_levels)

    bound = cfg.logit_bound
    lower = np.concatenate([np.full(layout.n_globals, -20.0), np.full(sum(counts), -bound)])
    upper = np.concatenate([np.full(layout.n_globals, 15.0), np.full(sum(counts), bound)])

    eval_costs: list[float] = []

    def objective(x: np.ndarray) -> np.ndarray:
        r = model_residuals(x, datasets, cfg, layout)
        eval_costs.append(0.5 * float(r @ r))
        return r

    best = None
    start_costs: list[float] = []
    total_evals = 0
    for start_index, transmissions in enumerate(start_sets):
        x0 = layout.pack(base_params, transmissions, logit_bound=bound)
        result = least_squares(
            objective,
            x0,
            method="trf",
            bounds=(lower[: layout.n_params], upper[: layout.n_params]),
            max_nfev=cfg.max_nfev,
            x_scale="jac",
        )
        total_evals += result.nfev
        start_costs.append(float(result.cost))
        if best is None or result.cost < best[1].cost:
            best = (start_index, result)
    assert best is not None
    _, solution = best

    params, channel_sets = layout.unpack(solution.x, cfg)
    rmse_each: list[float] = []
    all_model: list[float] = []
    all_data: list[float] = []
    u = _u_for(params, cfg)
    for dataset, channels in zip(datasets, channel_sets):
        points = dataset.used_points
        v = fourier_v(channels, params.gap, cfg.k_max)
        model = _model_freqs_for_points(u, v, points, cfg)
        data = [p.freq for p in points]
        rmse_each.append(rmse(model, data))
        all_model.extend(model)
        all_data.extend(data)

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
        rmse=rmse(all_model, all_data),
        rmse_per_dataset=tuple(rmse_each),
        residuals=np.asarray(solution.fun),
        cost=float(solution.cost),
        converged=converged,
        message=message,
        n_evaluations=total_evals,
        boundary_active=boundary,
        cost_history=history,
        start_costs=tuple(start_costs),
        covariance=covariance,
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
    factor: float


def select_channel_count(
    dataset: SpectroscopyDataset,
    counts: Sequence[int],
    cfg: FitConfig,
    *,
    initial_params: CircuitParams | None = None,
) -> ChannelSelection:
    """Fit one gate with each candidate channel count and keep the leanest.

    The chosen count is the smallest whose RMSE is within
    ``cfg.rmse_factor`` of the best count's RMSE (a parsimony rule:
    additional channels must buy real fit quality).
    """
    fits: dict[int, FitResult] = {}
    errors: dict[int, str] = {}
    for count in counts:
        try:
            fits[count] = fit_global([dataset], [count], cfg, initial_params=initial_params)
        except (SolverError, ValueError) as exc:
            errors[count] = str(exc)
    if not fits:
        detail = "; ".join(f"{count} channels: {msg}" for count, msg in errors.items())
        raise RuntimeError(f"all channel-count fits failed ({detail})")
    rmse_by_count = {count: fit.rmse for count, fit in fits.items()}
    best = min(rmse_by_count.values())
    chosen = min(count for count, value in rmse_by_count.items() if value <= cfg.rmse_factor * best)
    return ChannelSelection(
        chosen=chosen, rmse_by_count=rmse_by_count, fits_by_count=fits, factor=cfg.rmse_factor
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
    factor: float = 1.5,
) -> list[HarmonicAgreementRow]:
    """Compare nanowire harmonics across channel-count models, RMSE gated.

    For each gate, the low-order ``v_k`` of every count model are
    compared against the reference-count model. Gates where the RMSE
    values are not mutually within ``factor`` of that gate's best are
    marked excluded, so harmonics are only compared between fits of
    similar quality.
    """
    rows: list[HarmonicAgreementRow] = []
    for gate in sorted(fits):
        by_count = fits[gate]
        if reference_count not in by_count:
            raise ValueError(f"gate {gate} lacks the reference count {reference_count}")
        best = min(fit.rmse for fit in by_count.values())
        included = all(fit.rmse <= factor * best for fit in by_count.values())
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


def write_dataset_csv(datasets: Sequence[SpectroscopyDataset], path: str) -> None:
    """CSV with columns gate_v, flux_phi0, label, freq_ghz, sigma_ghz, used."""
    lines = ["gate_v,flux_phi0,label,freq_ghz,sigma_ghz,used"]
    for dataset in datasets:
        for p in dataset.points:
            flux_phi0 = p.flux / (2.0 * math.pi)
            lines.append(
                f"{dataset.gate:.12g},{flux_phi0:.12g},{p.label},"
                f"{p.freq:.12g},{p.sigma:.12g},{1 if p.used else 0}"
            )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_dataset_csv(path: str) -> list[SpectroscopyDataset]:
    """Parse a dataset CSV, grouping points by gate in order of appearance."""
    grouped: dict[float, list[TransitionPoint]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        expected = "gate_v,flux_phi0,label,freq_ghz,sigma_ghz,used"
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
    p = result.params
    lines = [
        "[globals]",
        f"ej1 = {p.ej1:.12g}",
        f"ej2 = {p.ej2:.12g}",
        f"ecj = {p.ecj:.12g}",
        f"ec = {p.ec:.12g}",
        f"gap = {p.gap:.12g}",
        "",
        "[fit]",
        f"rmse_ghz = {result.rmse:.12g}",
        f"converged = {'true' if result.converged else 'false'}",
        f"n_evaluations = {result.n_evaluations}",
        f"message = {result.message}",
        "",
    ]
    for gate, channels, gate_rmse, boundary in zip(
        gates, result.channels, result.rmse_per_dataset, result.boundary_active
    ):
        lines.append(f"[gate:{gate:.12g}]")
        lines.append("transmissions = " + ", ".join(f"{t:.12g}" for t in channels))
        lines.append(f"rmse_ghz = {gate_rmse:.12g}")
        lines.append(f"boundary_active = {'true' if any(boundary) else 'false'}")
        if chosen_counts is not None and gate in chosen_counts:
            lines.append(f"channel_count = {chosen_counts[gate]}")
        lines.append("")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
