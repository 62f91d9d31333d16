"""Transition extraction and the global transmission fit.

The pipeline mirrors how two-tone flux maps are analyzed: Lorentzian
fits pull (frequency, uncertainty) points out of individual traces,
labeled points from one or more gate settings are fitted jointly to the
circuit model with the junction-related constants shared across gates
and only the per-gate channel transmissions free, and the channel count
is chosen as the smallest model whose RMSE is comparable to the best.

Transmissions are optimized through a logit transform (and the shared
energies through a log transform), so every iterate respects the
physical boxes. The Jacobian is analytic: the Hellmann-Feynman theorem
gives it from the eigenvectors the residual evaluation already solved
for. Both the line fits and the model fit run through one bounded
Levenberg-Marquardt solver, :func:`least_squares`, so no fit loads
``scipy.optimize``. Everything here is deterministic for a given
configuration and start.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .config import MAX_ENERGY_GHZ, MAX_FLUX_PHI0
from .potentials import K_MAX, CircuitParams, NanowireChannels, fourier_u
from .potentials import _junction_terms, _nanowire_v, _power_amplitudes
from .spectrum import CUTOFF_HEADROOM, ChargeBasisConfig, FluxGrid, SolverError, levels_read
from .spectrum import _average_clusters, _flux_layout, _FluxLayout, _solve_flux_layout, _transition
from .spectrum import parse_transition_label
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
    "lorentzian_fit",
    "hints_from_table",
    "extract_transitions",
    "model_residuals",
    "dataset_model_frequencies",
    "fit_global",
    "rmse",
    "select_channel_count",
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

#: start transmission of each channel a warm start adds to the count below
WARM_T = 0.05


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
    f0_sigma: float


def _lorentz_model(f: np.ndarray, f0: float, fwhm: float, amplitude: float, offset: float) -> np.ndarray:
    return lorentzian(f, f0, fwhm, amplitude) + offset


def _lorentz_jacobian(f: np.ndarray, f0: float, fwhm: float, amplitude: float, offset: float) -> np.ndarray:
    """Columns d/d(f0, fwhm, amplitude, offset) of :func:`_lorentz_model`."""
    half = fwhm / 2.0
    detuning = f - f0
    q = 1.0 / (detuning**2 + half**2)
    shape = half**2 * q
    return np.column_stack([
        2.0 * amplitude * shape * detuning * q,
        amplitude * half * detuning**2 * q**2,
        shape,
        np.ones_like(f),
    ])


def lorentzian_fit(trace: Trace, window: tuple[float, float]) -> LorentzianFit:
    """Least-squares Lorentzian-plus-offset fit inside a frequency window.

    The start is the window's highest sample over its median, with the
    width of the samples above half that height. :func:`least_squares`
    fits with the analytic Jacobian, at most 5000 evaluations and
    tolerances of 1e-12. Standard errors come from the residual-scaled
    covariance ``inv(J^T J) * 2 cost / (m - 4)``; a singular ``J^T J``
    leaves them undefined. Raises :class:`FitRejection` when the fit does
    not converge, the covariance is undefined and the fit is not exact,
    the center lands outside the window, or the amplitude is consistent
    with zero.
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
    guess = np.array([float(f[peak]), width0, amp0, offset0])

    try:
        solution = least_squares(
            lambda p: (_lorentz_model(f, *p) - y, None),
            guess,
            jac=lambda p, _: _lorentz_jacobian(f, *p),
            max_nfev=5000,
            ftol=1e-12,
            xtol=1e-12,
            gtol=1e-12,
        )
    except ValueError as exc:
        raise FitRejection(f"no convergence: {exc}") from exc
    if solution.status == 0:
        raise FitRejection(f"no convergence: {solution.message}")
    f0, fwhm, amplitude, _ = (float(v) for v in solution.x)
    fwhm = abs(fwhm)
    try:
        pcov = np.linalg.inv(solution.jac.T @ solution.jac) * (2.0 * solution.cost / (len(f) - 4))
    except np.linalg.LinAlgError:
        pcov = np.full((4, 4), np.inf)
    sigmas = np.sqrt(np.abs(np.diag(pcov)))
    if not np.all(np.isfinite(sigmas)):
        # an exact (zero-residual) fit leaves the covariance undefined;
        # anything else non-finite is a genuinely ill-conditioned fit
        scale = float(np.sum((y - np.mean(y)) ** 2)) + 1e-30
        if 2.0 * solution.cost <= 1e-18 * scale:
            sigmas = np.zeros(4)
        else:
            raise FitRejection("ill-conditioned fit (singular covariance)")
    if not lo <= f0 <= hi:
        raise FitRejection(f"center {f0:g} outside window ({lo:g}, {hi:g})")
    if not amplitude > 3.0 * float(sigmas[2]):
        raise FitRejection("amplitude consistent with zero")
    return LorentzianFit(f0=f0, fwhm=fwhm, amplitude=amplitude, f0_sigma=float(sigmas[0]))


# ---------------------------------------------------------------------------
# extraction


@dataclass(frozen=True)
class TransitionHint:
    """Coarse guide for one transition: a center per trace plus a window halfwidth."""

    centers: np.ndarray
    halfwidth: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "centers", np.asarray(self.centers, dtype=float))
        if self.centers.ndim != 1:
            raise ValueError(f"centers must be a 1-d array, got {self.centers.ndim}-d")
        if not self.halfwidth > 0.0:
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
    at :data:`SIGMA_FLOOR`. Every hint needs one center per trace.
    """
    for lab, hint in hints.items():
        if len(hint.centers) != len(traces):
            raise ValueError(f"hint {lab} has {len(hint.centers)} centers for {len(traces)} traces")
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
    pinned to ``fixed_params``, whose ``ec`` must be ``ec``. The junction
    arm carries its internal-mode correction (``ecj -> 0`` is the bare
    junction). Each error message starts with the field it rejects.
    """

    ec: float
    k_max: int = K_MAX
    n_cut: int = 25
    n_g: float = 0.0
    globals_mode: str = "free"
    fixed_params: CircuitParams | None = None
    sigma_floor: float = SIGMA_FLOOR
    max_nfev: int | None = None
    rmse_factor: float = RMSE_FACTOR

    def __post_init__(self) -> None:
        if not (math.isfinite(self.ec) and self.ec > 0.0):
            raise ValueError(f"ec must be finite and > 0, got {self.ec!r}")
        if not math.isfinite(self.n_g):
            raise ValueError(f"n_g must be finite, got {self.n_g!r}")
        if self.globals_mode not in ("free", "fixed"):
            raise ValueError(f"globals_mode must be 'free' or 'fixed', got {self.globals_mode!r}")
        if self.globals_mode == "fixed" and self.fixed_params is None:
            raise ValueError("globals_mode='fixed' requires fixed_params")
        if self.fixed_params is not None and self.fixed_params.ec != self.ec:
            raise ValueError(
                f"fixed_params.ec={self.fixed_params.ec!r} differs from ec={self.ec!r}, "
                "the charging energy the fit solves with"
            )
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max!r}")
        if self.n_cut < self.k_max + CUTOFF_HEADROOM:
            raise ValueError(f"n_cut={self.n_cut} too small for k_max={self.k_max}")
        if not self.sigma_floor >= 0.0:
            raise ValueError(f"sigma_floor must be >= 0, got {self.sigma_floor!r}")
        # below 1 even the best count fails the selection rule
        if not self.rmse_factor >= 1.0:
            raise ValueError(f"rmse_factor must be >= 1, got {self.rmse_factor!r}")
        if self.max_nfev is not None and self.max_nfev < 1:
            raise ValueError(f"max_nfev must be >= 1, got {self.max_nfev!r} (unset: 100 per fitted parameter)")


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
        from scipy.special import expit, logit

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
        from scipy.special import expit

        channels = tuple(
            NanowireChannels(tuple(float(t) for t in expit(x[self.t_slice(d)])))
            for d in range(len(self.channel_counts))
        )
        return params, channels


@dataclass(eq=False)
class _Plan:
    """What every evaluation of one fit reads of one dataset's ``points``, made once per fit.

    ``flux_layout`` is the :func:`~hpqkit.spectrum._flux_layout` of the
    distinct fluxes, in first-seen order, in the basis of the levels the
    points read. ``rows`` maps each point to its flux's row, ``levels``
    holds each point's ``(i, j, divisor)`` as three rows, ``sigmas`` are
    floored at ``cfg.sigma_floor`` and ``phase`` is the Jacobian's
    ``exp(i k phi)`` at each flux. With fixed globals the first solve
    keeps its junction arm in ``u``. An evaluation then makes only what
    its parameters change: the arms, their interference and the solve.
    """

    gate: float
    flux_layout: _FluxLayout
    rows: np.ndarray
    levels: np.ndarray
    data: np.ndarray
    sigmas: np.ndarray
    phase: np.ndarray
    u: np.ndarray | None = None


def _plan(gate: float, points: Sequence[TransitionPoint], cfg: FitConfig) -> _Plan:
    if not points:
        raise ValueError(f"dataset gate={gate} has no fittable points")
    rows: dict[float, int] = {}
    point_rows = np.array([rows.setdefault(p.flux, len(rows)) for p in points])
    levels = np.array([p.levels for p in points]).T
    flux = np.array(list(rows), dtype=float)
    # every point has a label, so the fallback level count (1) is never taken
    basis = ChargeBasisConfig(n_cut=cfg.n_cut, n_g=cfg.n_g, n_levels=levels_read(1, [p.label for p in points]))
    phase = np.exp(1j * np.outer(flux, np.arange(1, cfg.k_max + 1)))[:, np.newaxis, :]
    data, sigmas = np.array([(p.freq, max(p.sigma, cfg.sigma_floor)) for p in points]).T
    flux_layout = _flux_layout(flux, cfg.ec, basis, cfg.k_max)
    return _Plan(gate, flux_layout, point_rows, levels, data, sigmas, phase)


@dataclass(frozen=True)
class _GridSolution:
    """One dataset's points on their solved flux grid, at the parameters ``params`` of its evaluation.

    ``amplitudes[channel]`` holds ``A(T, 1/2)`` and ``A(T, -1/2)``: the
    first gives the nanowire arm, and the Jacobian reads both.
    """

    grid: FluxGrid
    plan: _Plan
    amplitudes: np.ndarray
    params: CircuitParams

    def model(self) -> np.ndarray:
        """Model frequency of each point."""
        return _transition(self.grid.energies, *self.plan.levels, rows=self.plan.rows)


def _solve_points(
    params: CircuitParams, channels: NanowireChannels, plan: _Plan, cfg: FitConfig
) -> _GridSolution:
    """Solve each distinct flux of the plan once: the fit's only route to eigenpairs."""
    u = plan.u if plan.u is not None else fourier_u(params, cfg.k_max)
    if cfg.globals_mode == "fixed":
        plan.u = u
    amplitudes = _power_amplitudes(np.array(channels.transmissions)[:, None], (0.5, -0.5), cfg.k_max)
    v = _nanowire_v(amplitudes[:, 0], params.gap)
    return _GridSolution(_solve_flux_layout(plan.flux_layout, u, v), plan, amplitudes, params)


def dataset_model_frequencies(
    params: CircuitParams,
    channels: NanowireChannels,
    points: Sequence[TransitionPoint],
    cfg: FitConfig,
) -> np.ndarray:
    """Model frequencies for arbitrary labeled points (used points or not)."""
    return _solve_points(params, channels, _plan(math.nan, points, cfg), cfg).model()


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
    new solve. A model fit passes the plans it made of its datasets in
    their place.
    """
    params, channel_sets = layout.unpack(theta, cfg)
    chunks: list[np.ndarray] = []
    for dataset, channels in zip(datasets, channel_sets):
        plan = dataset if isinstance(dataset, _Plan) else _plan(dataset.gate, dataset.used_points, cfg)
        try:
            grid = _solve_points(params, channels, plan, cfg)
        except SolverError as exc:
            raise SolverError(f"dataset gate={plan.gate}: {exc}") from exc
        if grids is not None:
            grids.append(grid)
        chunks.append((grid.model() - plan.data) / plan.sigmas)
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
# sqrt(ej ecj), and dv/dlog(gap) = v. Inside a degenerate cluster the
# solve's basis is arbitrary, so each level of the cluster takes the
# cluster's mean, the trace of dH/dtheta over it (spectrum._average_clusters);
# the grid solves parity doublets whole, so no cluster read is cut short.


def _v_derivatives(
    theta: np.ndarray, gap: float, amplitudes: np.ndarray, layout: ThetaLayout, d: int
) -> np.ndarray:
    """d v_k / d theta for k = 1..k_max of dataset ``d``'s nanowire arm, from its solve's amplitudes."""
    from scipy.special import expit

    logits = theta[layout.t_slice(d)]
    # the solve's rows follow NanowireChannels' descending order; tied
    # transmissions have equal rows, so each logit's rank finds its row
    amplitudes = amplitudes[np.argsort(np.argsort(-logits))][..., 1:]
    dv = np.zeros((amplitudes.shape[-1], layout.n_params))
    dv[:, layout.t_slice(d)] = (
        -0.5 * gap * expit(-logits)[:, None] * (amplitudes[:, 0] - amplitudes[:, 1])
    ).T
    if layout.globals_free:
        dv[:, 2] = -gap * amplitudes[:, 0].sum(axis=0)
    return dv


def _level_derivatives(grid: FluxGrid, phase: np.ndarray, du: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """Hellmann-Feynman dE/d theta of every solved level, shape ``(fluxes, levels, params)``.

    Each degenerate cluster's levels take the cluster's mean.
    """
    vectors = grid.vectors
    conj = vectors.conj()
    g = np.stack([np.einsum("rml,rml->rl", conj[:, :-k], vectors[:, k:]) for k in range(1, len(du) + 1)], -1)
    return _average_clusters(g.real @ du + (phase * g).real @ dv, grid.close)


def _model_jacobian(
    theta: np.ndarray, cfg: FitConfig, layout: ThetaLayout, solutions: Sequence[_GridSolution]
) -> np.ndarray:
    """Jacobian of :func:`model_residuals` at ``theta`` from the grids and parameters of its evaluation there."""
    params = solutions[0].params
    # d u_k / d theta for k = 1..k_max; nonzero only in the free-globals columns
    du = np.zeros((cfg.k_max, layout.n_params))
    if layout.globals_free:
        junction, correction = (term[1:] for term in _junction_terms(params, cfg.k_max))
        du[:, 0] = junction + correction / 2.0
        du[:, 1] = correction / 2.0
    blocks: list[np.ndarray] = []
    for d, solution in enumerate(solutions):
        plan = solution.plan
        dv = _v_derivatives(theta, params.gap, solution.amplitudes, layout, d)
        d_energy = _level_derivatives(solution.grid, plan.phase, du, dv)
        i, j, divisor = plan.levels
        blocks.append(_transition(d_energy, i, j, (divisor * plan.sigmas)[:, None], plan.rows))
    return np.vstack(blocks)


@dataclass(frozen=True)
class FitResult:
    """Converged (or best-so-far) global fit.

    ``rmse`` follows the unweighted definition
    ``sqrt(mean((f_model - f_data)^2))`` over all used points; the
    residual vector kept here is the sigma-weighted one the optimizer
    actually minimized. ``converged`` is :func:`least_squares`' status
    above 0 for the kept start and ``message`` its termination reason,
    prefixed when the budget ran out. ``n_evaluations`` sums the residual
    evaluations (one grid solve each) and ``n_jacobian_evaluations`` the
    Jacobian evaluations of every start. No parameter uncertainty is
    estimated.
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
    start_costs: tuple[float, ...]
    n_jacobian_evaluations: int = 0


def rmse(model_freqs: Sequence[float], data_freqs: Sequence[float]) -> float:
    """Unweighted root-mean-square error between model and data (GHz)."""
    model = np.asarray(model_freqs, dtype=float)
    data = np.asarray(data_freqs, dtype=float)
    if model.shape != data.shape or model.ndim != 1:
        raise ValueError("model and data must be 1-d arrays of equal length")
    if len(model) == 0:
        raise ValueError("need at least one point")
    return float(np.sqrt(np.mean((model - data) ** 2)))


#: damping of the first step, relative to each column's squared norm
DAMPING_START = 1e-3

#: factor of the damping at a first refused step; it doubles at each further refusal
DAMPING_GROWTH = 10.0

#: why :func:`least_squares` stopped, by status (the wording of scipy's trf)
TERMINATION = {
    0: "The maximum number of function evaluations is exceeded.",
    1: "`gtol` termination condition is satisfied.",
    2: "`ftol` termination condition is satisfied.",
    3: "`xtol` termination condition is satisfied.",
    4: "Both `ftol` and `xtol` termination conditions are satisfied.",
}


@dataclass(frozen=True)
class LeastSquaresResult:
    """Where :func:`least_squares` stopped: ``cost`` is ``|f|^2 / 2``; ``jac`` and ``evaluation`` are at ``x``."""

    x: np.ndarray
    cost: float
    fun: np.ndarray
    jac: np.ndarray
    status: int
    nfev: int
    njev: int
    evaluation: object

    @property
    def message(self) -> str:
        return TERMINATION[self.status]


def least_squares(
    fun,
    x0: np.ndarray,
    jac,
    bounds: tuple = (-np.inf, np.inf),
    max_nfev: int | None = None,
    ftol: float = 1e-8,
    xtol: float = 1e-8,
    gtol: float = 1e-8,
) -> LeastSquaresResult:
    """Minimize ``|f|^2 / 2`` in a box by damped Gauss-Newton (Levenberg-Marquardt) steps.

    ``fun(x)`` returns ``(f, evaluation)``: the residuals and whatever else
    it made at ``x``, which ``jac(x, evaluation)`` gets back at that ``x``.
    Each step solves ``(Js^T Js + lam I) p = -Js^T f`` in variables scaled
    by the columns' running maximum norm ``D`` (trf's ``x_scale="jac"``),
    ``Js = J / D`` and ``dx = p / D``, and clips ``x + dx`` to the box. A
    variable on a bound that the gradient pushes it past keeps its value,
    and the step is solved in the others. A step that lowers the cost is
    accepted and ``lam`` shrinks by Nielsen's rule
    ``max(1/3, 1 - (2 rho - 1)^3)``, ``rho`` being the actual over the
    predicted reduction; a step that does not, or whose residuals are not
    finite, is refused with its evaluation and ``lam`` grows by
    :data:`DAMPING_GROWTH`, then twice that, and so on. ``jac`` is called
    only at accepted points. Termination follows trf: ``gtol`` bounds each
    gradient entry times its distance to the bound it points at (status 1),
    ``ftol`` the relative reduction of a step with ``rho > 0.25`` (2),
    ``xtol`` the step against ``|x|`` (3, or 4 with ``ftol``); when
    ``max_nfev`` evaluations (default ``100 * x.size``) are spent the
    status is 0.
    """
    lower, upper = (np.broadcast_to(np.asarray(bound, dtype=float), np.shape(x0)) for bound in bounds)
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    budget = 100 * x.size if max_nfev is None else max_nfev
    f, evaluation = fun(x)
    if not np.all(np.isfinite(f)):
        raise ValueError("residuals are not finite at the initial point")
    J = jac(x, evaluation)
    nfev = njev = 1
    cost = 0.5 * float(f @ f)
    scale = np.linalg.norm(J, axis=0)
    scale[scale == 0.0] = 1.0
    damping, growth = DAMPING_START, DAMPING_GROWTH
    status = None
    while True:
        g = J.T @ f
        pull = np.where(g < 0.0, upper, lower)
        if np.max(np.abs(g * np.where(np.isfinite(pull), x - pull, 1.0)), initial=0.0) < gtol:
            status = 1
        if status is not None or nfev >= budget:
            break
        # a variable on a bound that its gradient pushes against sits the step out
        free = ~(((x <= lower) & (g > 0.0)) | ((x >= upper) & (g < 0.0)))
        Js = J[:, free] / scale[free]
        normal, slope = Js.T @ Js, Js.T @ f
        reduction = -1.0
        while reduction <= 0.0 and nfev < budget:
            p = np.zeros_like(x)
            p[free] = np.linalg.solve(normal + damping * np.eye(len(slope)), -slope) / scale[free]
            x_new = np.clip(x + p, lower, upper)
            step = x_new - x
            f_new, evaluation_new = fun(x_new)
            nfev += 1
            # non-finite residuals refuse the step as a higher cost would
            cost_new = 0.5 * float(f_new @ f_new) if np.all(np.isfinite(f_new)) else math.inf
            reduction = cost - cost_new
            predicted = -float(g @ step) - 0.5 * float(np.sum((J @ step) ** 2))
            ratio = reduction / predicted if predicted > 0.0 else 0.0
            if reduction > 0.0:
                damping, growth = damping * max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3), DAMPING_GROWTH
            else:
                damping, growth = damping * growth, growth * 2.0
            small_f = reduction < ftol * cost and ratio > 0.25
            small_x = float(np.linalg.norm(step)) < xtol * (xtol + float(np.linalg.norm(x)))
            if small_f or small_x:
                status = 4 if small_f and small_x else 2 if small_f else 3
                break
        if reduction > 0.0:
            x, f, cost, evaluation = x_new, f_new, cost_new, evaluation_new
            J = jac(x, evaluation)
            njev += 1
            scale = np.maximum(scale, np.linalg.norm(J, axis=0))
    return LeastSquaresResult(x, cost, f, J, status or 0, nfev, njev, evaluation)


def _default_starts(counts: tuple[int, ...]) -> list[list[list[float]]]:
    starts = [[[level] * n for n in counts] for level in START_LEVELS]
    starts += [[[max(0.9 - 0.2 * i, 0.1) for i in range(n)] for n in counts]]
    # with no transmission to fit, every start is the same point
    return starts if any(counts) else starts[:1]


def _fit_start(
    plans: Sequence[_Plan], layout: ThetaLayout, cfg: FitConfig, initial_params: CircuitParams | None,
    transmissions: Sequence[Sequence[float]],
) -> LeastSquaresResult:
    """One start of a model fit, from ``transmissions`` (and ``initial_params`` when the globals are free)."""
    n_logits = layout.n_params - layout.n_globals
    lower = np.concatenate([np.full(layout.n_globals, -20.0), np.full(n_logits, -LOGIT_BOUND)])
    upper = np.concatenate([np.full(layout.n_globals, 15.0), np.full(n_logits, LOGIT_BOUND)])

    def objective(x: np.ndarray) -> tuple[np.ndarray, list[_GridSolution]]:
        grids: list[_GridSolution] = []
        return model_residuals(x, plans, cfg, layout, grids=grids), grids

    return least_squares(objective, layout.pack(initial_params, transmissions),
                         jac=lambda x, grids: _model_jacobian(x, cfg, layout, grids),
                         bounds=(lower, upper), max_nfev=cfg.max_nfev)


def _fit_result(
    plans: Sequence[_Plan], layout: ThetaLayout, cfg: FitConfig, starts: Sequence[LeastSquaresResult]
) -> FitResult:
    """The result of a model fit from its ``starts`` on ``plans``, listed in run order.

    The first lowest-cost start gives the parameters, and the grids of its evaluation the RMSEs; the evaluation
    counts and start costs cover every start.
    """
    best = min(starts, key=lambda start: start.cost)
    params, channel_sets = layout.unpack(best.x, cfg)
    models = [grid.model() for grid in best.evaluation]
    data = [plan.data for plan in plans]
    converged = best.status > 0
    return FitResult(
        params=params,
        channels=channel_sets,
        rmse=rmse(np.concatenate(models), np.concatenate(data)),
        rmse_per_dataset=tuple(rmse(model, freqs) for model, freqs in zip(models, data)),
        residuals=np.asarray(best.fun),
        cost=best.cost,
        converged=converged,
        message=best.message if converged else f"iteration budget exhausted: {best.message}",
        n_evaluations=sum(start.nfev for start in starts),
        boundary_active=tuple(tuple(t < 1e-3 or t > 1.0 - 1e-3 for t in ch.transmissions) for ch in channel_sets),
        start_costs=tuple(start.cost for start in starts),
        n_jacobian_evaluations=sum(start.njev for start in starts),
    )


def fit_global(
    datasets: Sequence[SpectroscopyDataset],
    channel_counts: Sequence[int],
    cfg: FitConfig,
    *,
    initial_params: CircuitParams | None = None,
    initial_transmissions: Sequence[Sequence[float]] | None = None,
) -> FitResult:
    """Joint least-squares fit of shared device constants and per-gate channels.

    Plans each dataset once, then runs :func:`least_squares` on the plans
    in transformed coordinates, with the analytic Jacobian and
    ``cfg.max_nfev`` evaluations per start; when no transmission start is
    supplied, a fixed documented grid of starts (flat levels plus a
    staircase; one start if no channel is fitted) is tried and the
    lowest-cost solution wins, ties resolved by start order. The RMSEs
    read the grids the best start's evaluation solved at its ``x``; the
    result is flagged non-converged (but still returned) when the
    iteration budget runs out.
    """
    if len(datasets) == 0:
        raise ValueError("need at least one dataset")
    counts = tuple(int(n) for n in channel_counts)
    if len(counts) != len(datasets):
        raise ValueError("one channel count per dataset required")
    if min(counts) < 0:
        raise ValueError(f"channel count {min(counts)} is below 0")
    plans = [_plan(dataset.gate, dataset.used_points, cfg) for dataset in datasets]
    layout = ThetaLayout(globals_free=cfg.globals_mode == "free", channel_counts=counts)
    if layout.globals_free and initial_params is None:
        raise ValueError("free globals require initial_params")
    if initial_transmissions is not None:
        start_sets = [[list(ts) for ts in initial_transmissions]]
    else:
        start_sets = _default_starts(counts)
    starts = [_fit_start(plans, layout, cfg, initial_params, transmissions) for transmissions in start_sets]
    return _fit_result(plans, layout, cfg, starts)


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
    be ``"fixed"``. The gate is planned once, so a dataset with no used
    points raises ``ValueError``. Counts are fitted in ascending order,
    each from one list of starts that :func:`fit_global`'s rule judges.
    The smallest count runs the default starts. Each larger count first
    runs one warm start: the previous fitted count's transmissions plus
    one channel at :data:`WARM_T` for each channel it adds, a point that
    nests the smaller model. The default starts follow it only if the
    warm fit would change the selection, i.e. if its RMSE times
    ``cfg.rmse_factor`` is below every RMSE fitted so far; a tie of costs
    goes to the warm start. A warm start that fails leaves the default
    starts alone. The chosen count is the smallest whose RMSE is within
    ``cfg.rmse_factor`` of the best count's RMSE (a parsimony rule:
    additional channels must buy real fit quality).
    """
    if cfg.globals_mode != "fixed":
        raise ValueError("channel-count selection requires globals_mode='fixed'")
    if not counts or min(counts) < 0:
        raise ValueError(f"channel counts must be one or more counts >= 0, got {list(counts)}")
    plan = _plan(dataset.gate, dataset.used_points, cfg)
    fits: dict[int, FitResult] = {}
    errors: dict[int, str] = {}
    for count in sorted(set(counts)):
        try:
            fits[count] = _fit_count(plan, count, cfg, fits)
        except (SolverError, ValueError) as exc:
            errors[count] = str(exc)
    if not fits:
        detail = "; ".join(f"{count} channels: {msg}" for count, msg in errors.items())
        raise RuntimeError(f"all channel-count fits failed ({detail})")
    rmse_by_count = {count: fit.rmse for count, fit in fits.items()}
    best = min(rmse_by_count.values())
    chosen = min(count for count, value in rmse_by_count.items() if value <= cfg.rmse_factor * best)
    return ChannelSelection(chosen=chosen, rmse_by_count=rmse_by_count, fits_by_count=fits)


def _fit_count(plan: _Plan, count: int, cfg: FitConfig, fits: Mapping[int, FitResult]) -> FitResult:
    """One count of :func:`select_channel_count` on its gate's plan; ``fits`` holds the smaller counts fitted so far."""
    layout = ThetaLayout(globals_free=False, channel_counts=(count,))
    starts: list[LeastSquaresResult] = []
    if fits:
        below = list(fits.values())[-1].channels[0].transmissions
        try:
            starts.append(_fit_start([plan], layout, cfg, None, [[*below, *[WARM_T] * (count - len(below))]]))
        except (SolverError, ValueError):
            pass
        else:
            warm = _fit_result([plan], layout, cfg, starts)
            if not warm.rmse * cfg.rmse_factor < min(fit.rmse for fit in fits.values()):
                return warm
    starts += [_fit_start([plan], layout, cfg, None, transmissions) for transmissions in _default_starts((count,))]
    return _fit_result([plan], layout, cfg, starts)


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
        start_costs=(),
        n_jacobian_evaluations=sum(r.n_jacobian_evaluations for r in results),
    )


# ---------------------------------------------------------------------------
# dataset and result files


_DATASET_COLUMNS = ("gate_v", "flux_phi0", "label", "freq_ghz", "sigma_ghz", "used")


def write_dataset_csv(datasets: Sequence[SpectroscopyDataset], path: str) -> None:
    """CSV with columns gate_v, flux_phi0, label, freq_ghz, sigma_ghz, used."""
    write_csv(path, _DATASET_COLUMNS, (
        (
            [dataset.gate] * len(dataset.points),
            [p.flux / (2.0 * math.pi) for p in dataset.points],
            [p.label for p in dataset.points],
            [p.freq for p in dataset.points],
            [p.sigma for p in dataset.points],
            [1 if p.used else 0 for p in dataset.points],
        )
        for dataset in datasets
    ))


def _finite_cell(column: str, text: str) -> float:
    """The number in a dataset cell, or a ``ValueError`` naming its ``column``."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{column} must be finite, got {value!r}")
    return value


def read_dataset_csv(path: str) -> list[SpectroscopyDataset]:
    """Parse a dataset CSV, grouping points by gate in order of appearance.

    Frequencies and uncertainties must lie in (0, ``MAX_ENERGY_GHZ``] GHz,
    ``|flux_phi0|`` must not exceed ``MAX_FLUX_PHI0`` and ``used`` must be 0
    or 1; a bad row raises :class:`DatasetFormatError` naming its path and line.
    """
    grouped: dict[float, list[TransitionPoint]] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    header = lines[0].strip()
    expected = ",".join(_DATASET_COLUMNS)
    if header != expected:
        raise DatasetFormatError(f"{path}:1: header must be '{expected}', got '{header}'")
    for line_no, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != 6:
            raise DatasetFormatError(f"{path}:{line_no}: expected 6 fields, got {len(cells)}")
        try:
            gate, flux_phi0, freq, sigma = (
                _finite_cell(_DATASET_COLUMNS[idx], cells[idx]) for idx in (0, 1, 3, 4)
            )
            if abs(flux_phi0) > MAX_FLUX_PHI0:
                raise ValueError(
                    f"flux_phi0 must be in [-{MAX_FLUX_PHI0:g}, {MAX_FLUX_PHI0:g}], got {flux_phi0!r}"
                )
            for column, value in (("freq_ghz", freq), ("sigma_ghz", sigma)):
                if not 0.0 < value <= MAX_ENERGY_GHZ:
                    raise ValueError(
                        f"{column} must be in (0, {MAX_ENERGY_GHZ:g}] GHz, got {value!r}"
                    )
            used = int(cells[5])
            if used not in (0, 1):
                raise ValueError(f"used must be 0 or 1, got {cells[5]!r}")
            point = TransitionPoint(
                flux=2.0 * math.pi * flux_phi0, label=cells[2], freq=freq, sigma=sigma, used=bool(used)
            )
        except ValueError as exc:
            raise DatasetFormatError(f"{path}:{line_no}: {exc}") from exc
        grouped.setdefault(gate, []).append(point)
    return [SpectroscopyDataset(gate=gate, points=tuple(pts)) for gate, pts in grouped.items()]


def write_fit_result(
    result: FitResult,
    gates: Sequence[float],
    path: str,
) -> None:
    """Persist a fit as a key-value document: globals, per-gate channels and their count, diagnostics."""
    sections: dict[str, dict[str, object]] = {
        "globals": asdict(result.params),
        "fit": {"rmse_ghz": result.rmse, "converged": bool(result.converged),
                "n_evaluations": result.n_evaluations, "message": result.message},
    }
    for gate, channels, gate_rmse, boundary in zip(
        gates, result.channels, result.rmse_per_dataset, result.boundary_active
    ):
        section = {"transmissions": channels, "rmse_ghz": gate_rmse, "boundary_active": any(boundary),
                   "channel_count": len(channels)}
        name = f"gate:{fmt(gate)}"
        if name in sections:
            raise ValueError(f"gate tag {fmt(gate)} appears more than once")
        sections[name] = section
    write_ini(path, sections)
