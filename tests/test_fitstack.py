import ast
import collections
import dataclasses
import logging
import math
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize._numdiff import approx_derivative
from scipy.special import expit

import hpqkit.fitstack as fitstack
from conftest import clusters, per_evaluation_jacobian, per_evaluation_residuals
from hpqkit import (
    CircuitParams,
    FitConfig,
    FitRejection,
    NanowireChannels,
    SolverError,
    SpectroscopyDataset,
    ThetaLayout,
    TransitionHint,
    TransitionPoint,
    extract_transitions,
    fit_global,
    fourier_v,
    lorentzian_fit,
    model_residuals,
    read_dataset_csv,
    rmse,
    select_channel_count,
    synthesize_trace,
    write_dataset_csv,
    write_fit_result,
)
from hpqkit.fitstack import DatasetFormatError, FitResult, dataset_model_frequencies

TRUE_PARAMS = CircuitParams(ej1=55.03, ej2=55.03, ecj=0.675, ec=0.28, gap=40.06)
SMALL_CFG_FREE = FitConfig(ec=0.28, k_max=6, n_cut=11, globals_mode="free")
SMALL_CFG_FIXED = FitConfig(
    ec=0.28, k_max=6, n_cut=11, globals_mode="fixed", fixed_params=TRUE_PARAMS
)
FLUX_GRID = 2.0 * math.pi * np.linspace(0.0, 0.5, 13)


def make_dataset(
    params: CircuitParams,
    transmissions: tuple[float, ...],
    gate: float,
    cfg: FitConfig,
    labels: tuple[str, ...] = ("f01", "f12"),
    sigma: float = 1e-4,
    noise_rng: np.random.Generator | None = None,
    flux_values: np.ndarray = FLUX_GRID,
) -> SpectroscopyDataset:
    """Synthesize labeled points directly from the model."""
    skeleton = [
        TransitionPoint(flux=float(phi), label=lab, freq=1.0, sigma=sigma)
        for phi in flux_values
        for lab in labels
    ]
    freqs = dataset_model_frequencies(params, NanowireChannels(transmissions), skeleton, cfg)
    if noise_rng is not None:
        freqs = freqs + noise_rng.normal(0.0, sigma, size=len(freqs))
    points = tuple(
        TransitionPoint(flux=p.flux, label=p.label, freq=float(f), sigma=sigma)
        for p, f in zip(skeleton, freqs)
    )
    return SpectroscopyDataset(gate=gate, points=points)


def fake_fit(transmissions: tuple[float, ...], fit_rmse: float) -> FitResult:
    """A one-gate FitResult at ``TRUE_PARAMS`` that no optimizer produced."""
    return FitResult(
        params=TRUE_PARAMS,
        channels=(NanowireChannels(transmissions),),
        rmse=fit_rmse,
        rmse_per_dataset=(fit_rmse,),
        residuals=np.zeros(1),
        cost=0.0,
        converged=True,
        message="ok",
        n_evaluations=1,
        boundary_active=((False,) * len(transmissions),),
        start_costs=(0.0,),
    )


# ---------------------------------------------------------------------------
# Lorentzian fitting


class TestLorentzianFit:
    def test_noiseless_recovery(self):
        grid = np.linspace(4.9, 5.1, 801)
        trace = synthesize_trace([(5.0, 0.7, 0.01)], grid)
        fit = lorentzian_fit(trace, (4.95, 5.05))
        assert fit.f0 == pytest.approx(5.0, rel=1e-9)
        assert fit.fwhm == pytest.approx(0.01, rel=1e-9)
        assert fit.amplitude == pytest.approx(0.7, rel=1e-9)

    def test_flat_trace_rejected(self):
        grid = np.linspace(4.0, 6.0, 200)
        trace = synthesize_trace([], grid)
        with pytest.raises(FitRejection):
            lorentzian_fit(trace, (4.5, 5.5))

    def test_center_outside_window_rejected(self):
        grid = np.linspace(4.0, 6.0, 801)
        trace = synthesize_trace([(4.3, 1.0, 0.05)], grid)
        with pytest.raises(FitRejection, match="outside window|amplitude|convergence"):
            lorentzian_fit(trace, (5.0, 6.0))

    def test_small_window_rejected(self):
        grid = np.linspace(4.0, 6.0, 21)
        trace = synthesize_trace([(5.0, 1.0, 0.3)], grid)
        with pytest.raises(ValueError):
            lorentzian_fit(trace, (5.0, 5.1))

    @pytest.mark.parametrize(
        "failure, reason",
        [("budget", "The maximum number of function evaluations is exceeded."),
         ("non-finite", "residuals are not finite at the initial point")],
    )
    def test_solver_failure_rejected_as_no_convergence(self, monkeypatch, failure, reason):
        trace = synthesize_trace([(5.0, 0.7, 0.01)], np.linspace(4.9, 5.1, 801))
        original = fitstack.least_squares

        def failing(fun, x0, **options):
            if failure == "budget":
                return original(fun, x0, **{**options, "max_nfev": 1})
            return original(lambda p: (fun(p)[0] * math.nan, None), x0, **options)

        monkeypatch.setattr(fitstack, "least_squares", failing)
        with pytest.raises(FitRejection, match=f"^no convergence: {re.escape(reason)}$"):
            lorentzian_fit(trace, (4.95, 5.05))

    def test_singular_covariance_of_an_inexact_fit_rejected(self, monkeypatch):
        trace = synthesize_trace([(5.0, 0.7, 0.01)], np.linspace(4.9, 5.1, 801), noise_sigma=0.05, seed=1)
        original = fitstack.least_squares

        def offset_column_zeroed(*args, **kwargs):
            result = original(*args, **kwargs)
            jac = result.jac.copy()
            jac[:, 3] = 0.0
            return dataclasses.replace(result, jac=jac)

        monkeypatch.setattr(fitstack, "least_squares", offset_column_zeroed)
        with pytest.raises(FitRejection, match=r"^ill-conditioned fit \(singular covariance\)$"):
            lorentzian_fit(trace, (4.95, 5.05))

    def test_monte_carlo_center_accuracy(self):
        # noise at 10% of the amplitude: center within FWHM/5 in >= 95%
        grid = np.linspace(4.7, 5.3, 601)
        fwhm = 0.05
        hits = 0
        n_seeds = 200
        for seed in range(n_seeds):
            trace = synthesize_trace(
                [(5.0, 1.0, fwhm)], grid, noise_sigma=0.1, seed=seed
            )
            try:
                fit = lorentzian_fit(trace, (4.8, 5.2))
            except FitRejection:
                continue
            if abs(fit.f0 - 5.0) < fwhm / 5.0:
                hits += 1
        assert hits >= 0.95 * n_seeds

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_curve_fit(self, seed):
        """Oracle: scipy's curve_fit and the covariance it reports."""
        grid = np.arange(4.5, 5.5, 0.005)
        trace = synthesize_trace([(5.013, 0.9, 0.025)], grid, noise_sigma=0.05, seed=seed)
        fit = lorentzian_fit(trace, (4.95, 5.07))
        mask = (grid >= 4.95) & (grid <= 5.07)
        f, y = grid[mask], trace.signal[mask]
        start = (float(f[np.argmax(y)]), 0.02, float(np.max(y) - np.median(y)), float(np.median(y)))
        popt, pcov = scipy.optimize.curve_fit(
            fitstack._lorentz_model, f, y, p0=start, maxfev=5000, xtol=1e-12, ftol=1e-12, gtol=1e-12
        )
        assert fit.f0 == pytest.approx(popt[0], abs=1e-8)
        assert fit.fwhm == pytest.approx(abs(popt[1]), rel=1e-6)
        assert fit.amplitude == pytest.approx(popt[2], rel=1e-6)
        assert fit.f0_sigma == pytest.approx(math.sqrt(pcov[0, 0]), rel=1e-5)

    def test_analytic_jacobian_matches_complex_step(self):
        f = np.linspace(4.9, 5.1, 41)
        p = np.array([5.01, 0.03, 0.8, 0.1])
        numeric = approx_derivative(lambda q: fitstack._lorentz_model(f, *q), p, method="cs")
        assert np.allclose(fitstack._lorentz_jacobian(f, *p), numeric, rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------------------
# the least-squares solver


def rosenbrock(x: np.ndarray) -> np.ndarray:
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])


def rosenbrock_jacobian(x: np.ndarray, evaluation=None) -> np.ndarray:
    return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])


def paired(fun):
    """``fun`` in the solver's convention: its residuals, paired with no evaluation."""
    return lambda x: (fun(x), None)


class TestLeastSquares:
    @pytest.mark.parametrize(
        "bounds, want",
        [((-np.inf, np.inf), (1.0, 1.0)), (([-2.0, -2.0], [0.5, 2.0]), (0.5, 0.25))],
        ids=["interior", "upper-bound-active"],
    )
    def test_matches_trf(self, bounds, want):
        """Oracle: scipy's trf with the column scaling the fit used, at the minimum and at a bound."""
        x0 = np.array([-1.2, 1.0])
        got = fitstack.least_squares(paired(rosenbrock), x0, jac=rosenbrock_jacobian, bounds=bounds)
        trf = scipy.optimize.least_squares(
            rosenbrock, x0, jac=rosenbrock_jacobian, bounds=bounds, method="trf", x_scale="jac"
        )
        assert got.status > 0
        assert got.x == pytest.approx(trf.x, abs=1e-6)
        assert got.x == pytest.approx(want, abs=1e-6)
        assert got.cost == pytest.approx(trf.cost, abs=1e-12)

    def test_matches_trf_on_a_noisy_fit(self, monkeypatch):
        cfg = SMALL_CFG_FIXED
        ds = make_dataset(TRUE_PARAMS, (0.8, 0.4, 0.2), 0.0, cfg, noise_rng=np.random.default_rng(4))
        got = fit_global([ds], [3], cfg, initial_transmissions=[(0.7, 0.5, 0.3)])

        def trf(fun, x0, jac, **options):
            """scipy's trf in the solver's convention: each evaluation kept under its point."""
            evaluations = {}

            def residuals(x):
                r, evaluations[x.tobytes()] = fun(x)
                return r

            result = scipy.optimize.least_squares(
                residuals, x0, jac=lambda x: jac(x, evaluations[x.tobytes()]),
                method="trf", x_scale="jac", **options,
            )
            result.evaluation = evaluations[result.x.tobytes()]
            return result

        monkeypatch.setattr(fitstack, "least_squares", trf)
        want = fit_global([ds], [3], cfg, initial_transmissions=[(0.7, 0.5, 0.3)])
        assert got.converged and want.converged
        assert got.cost <= want.cost * (1.0 + 1e-9)
        assert got.channels[0].transmissions == pytest.approx(want.channels[0].transmissions, abs=1e-6)

    @pytest.mark.parametrize("budget", range(1, 9))
    def test_budget_caps_the_evaluations(self, budget):
        calls = []

        def fun(x):
            calls.append(x.copy())
            return rosenbrock(x), calls[-1]

        result = fitstack.least_squares(fun, np.array([-1.2, 1.0]), jac=rosenbrock_jacobian, max_nfev=budget)
        assert result.nfev == len(calls) <= budget
        assert result.status == 0
        assert result.message == "The maximum number of function evaluations is exceeded."
        assert np.array_equal(rosenbrock(result.x), result.fun)
        # when the last trial is refused, the result still carries the evaluation made at its x
        assert np.array_equal(result.evaluation, result.x)

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_default_budget_is_100_evaluations_per_variable(self, size):
        """``max_nfev=None`` is not unlimited: with no tolerance to stop on, the solver spends ``100 * x.size``."""
        # exp(-x) falls at every step and never reaches its infimum 0, so each step is accepted
        result = fitstack.least_squares(
            paired(lambda x: np.exp(-x)), np.zeros(size), jac=lambda x, _: np.diag(-np.exp(-x)),
            max_nfev=None, ftol=0.0, xtol=0.0, gtol=0.0,
        )
        assert (result.nfev, result.njev, result.status) == (100 * size, 100 * size, 0)

    def test_jacobian_only_at_the_last_evaluated_point(self):
        """Each ``jac`` call gets the evaluation ``fun`` made at its point; the result carries the one at ``x``."""
        evaluated, jacobians = [], []

        def fun(x):
            evaluated.append(x.copy())
            return rosenbrock(x), evaluated[-1]

        def jac(x, evaluation):
            assert evaluation is evaluated[-1]
            assert np.array_equal(evaluation, x)
            jacobians.append(evaluation)
            return rosenbrock_jacobian(x)

        result = fitstack.least_squares(fun, np.array([-1.2, 1.0]), jac=jac)
        assert result.status > 0
        assert result.njev == len(jacobians) < result.nfev == len(evaluated)
        assert result.evaluation is jacobians[-1]
        assert np.array_equal(result.evaluation, result.x)

    def test_iterates_stay_in_the_box(self):
        lower, upper = np.array([-1.5, 0.0]), np.array([0.5, 0.2])
        seen = []

        def fun(x):
            seen.append(x.copy())
            return rosenbrock(x), None

        x0 = np.array([-1.2, 0.1])
        result = fitstack.least_squares(fun, x0, jac=rosenbrock_jacobian, bounds=(lower, upper))
        trf = scipy.optimize.least_squares(rosenbrock, x0, jac=rosenbrock_jacobian, bounds=(lower, upper))
        assert result.status > 0
        assert all(np.all(lower <= x) and np.all(x <= upper) for x in seen)
        assert result.x[1] == 0.2
        assert result.x == pytest.approx(trf.x, abs=1e-6)

    def test_non_finite_residuals_are_refused(self):
        # the residual is NaN beyond x = 2, where the undamped first step lands
        def fun(x):
            return np.array([x[0] - 3.0 if x[0] <= 2.0 else math.nan, 0.1 * x[0]])

        result = fitstack.least_squares(paired(fun), np.array([0.0]), jac=lambda x, _: np.array([[1.0], [0.1]]))
        assert result.status > 0
        assert result.x[0] <= 2.0
        assert np.all(np.isfinite(result.fun))

    def test_non_finite_start_raises(self):
        with pytest.raises(ValueError, match="not finite at the initial point"):
            fitstack.least_squares(paired(lambda x: x * math.nan), np.array([1.0]), jac=lambda x, _: np.eye(1))

    def test_zero_residual_stops_on_the_gradient(self):
        result = fitstack.least_squares(paired(lambda x: x - 2.0), np.array([2.0]), jac=lambda x, _: np.eye(1))
        assert (result.status, result.nfev, result.njev, result.cost) == (1, 1, 1, 0.0)


class TestExtraction:
    def test_noiseless_points_on_model_curve(self):
        grid = np.linspace(3.0, 7.0, 2001)
        centers = np.linspace(4.0, 6.0, 9)
        traces = [
            synthesize_trace([(c, 1.0, 0.03)], grid, phi_e=float(i))
            for i, c in enumerate(centers)
        ]
        hints = {"f01": TransitionHint(centers=centers, halfwidth=0.2)}
        points = extract_transitions(traces, hints)
        assert len(points) == len(centers)
        for point, center in zip(points, centers):
            assert point.label == "f01"
            assert point.freq == pytest.approx(center, abs=1e-6)
            assert point.sigma > 0.0

    def test_crossing_lines_never_swap_labels(self):
        grid = np.linspace(3.0, 8.0, 2501)
        x = np.linspace(0.0, 1.0, 11)
        rising = 4.0 + 2.0 * x
        falling = 6.0 - 2.0 * x
        traces = [
            synthesize_trace(
                [(r, 1.0, 0.04), (f, 0.8, 0.04)], grid, phi_e=float(i)
            )
            for i, (r, f) in enumerate(zip(rising, falling))
        ]
        hints = {
            "f01": TransitionHint(centers=rising, halfwidth=0.2),
            "f12": TransitionHint(centers=falling, halfwidth=0.2),
        }
        points = extract_transitions(traces, hints)
        assert points
        for point in points:
            truth = rising if point.label == "f01" else falling
            assert abs(point.freq - truth[int(point.flux)]) < 1e-3
        # crossing region produced no ambiguous points at all
        crossing = [p for p in points if abs(rising[int(p.flux)] - falling[int(p.flux)]) < 0.4]
        assert not crossing

    def test_rejected_fit_is_logged_and_dropped(self, caplog):
        grid = np.linspace(3.0, 7.0, 1001)
        # the second trace is flat: its window fits an amplitude of exactly zero
        traces = [synthesize_trace([(5.0, 1.0, 0.05)], grid, phi_e=0.0), synthesize_trace([], grid, phi_e=1.0)]
        hints = {"f01": TransitionHint(centers=np.array([5.0, 5.0]), halfwidth=0.2)}
        with caplog.at_level(logging.DEBUG, logger="hpqkit.fitstack"):
            points = extract_transitions(traces, hints)
        assert [(p.flux, p.label) for p in points] == [(0.0, "f01")]
        assert points[0].freq == pytest.approx(5.0, abs=1e-6)
        assert "reject f01 at flux index 1: amplitude consistent with zero" in caplog.messages

    def test_nan_hint_skipped(self):
        grid = np.linspace(3.0, 7.0, 1001)
        traces = [synthesize_trace([(5.0, 1.0, 0.05)], grid, phi_e=0.0)]
        hints = {"f01": TransitionHint(centers=np.array([np.nan]), halfwidth=0.2)}
        assert extract_transitions(traces, hints) == []

    @pytest.mark.parametrize("n_centers", [1, 4], ids=["fewer", "more"])
    def test_one_center_per_trace_required_before_any_fit(self, monkeypatch, n_centers):
        grid = np.linspace(3.0, 7.0, 1001)
        lines = [(5.0, 1.0, 0.05), (6.0, 1.0, 0.05)]
        traces = [synthesize_trace(lines, grid, phi_e=float(i)) for i in range(3)]
        hints = {
            "f01": TransitionHint(centers=np.full(3, 5.0), halfwidth=0.2),
            "f12": TransitionHint(centers=np.full(n_centers, 6.0), halfwidth=0.2),
        }
        monkeypatch.setattr(fitstack, "lorentzian_fit", None)
        with pytest.raises(ValueError, match=f"^hint f12 has {n_centers} centers for 3 traces$"):
            extract_transitions(traces, hints)

    def test_centers_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="^centers must be a 1-d array, got 2-d$"):
            TransitionHint(centers=np.full((3, 1), 5.0), halfwidth=0.2)

    @pytest.mark.parametrize("halfwidth", [0.0, -0.2, math.nan])
    def test_halfwidth_must_be_positive(self, halfwidth):
        # a NaN halfwidth would skip every window without a word
        with pytest.raises(ValueError, match="^halfwidth must be > 0$"):
            TransitionHint(centers=np.array([5.0]), halfwidth=halfwidth)

    def test_window_cut_off_by_grid_edge_skipped(self):
        # a 0.011 GHz line on a grid starting at 0.05 GHz: the fit would
        # land on the line's tail at the grid edge (about 0.054 GHz)
        grid = np.arange(0.05, 1.0, 0.001)
        traces = [synthesize_trace([(0.011, 1.0, 0.025), (0.6, 1.0, 0.025)], grid, phi_e=0.0)]
        hints = {
            "f01": TransitionHint(centers=np.array([0.011]), halfwidth=0.06),
            "f12": TransitionHint(centers=np.array([0.6]), halfwidth=0.06),
        }
        points = extract_transitions(traces, hints)
        assert [p.label for p in points] == ["f12"]
        assert points[0].freq == pytest.approx(0.6, abs=1e-6)


# ---------------------------------------------------------------------------
# residuals and parameter packing


@pytest.mark.parametrize(
    "fields, message",
    [({"freq": math.nan}, "freq must be finite, got nan"), ({"flux": math.inf}, "flux must be finite, got inf"),
     ({"sigma": 0.0}, "sigma must be > 0, got 0.0"), ({"sigma": -1e-3}, "sigma must be > 0, got -0.001")],
)
def test_transition_point_rejects_a_bad_field(fields, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TransitionPoint(**{"flux": 0.0, "label": "f01", "freq": 5.0, "sigma": 1e-3, **fields})


class TestFitConfig:
    @pytest.mark.parametrize(
        "field, value",
        [("rmse_factor", 0.5), ("rmse_factor", math.nan), ("sigma_floor", -1e-9),
         ("sigma_floor", math.nan), ("max_nfev", 0), ("ec", math.nan), ("ec", -1.0),
         ("n_g", math.inf), ("k_max", 0)],
    )
    def test_out_of_range_value_rejected(self, field, value):
        # below rmse_factor 1 select_channel_count finds no count within the factor of the best
        with pytest.raises(ValueError, match=f"^{field} must be"):
            FitConfig(**{"ec": 0.28, "k_max": 6, "n_cut": 11, field: value})

    @pytest.mark.parametrize(
        "fields, message",
        [({"globals_mode": "both"}, "globals_mode must be 'free' or 'fixed', got 'both'"),
         ({"globals_mode": "fixed"}, "globals_mode='fixed' requires fixed_params"),
         ({"n_cut": 7}, "n_cut=7 too small for k_max=6")],
    )
    def test_inconsistent_setting_rejected(self, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FitConfig(**{"ec": 0.28, "k_max": 6, "n_cut": 11, **fields})

    def test_fixed_params_must_carry_the_fit_ec(self):
        with pytest.raises(ValueError, match=r"^fixed_params\.ec=0\.28 differs from ec=0\.35"):
            FitConfig(ec=0.35, k_max=6, n_cut=11, globals_mode="fixed", fixed_params=TRUE_PARAMS)


class TestThetaLayout:
    def test_pack_unpack_round_trip(self):
        layout = ThetaLayout(globals_free=True, channel_counts=(2, 3))
        sets = [(0.7, 0.3), (0.9, 0.5, 0.2)]
        x = layout.pack(TRUE_PARAMS, sets)
        params, channels = layout.unpack(x, SMALL_CFG_FREE)
        assert params.ej1 == pytest.approx(TRUE_PARAMS.ej1, rel=1e-12)
        assert params.ecj == pytest.approx(TRUE_PARAMS.ecj, rel=1e-12)
        assert params.gap == pytest.approx(TRUE_PARAMS.gap, rel=1e-12)
        assert params.ec == SMALL_CFG_FREE.ec
        for got, want in zip(channels, sets):
            assert got.transmissions == pytest.approx(sorted(want, reverse=True), rel=1e-9)

    def test_fixed_globals_layout(self):
        layout = ThetaLayout(globals_free=False, channel_counts=(2,))
        x = layout.pack(None, [(0.6, 0.4)])
        assert len(x) == 2
        params, channels = layout.unpack(x, SMALL_CFG_FIXED)
        assert params is TRUE_PARAMS

    @pytest.mark.parametrize(
        "call, message",
        [(lambda layout: layout.pack(TRUE_PARAMS, [(0.5, 0.5)]), "one transmission list per dataset required"),
         (lambda layout: layout.pack(None, [(0.5, 0.5), (0.5,)]), "free globals need initial CircuitParams"),
         (lambda layout: layout.pack(TRUE_PARAMS, [(0.5, 0.5), (0.5, 0.5)]), "expected 1 transmissions, got 2"),
         (lambda layout: layout.unpack(np.zeros(5), SMALL_CFG_FREE), "theta has length 5, layout needs 6")],
        ids=["datasets", "globals", "transmissions", "theta"],
    )
    def test_length_mismatch_rejected(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(ThetaLayout(globals_free=True, channel_counts=(2, 1)))


class TestModelResiduals:
    def test_zero_at_generating_parameters(self):
        cfg = SMALL_CFG_FREE
        ds = [
            make_dataset(TRUE_PARAMS, (0.8, 0.4), -1.0, cfg, sigma=1e-3),
            make_dataset(TRUE_PARAMS, (0.6, 0.5), 1.0, cfg, sigma=1e-3),
        ]
        layout = ThetaLayout(globals_free=True, channel_counts=(2, 2))
        theta = layout.pack(TRUE_PARAMS, [(0.8, 0.4), (0.6, 0.5)])
        residuals = model_residuals(theta, ds, cfg, layout)
        assert np.max(np.abs(residuals)) < 1e-6

    def test_parameter_locality(self):
        cfg = SMALL_CFG_FIXED
        ds = [
            make_dataset(TRUE_PARAMS, (0.8, 0.4), -1.0, cfg),
            make_dataset(TRUE_PARAMS, (0.6, 0.5), 1.0, cfg),
        ]
        layout = ThetaLayout(globals_free=False, channel_counts=(2, 2))
        base = layout.pack(None, [(0.8, 0.4), (0.6, 0.5)])
        bumped = base.copy()
        bumped[2] += 0.3  # first transmission of the second dataset
        r0 = model_residuals(base, ds, cfg, layout)
        r1 = model_residuals(bumped, ds, cfg, layout)
        n_first = len(ds[0].used_points)
        assert np.array_equal(r0[:n_first], r1[:n_first])
        assert not np.array_equal(r0[n_first:], r1[n_first:])

    def test_jacobian_against_central_differences(self):
        cfg = SMALL_CFG_FREE
        ds = [make_dataset(TRUE_PARAMS, (0.8, 0.4), 0.0, cfg, flux_values=FLUX_GRID[::3])]
        layout = ThetaLayout(globals_free=True, channel_counts=(2,))
        theta = layout.pack(
            CircuitParams(ej1=52.0, ej2=52.0, ecj=0.7, ec=0.28, gap=41.0), [(0.75, 0.45)]
        )
        fun = lambda x: model_residuals(x, ds, cfg, layout)
        forward = approx_derivative(fun, theta, method="2-point")
        central = approx_derivative(fun, theta, method="3-point")
        scale = np.max(np.abs(central))
        mask = np.abs(central) > 1e-6 * scale
        rel = np.abs(forward[mask] - central[mask]) / np.abs(central[mask])
        assert np.max(rel) < 1e-4

    def test_failed_solve_names_its_dataset(self, monkeypatch):
        cfg = SMALL_CFG_FIXED
        ds = [make_dataset(TRUE_PARAMS, (0.8, 0.4), -1.0, cfg), make_dataset(TRUE_PARAMS, (0.6, 0.5), 1.0, cfg)]
        layout = ThetaLayout(globals_free=False, channel_counts=(2, 2))
        original = fitstack._solve_flux_layout
        solves = []

        def second_fails(*args):
            solves.append(1)
            if len(solves) == 2:
                raise SolverError("forced failure")
            return original(*args)

        monkeypatch.setattr(fitstack, "_solve_flux_layout", second_fails)
        with pytest.raises(SolverError, match=r"^dataset gate=1\.0: forced failure$") as failure:
            model_residuals(layout.pack(None, [(0.8, 0.4), (0.6, 0.5)]), ds, cfg, layout)
        assert isinstance(failure.value.__cause__, SolverError)
        assert str(failure.value.__cause__) == "forced failure"

    def test_unused_points_never_enter(self):
        cfg = SMALL_CFG_FIXED
        clean = make_dataset(TRUE_PARAMS, (0.8, 0.4), 0.0, cfg)
        junk = TransitionPoint(flux=0.1, label="f01", freq=99.0, sigma=0.1, used=False)
        padded = SpectroscopyDataset(gate=0.0, points=clean.points + (junk,))
        fit_a = fit_global([clean], [2], cfg, initial_transmissions=[(0.7, 0.5)])
        fit_b = fit_global([padded], [2], cfg, initial_transmissions=[(0.7, 0.5)])
        assert fit_a.params == fit_b.params
        assert fit_a.channels == fit_b.channels
        assert fit_a.rmse == fit_b.rmse
        assert np.array_equal(fit_a.residuals, fit_b.residuals)


class TestAnalyticJacobian:
    """The Hellmann-Feynman Jacobian of the fit against 3-point differences."""

    START = CircuitParams(ej1=52.0, ej2=52.0, ecj=0.7, ec=0.28, gap=41.0)

    @staticmethod
    def jacobians(theta, datasets, cfg, layout, **difference):
        grids = []
        model_residuals(theta, datasets, cfg, layout, grids=grids)
        analytic = fitstack._model_jacobian(theta, cfg, layout, grids)
        central = approx_derivative(
            lambda x: model_residuals(x, datasets, cfg, layout), theta, method="3-point",
            **difference,
        )
        return analytic, central

    @pytest.mark.parametrize("cfg", [SMALL_CFG_FIXED, SMALL_CFG_FREE], ids=["fixed", "free"])
    def test_matches_central_differences(self, cfg):
        ds = [
            make_dataset(TRUE_PARAMS, (0.8, 0.55, 0.3), -1.0, cfg,
                         labels=("f01", "f12", "f02/2"), flux_values=FLUX_GRID[::2]),
            make_dataset(TRUE_PARAMS, (0.9, 0.4), 1.0, cfg, flux_values=FLUX_GRID[::3]),
        ]
        layout = ThetaLayout(globals_free=cfg.globals_mode == "free", channel_counts=(3, 3))
        # the second gate has one channel at each logit bound
        edge = expit(fitstack.LOGIT_BOUND)
        theta = layout.pack(self.START, [(0.75, 0.5, 0.35), (edge, 0.45, 1.0 - edge)])
        analytic, central = self.jacobians(theta, ds, cfg, layout)
        assert np.all(analytic[: len(ds[0].used_points), layout.t_slice(1)] == 0.0)
        scale = np.max(np.abs(central), axis=0)
        inner = scale > 1e-3 * scale.max()
        assert np.allclose(analytic[:, inner], central[:, inner], rtol=0.0, atol=1e-6 * scale[inner])
        # at the bounds dT/dx ~ 1e-8: the columns are tiny, and default steps
        # drown them in eigenvalue rounding, so they get a wider step
        bounds = [layout.t_slice(1).start, layout.t_slice(1).stop - 1]
        assert not inner[bounds].any()
        _, wide = self.jacobians(theta, ds, cfg, layout, abs_step=1e-2)
        for c in bounds:
            atol = 1e-2 * np.max(np.abs(wide[:, c]))
            assert np.allclose(analytic[:, c], wide[:, c], rtol=0.0, atol=atol)

    def test_even_only_doublet_takes_the_cluster_mean(self, monkeypatch):
        cfg = dataclasses.replace(SMALL_CFG_FIXED, k_max=10, n_cut=25)
        transmissions = (0.8, 0.4)
        v = fourier_v(NanowireChannels(transmissions), TRUE_PARAMS.gap, cfg.k_max)
        # a junction arm that cancels the nanowire's odd harmonics at half flux
        # and leaves a deep pi-periodic well there: doublets split below 1e-9 GHz
        u = np.zeros(cfg.k_max + 1)
        u[1::2] = v[1::2]
        u[2], u[4] = -150.0 - v[2], 2.0 - v[4]
        monkeypatch.setattr(fitstack, "fourier_u", lambda params, k_max: u)
        flux = np.array([0.0, 1.0, 2.0, math.pi])
        ds = [make_dataset(TRUE_PARAMS, transmissions, 0.0, cfg, labels=("f01", "f12", "f02"),
                           flux_values=flux)]
        layout = ThetaLayout(globals_free=False, channel_counts=(2,))
        theta = layout.pack(None, [transmissions])
        grids = []
        model_residuals(theta, ds, cfg, layout, grids=grids)
        # the labels read levels 0..2; half flux decouples the parities, so level 3 is solved too
        energies = grids[0].grid.energies
        assert energies.shape == (len(flux), 4)
        assert [len(group) for group in clusters(energies[-1])] == [2, 2]
        analytic = fitstack._model_jacobian(theta, cfg, layout, grids)
        # sorted levels kink at a doublet, which leaves 3-point differences an O(h) error;
        # the Richardson combination 2 D(h/2) - D(h) cancels it
        fun = lambda x: model_residuals(x, ds, cfg, layout)
        step = np.finfo(float).eps ** (1.0 / 3.0)
        coarse, fine = (approx_derivative(fun, theta, method="3-point", rel_step=h) for h in (step, step / 2.0))
        richardson = 2.0 * fine - coarse
        scale = np.max(np.abs(richardson), axis=0)
        assert np.allclose(analytic, richardson, rtol=0.0, atol=1e-6 * scale)
        solves = []
        original = fitstack._solve_flux_layout

        def counted(*args, **kwargs):
            solves.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(fitstack, "_solve_flux_layout", counted)
        result = fit_global(ds, [2], cfg, initial_transmissions=[(0.7, 0.5)])
        assert result.n_jacobian_evaluations > 0
        assert len(solves) == result.n_evaluations

    def test_fit_reuses_the_residual_eigenpairs(self, monkeypatch):
        cfg = SMALL_CFG_FIXED
        ds = [make_dataset(TRUE_PARAMS, (0.8, 0.4), 0.0, cfg, flux_values=FLUX_GRID[::2])]
        solves = []
        original = fitstack._solve_flux_layout

        def counted(*args, **kwargs):
            solves.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(fitstack, "_solve_flux_layout", counted)
        result = fit_global(ds, [2], cfg, initial_transmissions=[(0.6, 0.5)])
        assert result.n_jacobian_evaluations >= 2
        # one solve per residual evaluation; the Jacobians and the final RMSE reuse them
        assert len(solves) == result.n_evaluations

    @pytest.mark.parametrize(
        "cfg, start",
        [(SMALL_CFG_FIXED, {}),
         (SMALL_CFG_FREE, {"initial_params": START, "initial_transmissions": [(0.6, 0.5), (0.7, 0.3)]})],
        ids=["fixed-default-starts", "free"],
    )
    def test_rmse_is_the_model_at_the_returned_parameters(self, cfg, start):
        """Oracle: each dataset's model frequencies solved anew at the fit's parameters, bit for bit."""
        ds = [
            make_dataset(TRUE_PARAMS, (0.8, 0.4), -1.0, cfg, noise_rng=np.random.default_rng(6),
                         flux_values=FLUX_GRID[::2]),
            make_dataset(TRUE_PARAMS, (0.6, 0.5), 1.0, cfg, noise_rng=np.random.default_rng(7),
                         flux_values=FLUX_GRID[1::2]),
        ]
        fit = fit_global(ds, [2, 2], dataclasses.replace(cfg, max_nfev=15), **start)
        # with the default starts the best is not the last one, whose grids must not be read
        assert start or fit.cost < fit.start_costs[-1]
        models = [
            dataset_model_frequencies(fit.params, channels, d.used_points, cfg)
            for d, channels in zip(ds, fit.channels)
        ]
        data = [np.array([p.freq for p in d.used_points]) for d in ds]
        assert fit.rmse_per_dataset == tuple(rmse(m, f) for m, f in zip(models, data))
        assert fit.rmse == rmse(np.concatenate(models), np.concatenate(data))


def test_only_solve_points_reaches_the_eigenpairs():
    """``_solve_points`` is the fit's one route from parameters to eigenpairs."""
    source = Path(fitstack.__file__).read_text(encoding="utf-8")
    assert source.count("_solve_flux_layout(") == 1
    assert len(re.findall(r"\b_flux_layout\(", source)) == 1
    assert source.count("fourier_u(") == 1
    # one amplitude call per solve gives the nanowire arm and its Jacobian
    assert source.count("_power_amplitudes(") == 1


def test_one_spelling_of_a_model_fit():
    """A model fit calls the solver in ``_fit_start`` and builds its result in ``_fit_result``; selection runs no ``fit_global``."""
    callers = collections.defaultdict(list)
    for function in ast.parse(Path(fitstack.__file__).read_text(encoding="utf-8")).body:
        if isinstance(function, ast.FunctionDef):
            for node in ast.walk(function):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    callers[node.func.id].append(function.name)
    assert callers["FitResult"] == ["_fit_result", "_merge_single_gate_fits"]
    # the line fit is the solver's one other caller
    assert callers["least_squares"] == ["lorentzian_fit", "_fit_start"]
    assert not {"select_channel_count", "_fit_count"} & set(callers["fit_global"])
    assert callers["replace"] == []


class TestRmse:
    def test_exact_values(self):
        assert rmse([5.0, 6.0], [5.0, 6.0]) == 0.0
        assert rmse([5.1], [5.0]) == pytest.approx(0.1, rel=1e-12)
        assert rmse([5.3, 6.4], [5.0, 6.0]) == pytest.approx(0.3535533905932738, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rmse([], [])

    @pytest.mark.parametrize("model, data", [([5.0, 6.0], [5.0]), ([[5.0]], [[5.0]]), (5.0, 5.0)],
                             ids=["lengths", "two-d", "scalar"])
    def test_bad_shapes_rejected(self, model, data):
        with pytest.raises(ValueError, match="^model and data must be 1-d arrays of equal length$"):
            rmse(model, data)

    def test_coherence_with_weighted_residuals(self):
        cfg = SMALL_CFG_FIXED
        rng = np.random.default_rng(5)
        ds = make_dataset(TRUE_PARAMS, (0.8, 0.4), 0.0, cfg, sigma=1e-3, noise_rng=rng)
        layout = ThetaLayout(globals_free=False, channel_counts=(2,))
        theta = layout.pack(None, [(0.8, 0.4)])
        residuals = model_residuals(theta, [ds], cfg, layout)
        model = dataset_model_frequencies(
            TRUE_PARAMS, NanowireChannels((0.8, 0.4)), ds.used_points, cfg
        )
        data = [p.freq for p in ds.used_points]
        # all sigmas equal: unweighted rmse equals sigma * RMS of residuals
        assert rmse(model, data) == pytest.approx(
            1e-3 * float(np.sqrt(np.mean(residuals**2))), rel=1e-9
        )


# ---------------------------------------------------------------------------
# the global fit


class TestFitGlobal:
    def test_noiseless_round_trip_with_free_globals(self):
        cfg = SMALL_CFG_FREE
        truth = [(0.8, 0.4), (0.6, 0.5), (0.9, 0.3)]
        ds = [
            make_dataset(TRUE_PARAMS, ts, gate, cfg, sigma=1e-4)
            for gate, ts in zip((-1.0, 0.0, 1.0), truth)
        ]
        start = CircuitParams(ej1=57.0, ej2=57.0, ecj=0.6, ec=0.28, gap=39.0)
        result = fit_global(
            ds, [2, 2, 2], cfg,
            initial_params=start,
            initial_transmissions=[(0.7, 0.5)] * 3,
        )
        assert result.converged
        for channels, want in zip(result.channels, truth):
            for got, expected in zip(channels.transmissions, sorted(want, reverse=True)):
                assert got == pytest.approx(expected, abs=1e-4)
        assert result.params.ej1 == pytest.approx(TRUE_PARAMS.ej1, rel=1e-3)
        assert result.params.ecj == pytest.approx(TRUE_PARAMS.ecj, rel=1e-3)
        assert result.params.gap == pytest.approx(TRUE_PARAMS.gap, rel=1e-3)
        assert result.rmse < 1e-6

    def test_permuted_start_reaches_same_minimum(self):
        cfg = SMALL_CFG_FIXED
        ds = [make_dataset(TRUE_PARAMS, (0.7, 0.3), 0.0, cfg)]
        a = fit_global([ds[0]], [2], cfg, initial_transmissions=[(0.65, 0.35)])
        b = fit_global([ds[0]], [2], cfg, initial_transmissions=[(0.35, 0.65)])
        assert a.channels[0].transmissions == pytest.approx(
            b.channels[0].transmissions, abs=1e-6
        )
        assert a.channels[0].transmissions[0] > a.channels[0].transmissions[1]

    def test_deterministic_given_start(self):
        cfg = SMALL_CFG_FIXED
        ds = make_dataset(TRUE_PARAMS, (0.7, 0.3), 0.0, cfg)
        a = fit_global([ds], [2], cfg, initial_transmissions=[(0.6, 0.4)])
        b = fit_global([ds], [2], cfg, initial_transmissions=[(0.6, 0.4)])
        assert a.channels == b.channels
        assert a.cost == b.cost

    def test_iterates_respect_transmission_box(self, monkeypatch):
        cfg = SMALL_CFG_FIXED
        ds = make_dataset(TRUE_PARAMS, (0.95, 0.1), 0.0, cfg)
        seen: list[float] = []
        original = fitstack.model_residuals

        def recorder(theta, datasets, rcfg, layout, **kwargs):
            _, channel_sets = layout.unpack(theta, rcfg)
            for ch in channel_sets:
                seen.extend(ch.transmissions)
            return original(theta, datasets, rcfg, layout, **kwargs)

        monkeypatch.setattr(fitstack, "model_residuals", recorder)
        fit_global([ds], [2], cfg, initial_transmissions=[(0.5, 0.5)])
        assert seen
        assert all(0.0 < t < 1.0 for t in seen)

    def test_boundary_flag_reported(self):
        cfg = SMALL_CFG_FIXED
        ds = make_dataset(TRUE_PARAMS, (0.9995, 0.4), 0.0, cfg)
        result = fit_global([ds], [2], cfg, initial_transmissions=[(0.99, 0.4)])
        assert result.boundary_active[0][0]
        assert not result.boundary_active[0][1]

    def test_multistart_used_without_initial_transmissions(self):
        cfg = SMALL_CFG_FIXED
        ds = make_dataset(TRUE_PARAMS, (0.7, 0.3), 0.0, cfg)
        result = fit_global([ds], [2], cfg)
        assert len(result.start_costs) == 4
        assert result.channels[0].transmissions == pytest.approx((0.7, 0.3), abs=1e-4)

    def test_empty_dataset_rejected(self):
        cfg = SMALL_CFG_FIXED
        unused = SpectroscopyDataset(
            gate=0.0,
            points=(TransitionPoint(flux=0.0, label="f01", freq=5.0, sigma=0.1, used=False),),
        )
        with pytest.raises(ValueError, match="no fittable points"):
            fit_global([unused], [2], cfg)

    @pytest.mark.parametrize(
        "datasets, counts, cfg, message",
        [(0, [], SMALL_CFG_FIXED, "need at least one dataset"),
         (1, [2, 2], SMALL_CFG_FIXED, "one channel count per dataset required"),
         (1, [2], SMALL_CFG_FREE, "free globals require initial_params"),
         (2, [2, -1], SMALL_CFG_FIXED, "channel count -1 is below 0")],
        ids=["no-datasets", "count-list-length", "free-without-start", "negative-count"],
    )
    def test_bad_arguments_rejected(self, datasets, counts, cfg, message):
        ds = make_dataset(TRUE_PARAMS, (0.7, 0.3), 0.0, cfg, flux_values=FLUX_GRID[::3])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fit_global([ds] * datasets, counts, cfg)

    def test_zero_channels_fit_an_open_nanowire(self):
        ds = make_dataset(TRUE_PARAMS, (0.0,), 0.0, SMALL_CFG_FIXED, flux_values=FLUX_GRID[::3])
        result = fit_global([ds], [0], SMALL_CFG_FIXED)
        assert result.channels == (NanowireChannels(()),)
        assert result.converged and result.rmse < 1e-9
        # with no transmission to fit, every default start is the same point, so one runs
        assert result.n_evaluations == 1 and len(result.start_costs) == 1

    def test_estimator_consistency_under_noise(self):
        cfg = FitConfig(
            ec=0.28, k_max=6, n_cut=11, globals_mode="fixed", fixed_params=TRUE_PARAMS
        )
        flux = 2.0 * math.pi * np.linspace(0.05, 0.5, 8)

        def median_error(sigma: float) -> float:
            errors = []
            for seed in range(25):
                rng = np.random.default_rng(seed)
                ds = make_dataset(
                    TRUE_PARAMS, (0.6,), 0.0, cfg,
                    labels=("f01",), sigma=sigma, noise_rng=rng, flux_values=flux,
                )
                fit = fit_global([ds], [1], cfg, initial_transmissions=[(0.5,)])
                errors.append(abs(fit.channels[0].transmissions[0] - 0.6))
            return float(np.median(errors))

        assert median_error(0.005) < median_error(0.05)


SELECT_CFG = FitConfig(
    ec=0.28, k_max=6, n_cut=11, globals_mode="fixed", fixed_params=TRUE_PARAMS, max_nfev=60
)

#: selection datasets: true transmissions, noise seed, and the counts offered
SELECTION_CASES = {
    "three-channel truth": ((0.8, 0.55, 0.3), 1, (2, 3, 4)),
    "two-channel truth": ((0.75, 0.4), 2, (2, 3)),
    "single dominant channel": ((0.85, 0.001, 0.001), 3, (2, 3)),
}


def selection_dataset(name: str) -> SpectroscopyDataset:
    truth, seed, _ = SELECTION_CASES[name]
    return make_dataset(
        TRUE_PARAMS, truth, 0.0, SELECT_CFG, sigma=2e-4, noise_rng=np.random.default_rng(seed)
    )


def assert_same_fit(got: FitResult, want: FitResult) -> None:
    """Every field equal, arrays bit for bit."""
    for f in dataclasses.fields(FitResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


class TestChannelCountSelection:
    def test_free_globals_rejected_before_any_fit(self):
        ds = make_dataset(TRUE_PARAMS, (0.8, 0.4), 0.0, SMALL_CFG_FREE)
        with pytest.raises(ValueError, match="globals_mode='fixed'"):
            select_channel_count(ds, (1, 2), SMALL_CFG_FREE)

    @pytest.mark.parametrize("counts", [(-2, 1), ()], ids=["negative", "empty"])
    def test_bad_count_list_rejected_before_any_fit(self, monkeypatch, counts):
        ds = selection_dataset("two-channel truth")
        monkeypatch.setattr(fitstack, "_plan", None)
        message = f"channel counts must be one or more counts >= 0, got {list(counts)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            select_channel_count(ds, counts, SELECT_CFG)

    def test_dataset_without_used_points_is_rejected_once(self):
        point = TransitionPoint(flux=0.0, label="f01", freq=5.0, sigma=0.1, used=False)
        with pytest.raises(ValueError, match=r"^dataset gate=0\.0 has no fittable points$"):
            select_channel_count(SpectroscopyDataset(gate=0.0, points=(point,)), (1, 2), SELECT_CFG)

    def test_every_count_failing_raises_naming_each(self, monkeypatch):
        def failing(plans, layout, cfg, initial_params, transmissions):
            raise SolverError(f"forced failure of {layout.channel_counts[0]}")

        monkeypatch.setattr(fitstack, "_fit_start", failing)
        with pytest.raises(RuntimeError) as failure:
            select_channel_count(selection_dataset("two-channel truth"), (3, 2), SELECT_CFG)
        assert str(failure.value) == (
            "all channel-count fits failed (2 channels: forced failure of 2; 3 channels: forced failure of 3)"
        )

    def test_three_channel_truth_chooses_three(self):
        selection = select_channel_count(selection_dataset("three-channel truth"), (2, 3, 4), SELECT_CFG)
        assert selection.chosen == 3
        assert selection.rmse_by_count[2] / selection.rmse_by_count[3] >= 10.0

    def test_two_channel_truth_chooses_two(self):
        selection = select_channel_count(selection_dataset("two-channel truth"), (2, 3), SELECT_CFG)
        assert selection.chosen == 2

    def test_single_dominant_channel_prefers_lean_model(self):
        selection = select_channel_count(selection_dataset("single dominant channel"), (2, 3), SELECT_CFG)
        assert selection.chosen == 2

    @pytest.mark.parametrize("name", SELECTION_CASES)
    def test_agrees_with_one_default_fit_per_count(self, name):
        """Oracle: each count fitted from the default starts alone, with no warm start."""
        ds, counts = selection_dataset(name), SELECTION_CASES[name][2]
        selection = select_channel_count(ds, counts, SELECT_CFG)
        oracle = {n: fit_global([ds], [n], SELECT_CFG) for n in counts}
        best = min(fit.rmse for fit in oracle.values())
        assert selection.chosen == min(
            n for n, fit in oracle.items() if fit.rmse <= SELECT_CFG.rmse_factor * best
        )
        assert_same_fit(selection.fits_by_count[counts[0]], oracle[counts[0]])
        assert selection.rmse_by_count[selection.chosen] <= oracle[selection.chosen].rmse

    @pytest.mark.parametrize("name", SELECTION_CASES)
    def test_rmse_does_not_rise_above_the_chosen_count(self, name):
        counts = SELECTION_CASES[name][2]
        selection = select_channel_count(selection_dataset(name), (*counts, counts[-1] + 1), SELECT_CFG)
        by_count = selection.rmse_by_count
        for n in range(selection.chosen, max(by_count)):
            assert by_count[n + 1] <= 1.01 * by_count[n], (n, by_count)

    def test_evaluations_count_every_grid_solve(self, monkeypatch):
        ds = selection_dataset("three-channel truth")
        solves = []
        original = fitstack._solve_flux_layout

        def counted(*args, **kwargs):
            solves.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(fitstack, "_solve_flux_layout", counted)
        fits = select_channel_count(ds, (2, 3, 4), SELECT_CFG).fits_by_count
        n_solves = len(solves)
        monkeypatch.undo()
        assert n_solves == sum(fit.n_evaluations for fit in fits.values())
        # count 3 buys real fit quality, so it runs the warm start and then the default starts
        warm = fit_global(
            [ds], [3], SELECT_CFG,
            initial_transmissions=[[*fits[2].channels[0].transmissions, fitstack.WARM_T]],
        )
        cold = fit_global([ds], [3], SELECT_CFG)
        assert fits[3].start_costs == (warm.cost, *cold.start_costs)
        assert fits[3].n_evaluations == warm.n_evaluations + cold.n_evaluations
        assert fits[3].n_jacobian_evaluations == warm.n_jacobian_evaluations + cold.n_jacobian_evaluations
        assert fits[3].cost == min(warm.cost, cold.cost)
        # count 4 does not, so its warm start is its only start
        assert len(fits[4].start_costs) == 1

    @pytest.mark.parametrize("error", [SolverError, ValueError])
    def test_failed_warm_start_falls_back_to_the_default_starts(self, monkeypatch, error):
        ds = selection_dataset("two-channel truth")
        original = fitstack._fit_start

        def warm_starts_fail(plans, layout, cfg, initial_params, transmissions):
            if transmissions not in fitstack._default_starts(layout.channel_counts):
                raise error("forced warm-start failure")
            return original(plans, layout, cfg, initial_params, transmissions)

        monkeypatch.setattr(fitstack, "_fit_start", warm_starts_fail)
        selection = select_channel_count(ds, (3, 2), SELECT_CFG)
        monkeypatch.undo()
        assert list(selection.fits_by_count) == list(selection.rmse_by_count) == [2, 3]
        for n, fit in selection.fits_by_count.items():
            assert_same_fit(fit, fit_global([ds], [n], SELECT_CFG))

    def test_count_whose_every_start_fails_is_skipped(self, monkeypatch):
        ds = selection_dataset("three-channel truth")
        original = fitstack._fit_start
        warm_starts = []

        def count_three_fails(plans, layout, cfg, initial_params, transmissions):
            if layout.channel_counts == (3,):
                raise SolverError("forced failure")
            if transmissions not in fitstack._default_starts(layout.channel_counts):
                warm_starts.append(transmissions)
            return original(plans, layout, cfg, initial_params, transmissions)

        monkeypatch.setattr(fitstack, "_fit_start", count_three_fails)
        selection = select_channel_count(ds, (4, 3, 2), SELECT_CFG)
        assert list(selection.fits_by_count) == [2, 4]
        # count 4 starts from count 2, with one new channel for each count it skips
        below = selection.fits_by_count[2].channels[0].transmissions
        assert warm_starts == [[[*below, fitstack.WARM_T, fitstack.WARM_T]]]


@pytest.fixture
def per_evaluation_route(monkeypatch):
    """Calling the returned function makes every model fit evaluate through the per-evaluation reference."""
    points_of = {}
    make_plan = fitstack._plan

    def recording(gate, points, cfg):
        made = make_plan(gate, points, cfg)
        points_of[made] = tuple(points)
        return made

    def residuals(theta, plans, cfg, layout, *, grids=None):
        datasets = [SpectroscopyDataset(plan.gate, points_of[plan]) for plan in plans]
        return per_evaluation_residuals(theta, datasets, cfg, layout, grids=grids)

    def use() -> None:
        monkeypatch.setattr(fitstack, "_plan", recording)
        monkeypatch.setattr(fitstack, "model_residuals", residuals)
        monkeypatch.setattr(fitstack, "_model_jacobian", per_evaluation_jacobian)

    return use


@pytest.fixture
def kernel_calls(monkeypatch):
    """Calls of fitstack's arm kernels, grid layouts, evaluations and fits; ``in_jacobian`` counts those the Jacobian made."""
    calls = collections.Counter()
    inside = []

    def counted(name):
        original = getattr(fitstack, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            calls["in_jacobian"] += bool(inside)
            return original(*args, **kwargs)

        monkeypatch.setattr(fitstack, name, wrapper)

    for name in ("fourier_u", "_power_amplitudes", "_flux_layout", "model_residuals", "fit_global", "_plan"):
        counted(name)
    jacobian = fitstack._model_jacobian

    def marked(*args):
        inside.append(True)
        try:
            return jacobian(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(fitstack, "_model_jacobian", marked)
    return calls


class TestPlannedEvaluation:
    """A fit plans each dataset once; every evaluation matches the per-evaluation route bit for bit."""

    @staticmethod
    def doublet_case(cfg, monkeypatch):
        """Two gates with unused points, a repeated flux, ``f02/2`` and one degenerate flux point.

        The junction arm cancels the first gate's odd nanowire harmonics at
        half flux (see the even-only doublet test), and both gates' thetas
        list their transmissions in ascending order.
        """
        v = fourier_v(NanowireChannels((0.8, 0.4)), TRUE_PARAMS.gap, cfg.k_max)
        u = np.zeros(cfg.k_max + 1)
        u[1::2] = v[1::2]
        u[2], u[4] = -150.0 - v[2], 2.0 - v[4]
        monkeypatch.setattr(fitstack, "fourier_u", lambda params, k_max: u)

        def point(flux, label, used=True):
            return TransitionPoint(flux=flux, label=label, freq=1.0 + 0.1 * flux, sigma=2e-4, used=used)

        first = [point(phi, lab) for phi in (0.0, 1.0, 2.0, math.pi) for lab in ("f01", "f12", "f02")]
        first += [point(1.0, "f02/2"), point(0.5, "f01", used=False), point(2.0, "f01")]
        second = [point(phi, lab) for phi in (0.3, 1.7, 2.9) for lab in ("f01", "f02/2")]
        second += [point(0.3, "f12", used=False), point(0.3, "f12")]
        datasets = [SpectroscopyDataset(-1.0, tuple(first)), SpectroscopyDataset(1.0, tuple(second))]
        layout = ThetaLayout(globals_free=cfg.globals_mode == "free", channel_counts=(2, 2))
        return datasets, layout, layout.pack(TRUE_PARAMS, [(0.4, 0.8), (0.3, 0.6)])

    @pytest.mark.parametrize("mode", ["fixed", "free"])
    def test_residuals_and_jacobian_match_bit_for_bit(self, mode, monkeypatch):
        cfg = dataclasses.replace(SMALL_CFG_FIXED, k_max=10, n_cut=25, globals_mode=mode)
        datasets, layout, theta = self.doublet_case(cfg, monkeypatch)
        grids, reference = [], []
        got = model_residuals(theta, datasets, cfg, layout, grids=grids)
        want = per_evaluation_residuals(theta, datasets, cfg, layout, grids=reference)
        assert got.tobytes() == want.tobytes()
        # half flux holds two doublets, so the Jacobian takes cluster means there
        assert [len(group) for group in clusters(grids[0].grid.energies[3])] == [2, 2]
        jacobian = fitstack._model_jacobian(theta, cfg, layout, grids)
        assert jacobian.tobytes() == per_evaluation_jacobian(theta, cfg, layout, reference).tobytes()

    @pytest.mark.parametrize("name", SELECTION_CASES)
    def test_selection_matches_the_per_evaluation_route(self, name, per_evaluation_route):
        ds, counts = selection_dataset(name), SELECTION_CASES[name][2]
        planned = select_channel_count(ds, counts, SELECT_CFG)
        single = fit_global([ds], [counts[-1]], SELECT_CFG)
        per_evaluation_route()
        reference = select_channel_count(ds, counts, SELECT_CFG)
        assert planned.chosen == reference.chosen
        assert planned.rmse_by_count == reference.rmse_by_count
        for n in counts:
            assert_same_fit(planned.fits_by_count[n], reference.fits_by_count[n])
        assert_same_fit(single, fit_global([ds], [counts[-1]], SELECT_CFG))

    def test_free_globals_fit_matches_the_per_evaluation_route(self, per_evaluation_route):
        cfg = dataclasses.replace(SMALL_CFG_FREE, max_nfev=12)
        ds = [
            make_dataset(TRUE_PARAMS, (0.8, 0.4), -1.0, cfg, flux_values=FLUX_GRID[::2]),
            make_dataset(TRUE_PARAMS, (0.6, 0.5), 1.0, cfg, flux_values=FLUX_GRID[1::2]),
        ]
        options = {"initial_params": TestAnalyticJacobian.START, "initial_transmissions": [(0.5, 0.7), (0.45, 0.65)]}
        planned = fit_global(ds, [2, 2], cfg, **options)
        per_evaluation_route()
        assert_same_fit(planned, fit_global(ds, [2, 2], cfg, **options))

    def test_fixed_globals_make_the_junction_arm_once_per_fit(self, kernel_calls):
        ds = make_dataset(TRUE_PARAMS, (0.8, 0.4), 0.0, SMALL_CFG_FIXED, flux_values=FLUX_GRID[::2])
        kernel_calls.clear()
        result = fit_global([ds], [2], SMALL_CFG_FIXED)
        assert result.n_jacobian_evaluations > 0 and len(result.start_costs) > 1
        # one grid layout serves every start and every evaluation
        assert kernel_calls["fourier_u"] == kernel_calls["_flux_layout"] == 1
        assert kernel_calls["_power_amplitudes"] == kernel_calls["model_residuals"] == result.n_evaluations
        assert kernel_calls["in_jacobian"] == 0
        ds = selection_dataset("three-channel truth")
        kernel_calls.clear()
        fits = select_channel_count(ds, (2, 3, 4), SELECT_CFG).fits_by_count
        # selection plans its gate once for every count and runs no fit_global of its own
        assert len(fits) == 3 and kernel_calls["_plan"] == 1
        assert kernel_calls["fourier_u"] == kernel_calls["_flux_layout"] == 1 and kernel_calls["fit_global"] == 0
        assert kernel_calls["_power_amplitudes"] == kernel_calls["model_residuals"]
        assert kernel_calls["model_residuals"] == sum(fit.n_evaluations for fit in fits.values())
        assert kernel_calls["in_jacobian"] == 0

    def test_free_globals_remake_the_junction_arm_at_each_evaluation(self, kernel_calls):
        ds = [
            make_dataset(TRUE_PARAMS, (0.8, 0.4), -1.0, SMALL_CFG_FREE, flux_values=FLUX_GRID[::3]),
            make_dataset(TRUE_PARAMS, (0.6, 0.5), 1.0, SMALL_CFG_FREE, flux_values=FLUX_GRID[::3]),
        ]
        start = {"initial_params": TestAnalyticJacobian.START, "initial_transmissions": [(0.7, 0.5)] * 2}
        kernel_calls.clear()
        result = fit_global(ds, [2, 2], dataclasses.replace(SMALL_CFG_FREE, max_nfev=6), **start)
        assert result.n_jacobian_evaluations > 0
        assert kernel_calls["model_residuals"] == result.n_evaluations
        assert kernel_calls["fourier_u"] == kernel_calls["_power_amplitudes"] == 2 * result.n_evaluations
        assert kernel_calls["_flux_layout"] == 2
        assert kernel_calls["in_jacobian"] == 0

    def test_each_fit_plans_its_own_dataset(self, per_evaluation_route):
        """Settings that change a plan never leak into the next fit of the same dataset.

        The reference fits a fresh copy on the per-evaluation route, which
        plans nothing, so a plan kept under the dataset's value cannot
        reach it.
        """
        ds = make_dataset(TRUE_PARAMS, (0.8, 0.4), 0.0, SMALL_CFG_FIXED, flux_values=FLUX_GRID[::3])
        before = hash(ds)
        configs = [
            dataclasses.replace(SMALL_CFG_FIXED, max_nfev=6, **changes)
            for changes in ({}, {"sigma_floor": 5e-4}, {"n_cut": 13}, {"n_g": 0.1}, {})
        ]
        start = {"initial_transmissions": [(0.7, 0.5)]}
        planned = [fit_global([ds], [2], cfg, **start) for cfg in configs]
        assert ds == SpectroscopyDataset(ds.gate, ds.points) and hash(ds) == before
        assert len({fit.cost for fit in planned}) == 4
        per_evaluation_route()
        for cfg, got in zip(configs, planned):
            fresh = SpectroscopyDataset(ds.gate, tuple(dataclasses.replace(p) for p in ds.points))
            assert_same_fit(got, fit_global([fresh], [2], cfg, **start))


class TestMergeSingleGateFits:
    def test_two_gates_merge_in_gate_order(self):
        rng = np.random.default_rng(4)
        gates = [
            make_dataset(TRUE_PARAMS, (0.8, 0.45), -7.0, SMALL_CFG_FIXED, sigma=2e-4,
                         noise_rng=rng),
            make_dataset(TRUE_PARAMS, (0.95, 0.3), 0.5, SMALL_CFG_FIXED, labels=("f01",),
                         sigma=2e-4, noise_rng=rng, flux_values=FLUX_GRID[::2]),
        ]
        fits = [
            fit_global([ds], [2], SMALL_CFG_FIXED, initial_transmissions=[[0.7, 0.4]])
            for ds in gates
        ]
        merged = fitstack._merge_single_gate_fits(fits, gates)
        assert merged.channels == (fits[0].channels[0], fits[1].channels[0])
        assert merged.rmse_per_dataset == (fits[0].rmse, fits[1].rmse)
        assert merged.n_evaluations == fits[0].n_evaluations + fits[1].n_evaluations
        assert merged.n_jacobian_evaluations == sum(f.n_jacobian_evaluations for f in fits) > 0
        for flags in [(True, True), (True, False), (False, True)]:
            parts = [dataclasses.replace(fit, converged=flag) for fit, flag in zip(fits, flags)]
            assert fitstack._merge_single_gate_fits(parts, gates).converged is all(flags)
        model = np.concatenate([
            dataset_model_frequencies(TRUE_PARAMS, fit.channels[0], ds.used_points,
                                      SMALL_CFG_FIXED)
            for fit, ds in zip(fits, gates)
        ])
        data = [p.freq for ds in gates for p in ds.used_points]
        assert merged.rmse == pytest.approx(rmse(model, data), rel=1e-12)


# ---------------------------------------------------------------------------
# files


class TestDatasetFiles:
    def test_round_trip(self, tmp_path):
        points = (
            TransitionPoint(flux=0.0, label="f01", freq=5.0, sigma=0.01),
            TransitionPoint(flux=math.pi, label="f02/2", freq=4.4, sigma=0.02, used=False),
        )
        ds = SpectroscopyDataset(gate=-7.0, points=points)
        path = tmp_path / "data.csv"
        write_dataset_csv([ds], str(path))
        loaded = read_dataset_csv(str(path))
        assert len(loaded) == 1
        assert loaded[0].gate == -7.0
        assert len(loaded[0].points) == 2
        assert loaded[0].points[0].freq == pytest.approx(5.0)
        assert loaded[0].points[1].label == "f02/2"
        assert not loaded[0].points[1].used
        assert loaded[0].points[1].flux == pytest.approx(math.pi, rel=1e-11)

    def test_bad_row_reports_line_number(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text(
            "gate_v,flux_phi0,label,freq_ghz,sigma_ghz,used\n"
            "0.0,0.0,f01,5.0,0.01,1\n"
            "0.0,oops,f01,5.0,0.01,1\n"
        )
        with pytest.raises(DatasetFormatError, match=r"broken\.csv:3"):
            read_dataset_csv(str(path))

    @pytest.mark.parametrize(
        "column, value",
        [("gate_v", "nan"), ("flux_phi0", "nan"), ("freq_ghz", "inf"), ("sigma_ghz", "nan")],
    )
    def test_non_finite_value_reports_line_number(self, tmp_path, column, value):
        cells = {"gate_v": "0.0", "flux_phi0": "0.1", "label": "f01", "freq_ghz": "5.0",
                 "sigma_ghz": "0.01", "used": "1"}
        cells[column] = value
        path = tmp_path / "broken.csv"
        path.write_text(
            "gate_v,flux_phi0,label,freq_ghz,sigma_ghz,used\n"
            "0.0,0.0,f01,5.0,0.01,1\n" + ",".join(cells.values()) + "\n"
        )
        with pytest.raises(DatasetFormatError, match=rf"broken\.csv:3: {column} must be finite, got {value}$"):
            read_dataset_csv(str(path))

    def test_flux_beyond_its_range_is_named_by_its_column(self, tmp_path):
        # 1e308 is finite, though 2 pi times it is not
        path = tmp_path / "broken.csv"
        path.write_text("gate_v,flux_phi0,label,freq_ghz,sigma_ghz,used\n0.0,1e308,f01,5.0,0.01,1\n")
        message = r"broken\.csv:2: flux_phi0 must be in \[-1000, 1000\], got 1e\+308$"
        with pytest.raises(DatasetFormatError, match=message):
            read_dataset_csv(str(path))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(DatasetFormatError, match=":1"):
            read_dataset_csv(str(path))

    def test_fit_result_document(self, tmp_path):
        result = fake_fit((0.8, 0.4), 0.001)
        path = tmp_path / "fit.ini"
        write_fit_result(result, [-7.0], str(path))
        text = path.read_text()
        assert "[globals]" in text
        assert "ej1 = 55.03" in text
        assert "[gate:-7]" in text
        assert "transmissions = 0.8, 0.4" in text
        assert "channel_count = 2" in text

    def test_fit_result_rejects_repeated_gate(self, tmp_path):
        result = fake_fit((0.8, 0.4), 0.001)
        twice = dataclasses.replace(
            result,
            channels=result.channels * 2,
            rmse_per_dataset=result.rmse_per_dataset * 2,
            boundary_active=result.boundary_active * 2,
        )
        with pytest.raises(ValueError, match="gate tag -7 appears more than once"):
            write_fit_result(twice, [-7.0, -7.0], str(tmp_path / "fit.ini"))
