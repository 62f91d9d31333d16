import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize._numdiff import approx_derivative
from scipy.special import expit

import hpqkit.fitstack as fitstack
from hpqkit import (
    CircuitParams,
    FitConfig,
    FitRejection,
    NanowireChannels,
    SpectroscopyDataset,
    ThetaLayout,
    TransitionHint,
    TransitionPoint,
    extract_transitions,
    fit_global,
    fourier_v,
    harmonic_agreement,
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

    def test_nan_hint_skipped(self):
        grid = np.linspace(3.0, 7.0, 1001)
        traces = [synthesize_trace([(5.0, 1.0, 0.05)], grid, phi_e=0.0)]
        hints = {"f01": TransitionHint(centers=np.array([np.nan]), halfwidth=0.2)}
        assert extract_transitions(traces, hints) == []

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


class TestFitConfig:
    @pytest.mark.parametrize(
        "field, value",
        [("rmse_factor", 0.5), ("rmse_factor", math.nan), ("sigma_floor", -1e-9),
         ("sigma_floor", math.nan)],
    )
    def test_out_of_range_value_rejected(self, field, value):
        # below rmse_factor 1 select_channel_count finds no count within the factor of the best
        with pytest.raises(ValueError, match=f"^{field} must be"):
            FitConfig(ec=0.28, k_max=6, n_cut=11, **{field: value})

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
        analytic, fallbacks = fitstack._model_jacobian(theta, datasets, cfg, layout, grids)
        central = approx_derivative(
            lambda x: model_residuals(x, datasets, cfg, layout), theta, method="3-point",
            **difference,
        )
        return analytic, central, fallbacks

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
        analytic, central, fallbacks = self.jacobians(theta, ds, cfg, layout)
        assert fallbacks == 0
        assert np.all(analytic[: len(ds[0].used_points), layout.t_slice(1)] == 0.0)
        scale = np.max(np.abs(central), axis=0)
        inner = scale > 1e-3 * scale.max()
        assert np.allclose(analytic[:, inner], central[:, inner], rtol=0.0, atol=1e-6 * scale[inner])
        # at the bounds dT/dx ~ 1e-8: the columns are tiny, and default steps
        # drown them in eigenvalue rounding, so they get a wider step
        bounds = [layout.t_slice(1).start, layout.t_slice(1).stop - 1]
        assert not inner[bounds].any()
        _, wide, _ = self.jacobians(theta, ds, cfg, layout, abs_step=1e-2)
        for c in bounds:
            atol = 1e-2 * np.max(np.abs(wide[:, c]))
            assert np.allclose(analytic[:, c], wide[:, c], rtol=0.0, atol=atol)

    def test_even_only_doublet_falls_back_to_central_differences(self, monkeypatch):
        cfg = dataclasses.replace(SMALL_CFG_FIXED, k_max=10, n_cut=25)
        transmissions = (0.8, 0.4)
        v = fourier_v(NanowireChannels(transmissions), TRUE_PARAMS.gap, cfg.k_max)
        # a junction arm that cancels the nanowire's odd harmonics at half flux
        # and leaves a deep pi-periodic well there: a doublet split ~1e-12 GHz
        u = np.zeros(cfg.k_max + 1)
        u[1::2] = v[1::2]
        u[2], u[4] = -150.0 - v[2], 2.0 - v[4]
        monkeypatch.setattr(fitstack, "fourier_u", lambda params, k_max, include_bo: u)
        flux = np.array([0.0, 1.0, 2.0, math.pi])
        ds = [make_dataset(TRUE_PARAMS, transmissions, 0.0, cfg, labels=("f01", "f12", "f02"),
                           flux_values=flux)]
        layout = ThetaLayout(globals_free=False, channel_counts=(2,))
        theta = layout.pack(None, [transmissions])
        analytic, central, fallbacks = self.jacobians(theta, ds, cfg, layout)
        assert fallbacks == 1
        assert np.allclose(analytic, central, rtol=0.0, atol=1e-6 * np.max(np.abs(central)))

    def test_fit_reuses_the_residual_eigenpairs(self, monkeypatch):
        cfg = SMALL_CFG_FIXED
        ds = [make_dataset(TRUE_PARAMS, (0.8, 0.4), 0.0, cfg, flux_values=FLUX_GRID[::2])]
        solves = []
        original = fitstack.solve_flux_grid

        def counted(*args, **kwargs):
            solves.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(fitstack, "solve_flux_grid", counted)
        result = fit_global(ds, [2], cfg, initial_transmissions=[(0.6, 0.5)])
        assert result.n_jacobian_evaluations >= 2
        assert result.jacobian_fallbacks == 0
        # one solve per residual evaluation; the Jacobians and the final RMSE reuse them
        assert len(solves) == result.n_evaluations

    def test_final_rmse_solves_again_when_the_last_jacobian_was_elsewhere(self, monkeypatch):
        cfg = SMALL_CFG_FIXED
        ds = [make_dataset(TRUE_PARAMS, (0.8, 0.4), 0.0, cfg, flux_values=FLUX_GRID[::2])]
        start = [(0.6, 0.5)]
        plain = fit_global(ds, [2], cfg, initial_transmissions=start)
        original = fitstack.least_squares

        def then_jacobian_at_the_start(fun, x0, **options):
            result = original(fun, x0, **options)
            options["jac"](x0)
            return result

        monkeypatch.setattr(fitstack, "least_squares", then_jacobian_at_the_start)
        moved = fit_global(ds, [2], cfg, initial_transmissions=start)
        assert moved.rmse == plain.rmse
        assert moved.rmse_per_dataset == plain.rmse_per_dataset


def test_only_solve_points_reaches_the_eigenpairs():
    """``_solve_points`` is the fit's one route from parameters to eigenpairs."""
    source = Path(fitstack.__file__).read_text(encoding="utf-8")
    assert source.count("solve_flux_grid(") == 1
    assert source.count("fourier_u(") == 1


class TestRmse:
    def test_exact_values(self):
        assert rmse([5.0, 6.0], [5.0, 6.0]) == 0.0
        assert rmse([5.1], [5.0]) == pytest.approx(0.1, rel=1e-12)
        assert rmse([5.3, 6.4], [5.0, 6.0]) == pytest.approx(0.3535533905932738, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rmse([], [])

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

    def test_objective_history_non_increasing(self):
        cfg = SMALL_CFG_FIXED
        rng = np.random.default_rng(0)
        ds = make_dataset(TRUE_PARAMS, (0.8, 0.4), 0.0, cfg, sigma=1e-3, noise_rng=rng)
        result = fit_global([ds], [2], cfg, initial_transmissions=[(0.5, 0.5)])
        history = np.array(result.cost_history)
        assert np.all(np.diff(history) <= 0.0)
        assert history[-1] <= history[0]

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


class TestChannelCountSelection:
    def test_free_globals_rejected_before_any_fit(self):
        ds = make_dataset(TRUE_PARAMS, (0.8, 0.4), 0.0, SMALL_CFG_FREE)
        with pytest.raises(ValueError, match="globals_mode='fixed'"):
            select_channel_count(ds, (1, 2), SMALL_CFG_FREE)

    def test_three_channel_truth_chooses_three(self):
        rng = np.random.default_rng(1)
        ds = make_dataset(
            TRUE_PARAMS, (0.8, 0.55, 0.3), 0.0, SELECT_CFG, sigma=2e-4, noise_rng=rng
        )
        selection = select_channel_count(ds, (2, 3, 4), SELECT_CFG)
        assert selection.chosen == 3
        assert selection.rmse_by_count[2] / selection.rmse_by_count[3] >= 10.0

    def test_two_channel_truth_chooses_two(self):
        rng = np.random.default_rng(2)
        ds = make_dataset(TRUE_PARAMS, (0.75, 0.4), 0.0, SELECT_CFG, sigma=2e-4, noise_rng=rng)
        selection = select_channel_count(ds, (2, 3), SELECT_CFG)
        assert selection.chosen == 2

    def test_single_dominant_channel_prefers_lean_model(self):
        rng = np.random.default_rng(3)
        ds = make_dataset(
            TRUE_PARAMS, (0.85, 0.001, 0.001), 0.0, SELECT_CFG, sigma=2e-4, noise_rng=rng
        )
        selection = select_channel_count(ds, (2, 3), SELECT_CFG)
        assert selection.chosen == 2


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
        assert merged.jacobian_fallbacks == sum(f.jacobian_fallbacks for f in fits)
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


class TestHarmonicAgreement:
    @staticmethod
    def _fake_fit(transmissions: tuple[float, ...], fit_rmse: float) -> FitResult:
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
            cost_history=(0.0,),
            start_costs=(0.0,),
            covariance=None,
        )

    def test_gating_and_relative_differences(self):
        from hpqkit import fourier_v

        fits = {
            -1.0: {2: self._fake_fit((0.8, 0.4), 0.001), 3: self._fake_fit((0.8, 0.4, 0.01), 0.0012)},
            1.0: {2: self._fake_fit((0.9, 0.5), 0.02), 3: self._fake_fit((0.7, 0.4, 0.3), 0.001)},
        }
        rows = harmonic_agreement(fits, reference_count=3, k_max=2)
        by_key = {(row.gate, row.count): row for row in rows}
        assert by_key[(-1.0, 2)].included
        assert not by_key[(1.0, 2)].included  # rmse ratio 20 > 1.5
        ref = fourier_v(NanowireChannels((0.8, 0.4, 0.01)), TRUE_PARAMS.gap, 2)
        got = fourier_v(NanowireChannels((0.8, 0.4)), TRUE_PARAMS.gap, 2)
        assert by_key[(-1.0, 2)].v_rel_diff[0] == pytest.approx(
            (got[1] - ref[1]) / ref[1], rel=1e-9
        )

    def test_missing_reference_rejected(self):
        with pytest.raises(ValueError):
            harmonic_agreement({0.0: {2: self._fake_fit((0.5, 0.5), 0.1)}}, reference_count=3)


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
        with pytest.raises(DatasetFormatError, match=r"broken\.csv:3: .* must be finite"):
            read_dataset_csv(str(path))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(DatasetFormatError, match=":1"):
            read_dataset_csv(str(path))

    def test_fit_result_document(self, tmp_path):
        result = TestHarmonicAgreement._fake_fit((0.8, 0.4), 0.001)
        path = tmp_path / "fit.ini"
        write_fit_result(result, [-7.0], str(path), chosen_counts={-7.0: 2})
        text = path.read_text()
        assert "[globals]" in text
        assert "ej1 = 55.03" in text
        assert "[gate:-7]" in text
        assert "transmissions = 0.8, 0.4" in text
        assert "channel_count = 2" in text

    def test_fit_result_rejects_repeated_gate(self, tmp_path):
        result = TestHarmonicAgreement._fake_fit((0.8, 0.4), 0.001)
        twice = dataclasses.replace(
            result,
            channels=result.channels * 2,
            rmse_per_dataset=result.rmse_per_dataset * 2,
            boundary_active=result.boundary_active * 2,
        )
        with pytest.raises(ValueError, match="gate tag -7 appears more than once"):
            write_fit_result(twice, [-7.0, -7.0], str(tmp_path / "fit.ini"))
