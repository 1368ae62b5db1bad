import itertools
import math

import numpy as np
import pytest

import resonatorlab as rl
from conftest import grid_around, kerr_recovery_draws, linewidth_hz, resonator
from oracles import (
    brute_force_roots,
    central_jacobian,
    continuation_branch,
    cubic_value,
    reference_photon_cubic_roots,
    scanned_roots,
)
from resonatorlab.kerrfit import (
    RANK_ROWS,
    XI_NEWTON,
    _select_branch,
    _solve_sweep,
    _sweep_model,
    _sweep_vector,
)
from resonatorlab.linfit import _notch, _refinement_problem

TWO_PI = 2.0 * np.pi


class TestPhotonCubic:
    def test_xi_zero_reduces_to_linear_equation(self):
        for delta in (-3.0, 0.0, 0.7, 5.0):
            roots = rl.photon_cubic_roots(delta, 0.0)
            roots = roots[np.isfinite(roots)]
            assert roots.size == 1
            assert roots[0] == pytest.approx(0.5 / (delta**2 + 0.25), rel=1e-14)
        assert rl.photon_cubic_roots(0.0, 0.0)[0] == pytest.approx(2.0, rel=1e-14)

    def test_single_root_back_substitutes(self):
        roots = rl.photon_cubic_roots(0.0, 0.1)
        roots = roots[np.isfinite(roots)]
        assert roots.size == 1
        assert abs(cubic_value(roots[0], 0.0, 0.1)) < 1e-12

    def test_deep_bistable_point_three_roots(self):
        roots = rl.photon_cubic_roots(2.0, 1.0)
        roots = roots[np.isfinite(roots)]
        assert roots.size == 3
        oracle = brute_force_roots(2.0, 1.0, n_max=10.0, step=1e-4)
        assert oracle.size == 3
        np.testing.assert_allclose(roots, oracle, rtol=1e-8)
        # this point factors analytically: (n - 2)(n^2 - 2n + 1/4) = 0
        expected = np.sort([2.0, 1.0 + math.sqrt(3) / 2.0, 1.0 - math.sqrt(3) / 2.0])
        np.testing.assert_allclose(roots, expected, rtol=1e-12)

    def test_negative_xi_rejected(self):
        with pytest.raises(ValueError):
            rl.photon_cubic_roots(1.0, -0.5)

    def test_grid_back_substitution_and_counts(self):
        deltas = np.linspace(-5.0, 5.0, 41)
        xis = np.linspace(0.0, 2.0, 41)
        d, x = np.meshgrid(deltas, xis, indexing="ij")
        roots = rl.photon_cubic_roots(d, x)
        counts = np.sum(np.isfinite(roots), axis=-1)
        assert set(np.unique(counts)) <= {1, 3}
        residual = cubic_value(roots, d[..., None], x[..., None])
        scale = np.maximum(0.5, (d[..., None] ** 2 + 0.25) * roots)
        ok = ~np.isfinite(roots) | (np.abs(residual) < 1e-12 * scale)
        assert np.all(ok)

    def test_grid_counts_match_bracketing_oracle(self):
        rng = np.random.default_rng(5)
        deltas = rng.uniform(-5, 5, 60)
        xis = rng.uniform(0.0, 2.0, 60)
        for delta, xi in zip(deltas, xis):
            mine = rl.photon_cubic_roots(delta, xi)
            mine = mine[np.isfinite(mine)]
            oracle = scanned_roots(delta, xi)
            assert mine.size == oracle.size, (delta, xi)
            np.testing.assert_allclose(mine, oracle, rtol=1e-7, atol=1e-12)

    def test_extreme_xi_values_stay_accurate(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            delta = rng.uniform(-5, 5)
            xi = 10.0 ** rng.uniform(-12, 1)
            roots = rl.photon_cubic_roots(delta, xi)
            roots = roots[np.isfinite(roots)]
            res = np.abs(cubic_value(roots, delta, xi))
            scale = np.maximum(0.5, np.abs((delta**2 + 0.25) * roots))
            assert np.all(res < 1e-12 * scale)

    def test_tiny_xi_roots_match_bracketing_oracle(self):
        # the closed form loses the small root to cancellation below xi ~ 1e-14
        rng = np.random.default_rng(8)
        deltas = rng.uniform(-5.0, 5.0, 200)
        xis = 10.0 ** rng.uniform(-30.0, -12.0, 200)
        roots = rl.photon_cubic_roots(deltas, xis)
        for delta, xi, row in zip(deltas, xis, roots):
            mine = row[np.isfinite(row)]
            oracle = scanned_roots(delta, xi)
            assert mine.size == oracle.size == 1, (delta, xi)
            np.testing.assert_allclose(mine, oracle, rtol=1e-7, atol=1e-12)


    def test_bit_identical_to_the_reference_kernel(self):
        rng = np.random.default_rng(21)
        # The discriminant changes sign at the folds: y = xi n solves
        # 3 y^2 - 4 delta y + delta^2 + 1/4 = 0 there, at xi = 2 y ((y - delta)^2 + 1/4).
        fold_d = np.tile(rng.uniform(0.9, 6.0, 200), 2)
        root = np.sqrt(4.0 * fold_d**2 - 3.0)
        y = (4.0 * fold_d + np.repeat([-1.0, 1.0], 200) * root) / 6.0
        fold_x = 2.0 * y * ((y - fold_d) ** 2 + 0.25)
        fold_x *= 1.0 + rng.choice([-1.0, 1.0], 400) * 10.0 ** rng.uniform(-15.0, -4.0, 400)
        deltas = np.concatenate([rng.uniform(-8.0, 8.0, 3000), fold_d, rng.uniform(-8.0, 8.0, 300)])
        xis = np.concatenate(
            [
                rng.uniform(0.0, 2.0, 3000),
                fold_x,
                np.zeros(100),
                10.0 ** rng.uniform(-16.0, -8.0, 98),
                [np.nextafter(XI_NEWTON, 0.0), XI_NEWTON],
                10.0 ** rng.uniform(-8.0, 2.0, 100),
            ]
        )
        # -delta: a negative K, folded into a non-negative xi
        for d in (-deltas, deltas):
            reference = reference_photon_cubic_roots(d, xis)
            assert np.array_equal(rl.photon_cubic_roots(d, xis), reference, equal_nan=True)
        three = np.isfinite(reference[3000:3400, 2])
        assert three.any() and not three.all()  # both sides of the folds
        for d, x in zip(deltas[::97].tolist(), xis[::97].tolist()):  # scalars
            mine = rl.photon_cubic_roots(d, x)
            assert mine.shape == (3,)
            assert np.array_equal(mine, reference_photon_cubic_roots(d, x), equal_nan=True)
        grid = (deltas[::80, None], xis[None, ::70])  # 2-D broadcast
        mine = rl.photon_cubic_roots(*grid)
        assert mine.shape == (deltas[::80].size, xis[::70].size, 3)
        assert np.array_equal(mine, reference_photon_cubic_roots(*grid), equal_nan=True)

    @pytest.mark.parametrize("branch", rl.kerrfit.BRANCH_RULES)
    def test_sweep_model_unchanged_by_the_kernel(self, branch, monkeypatch):
        k_true, sweep = next(itertools.islice(kerr_recovery_draws(), 4, None))
        lin = rl.fit_linear(sweep.traces[0])
        p = _sweep_vector(lin.resonator, lin.environment, k_true, lin.resonator.phi0)
        watts = [rl.dbm_to_watts(t.drive_power) for t in sweep.traces]
        args = (p, sweep.frequencies, watts, branch, True)
        s21, jac, solve = _sweep_model(*args)
        monkeypatch.setattr(rl.kerrfit, "photon_cubic_roots", reference_photon_cubic_roots)
        ref_s21, ref_jac, ref_solve = _sweep_model(*args)
        assert solve.three.any()  # the draw is bistable at its true K
        assert np.array_equal(solve.three, ref_solve.three)
        assert np.array_equal(s21, ref_s21, equal_nan=True)
        assert np.array_equal(jac, ref_jac, equal_nan=True)


class TestKerrModel:
    def test_zero_kerr_reduces_to_linear(self, sample_resonator, environment):
        res, env = sample_resonator, environment
        params = rl.KerrParams(linear=res, environment=env, kerr=0.0, phi=res.phi0)
        f = grid_around(res, span_linewidths=12.0, points=801)
        kerr = rl.model_s21_kerr(params, f, -125.0)
        linear = rl.model_s21_linear(res, env, f)
        np.testing.assert_array_equal(kerr, linear)

    @pytest.mark.parametrize("branch", rl.kerrfit.BRANCH_RULES)
    def test_zero_kerr_vector_is_the_linear_vector_and_k(
        self, sample_resonator, environment, branch
    ):
        # the first seven entries are the linear model's, phi in phi0's slot:
        # at K = 0 the model and their Jacobian columns are the linear ones
        res, env = sample_resonator, environment
        p = _sweep_vector(res, env, 0.0, -0.15)
        f = grid_around(res, span_linewidths=12.0, points=801)
        watts = [rl.dbm_to_watts(rl.single_photon_power(res) + 10.0)]
        s21, jac, _ = _sweep_model(p, f, watts, branch, True)
        linear_jac = _refinement_problem(f, np.zeros(f.size, dtype=complex))[1](p[:7])
        assert np.array_equal(s21[0], _notch(p[:7], f).s)
        assert np.array_equal(jac[:7, 0].view(float).T, linear_jac)
        assert np.any(jac[7] != 0.0)

    def test_zero_kerr_reduction_many_draws(self):
        rng = np.random.default_rng(11)
        for i in range(50):
            f_r = rng.uniform(4e9, 8e9)
            res = rl.LinearResonatorParams(
                f_r=f_r,
                kappa_c=TWO_PI * f_r / 10 ** rng.uniform(2.8, 5),
                kappa_int=TWO_PI * f_r / 10 ** rng.uniform(3, 6),
                phi0=rng.uniform(-0.4, 0.4),
            )
            env = rl.EnvironmentParams(
                amplitude=rng.uniform(0.5, 1.5),
                alpha=rng.uniform(-np.pi, np.pi),
                tau=rng.uniform(-50e-9, 50e-9),
            )
            params = rl.KerrParams(linear=res, environment=env, kerr=0.0, phi=res.phi0)
            f = grid_around(res, span_linewidths=10.0, points=201)
            np.testing.assert_array_equal(
                rl.model_s21_kerr(params, f, rng.uniform(-150, -100)),
                rl.model_s21_linear(res, env, f),
                err_msg=str(i),
            )

    def test_low_power_matches_linear_model(self, sample_resonator, environment):
        res, env = sample_resonator, environment
        params = rl.KerrParams(linear=res, environment=env, kerr=99.5e3, phi=res.phi0)
        # well below a hundredth of a photon
        p = rl.single_photon_power(res) - 30.0
        f = grid_around(res, span_linewidths=10.0, points=801)
        diff = np.abs(rl.model_s21_kerr(params, f, p) - rl.model_s21_linear(res, env, f))
        assert np.max(diff) < 1e-4

    def test_red_shift_monotone_with_power(self, sample_resonator, environment):
        res, env = sample_resonator, environment
        params = rl.KerrParams(linear=res, environment=env, kerr=99.5e3, phi=res.phi0)
        f = grid_around(res, span_linewidths=14.0, points=4001)
        dips = []
        for p in np.arange(-150.0, -110.0, 1.0):
            mag = np.abs(rl.model_s21_kerr(params, f, p, "lowest"))
            dips.append(f[np.argmin(mag)])
        assert np.all(np.diff(dips) <= 0.0)
        assert dips[-1] < dips[0]  # and the shift is actually resolved

    def test_branch_rules_differ_in_bistable_regime(self, sample_resonator, environment):
        res, env = sample_resonator, environment
        params = rl.KerrParams(linear=res, environment=env, kerr=99.5e3, phi=res.phi0)
        f = grid_around(res, span_linewidths=14.0, points=2001)
        p = -112.0  # far above bifurcation for these parameters
        low = rl.model_s21_kerr(params, f, p, "lowest")
        high = rl.model_s21_kerr(params, f, p, "highest")
        assert np.max(np.abs(low - high)) > 1e-3
        cont = rl.model_s21_kerr(params, f, p, "sweep-continuation")
        assert cont.shape == low.shape

    def test_sweep_continuation_matches_per_point_loop(self, sample_resonator):
        res = sample_resonator
        f = grid_around(res, span_linewidths=14.0, points=2001)
        delta = TWO_PI * (res.f_r - f) / res.kappa_l
        bistable = moved = 0
        for kerr in (99.5e3, -99.5e3):
            for p in np.arange(-130.0, -111.0, 2.0):  # up to the -112 dBm slice above
                alpha_in_sq = rl.dbm_to_watts(p) / (rl.HBAR * TWO_PI * f)
                xi = alpha_in_sq * res.kappa_c * TWO_PI * kerr / res.kappa_l**3
                roots = rl.photon_cubic_roots(np.sign(kerr) * delta, np.abs(xi))
                n = _select_branch(roots, "sweep-continuation")
                np.testing.assert_array_equal(n, continuation_branch(roots))
                bistable += np.count_nonzero(np.isfinite(roots[:, 2]))
                moved += np.count_nonzero(n != roots[:, 0])
        # the grid reaches the bistable regime, where the rule leaves the lowest root
        assert bistable > 0 and moved > 0

    def test_invalid_branch(self, sample_resonator, environment):
        # every public entry point reaches the one check, in _select_branch
        params = rl.KerrParams(
            linear=sample_resonator, environment=environment, kerr=1e4, phi=0.0
        )
        match = "unknown branch rule 'median'"
        with pytest.raises(ValueError, match=match):
            rl.model_s21_kerr(params, sample_resonator.f_r, -140.0, branch="median")
        grid = grid_around(sample_resonator, points=201)
        with pytest.raises(ValueError, match=match):
            rl.generate_kerr_sweep(params, grid, [-150.0, -140.0], "median")
        sweep = rl.generate_kerr_sweep(params, grid, [-150.0, -140.0])
        lin = rl.fit_linear(sweep.traces[0])
        with pytest.raises(ValueError, match=match):
            rl.fit_kerr(sweep, lin, rl.KerrFitOptions(branch="median"))

    def test_scalar_frequency_returns_scalar(self, sample_resonator, environment):
        params = rl.KerrParams(
            linear=sample_resonator, environment=environment, kerr=1e4, phi=0.1
        )
        value = rl.model_s21_kerr(params, sample_resonator.f_r, -140.0)
        assert isinstance(value, complex)
        array = rl.model_s21_kerr(params, np.array([sample_resonator.f_r]), -140.0)
        assert array.shape == (1,) and array[0] == value

    def test_on_resonance_occupation_matches_linear_formula(self, sample_resonator):
        # the cubic's n, converted back through the input flux, must agree
        # with the closed-form linear occupation as the drive vanishes
        res = sample_resonator
        p_dbm = -170.0
        alpha_in_sq = rl.dbm_to_watts(p_dbm) / (rl.HBAR * TWO_PI * res.f_r)
        n = rl.photon_cubic_roots(0.0, 0.0)[0]  # xi -> 0 on resonance
        n_ph = n * alpha_in_sq * res.kappa_c / res.kappa_l**2
        assert n_ph == pytest.approx(rl.photon_number(res, p_dbm), rel=1e-12)


class TestSinglePhotonPower:
    def test_inverse_consistency(self, sample_resonator):
        p = rl.single_photon_power(sample_resonator)
        assert rl.photon_number(sample_resonator, p) == pytest.approx(1.0, abs=1e-10)

    def test_representative_value(self):
        res = resonator(f_r=6.117e9, q_c=1500.0, q_i=15800.0)
        assert abs(rl.single_photon_power(res) - (-133.0)) < 1.5

    def test_three_db_doubles_photons(self, sample_resonator):
        p = rl.single_photon_power(sample_resonator)
        ratio = rl.photon_number(sample_resonator, p + 3.0) / rl.photon_number(
            sample_resonator, p
        )
        assert ratio == pytest.approx(10 ** 0.3, rel=1e-3)


class TestKerrFromArray:
    def test_reference_array_scale(self):
        assert rl.kerr_from_array(0.6e9, 46) == pytest.approx(283.6e3, rel=1e-3)

    def test_single_junction(self):
        assert rl.kerr_from_array(0.6e9, 1) == 0.6e9

    def test_inverse_square_scaling(self):
        assert rl.kerr_from_array(0.6e9, 92) == rl.kerr_from_array(0.6e9, 46) / 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            rl.kerr_from_array(0.0, 46)
        with pytest.raises(ValueError):
            rl.kerr_from_array(0.6e9, 0)


def _synthetic_sweep(res, env, kerr, seed, snr=40.0, phi=None):
    params = rl.KerrParams(
        linear=res, environment=env, kerr=kerr, phi=res.phi0 if phi is None else phi
    )
    grid = grid_around(res, span_linewidths=10.0, points=401, center=res.f_r - linewidth_hz(res))
    psp = rl.single_photon_power(res)
    powers = np.arange(psp - 18.0, psp + 16.0, 2.0)
    return rl.generate_kerr_sweep(params, grid, powers, "lowest", rl.NoiseSpec(snr_db=snr, seed=seed))


class TestFitKerr:
    def test_recovers_kerr_within_five_percent(self, sample_resonator, environment):
        sweep = _synthetic_sweep(sample_resonator, environment, 100e3, seed=21)
        lin = rl.fit_linear(sweep.traces[0])
        fit = rl.fit_kerr(sweep, lin)
        assert fit.params.kerr == pytest.approx(100e3, rel=0.05)
        assert fit.k_uncertainty > 0

    def test_null_case_consistent_with_zero(self, sample_resonator, environment):
        sweep = _synthetic_sweep(sample_resonator, environment, 0.0, seed=42)
        lin = rl.fit_linear(sweep.traces[0])
        fit = rl.fit_kerr(sweep, lin)
        assert abs(fit.params.kerr) < 2.0 * fit.k_uncertainty

    def test_negative_kerr_recovered(self, sample_resonator, environment):
        res, env = sample_resonator, environment
        params = rl.KerrParams(linear=res, environment=env, kerr=-80e3, phi=res.phi0)
        grid = grid_around(res, span_linewidths=10.0, points=401,
                           center=res.f_r + linewidth_hz(res))
        psp = rl.single_photon_power(res)
        powers = np.arange(psp - 18.0, psp + 16.0, 2.0)
        sweep = rl.generate_kerr_sweep(params, grid, powers, "lowest",
                                       rl.NoiseSpec(snr_db=40, seed=33))
        lin = rl.fit_linear(sweep.traces[0])
        fit = rl.fit_kerr(sweep, lin)
        assert fit.params.kerr == pytest.approx(-80e3, rel=0.05)

    def test_grid_mismatch_rejected(self, sample_resonator, environment):
        sweep = _synthetic_sweep(sample_resonator, environment, 100e3, seed=2)
        other = resonator(f_r=4.0e9)
        bogus = rl.LinearFitResult(
            resonator=other,
            environment=environment,
            uncertainties=dict.fromkeys(rl.linfit.PARAM_NAMES, 0.0),
            covariance=np.zeros((7, 7)),
            residual_rms=0.0,
            n_photons=None,
        )
        with pytest.raises(rl.DataError):
            rl.fit_kerr(sweep, bogus)

    def test_mask_bistable_mode_runs(self, sample_resonator, environment):
        sweep = _synthetic_sweep(sample_resonator, environment, 150e3, seed=3)
        lin = rl.fit_linear(sweep.traces[0])
        fit = rl.fit_kerr(sweep, lin, rl.KerrFitOptions(mask_bistable=True, k_init=150e3))
        assert fit.params.kerr == pytest.approx(150e3, rel=0.08)

    def test_free_all_diagnostic_mode(self, sample_resonator, environment):
        sweep = _synthetic_sweep(sample_resonator, environment, 120e3, seed=4)
        lin = rl.fit_linear(sweep.traces[0])
        fit = rl.fit_kerr(sweep, lin)
        assert fit.params.kerr == pytest.approx(120e3, rel=0.05)
        assert fit.params.linear.f_r == pytest.approx(sample_resonator.f_r, rel=1e-6)
        # every linear parameter but phi0 is refitted over every slice
        res, env = fit.params.linear, fit.params.environment
        moved = (
            (res.f_r, lin.resonator.f_r),
            (res.kappa_c, lin.resonator.kappa_c),
            (res.kappa_int, lin.resonator.kappa_int),
            (env.amplitude, lin.environment.amplitude),
            (env.alpha, lin.environment.alpha),
            (env.tau, lin.environment.tau),
        )
        assert all(new != old for new, old in moved)
        assert res.phi0 == lin.resonator.phi0

    def test_mask_follows_the_chosen_start(self, sample_resonator, environment):
        # both k_init values have 150 kHz among their start candidates, so
        # they start, and mask, at the same K
        sweep = _synthetic_sweep(sample_resonator, environment, 150e3, seed=3)
        lin = rl.fit_linear(sweep.traces[0])
        a, b = (
            rl.fit_kerr(sweep, lin, rl.KerrFitOptions(mask_bistable=True, k_init=k))
            for k in (150e3, 450e3)
        )
        assert abs(a.params.kerr - b.params.kerr) <= 1e-3 * a.k_uncertainty

    def test_free_all_error_bar_matches_the_scatter(self):
        # the joint fit over every slice, with its marginal sigma_K, on 24
        # noise draws of one sweep with a 40 ns cable delay
        res = rl.LinearResonatorParams(6.117e9, 2.56e7, 2.43e6, 0.2)
        env = rl.EnvironmentParams(0.9, 0.3, 40e-9)
        params = rl.KerrParams(linear=res, environment=env, kerr=100e3, phi=0.2)
        grid = np.linspace(6.10e9, 6.13e9, 401)
        powers = np.linspace(-150.0, -110.0, 15)
        kerr, sigma = [], []
        for seed in range(24):
            sweep = rl.generate_kerr_sweep(
                params, grid, powers, "lowest", rl.NoiseSpec(snr_db=30, seed=seed)
            )
            fit = rl.fit_kerr(sweep, rl.fit_linear(sweep.traces[0]))
            kerr.append(fit.params.kerr)
            sigma.append(fit.k_uncertainty)
        kerr, sigma = np.array(kerr), np.array(sigma)
        assert 0.5 <= np.std(kerr, ddof=1) / np.median(sigma) <= 2.0
        assert abs(np.median((kerr - 100e3) / sigma)) <= 1.0


class TestSolveReuse:
    """The photon cubic is solved once per distinct (f_r, kappa_c, kappa_int, K)."""

    @staticmethod
    def _draw(index):
        k_true, sweep = next(itertools.islice(kerr_recovery_draws(), index, None))
        return k_true, sweep, [rl.dbm_to_watts(t.drive_power) for t in sweep.traces]

    @pytest.mark.parametrize("branch", rl.kerrfit.BRANCH_RULES)
    def test_stored_solve_gives_the_fresh_model_bit_for_bit(self, branch, monkeypatch):
        k_true, sweep, watts = self._draw(4)
        lin = rl.fit_linear(sweep.traces[0])
        p = _sweep_vector(lin.resonator, lin.environment, k_true, lin.resonator.phi0)
        f = sweep.frequencies
        solve = _solve_sweep(p, f, watts, branch)
        # phi, amplitude, alpha and tau do not enter the cubic
        moved = p.copy()
        moved[[3, 4, 5, 6]] += [-0.1, 0.05, 0.2, 1e-9]
        other_k, other_f_r = p.copy(), p.copy()
        other_k[7] *= 1.5
        other_f_r[0] += 0.1 * linewidth_hz(lin.resonator)
        cases = (p, moved, other_k, other_f_r)
        fresh = [_sweep_model(q, f, watts, branch, True) for q in cases]
        assert fresh[0][2].three.any()  # the draw is bistable at its true K

        kernel = rl.kerrfit.photon_cubic_roots
        calls = []
        monkeypatch.setattr(
            rl.kerrfit, "photon_cubic_roots", lambda *a: calls.append(1) or kernel(*a)
        )
        for q, (s21, jac, fresh_solve) in zip(cases, fresh):
            stored = _sweep_model(q, f, watts, branch, True, solve=solve)
            assert np.array_equal(stored[0], s21)
            assert np.array_equal(stored[1], jac, equal_nan=True)
            assert np.array_equal(stored[2].three, fresh_solve.three)
        # the solve served p and moved; other_k and other_f_r were solved afresh
        assert len(calls) == 2 * len(sweep)
        assert not np.array_equal(fresh[2][0], fresh[0][0])
        assert not np.array_equal(fresh[3][0], fresh[0][0])

    @pytest.mark.parametrize(
        "mask, rejected_last",
        [(False, False), (False, True), (True, False)],
        ids=["accepted-last-step", "rejected-last-step", "mask-bistable"],
    )
    def test_jacobians_add_no_kernel_calls(self, monkeypatch, mask, rejected_last):
        # one kernel call per row for each residual of the solver, and one per
        # ranked row for each start candidate; no more for the Jacobians, the
        # covariance at the solution, the mask or model_s21. The counts hold
        # on every draw tried; the draws are tried in order up to the first
        # whose fit ends on the wanted kind of step, since which draws do
        # depends on the last bits of the solve.
        kernel, solver = rl.kerrfit.photon_cubic_roots, rl.kerrfit.least_squares
        model = rl.kerrfit._sweep_model
        calls, runs, jacobians = [], [], []

        def counted_model(p, f, watts, branch, jac=False, solve=None):
            if jac:
                jacobians.append(1)
            return model(p, f, watts, branch, jac, solve)

        def counted_solver(fun, x0, jac, **kwargs):
            points = []

            def residual(x):
                points.append(x.copy())
                return fun(x)

            sol = solver(residual, x0, jac=jac, **kwargs)
            runs.append((sol, points[-1]))
            return sol

        monkeypatch.setattr(
            rl.kerrfit, "photon_cubic_roots", lambda *a: calls.append(1) or kernel(*a)
        )
        monkeypatch.setattr(rl.kerrfit, "least_squares", counted_solver)
        monkeypatch.setattr(rl.kerrfit, "_sweep_model", counted_model)
        for _, sweep in itertools.islice(kerr_recovery_draws(), 12):
            lin = rl.fit_linear(sweep.traces[0])
            for counts in (calls, runs, jacobians):
                counts.clear()
            rl.fit_kerr(sweep, lin, rl.KerrFitOptions(mask_bistable=mask))
            [(sol, last_point)] = runs
            assert len(calls) == len(sweep) * sol.nfev + 4 * RANK_ROWS
            # the covariance takes the solver's Jacobian at sol.x: none is built after it returns
            assert len(jacobians) == sol.njev
            # the covariance Jacobian at sol.x follows an accepted or a rejected step
            if (not np.array_equal(last_point, sol.x)) == rejected_last:
                break
        else:
            pytest.fail("no draw ends on the wanted kind of step")

    @pytest.mark.parametrize("branch", rl.kerrfit.BRANCH_RULES)
    def test_model_s21_is_the_model_at_the_reported_values(self, branch):
        _, sweep, _ = self._draw(4)
        fit = rl.fit_kerr(sweep, rl.fit_linear(sweep.traces[0]), rl.KerrFitOptions(branch=branch))
        assert fit.model_s21.shape == (len(sweep), sweep.frequencies.size)
        for row, trace in zip(fit.model_s21, sweep.traces):
            expected = rl.model_s21_kerr(fit.params, sweep.frequencies, trace.drive_power, branch)
            assert np.array_equal(row, expected)


class TestSolverProblem:
    """The residual and Jacobian that fit_kerr hands to the solver."""

    @staticmethod
    def _problem(monkeypatch, options):
        """A bistable draw, and the residual, start, Jacobian and scales of its fit."""
        _, sweep = next(itertools.islice(kerr_recovery_draws(), 4, None))
        lin = rl.fit_linear(sweep.traces[0])
        solver, problems = rl.kerrfit.least_squares, []

        def spy(fun, x0, jac, **kwargs):
            problems.append((fun, x0.copy(), jac, kwargs["x_scale"]))
            return solver(fun, x0, jac=jac, **kwargs)

        monkeypatch.setattr(rl.kerrfit, "least_squares", spy)
        rl.fit_kerr(sweep, lin, options)
        [problem] = problems
        return sweep, problem

    @pytest.mark.parametrize("mask", [False, True], ids=["all-points", "mask-bistable"])
    def test_non_positive_kappa_c_gets_a_nan_residual(self, monkeypatch, mask):
        # xi would be negative there: the residual is NaN, on which the solver
        # shrinks its step, and neither the cubic nor the model runs
        _, (residual, x0, _, _) = self._problem(monkeypatch, rl.KerrFitOptions(mask_bistable=mask))
        size = residual(x0).size
        calls = []
        for name in ("photon_cubic_roots", "_notch"):
            monkeypatch.setattr(rl.kerrfit, name, lambda *a, name=name: calls.append(name))
        for factor in (-1.0, -0.1, 0.0):
            x = x0.copy()
            x[1] *= factor
            r = residual(x)
            assert r.shape == (size,) and np.all(np.isnan(r))
        assert not calls

    def test_masked_residual_and_jacobian_pair_row_for_row(self, monkeypatch):
        # the mask drops the same points from both; every kept point has one
        # root at x0, so no branch switches under a central-difference step
        sweep, (residual, x0, jacobian, x_scale) = self._problem(
            monkeypatch, rl.KerrFitOptions(mask_bistable=True)
        )
        analytic = jacobian(x0)
        assert 0 < analytic.shape[0] < 2 * len(sweep) * sweep.frequencies.size  # points dropped
        assert analytic.shape == (residual(x0).size, x0.size)
        numeric = central_jacobian(residual, x0, x_scale)
        error = np.linalg.norm(analytic - numeric, axis=0)
        scale = np.linalg.norm(numeric, axis=0)
        for name, err, ref in zip(rl.kerrfit.SWEEP_PARAM_NAMES, error, scale):
            assert err <= 1e-6 * ref, name


@pytest.mark.parametrize("branch", rl.kerrfit.BRANCH_RULES)
@pytest.mark.parametrize("kerr", [100e3, -80e3, 0.0])
def test_kerr_jacobian_matches_central_differences(sample_resonator, environment, kerr, branch):
    res, env = sample_resonator, environment
    lw = linewidth_hz(res)
    center = res.f_r - math.copysign(lw, kerr)  # as in the fit tests of either sign
    grid = grid_around(res, span_linewidths=10.0, points=401, center=center)
    psp = rl.single_photon_power(res)
    # the ladder of _synthetic_sweep, extended into the bistable regime
    watts = [rl.dbm_to_watts(p) for p in np.arange(psp - 18.0, psp + 24.0, 2.0)]
    p = _sweep_vector(res, env, kerr, 0.15)
    # the steps fit_kerr would scale its parameters by
    tau_scale = 1.0 / (TWO_PI * (grid[-1] - grid[0]))
    k_scale = max(abs(kerr), 1e-3 * lw)
    x_scale = np.array(
        [lw, res.kappa_l, res.kappa_l, 0.3, env.amplitude, 0.3, tau_scale, k_scale]
    )
    _, analytic, solve = _sweep_model(p, grid, watts, branch, True)
    analytic = analytic.reshape(8, -1).view(float).T
    three = solve.three

    def residual(q):
        return _sweep_model(q, grid, watts, branch)[0].view(float).ravel()

    numeric = central_jacobian(residual, p, x_scale)
    assert analytic.shape == (2 * three.size, 8)
    assert np.any(three) == (kerr != 0.0)
    # points with three roots can switch branch under a finite step; each
    # point's real and imaginary part sit side by side
    single = np.repeat(~three.ravel(), 2)
    error = np.linalg.norm(analytic[single] - numeric[single], axis=0)
    scale = np.linalg.norm(numeric[single], axis=0)
    for name, err, ref in zip(rl.kerrfit.SWEEP_PARAM_NAMES, error, scale):
        assert err <= 1e-6 * ref, name
