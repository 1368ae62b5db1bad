import math

import numpy as np
import pytest

import resonatorlab as rl
from oracles import central_jacobian
from resonatorlab import fieldmodel
from resonatorlab._lsq import LeastSquaresResult
from resonatorlab.fieldmodel import _tuning

SQRT2 = math.sqrt(2.0)


def aluminum_film(thickness):
    return rl.FilmSpec(
        thickness=thickness,
        london_depth=16e-9,
        pippard_length=1600e-9,
        bulk_critical_field=10e-3,
    )


@pytest.fixture
def bottom_lead():
    return aluminum_film(35e-9 / SQRT2)


@pytest.fixture
def top_lead():
    return aluminum_film(130e-9 / SQRT2)


class TestThinFilmFormulas:
    def test_effective_penetration_depths(self, bottom_lead, top_lead):
        assert rl.effective_penetration_depth(bottom_lead) == pytest.approx(129e-9, rel=0.03)
        assert rl.effective_penetration_depth(top_lead) == pytest.approx(67e-9, rel=0.03)

    def test_quarter_pippard_gives_twice_london(self):
        film = rl.FilmSpec(
            thickness=400e-9,
            london_depth=16e-9,
            pippard_length=1600e-9,
            bulk_critical_field=10e-3,
        )
        assert rl.effective_penetration_depth(film) == pytest.approx(32e-9, rel=1e-12)

    def test_thick_film_rejected(self):
        film = rl.FilmSpec(
            thickness=2e-6,
            london_depth=16e-9,
            pippard_length=1600e-9,
            bulk_critical_field=10e-3,
        )
        assert not film.is_thin_film
        with pytest.raises(rl.DomainError):
            rl.effective_penetration_depth(film)

    def test_parallel_critical_fields(self, bottom_lead, top_lead):
        assert rl.parallel_critical_field(bottom_lead) == pytest.approx(254e-3, rel=0.03)
        assert rl.parallel_critical_field(top_lead) == pytest.approx(36e-3, rel=0.03)

    def test_critical_field_thickness_scaling(self, bottom_lead):
        halved = aluminum_film(bottom_lead.thickness / 2.0)
        ratio = rl.parallel_critical_field(halved) / rl.parallel_critical_field(bottom_lead)
        assert ratio == pytest.approx(2.0**1.5, rel=1e-12)

    def test_flux_quantum_field(self, bottom_lead, top_lead):
        b = rl.flux_quantum_field(520e-9, 1e-9, bottom_lead, top_lead)
        assert b == pytest.approx(42e-3, rel=0.03)

    def test_flux_quantum_field_width_scaling(self, bottom_lead, top_lead):
        b1 = rl.flux_quantum_field(520e-9, 1e-9, bottom_lead, top_lead)
        b2 = rl.flux_quantum_field(1040e-9, 1e-9, bottom_lead, top_lead)
        assert b2 == pytest.approx(b1 / 2.0, rel=1e-12)

    def test_flux_quantum_area_uses_min_of_lambda_and_thickness(self):
        # both films thick enough that lambda_eff < d: area uses lambda_eff
        film = aluminum_film(1000e-9 / SQRT2)
        lam = rl.effective_penetration_depth(film)
        assert lam < film.thickness
        b = rl.flux_quantum_field(520e-9, 1e-9, film, film)
        expected = rl.FLUX_QUANTUM / (520e-9 * (2 * lam + 1e-9))
        assert b == pytest.approx(expected, rel=1e-12)


class TestTuningCurve:
    def test_zero_field_anchor(self):
        params = rl.FieldModelParams(f0=7e9, b_crit=66e-3, b_phi0=102e-3)
        assert rl.fr_vs_field(params, 0.0) == 7e9

    def test_strictly_decreasing_on_domain(self):
        params = rl.FieldModelParams(f0=7e9, b_crit=66e-3, b_phi0=102e-3)
        b = np.linspace(0.0, params.b_max * (1 - 1e-9), 1000)
        f = rl.fr_vs_field(params, b)
        assert np.all(np.diff(f) < 0.0)

    def test_matches_direct_formula(self):
        params = rl.FieldModelParams(f0=7e9, b_crit=66e-3, b_phi0=102e-3)
        b = 60e-3
        y = math.pi * b / params.b_phi0
        expected = 7e9 * (1 - (b / params.b_crit) ** 2) ** 0.25 * math.sqrt(math.sin(y) / y)
        value = rl.fr_vs_field(params, b)
        assert value == pytest.approx(expected, rel=1e-12)
        assert 0.0 < value < 7e9

    def test_tuning_reaches_four_gigahertz_band(self):
        # measured devices tuned from ~7 GHz down to ~4 GHz within 60 mT
        params = rl.FieldModelParams(f0=7e9, b_crit=66e-3, b_phi0=102e-3)
        assert rl.fr_vs_field(params, 55e-3) == pytest.approx(4e9, rel=0.05)

    def test_domain_errors(self):
        params = rl.FieldModelParams(f0=7e9, b_crit=66e-3, b_phi0=102e-3)
        with pytest.raises(rl.DomainError):
            rl.fr_vs_field(params, 66e-3)
        with pytest.raises(rl.DomainError):
            rl.fr_vs_field(params, -1e-3)
        # first sinc zero bounds the domain when b_phi0 < b_crit
        swapped = rl.FieldModelParams(f0=7e9, b_crit=0.2, b_phi0=0.05)
        with pytest.raises(rl.DomainError):
            rl.fr_vs_field(swapped, 0.06)


class TestFitFieldSweep:
    truth = rl.FieldModelParams(f0=7e9, b_crit=66e-3, b_phi0=102e-3)

    def test_recovery_with_degeneracy(self):
        fields = np.arange(0.0, 0.0601, 0.005)
        points = rl.generate_field_sweep(self.truth, fields, sigma_f=5e6, seed=5)
        fit = rl.fit_field_sweep(points)
        assert abs(fit.params.b_crit - 66e-3) <= 3e-3
        assert abs(fit.params.b_phi0 - 102e-3) <= 6e-3
        assert fit.correlation[1, 2] < -0.9
        assert np.allclose(fit.correlation, fit.correlation.T)
        assert all(s > 0 for s in fit.uncertainties)

    def test_noiseless_exact_recovery(self):
        fields = np.arange(0.0, 0.0601, 0.005)
        points = rl.generate_field_sweep(self.truth, fields, sigma_f=0.0)
        fit = rl.fit_field_sweep(points)
        assert fit.params.f0 == pytest.approx(7e9, rel=1e-8)
        assert fit.params.b_crit == pytest.approx(66e-3, rel=1e-8)
        assert fit.params.b_phi0 == pytest.approx(102e-3, rel=1e-8)

    def test_explicit_initial_guess(self):
        fields = np.arange(0.0, 0.0601, 0.005)
        points = rl.generate_field_sweep(self.truth, fields, sigma_f=2e6, seed=9)
        fit = rl.fit_field_sweep(
            points, rl.FieldModelParams(f0=6.8e9, b_crit=80e-3, b_phi0=150e-3)
        )
        assert fit.params.b_crit == pytest.approx(66e-3, abs=3e-3)

    def test_unconstrained_field_scale_has_no_finite_sigma(self):
        # fields up to a tenth of b_phi0 leave it flat: the fit runs off to
        # b_phi0 >> 1 T, and a finite sigma there (~1e-21 T) was meaningless
        points = rl.generate_field_sweep(self.truth, np.linspace(0.0, 10e-3, 13), 5e6, 0)
        fit = rl.fit_field_sweep(points)
        assert fit.params.b_phi0 > 1.0
        assert not math.isfinite(fit.uncertainties[2])
        assert np.all(np.isnan(fit.correlation[2])) and np.all(np.isnan(fit.correlation[:, 2]))
        assert all(math.isfinite(s) and s > 0.0 for s in fit.uncertainties[:2])
        assert fit.correlation[0, 1] == pytest.approx(fit.correlation[1, 0])

    def test_valley_covariance_matches_svd_reference(self):
        # with fields up to a tenth of the scales, b_crit and b_phi0 trade off
        # along a valley (cond(J_s) ~ 1e8): inverting J^T J there dropped the
        # valley and reported sigma_b_crit ~ 1e-4 T where it is ~ 5e3 T
        points = rl.generate_field_sweep(self.truth, np.linspace(0.0, 10e-3, 13), 5e6, 4)
        fit = rl.fit_field_sweep(points)
        x = np.array([fit.params.f0, fit.params.b_crit, fit.params.b_phi0])
        fields = np.array([p.field for p in points])
        jac = _tuning(x, fields, jac=True)[1] / np.array([p.sigma for p in points])[:, None]
        # reference: SVD of the column-normalized Jacobian, never forming J^T J
        norms = np.linalg.norm(jac, axis=0)
        _, s, vt = np.linalg.svd(jac / norms, full_matrices=False)
        variance = fit.residual_rms**2 * len(points) / (len(points) - 3)
        reference = variance * ((vt.T / s**2) @ vt) / np.outer(norms, norms)
        ref_sigmas = np.sqrt(np.diag(reference))
        np.testing.assert_allclose(fit.uncertainties, ref_sigmas, rtol=1e-4)
        np.testing.assert_allclose(
            fit.correlation, reference / np.outer(ref_sigmas, ref_sigmas), rtol=0.0, atol=1e-4
        )

    def test_optimum_at_non_positive_f0_is_a_convergence_error(self, monkeypatch):
        # the solver is unbounded: f0 <= 0 is refused after it returns
        def solver(fun, x0, normal, **kwargs):
            x = np.array([-1.0, *x0[1:]])
            f = fun(x)
            return LeastSquaresResult(x, 0.0, f, 2, 1, 2, normal(x, f), None)

        monkeypatch.setattr(fieldmodel, "least_squares", solver)
        points = rl.generate_field_sweep(self.truth, np.arange(0.0, 0.0601, 0.005), 0.0)
        with pytest.raises(rl.ConvergenceError, match="outside the model domain"):
            rl.fit_field_sweep(points)

    def test_insufficient_points(self):
        points = rl.generate_field_sweep(self.truth, [0.0, 0.01, 0.02], sigma_f=0.0)
        with pytest.raises(rl.InsufficientDataError):
            rl.fit_field_sweep(points)

    def test_sweep_without_a_field_above_zero(self):
        # no guess can be made from fields that are all 0 T, and none is tried
        points = rl.generate_field_sweep(self.truth, np.zeros(5), sigma_f=5e6, seed=1)
        with pytest.raises(rl.InsufficientDataError, match="no field above 0 T"):
            rl.fit_field_sweep(points)

    def test_sweep_of_two_distinct_fields(self):
        # four points but two fields hold one curvature for two field scales
        points = rl.generate_field_sweep(self.truth, [0.0, 0.0, 0.0, 0.01], sigma_f=5e6, seed=1)
        with pytest.raises(rl.InsufficientDataError, match="3 distinct fields"):
            rl.fit_field_sweep(points)

    def test_initial_guess_domain_violation(self):
        fields = np.arange(0.0, 0.0601, 0.005)
        points = rl.generate_field_sweep(self.truth, fields, sigma_f=0.0)
        with pytest.raises(rl.DomainError):
            rl.fit_field_sweep(
                points, rl.FieldModelParams(f0=7e9, b_crit=50e-3, b_phi0=102e-3)
            )


@pytest.mark.parametrize(
    "x",
    [(7e9, 66e-3, 102e-3), (7e9, 150e-3, 60e-3)],
    ids=["gap-limited", "flux-limited"],
)
def test_field_jacobian_matches_central_differences(x):
    # fields up to 97 % of the domain edge, where the curve bends hardest
    x = np.array(x)
    fields = np.linspace(0.0, 0.97 * min(x[1], x[2]), 33)
    analytic = _tuning(x, fields, jac=True)[1]
    numeric = central_jacobian(lambda q: _tuning(q, fields)[0], x, x)
    assert analytic.shape == (fields.size, 3)
    column_error = np.abs(analytic - numeric).max(axis=0) / np.abs(numeric).max(axis=0)
    for name, err in zip(("f0", "b_crit", "b_phi0"), column_error):
        assert err <= 1e-6, name
