"""The package's trust-region solver, checked against scipy's least_squares.

Every fit problem the package poses is captured at its ``least_squares``
call and solved again by ``scipy.optimize.least_squares(method="trf")``,
whose ratio test, radius update and stopping rules the package solver
shares. The two must agree on the outcome (converged or out of budget), and
the package must end at a final cost no higher than scipy's by more than
1e-9 relative. The stopping code itself (ftol, xtol or both) is not
compared: rounding decides it at the edge of the tolerances.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import least_squares as scipy_least_squares

import resonatorlab as rl
from conftest import grid_around, kerr_recovery_draws, resonator
from resonatorlab import _lsq, fieldmodel, kerrfit, linfit
from resonatorlab._lsq import least_squares
from resonatorlab.kerrfit import SWEEP_PARAM_NAMES, KerrFitOptions, _sweep_model, _sweep_vector
from resonatorlab.linfit import _refinement_problem

TWO_PI = 2.0 * math.pi


@pytest.fixture
def captured(monkeypatch):
    """Every problem the fits hand to ``least_squares``, with the package's solution."""
    problems = []

    def capture(fun, x0, jac, **kwargs):
        sol = _lsq.least_squares(fun, x0, jac=jac, **kwargs)
        problems.append((fun, np.array(x0, dtype=float), jac, kwargs, sol))
        return sol

    for module in (linfit, kerrfit, fieldmodel):
        monkeypatch.setattr(module, "least_squares", capture)
    return problems


def assert_matches_scipy(problems):
    assert problems
    for fun, x0, jac, kwargs, sol in problems:
        ref = scipy_least_squares(fun, x0, jac=jac, method="trf", **kwargs)
        assert (sol.status > 0) == (ref.status > 0)
        assert sol.cost <= ref.cost * (1.0 + 1e-9)


def linear_pool(count):
    """The first ``count`` traces of the ``linear-batch`` benchmark pool.

    Criterion-3 ranges; the grid sizes cycle through 501, 2001 and 6001
    points, drawn in the pool's order from its design seed.
    """
    design = np.random.default_rng([0, 3])
    for i in range(count):
        points = (501, 2001, 6001)[i % 3]
        f_r = design.uniform(4e9, 8e9)
        q_c = 10 ** design.uniform(math.log10(500), math.log10(2e5))
        q_i = 10 ** design.uniform(3, 6)
        res = rl.LinearResonatorParams(
            f_r=f_r,
            kappa_c=TWO_PI * f_r / q_c,
            kappa_int=TWO_PI * f_r / q_i,
            phi0=design.uniform(-0.4, 0.4),
        )
        env = rl.EnvironmentParams(
            amplitude=design.uniform(0.5, 1.5),
            alpha=design.uniform(-math.pi, math.pi),
            tau=design.uniform(-80e-9, 80e-9),
        )
        half = design.uniform(10, 25) / 2.0 * res.kappa_l / TWO_PI
        grid = np.linspace(f_r - half, f_r + half, points)
        noise = rl.NoiseSpec(snr_db=design.uniform(35, 50), seed=int(design.integers(2**62)))
        yield rl.generate_linear_trace(res, env, grid, -140.0, noise)


def test_linear_pool_matches_scipy(captured):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for trace in linear_pool(24):
            rl.fit_linear(trace)
    assert len(captured) == 24
    assert_matches_scipy(captured)


#: Every 25th criterion-4(c) draw, and three whose sweeps hold points next
#: to a fold of the cubic, where the lowest-branch cost jumps. Draw 18, the
#: fourth, has its own test below.
KERR_DRAWS = (0, 17, 25, 43, 46)


@pytest.mark.parametrize(
    "options",
    [
        KerrFitOptions(),
        KerrFitOptions(branch="sweep-continuation"),
        KerrFitOptions(mask_bistable=True),
    ],
    ids=["default", "sweep-continuation", "mask_bistable"],
)
def test_kerr_draws_match_scipy(captured, options):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i, (_, sweep) in enumerate(kerr_recovery_draws()):
            if i in KERR_DRAWS:
                rl.fit_kerr(sweep, rl.fit_linear(sweep.traces[0]), options)
    assert len(captured) == 2 * len(KERR_DRAWS)
    assert_matches_scipy(captured)


def test_crawling_kerr_draw_converges_within_its_budget(captured):
    # on criterion-4(c) draw 18 the lowest root vanishes at a fold, where
    # the cost jumps; a fit of (K, phi) alone crawled there for ~360
    # evaluations
    k_true, sweep = next(draw for i, draw in enumerate(kerr_recovery_draws()) if i == 18)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = rl.fit_kerr(sweep, rl.fit_linear(sweep.traces[0]))
    sol = captured[-1][-1]
    assert sol.status > 0
    assert sol.nfev < KerrFitOptions().max_iterations * 3
    assert sol.nfev < 60
    assert abs(fit.params.kerr - k_true) <= 0.1 * k_true


def test_field_sweeps_match_scipy(captured):
    # top fields from 0.1 to 0.8 of the domain edge; the lowest leave the
    # larger field scale unconstrained
    rng = np.random.default_rng(123)
    for _ in range(30):
        truth = rl.FieldModelParams(
            rng.uniform(4e9, 8e9), rng.uniform(20e-3, 200e-3), rng.uniform(20e-3, 200e-3)
        )
        fields = np.linspace(0.0, rng.uniform(0.1, 0.8) * truth.b_max, 13)
        rl.fit_field_sweep(rl.generate_field_sweep(truth, fields, 5e6, int(rng.integers(2**31))))
    assert len(captured) == 30
    assert_matches_scipy(captured)


def test_every_solution_carries_the_jacobian_at_its_x(captured):
    # the fits take their covariance from sol.jac, so it must be the
    # problem's own Jacobian at sol.x, bit for bit
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for trace in linear_pool(6):
            rl.fit_linear(trace)
        _, sweep = next(kerr_recovery_draws())
        lin = rl.fit_linear(sweep.traces[0])
        for options in (KerrFitOptions(), KerrFitOptions(mask_bistable=True)):
            rl.fit_kerr(sweep, lin, options)
        truth = rl.FieldModelParams(7e9, 66e-3, 102e-3)
        for seed, top in enumerate((0.2, 0.5, 0.8)):
            fields = np.linspace(0.0, top * truth.b_max, 13)
            rl.fit_field_sweep(rl.generate_field_sweep(truth, fields, 5e6, seed))
    assert len(captured) == 6 + 1 + 2 + 3
    for _, _, jac, _, sol in captured:
        assert np.array_equal(sol.jac, jac(sol.x))


def _linear_failure():
    """A linear fit, its reported names, and its residual at reported values."""
    res = resonator(phi0=0.2)
    env = rl.EnvironmentParams(amplitude=0.87, alpha=0.4, tau=40e-9)
    grid = grid_around(res, points=501)
    trace = rl.generate_linear_trace(res, env, grid, -140.0, rl.NoiseSpec(snr_db=40, seed=1))
    residual = _refinement_problem(grid, trace.values)[0]
    names = linfit.PARAM_NAMES
    return lambda: rl.fit_linear(trace), names, lambda p: residual(np.array([p[n] for n in names]))


def _kerr_failure():
    _, sweep = next(kerr_recovery_draws())
    lin = rl.fit_linear(sweep.traces[0])
    watts = [rl.dbm_to_watts(t.drive_power) for t in sweep.traces]
    data = np.array([t.values for t in sweep.traces])

    def residual(params):
        p = _sweep_vector(lin.resonator, lin.environment, 0.0, 0.0)
        for name, value in params.items():
            p[SWEEP_PARAM_NAMES.index(name)] = value
        return (_sweep_model(p, sweep.frequencies, watts, "lowest")[0] - data).view(float).ravel()

    names = ("f_r", "kappa_c", "kappa_int", "phi", "amplitude", "alpha", "tau", "kerr")
    return lambda: rl.fit_kerr(sweep, lin), names, residual


def _field_failure():
    truth = rl.FieldModelParams(7e9, 66e-3, 102e-3)
    points = rl.generate_field_sweep(truth, np.linspace(0.0, 0.06, 13), 5e6, 4)
    fields = np.array([p.field for p in points])
    freqs = np.array([p.resonance for p in points])
    sigmas = np.array([p.sigma for p in points])

    def residual(params):
        return (rl.fr_vs_field(rl.FieldModelParams(**params), fields) - freqs) / sigmas

    return lambda: rl.fit_field_sweep(points), ("f0", "b_crit", "b_phi0"), residual


@pytest.mark.parametrize(
    "failure", [_linear_failure, _kerr_failure, _field_failure], ids=["linear", "kerr", "field"]
)
def test_a_failed_fit_carries_its_last_iterate_as_reported_parameters(monkeypatch, failure):
    # with the solver cut to 3 evaluations, each fit raises with the solver's
    # last point as reported parameters: alpha as the 0 Hz phase, not the
    # fitted centre phase, and the field scales in tesla, not the fitted
    # log-lifts, so the reported model there gives the solver's residual
    fit, names, residual = failure()
    runs = []

    def cut_short(fun, x0, jac, **kwargs):
        runs.append(_lsq.least_squares(fun, x0, jac=jac, **{**kwargs, "max_nfev": 3}))
        return runs[-1]

    for module in (linfit, kerrfit, fieldmodel):
        monkeypatch.setattr(module, "least_squares", cut_short)
    with pytest.raises(rl.ConvergenceError) as failed:
        fit()
    [sol] = runs
    assert sol.status == 0
    assert tuple(failed.value.last_params) == names
    np.testing.assert_allclose(
        residual(failed.value.last_params), sol.fun, rtol=0.0, atol=1e-9 * np.abs(sol.fun).max()
    )


def rosenbrock(x):
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])


def rosenbrock_jac(x):
    return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])


def test_converges_on_rosenbrock():
    sol = least_squares(rosenbrock, [-1.2, 1.0], jac=rosenbrock_jac, ftol=1e-12, xtol=1e-12)
    assert sol.status > 0
    np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-8)
    assert sol.cost == pytest.approx(0.5 * float(sol.fun @ sol.fun))
    assert sol.njev <= sol.nfev


@pytest.mark.parametrize(
    "kwargs, status, rejected_last",
    [
        ({}, 1, False),
        ({"xtol": 1.0}, 3, True),
        ({"max_nfev": 3}, 0, False),
        ({"max_nfev": 2}, 0, True),
    ],
    ids=["converged-accepted", "converged-rejected", "budget-accepted", "budget-rejected"],
)
def test_result_carries_the_jacobian_at_x(kwargs, status, rejected_last):
    points = []

    def fun(x):
        points.append(x.copy())
        return rosenbrock(x)

    sol = least_squares(fun, [-1.2, 1.0], jac=rosenbrock_jac, **kwargs)
    assert sol.status == status
    assert (not np.array_equal(points[-1], sol.x)) == rejected_last
    assert np.array_equal(sol.jac, rosenbrock_jac(sol.x))


@pytest.mark.parametrize("budget", [1, 2, 5])
def test_exhausted_budget_is_status_0(budget):
    sol = least_squares(rosenbrock, [-1.2, 1.0], jac=rosenbrock_jac, max_nfev=budget)
    assert sol.status == 0
    assert sol.nfev == budget


def test_non_finite_trial_shrinks_the_step():
    # the first step, out to the initial radius, lands on log(0)
    trials = []

    def fun(x):
        trials.append(x[0])
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(x) - math.log(0.01)

    sol = least_squares(fun, [1.0], jac=lambda x: np.diag(1.0 / x), ftol=1e-12, xtol=1e-12)
    assert trials[1] == 0.0
    assert sol.status > 0
    assert sol.x[0] == pytest.approx(0.01, rel=1e-9)


def test_non_finite_start_is_rejected():
    with pytest.raises(ValueError):
        least_squares(lambda x: np.array([np.nan]), [1.0], jac=lambda x: np.ones((1, 1)))
