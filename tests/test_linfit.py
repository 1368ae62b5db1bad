import itertools
import math
import warnings

import numpy as np
import pytest

import resonatorlab as rl
import conftest
from conftest import grid_around, linewidth_hz, resonator
from oracles import central_jacobian, dense_seed_drops, reference_seed_drops
from resonatorlab._lsq import QR_BLOCK_ROWS, _scaled_pinv
from resonatorlab.linfit import (
    PARAM_NAMES,
    SEED_BLOCKS,
    SEED_Q_LEVELS,
    _notch,
    _profiled_seed,
    _refinement_problem,
    _seed_bins,
    _seed_drops,
    _seed_kernel,
    linear_payload,
    q_sigma,
)

TWO_PI = 2.0 * np.pi


class TestModel:
    def test_background_recovery_far_from_resonance(self, sample_resonator, environment):
        res, env = sample_resonator, environment
        f = res.f_r + np.array([-1.0, 1.0]) * 150.0 * linewidth_hz(res)
        mag = np.abs(rl.model_s21_linear(res, env, f))
        assert np.all(np.abs(mag - env.amplitude) < 0.01 * env.amplitude)

    def test_on_resonance_value_phi0_zero(self):
        res = resonator(phi0=0.0)
        env = rl.EnvironmentParams(amplitude=1.3, alpha=0.7, tau=25e-9)
        s = rl.model_s21_linear(res, env, res.f_r)
        ratio = s / (
            env.amplitude * np.exp(1j * env.alpha) * np.exp(-2j * np.pi * res.f_r * env.tau)
        )
        assert ratio.imag == pytest.approx(0.0, abs=1e-15)
        assert ratio.real == pytest.approx(res.kappa_int / res.kappa_l, rel=1e-12)

    def test_dip_depth_matches_quality_factors(self):
        res = resonator(q_c=1500.0, q_i=15800.0)
        env = rl.EnvironmentParams()
        f = grid_around(res, span_linewidths=30.0, points=60001)
        dip = np.abs(rl.model_s21_linear(res, env, f)).min()
        assert dip == pytest.approx(1.0 - res.q_l / res.q_c, abs=1e-6)

    def test_kappa_int_039_mhz_round_trip(self):
        # the measured internal loss rate of the etched-substrate device
        f_r = 6.117e9
        res = rl.LinearResonatorParams(
            f_r=f_r, kappa_c=TWO_PI * f_r / 1500.0, kappa_int=TWO_PI * 0.39e6
        )
        trace = rl.generate_linear_trace(
            res, rl.EnvironmentParams(), grid_around(res), -140.0, rl.NoiseSpec(snr_db=45, seed=3)
        )
        fit = rl.fit_linear(trace)
        assert fit.resonator.kappa_int / TWO_PI == pytest.approx(0.39e6, rel=0.05)


class TestEstimateDelay:
    def test_recovers_synthetic_delay(self):
        res = resonator()
        env = rl.EnvironmentParams(amplitude=1.0, alpha=0.0, tau=50e-9)
        grid = grid_around(res, span_linewidths=60.0, points=4001)
        trace = rl.generate_linear_trace(res, env, grid, -140.0, rl.NoiseSpec())
        assert rl.estimate_delay(trace, 0.15) == pytest.approx(50e-9, rel=0.02)

    def test_zero_delay(self):
        res = resonator()
        grid = grid_around(res, span_linewidths=60.0, points=4001)
        trace = rl.generate_linear_trace(res, rl.EnvironmentParams(), grid, -140.0, rl.NoiseSpec())
        span = trace.span
        assert abs(rl.estimate_delay(trace, 0.15)) < 0.01 / span

    def test_pure_delay_exact(self):
        f = np.linspace(5e9, 6e9, 512)
        tau = 13.5e-9
        trace = rl.FrequencyTrace(frequencies=f, values=np.exp(-2j * np.pi * f * tau))
        assert rl.estimate_delay(trace, 0.25) == pytest.approx(tau, rel=1e-12)

    def test_too_few_wing_samples(self):
        f = np.linspace(5e9, 6e9, 20)
        trace = rl.FrequencyTrace(frequencies=f, values=np.ones(20))
        with pytest.raises(rl.InsufficientDataError):
            rl.estimate_delay(trace, 0.1)

    def test_wing_fraction_validation(self):
        f = np.linspace(5e9, 6e9, 100)
        trace = rl.FrequencyTrace(frequencies=f, values=np.ones(100))
        with pytest.raises(ValueError):
            rl.estimate_delay(trace, 0.3)


class TestFitLinear:
    def test_noiseless_exact_recovery(self, sample_resonator, environment):
        res, env = sample_resonator, environment
        trace = rl.generate_linear_trace(res, env, grid_around(res), -140.0, rl.NoiseSpec())
        fit = rl.fit_linear(trace)
        assert fit.residual_rms < 1e-10
        assert fit.resonator.f_r == pytest.approx(res.f_r, rel=1e-8)
        assert fit.resonator.kappa_c == pytest.approx(res.kappa_c, rel=1e-8)
        assert fit.resonator.kappa_int == pytest.approx(res.kappa_int, rel=1e-8)
        assert fit.resonator.phi0 == pytest.approx(res.phi0, abs=1e-8)
        assert fit.environment.amplitude == pytest.approx(env.amplitude, rel=1e-8)
        assert fit.environment.tau == pytest.approx(env.tau, rel=1e-8)

    def test_noisy_recovery_within_three_sigma(self, sample_resonator, environment):
        res, env = sample_resonator, environment
        grid = grid_around(res, span_linewidths=15.0, points=2001)
        trace = rl.generate_linear_trace(res, env, grid, -140.0, rl.NoiseSpec(snr_db=40, seed=7))
        fit = rl.fit_linear(trace)
        true = {
            "f_r": res.f_r,
            "kappa_c": res.kappa_c,
            "kappa_int": res.kappa_int,
            "phi0": res.phi0,
            "amplitude": env.amplitude,
            "alpha": env.alpha,
            "tau": env.tau,
        }
        fitted = {
            "f_r": fit.resonator.f_r,
            "kappa_c": fit.resonator.kappa_c,
            "kappa_int": fit.resonator.kappa_int,
            "phi0": fit.resonator.phi0,
            "amplitude": fit.environment.amplitude,
            "alpha": fit.environment.alpha,
            "tau": fit.environment.tau,
        }
        for name in true:
            sigma = fit.uncertainties[name]
            assert sigma > 0
            assert abs(fitted[name] - true[name]) < 3.5 * sigma, name

    def test_photon_number_attached(self, sample_resonator):
        res = sample_resonator
        trace = rl.generate_linear_trace(
            res, rl.EnvironmentParams(), grid_around(res), -140.0, rl.NoiseSpec()
        )
        fit = rl.fit_linear(trace)
        assert fit.n_photons == pytest.approx(rl.photon_number(fit.resonator, -140.0), rel=1e-12)

    def test_unknown_power_gives_no_photon_number(self, sample_resonator):
        res = sample_resonator
        grid = grid_around(res)
        values = rl.model_s21_linear(res, rl.EnvironmentParams(), grid)
        trace = rl.FrequencyTrace(frequencies=grid, values=values)
        assert rl.fit_linear(trace).n_photons is None

    def test_delay_invariance(self, sample_resonator, environment):
        res, env = sample_resonator, environment
        grid = grid_around(res, span_linewidths=15.0, points=2001)
        trace = rl.generate_linear_trace(res, env, grid, -140.0, rl.NoiseSpec(snr_db=40, seed=9))
        extra_tau = 12e-9
        shifted = rl.FrequencyTrace(
            frequencies=grid,
            values=trace.values * np.exp(-2j * np.pi * grid * extra_tau),
            drive_power=trace.drive_power,
        )
        base = rl.fit_linear(trace)
        moved = rl.fit_linear(shifted)
        assert moved.environment.tau - base.environment.tau == pytest.approx(
            extra_tau, rel=0.02
        )
        for name in ("f_r", "kappa_c", "kappa_int"):
            b = getattr(base.resonator, name)
            m = getattr(moved.resonator, name)
            assert abs(m - b) <= max(base.uncertainties[name], 1e-9 * abs(b)), name

    def test_covariance_is_positive_semidefinite(self, sample_resonator, environment):
        trace = rl.generate_linear_trace(
            sample_resonator,
            environment,
            grid_around(sample_resonator),
            -140.0,
            rl.NoiseSpec(snr_db=38, seed=12),
        )
        fit = rl.fit_linear(trace)
        eigenvalues = np.linalg.eigvalsh(np.asarray(fit.covariance))
        assert np.all(eigenvalues > -1e-18 * eigenvalues.max())
        assert all(v >= 0 for v in fit.uncertainties.values())

    def test_short_trace_rejected(self, sample_resonator):
        grid = grid_around(sample_resonator, points=10)
        values = rl.model_s21_linear(sample_resonator, rl.EnvironmentParams(), grid)
        trace = rl.FrequencyTrace(frequencies=grid, values=values)
        with pytest.raises(rl.InsufficientDataError):
            rl.fit_linear(trace)

    def test_zero_trace_rejected(self, sample_resonator):
        grid = grid_around(sample_resonator, points=401)
        trace = rl.FrequencyTrace(frequencies=grid, values=np.zeros(grid.size, dtype=complex))
        with pytest.raises(rl.DegenerateGeometryError):
            rl.fit_linear(trace)

    def test_singular_seed_solve_is_degenerate_geometry(self, sample_resonator, monkeypatch):
        grid = grid_around(sample_resonator, points=401)
        values = rl.model_s21_linear(sample_resonator, rl.EnvironmentParams(), grid)
        trace = rl.FrequencyTrace(frequencies=grid, values=values)

        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(rl.DegenerateGeometryError):
            rl.fit_linear(trace)

    def test_narrow_span_warns_and_flags(self, sample_resonator):
        res = sample_resonator
        grid = grid_around(res, span_linewidths=3.0, points=801)
        trace = rl.generate_linear_trace(res, rl.EnvironmentParams(), grid, -140.0, rl.NoiseSpec())
        # the flag goes to the result only, not to Python's warnings
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit = rl.fit_linear(trace)
        assert [str(w.message) for w in caught] == []
        assert any("5 linewidths" in flag for flag in fit.flags)

    def test_kappa_int_pinned_when_negative(self):
        # a lossless resonator plus noise: about half of all fits would land
        # at slightly negative kappa_int without pinning
        f_r = 6.0e9
        res = rl.LinearResonatorParams(f_r=f_r, kappa_c=TWO_PI * f_r / 1500.0, kappa_int=0.0)
        pinned = 0
        for seed in range(6):
            trace = rl.generate_linear_trace(
                res,
                rl.EnvironmentParams(),
                grid_around(res, points=1001),
                -140.0,
                rl.NoiseSpec(snr_db=40, seed=seed),
            )
            fit = rl.fit_linear(trace)
            assert fit.resonator.kappa_int >= 0.0
            if any("pinned" in flag for flag in fit.flags):
                pinned += 1
        assert pinned >= 1


def test_refinement_jacobian_matches_central_differences(sample_resonator, environment):
    res, env = sample_resonator, environment
    grid = grid_around(res, span_linewidths=15.0, points=2001)
    trace = rl.generate_linear_trace(res, env, grid, -140.0, rl.NoiseSpec(snr_db=40, seed=7))
    fit = rl.fit_linear(trace)
    r, e = fit.resonator, fit.environment
    p = np.array([r.f_r, r.kappa_c, r.kappa_int, r.phi0, e.amplitude, e.alpha, e.tau])
    tau_scale = 1.0 / (TWO_PI * trace.span)
    x_scale = np.array([r.kappa_l / TWO_PI, r.kappa_l, r.kappa_l, 0.3, e.amplitude, 0.3, tau_scale])
    residual, jacobian = _refinement_problem(grid, trace.values)
    analytic = jacobian(p)
    numeric = central_jacobian(residual, p, x_scale)
    assert analytic.shape == (2 * grid.size, 7)
    # central-difference truncation and rounding stay below ~1e-7 of each column
    column_error = np.abs(analytic - numeric).max(axis=0) / np.abs(numeric).max(axis=0)
    for name, err in zip(rl.linfit.PARAM_NAMES, column_error):
        assert err < 1e-5, name


def test_refinement_residual_is_the_model_minus_the_data(sample_resonator, environment):
    res, env = sample_resonator, environment
    grid = grid_around(res, points=501)
    trace = rl.generate_linear_trace(res, env, grid, -140.0, rl.NoiseSpec(snr_db=40, seed=1))
    p = np.array([res.f_r, res.kappa_c, res.kappa_int, res.phi0, env.amplitude, env.alpha, env.tau])
    residual, jacobian = _refinement_problem(grid, trace.values)
    r = rl.model_s21_linear(res, env, grid) - trace.values
    assert np.array_equal(residual(p), r.view(float))
    # the Jacobian built from the residual's forward terms is the fresh one,
    # one contiguous row of 2F values per parameter, each point's real and
    # imaginary part side by side as in the residual
    fresh = _refinement_problem(grid, trace.values)[1]
    jac = jacobian(p)
    assert jac.shape == (2 * grid.size, 7) and jac.T.flags.c_contiguous
    assert np.array_equal(jac, fresh(p))
    # after a residual at a rejected trial point q, the Jacobian at the
    # current point p still uses p's terms, and one at q its own
    q = p.copy()
    q[0] += linewidth_hz(res)
    residual(q)
    assert np.array_equal(jacobian(p), fresh(p))
    assert np.array_equal(jacobian(q), fresh(q))


def _bits(a):
    """The bits of a float or complex array, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).view(np.int64)


def test_conjugate_seed_phasor_is_the_notch_delay(monkeypatch):
    # fit_linear de-rotates the trace by the conjugate of the notch's delay
    # term about the trace centre at tau0 and hands the seed's terms, built
    # with that term, to the refinement. A residual at the seed's vector
    # computes nothing; one whose tau differs in its bits, -0.0 from 0.0
    # included, computes its own terms, with the notch's delay bits.
    f = np.concatenate([np.linspace(1e9, 12e9, 20001), [4.2e9, 6.117e9, 7.9999e9]])
    centre = 0.5 * (f[0] + f[-1])
    values = np.full(f.size, 0.5 + 0.25j)
    forward = rl.linfit._notch
    terms = []
    monkeypatch.setattr(rl.linfit, "_notch", lambda *a: terms.append(forward(*a)) or terms[-1])
    taus = (-1e-7, -80e-9, -3.3e-9, -1e-15, -5e-324, -0.0, 0.0, 5e-324, 2.7e-12, 41.3e-9, 1e-7)
    for tau0 in taus:
        p0 = np.array([6e9, 1e6, 1e5, 0.2, 0.9, 0.3, tau0])
        start = forward(p0, f, None, rl.linfit._delay(f - centre, tau0), centre)
        residual = _refinement_problem(f, values, centre, (p0, start))[0]
        calls = len(terms)
        assert np.array_equal(_bits(residual(p0.copy())), _bits((start.s - values).view(float)))
        assert len(terms) == calls, tau0
        for tau in (-tau0, np.nextafter(tau0, 1.0)):
            calls = len(terms)
            residual(np.array([6e9, 1e6, 1e5, 0.2, 0.9, 0.3, tau]))
            assert len(terms) == calls + 1, (tau0, tau)
            own = rl.linfit._delay(f - centre, tau)
            assert np.array_equal(_bits(terms[-1].delay), _bits(own)), (tau0, tau)


def test_public_models_take_np_exp_bits_of_the_delay(monkeypatch):
    # the public models take the delay about 0 Hz as cos + i sin of the real
    # phase, like the fits; on arrays that gives np.exp's bits, signed zeros
    # included
    rng = np.random.default_rng(36)
    f_r = 6.117e9
    f = np.linspace(f_r - 4e6, f_r + 4e6, 101)
    f[50] = f_r  # a grid point on the resonance
    cases = [
        (tau, alpha, phi0)
        for tau in (0.0, -0.0, 5e-324, rng.uniform(-50e-9, 50e-9))
        for alpha in (0.0, -0.0, rng.uniform(-np.pi, np.pi))
        for phi0 in (0.0, -0.0, rng.uniform(-1.2, 1.2))
    ]

    def models():
        out = []
        for tau, alpha, phi0 in cases:
            res = rl.LinearResonatorParams.from_q(f_r, 1500.0, 15800.0, phi0)
            env = rl.EnvironmentParams(amplitude=0.8, alpha=alpha, tau=tau)
            kerr = rl.KerrParams(linear=res, environment=env, kerr=99.5e3, phi=phi0)
            out += [rl.model_s21_linear(res, env, f), rl.model_s21_kerr(kerr, f, -120.0)]
        return np.array(out)

    cos_sin = models()
    monkeypatch.setattr(rl.linfit, "_delay", lambda x, tau: np.exp(-2j * math.pi * x * tau))
    assert np.array_equal(_bits(cos_sin), _bits(models()))


def test_public_models_give_a_scalar_the_bits_of_a_one_element_array():
    # both public models evaluate a scalar f as a one-element array, so the
    # scalar takes the array's arithmetic and bits, signed zeros included
    f_r = 6.117e9
    differ = []
    for tau, alpha, phi0, amplitude, f in itertools.product(
        (0.0, -0.0, 5e-324, -5e-324, 25e-9, -37e-9),
        (0.0, -0.0, math.pi, 1.3, -2.0),
        (0.0, 0.4, -0.3),
        (1.0, 0.87),
        (f_r - 2e6, f_r, f_r + 3.3e5),
    ):
        res = rl.LinearResonatorParams.from_q(f_r, 1500.0, 15800.0, phi0)
        env = rl.EnvironmentParams(amplitude=amplitude, alpha=alpha, tau=tau)
        kerr = rl.KerrParams(linear=res, environment=env, kerr=99.5e3, phi=phi0)
        models = {
            "linear": lambda x: rl.model_s21_linear(res, env, x),
            "kerr": lambda x: rl.model_s21_kerr(kerr, x, -120.0),
        }
        for name, model in models.items():
            scalar = model(f)
            assert isinstance(scalar, complex)
            if not np.array_equal(_bits(np.array([scalar])), _bits(model(np.array([f])))):
                differ.append((name, tau, alpha, phi0, amplitude, f))
    assert differ == []


def test_notch_without_a_shift_is_the_notch_at_zero_shift(sample_resonator, environment):
    res, env = sample_resonator, environment
    f = grid_around(res, points=2001)
    p = np.array([res.f_r, res.kappa_c, res.kappa_int, res.phi0, env.amplitude, env.alpha, env.tau])
    bare, zero = _notch(p, f), _notch(p, f, np.zeros_like(f))
    for name, a, b in zip(bare._fields, bare, zero):
        assert np.array_equal(_bits(np.asarray(a)), _bits(np.asarray(b))), name


def test_first_residual_takes_the_seed_phasor(sample_resonator, environment, monkeypatch):
    # the solver's first residual is at tau0, where the de-rotation of the
    # seed already holds the phasor; later ones compute their own
    grid = grid_around(sample_resonator, points=501)
    noise = rl.NoiseSpec(snr_db=40, seed=3)
    trace = rl.generate_linear_trace(sample_resonator, environment, grid, -140.0, noise)
    forward = rl.linfit._notch
    delays = []

    def spy(p, f, shift=None, delay=None, centre=None):
        delays.append(delay)
        return forward(p, f, shift, delay, centre)

    monkeypatch.setattr(rl.linfit, "_notch", spy)
    rl.fit_linear(trace)
    tau0 = rl.estimate_delay(trace)
    # the delay term about the trace centre, cos + i sin of its phase
    phase = -2.0 * math.pi * (grid - 0.5 * (grid[0] + grid[-1])) * tau0
    seed = np.empty(grid.size, dtype=complex)
    seed.real, seed.imag = np.cos(phase), np.sin(phase)
    assert delays[0] is not None and np.array_equal(_bits(delays[0]), _bits(seed))
    assert len(delays) > 1 and all(d is None for d in delays[1:])


@pytest.mark.parametrize("rows", [7, 8, 501, QR_BLOCK_ROWS])
@pytest.mark.parametrize("centred", [False, True])
def test_scaled_pinv_of_one_block_skips_the_second_qr(rows, centred, monkeypatch):
    # the QR of a single block's triangular R returns R unchanged, so
    # _scaled_pinv leaves it out; the result is that of the two-QR form
    rng = np.random.default_rng(rows)
    x_scale = 10.0 ** rng.uniform(-8, 8, 7)
    jac = rng.standard_normal((rows, 7)) @ rng.standard_normal((7, 7)) / x_scale
    back = None
    if centred:
        back = np.eye(7)
        back[5, 6] = 2.0 * math.pi * 6e9
    one_qr = _scaled_pinv(jac, x_scale, back)
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda r: svd(np.linalg.qr(r, mode="r")))
    assert np.array_equal(_bits(one_qr), _bits(_scaled_pinv(jac, x_scale, back)))


@pytest.mark.parametrize(
    "seeds, rejected_last",
    [((2,), False)],
    ids=["accepted-last-step"],
)
def test_one_forward_pass_per_parameter_vector(
    sample_resonator, environment, monkeypatch, seeds, rejected_last
):
    # the forward step runs once for each point the solver evaluates; the
    # Jacobians and the covariance at the solution reuse those terms. The
    # trace is the first noise seed in ``seeds`` whose fit ends on the wanted
    # kind of step, since which seeds do depends on the start values. The
    # solver stops on the Gauss-Newton decrement before it evaluates a step
    # that rounding would reject, and no seed in 0-3999 here ends on a
    # rejected step; test_lsq keeps the solver's rejected-last-step case.
    grid = grid_around(sample_resonator, points=501)
    traces = [
        rl.generate_linear_trace(
            sample_resonator, environment, grid, -140.0, rl.NoiseSpec(snr_db=40, seed=seed)
        )
        for seed in seeds
    ]
    forward, solver = rl.linfit._notch, rl.linfit.least_squares
    rows = rl.linfit._notch_rows
    calls, runs, jacobians = [], [], []

    def counted_solver(fun, x0, jac, **kwargs):
        points = []

        def residual(x):
            points.append(x.copy())
            return fun(x)

        sol = solver(residual, x0, jac=jac, **kwargs)
        runs.append((sol, points))
        return sol

    monkeypatch.setattr(rl.linfit, "_notch", lambda p, *a: calls.append(p.copy()) or forward(p, *a))
    monkeypatch.setattr(rl.linfit, "least_squares", counted_solver)
    monkeypatch.setattr(rl.linfit, "_notch_rows", lambda *a: jacobians.append(1) or rows(*a))
    for trace in traces:
        calls.clear()
        runs.clear()
        jacobians.clear()
        rl.fit_linear(trace)
        [(sol, points)] = runs
        if (not np.array_equal(points[-1], sol.x)) == rejected_last:
            break
    # the covariance Jacobian at sol.x follows an accepted or a rejected step
    assert (not np.array_equal(points[-1], sol.x)) == rejected_last, f"no such seed in {seeds}"
    assert sol.njev > 1
    assert len(calls) == len({p.tobytes() for p in calls}) == len(points) == sol.nfev
    # the covariance takes the solver's Jacobian at sol.x: none is built after it returns
    assert len(jacobians) == sol.njev


def test_tau_column_keeps_its_digits_at_high_q(environment, monkeypatch):
    # the solver's tau column is -2 pi i (f - f_c) S with f_c the trace
    # centre, formed from the centred offsets; adding 2 pi f_c times the
    # alpha column to the column at 0 Hz cancels ~5 digits at Q_c = Q_i = 1e5
    res = resonator(q_c=1e5, q_i=1e5, phi0=0.2)
    grid = grid_around(res, points=2001)
    noise = rl.NoiseSpec(snr_db=40, seed=0)
    trace = rl.generate_linear_trace(res, environment, grid, -140.0, noise)
    solver, solves = rl.linfit.least_squares, []
    monkeypatch.setattr(
        rl.linfit, "least_squares", lambda *a, **k: solves.append(solver(*a, **k)) or solves[-1]
    )
    rl.fit_linear(trace)
    [sol] = solves
    column = np.ascontiguousarray(sol.jac[:, 6]).view(complex)

    # the model at sol.x in extended precision, alpha the phase at f_c
    f_r, kappa_c, kappa_int, phi0, amplitude, alpha, tau = sol.x.astype(np.longdouble)
    pi = np.arccos(np.longdouble(-1.0))
    f = grid.astype(np.longdouble)
    offset = f - np.longdouble(0.5 * (grid[0] + grid[-1]))
    d = 2j * (2 * pi * (f_r - f)) + (kappa_c + kappa_int)
    mismatch = kappa_c * np.exp(1j * phi0) / np.cos(phi0)
    s = amplitude * np.exp(1j * alpha) * np.exp(-2j * pi * offset * tau) * (1 - mismatch / d)
    reference = -2j * pi * offset * s
    assert reference.dtype == np.clongdouble
    error = np.linalg.norm((column - reference).astype(complex)) / np.linalg.norm(column)
    assert error <= 1e-14


def test_high_q_covariance_matches_svd_reference(environment):
    # at Q_c = Q_i = 1e5 the alpha and tau columns are nearly parallel, since
    # alpha is the background phase at 0 Hz; inverting J^T J there loses the
    # alpha-tau direction unless alpha is referenced inside the trace
    res = resonator(q_c=1e5, q_i=1e5, phi0=0.2)
    grid = grid_around(res, points=2001)

    def fit(seed):
        noise = rl.NoiseSpec(snr_db=40, seed=seed)
        trace = rl.generate_linear_trace(res, environment, grid, -140.0, noise)
        return trace, rl.fit_linear(trace)

    trace, fit0 = fit(0)
    r, e = fit0.resonator, fit0.environment
    p = np.array([r.f_r, r.kappa_c, r.kappa_int, r.phi0, e.amplitude, e.alpha, e.tau])
    jac = _refinement_problem(grid, trace.values)[1](p)
    # reference: SVD of the column-normalized Jacobian, never forming J^T J
    norms = np.linalg.norm(jac, axis=0)
    _, s, vt = np.linalg.svd(jac / norms, full_matrices=False)
    variance = fit0.residual_rms**2 * grid.size / (2 * grid.size - 7)
    reference = variance * ((vt.T / s**2) @ vt) / np.outer(norms, norms)
    ref_sigmas = np.sqrt(np.diag(reference))
    sigmas = np.array([fit0.uncertainties[name] for name in rl.linfit.PARAM_NAMES])
    np.testing.assert_allclose(sigmas, ref_sigmas, rtol=1e-4)
    correlation = np.asarray(fit0.covariance) / np.outer(sigmas, sigmas)
    np.testing.assert_allclose(
        correlation, reference / np.outer(ref_sigmas, ref_sigmas), rtol=0.0, atol=1e-4
    )
    # and sigma_tau describes the scatter of tau over noise draws
    taus = [fit(seed)[1].environment.tau for seed in range(100)]
    assert sigmas[6] == pytest.approx(np.std(taus, ddof=1), rel=0.25)


@pytest.mark.parametrize("rows", [QR_BLOCK_ROWS // 2, 4002, 3 * QR_BLOCK_ROWS + 17])
def test_scaled_pinv_over_row_blocks_matches_svd_reference(rows):
    # a Jacobian taller than one block is factored block by block; one block
    # gives the R of a single QR bit for bit
    rng = np.random.default_rng(rows)
    x_scale = 10.0 ** rng.uniform(-8, 8, 8)
    jac = rng.standard_normal((rows, 8)) @ rng.standard_normal((8, 8)) / x_scale
    _, s, vt = np.linalg.svd(jac * x_scale, full_matrices=False)
    reference = (x_scale[:, None] * vt.T / s**2) @ (vt * x_scale)
    norm = np.sqrt(np.outer(np.diag(reference), np.diag(reference)))
    np.testing.assert_allclose(_scaled_pinv(jac, x_scale) / norm, reference / norm, atol=1e-9)
    if rows <= QR_BLOCK_ROWS:
        r = np.linalg.qr(jac * x_scale, mode="r")
        np.testing.assert_array_equal(np.linalg.qr(r, mode="r"), r)


def _pulls(fit, res):
    """Fit error over reported sigma for f_r and kappa_int."""
    return {
        name: (getattr(fit.resonator, name) - getattr(res, name)) / fit.uncertainties[name]
        for name in ("f_r", "kappa_int")
    }


@pytest.mark.parametrize("make_trace", ["buried_dip_trace", "shallow_dip_trace"])
def test_buried_dips_recover_within_five_sigma(make_trace):
    # on both traces the minimum of |S21| is a noise spike far from the dip;
    # the fit must still land in the true basin
    res, trace = getattr(conftest, make_trace)()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = rl.fit_linear(trace)
    for name, pull in _pulls(fit, res).items():
        assert abs(pull) <= 5.0, name


def _seed_input(trace):
    """The delay-corrected trace that fit_linear hands to the seed scan."""
    tau0 = rl.estimate_delay(trace)
    return trace.frequencies, trace.values * np.exp(2j * np.pi * trace.frequencies * tau0)


def _criterion_3_traces(count):
    """``count`` traces drawn over the criterion-3 ranges, on 501, 2001 and
    6001 points in turn."""
    rng = np.random.default_rng(20261019)
    for i in range(count):
        f_r = rng.uniform(4e9, 8e9)
        res = rl.LinearResonatorParams(
            f_r=f_r,
            kappa_c=TWO_PI * f_r / 10 ** rng.uniform(np.log10(500), np.log10(2e5)),
            kappa_int=TWO_PI * f_r / 10 ** rng.uniform(3, 6),
            phi0=rng.uniform(-0.4, 0.4),
        )
        env = rl.EnvironmentParams(
            amplitude=rng.uniform(0.5, 1.5),
            alpha=rng.uniform(-np.pi, np.pi),
            tau=rng.uniform(-80e-9, 80e-9),
        )
        points = (501, 2001, 6001)[i % 3]
        grid = grid_around(res, span_linewidths=rng.uniform(10, 25), points=points)
        noise = rl.NoiseSpec(snr_db=rng.uniform(35, 50), seed=2000 + i)
        yield rl.generate_linear_trace(res, env, grid, -140.0, noise)


@pytest.mark.parametrize(
    "traces",
    [
        lambda: _criterion_3_traces(9),
        lambda: [conftest.gapped_trace()[1], conftest.log_spaced_trace()[1]],
    ],
    ids=["criterion-3", "empty-bins"],
)
def test_fft_seed_drops_match_dense_oracle(traces):
    for trace in traces():
        counts, means = _seed_bins(*_seed_input(trace))
        levels, drops = _seed_drops(counts, means)
        dense = dense_seed_drops(counts, means, levels)
        assert np.abs(drops - dense).max() <= 1e-9 * dense.max()
        assert np.argmax(drops) == np.argmax(dense)


def test_seed_drops_match_the_per_call_kernel_bit_for_bit(sample_resonator, environment):
    # the cached kernel and the batched inverse FFT change no bit; the last
    # trace is short enough to bin into fewer than SEED_BLOCKS bins
    short = grid_around(sample_resonator, points=60)
    traces = [
        *_criterion_3_traces(6),
        rl.generate_linear_trace(sample_resonator, environment, short, -140.0),
    ]
    assert [len(t) for t in traces] == [501, 2001, 6001] * 2 + [60]
    for trace in traces:
        counts, means = _seed_bins(*_seed_input(trace))
        levels, drops = _seed_drops(counts, means)
        ref_levels, ref_drops = reference_seed_drops(counts, means, SEED_Q_LEVELS)
        assert np.array_equal(levels, ref_levels)
        assert np.array_equal(drops, ref_drops)


def test_a_second_fit_at_the_same_bin_count_builds_no_kernel(sample_resonator, environment):
    _seed_kernel.cache_clear()
    for points in (501, 2001):  # both bin into SEED_BLOCKS bins
        grid = grid_around(sample_resonator, points=points)
        rl.fit_linear(rl.generate_linear_trace(sample_resonator, environment, grid, -140.0))
    info = _seed_kernel.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    levels, kernel = _seed_kernel(SEED_BLOCKS)
    assert kernel.shape == (SEED_Q_LEVELS, 2 * SEED_BLOCKS)
    assert not levels.flags.writeable and not kernel.flags.writeable


@pytest.mark.parametrize("make_trace", ["gapped_trace", "log_spaced_trace"])
def test_non_uniform_grids_seed_and_fit(make_trace):
    # both grids leave some of the seed scan's equal-width bins empty
    res, trace = getattr(conftest, make_trace)()
    freqs, z = _seed_input(trace)
    counts, _ = _seed_bins(freqs, z)
    assert np.any(counts == 0)
    f_r0 = _profiled_seed(freqs, z)[0]
    assert abs(f_r0 - res.f_r) <= trace.span / counts.size
    fit = rl.fit_linear(trace)
    for name, pull in _pulls(fit, res).items():
        assert abs(pull) <= 5.0, name


def test_round_trip_gauntlet():
    """Randomized recovery: Q_i within 10% and f_r within kappa_L/20 for >= 95%,
    and |pull| <= 5 on f_r and kappa_int for every converged draw."""
    rng = np.random.default_rng(20260809)
    n_draws = 60  # the full 200-draw version runs in the acceptance suite
    failures = 0
    for i in range(n_draws):
        f_r = rng.uniform(4e9, 8e9)
        q_c = 10 ** rng.uniform(np.log10(500), np.log10(2e5))
        q_i = 10 ** rng.uniform(3, 6)
        res = rl.LinearResonatorParams(
            f_r=f_r,
            kappa_c=TWO_PI * f_r / q_c,
            kappa_int=TWO_PI * f_r / q_i,
            phi0=rng.uniform(-0.4, 0.4),
        )
        env = rl.EnvironmentParams(
            amplitude=rng.uniform(0.5, 1.5),
            alpha=rng.uniform(-np.pi, np.pi),
            tau=rng.uniform(-80e-9, 80e-9),
        )
        grid = grid_around(res, span_linewidths=rng.uniform(10, 25), points=6001)
        trace = rl.generate_linear_trace(
            res, env, grid, -140.0, rl.NoiseSpec(snr_db=rng.uniform(35, 50), seed=1000 + i)
        )
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fit = rl.fit_linear(trace)
        except rl.ResonatorLabError:
            failures += 1
            continue
        failures += not (
            abs(fit.resonator.q_i - q_i) / q_i <= 0.10
            and abs(fit.resonator.f_r - f_r) <= linewidth_hz(res) / 20.0
        )
        # every converged draw, recovered or not, sits within 5 sigma of the truth
        for name, pull in _pulls(fit, res).items():
            assert abs(pull) <= 5.0, f"draw {i}: {name} pull {pull:.1f}"
    assert failures <= math.ceil(0.05 * n_draws), f"{failures}/{n_draws} draws failed"


def test_photon_number_formula(sample_resonator):
    res = sample_resonator
    assert rl.photon_number(res, -300.0) < 1e-15  # vanishes with the drive
    # linear in watts: +3.0103 dB doubles the photon number
    n1 = rl.photon_number(res, -140.0)
    n2 = rl.photon_number(res, -140.0 + 10 * math.log10(2))
    assert n2 == pytest.approx(2 * n1, rel=1e-12)


def test_photon_number_doubles_with_kappa_c_at_fixed_kappa_l():
    f_r = 6.1e9
    kappa_l = TWO_PI * f_r / 1000.0
    base = rl.LinearResonatorParams(
        f_r=f_r, kappa_c=0.01 * kappa_l, kappa_int=0.99 * kappa_l
    )
    double = rl.LinearResonatorParams(
        f_r=f_r, kappa_c=0.02 * kappa_l, kappa_int=0.98 * kappa_l
    )
    assert rl.photon_number(double, -135.0) == pytest.approx(
        2 * rl.photon_number(base, -135.0), rel=1e-12
    )


class TestQSigma:
    @pytest.fixture(scope="class")
    def fit(self):
        res, env = resonator(phi0=0.2), rl.EnvironmentParams(0.87, 0.4, 40e-9)
        trace = rl.generate_linear_trace(
            res, env, grid_around(res), -140.0, rl.NoiseSpec(snr_db=30, seed=5)
        )
        return rl.fit_linear(trace)

    @staticmethod
    def reference(f_r, kappa, cov, k):
        # Q = 2 pi f_r / kappa, so g = dQ/dp is nonzero at f_r and kappa only
        g = np.zeros(len(cov))
        g[0] = TWO_PI / kappa
        g[k] = -TWO_PI * f_r / kappa**2
        return math.sqrt(g @ cov @ g)

    @pytest.mark.parametrize("kappa_name, key", [("kappa_c", "q_c"), ("kappa_int", "q_i")])
    def test_matches_g_sigma_gt(self, fit, kappa_name, key):
        res, cov = fit.resonator, fit.covariance
        kappa = getattr(res, kappa_name)
        expected = self.reference(res.f_r, kappa, cov, PARAM_NAMES.index(kappa_name))
        assert expected > 0.0
        assert q_sigma(res.f_r, kappa, cov, PARAM_NAMES, kappa_name) == pytest.approx(
            expected, rel=1e-9
        )
        assert linear_payload(fit)[f"{key}_sigma"] == pytest.approx(expected, rel=1e-9)

    def test_permuted_covariance_gives_the_same_sigma(self, fit):
        res, cov = fit.resonator, fit.covariance
        perm = np.random.default_rng(2).permutation(len(PARAM_NAMES))
        assert perm[0] != 0
        names = [PARAM_NAMES[i] for i in perm]
        permuted = cov[np.ix_(perm, perm)]
        for kappa_name in ("kappa_c", "kappa_int"):
            kappa = getattr(res, kappa_name)
            assert q_sigma(res.f_r, kappa, permuted, names, kappa_name) == q_sigma(
                res.f_r, kappa, cov, PARAM_NAMES, kappa_name
            )

    def test_no_sigma_without_a_finite_q(self, fit):
        assert q_sigma(6e9, 0.0, fit.covariance, PARAM_NAMES, "kappa_int") is None
