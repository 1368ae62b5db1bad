import numpy as np
import pytest

import resonatorlab as rl

TWO_PI = 2.0 * np.pi


def resonator(f_r=6.117e9, q_c=1500.0, q_i=15800.0, phi0=0.0):
    return rl.LinearResonatorParams(
        f_r=f_r, kappa_c=TWO_PI * f_r / q_c, kappa_int=TWO_PI * f_r / q_i, phi0=phi0
    )


def linewidth_hz(res):
    return res.kappa_l / TWO_PI


def grid_around(res, span_linewidths=15.0, points=2001, center=None):
    center = res.f_r if center is None else center
    half = span_linewidths / 2.0 * linewidth_hz(res)
    return np.linspace(center - half, center + half, points)


def kerr_recovery_draws():
    """``(k_true, sweep)`` of the 50 criterion-4(c) power sweeps, in order.

    Each sweep spans 10 linewidths centred one linewidth below resonance,
    from 18 dB below to 15 dB above the single-photon power, generated on
    the lowest branch.
    """
    rng = np.random.default_rng(77)
    for i in range(50):
        f_r = rng.uniform(4e9, 8e9)
        q_c = 10 ** rng.uniform(np.log10(800), np.log10(5000))
        q_i = 10 ** rng.uniform(np.log10(5e3), np.log10(5e4))
        k_true = 10 ** rng.uniform(np.log10(20e3), np.log10(500e3))
        res = rl.LinearResonatorParams(
            f_r=f_r,
            kappa_c=TWO_PI * f_r / q_c,
            kappa_int=TWO_PI * f_r / q_i,
            phi0=rng.uniform(-0.3, 0.3),
        )
        env = rl.EnvironmentParams(
            amplitude=rng.uniform(0.7, 1.3),
            alpha=rng.uniform(-np.pi, np.pi),
            tau=rng.uniform(-60e-9, 60e-9),
        )
        grid = grid_around(
            res, span_linewidths=10.0, points=401, center=f_r - linewidth_hz(res)
        )
        psp = rl.single_photon_power(res)
        powers = np.arange(psp - 18.0, psp + 15.1, 2.5)
        params = rl.KerrParams(linear=res, environment=env, kerr=k_true, phi=res.phi0)
        noise = rl.NoiseSpec(snr_db=rng.uniform(35, 45), seed=3000 + i)
        yield k_true, rl.generate_kerr_sweep(params, grid, powers, "lowest", noise)


@pytest.fixture
def sample_resonator():
    """Parameters matching the representative measured device."""
    return resonator(phi0=0.2)


@pytest.fixture
def environment():
    return rl.EnvironmentParams(amplitude=0.87, alpha=0.4, tau=40e-9)


def buried_dip_trace():
    """``(resonator, trace)`` of a criterion-3 draw whose dip is buried in
    noise: a seed taken from the minimum of ``|S21|`` sends the fit far
    outside the trace (negative f_r)."""
    f_r = 4_514_619_178.852845
    res = rl.LinearResonatorParams(
        f_r=f_r, kappa_c=TWO_PI * f_r / 157_542.89, kappa_int=TWO_PI * f_r / 1193.68, phi0=-0.3161
    )
    env = rl.EnvironmentParams(amplitude=0.92127, alpha=0.37554, tau=-38.884e-9)
    grid = grid_around(res, span_linewidths=21.577, points=6001)
    noise = rl.NoiseSpec(snr_db=43.479, seed=4345219452451303632)
    return res, rl.generate_linear_trace(res, env, grid, -140.0, noise)


def shallow_dip_trace():
    """``(resonator, trace)`` of an undercoupled draw with a 0.0135-deep dip,
    where a seed taken from the minimum of ``|S21|`` ends at Q_i ~ 2.4e5 with
    an f_r pull of -1705 sigma. The parameters are given to full precision:
    rounded ones do not reproduce that basin."""
    f_r = 7370599735.521931
    res = rl.LinearResonatorParams(
        f_r=f_r,
        kappa_c=TWO_PI * f_r / 79033.97326124845,
        kappa_int=TWO_PI * f_r / 1078.4963850985075,
        phi0=0.1301576556714883,
    )
    env = rl.EnvironmentParams(
        amplitude=1.394957891220399, alpha=-0.21606471288084172, tau=-2.6056118426791298e-08
    )
    grid = grid_around(res, span_linewidths=24.970360938787856, points=2001)
    noise = rl.NoiseSpec(snr_db=36.620350885311694, seed=471762342957385027)
    return res, rl.generate_linear_trace(res, env, grid, -140.0, noise)


def gapped_trace():
    """``(resonator, trace)`` on a 2001-point grid over 15 linewidths with no
    points from 1.5 to 4 linewidths above resonance, about a sixth of the
    span, so a run of the seed scan's equal-width bins is empty."""
    res = resonator(phi0=0.2)
    env = rl.EnvironmentParams(amplitude=0.87, alpha=0.4, tau=40e-9)
    grid = grid_around(res, points=2001)
    detuning = (grid - res.f_r) / linewidth_hz(res)
    grid = grid[(detuning < 1.5) | (detuning > 4.0)]
    noise = rl.NoiseSpec(snr_db=40, seed=5)
    return res, rl.generate_linear_trace(res, env, grid, -140.0, noise)


def log_spaced_trace():
    """``(resonator, trace)`` with 801 points log-spaced in detuning from
    0.001 to 10 linewidths on either side of a centre 0.3 linewidths above
    resonance: dense at the dip, and sparser in the outer wings than the
    seed scan's bins, so some of those bins are empty."""
    res = resonator(q_c=4000.0, q_i=30000.0, phi0=-0.15)
    env = rl.EnvironmentParams(amplitude=1.1, alpha=-2.0, tau=-25e-9)
    side = np.geomspace(0.001, 10.0, 400) * linewidth_hz(res)
    centre = res.f_r + 0.3 * linewidth_hz(res)
    grid = np.concatenate([centre - side[::-1], [centre], centre + side])
    noise = rl.NoiseSpec(snr_db=40, seed=6)
    return res, rl.generate_linear_trace(res, env, grid, -140.0, noise)
