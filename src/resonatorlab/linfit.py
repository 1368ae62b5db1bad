"""Linear notch-resonator model and its complex least-squares fitter.

The fit has three stages: estimate and remove the cable delay from the
phase slope of the trace wings, seed the resonance by a global scan of the
cost profiled over its linear parameters, then refine all seven parameters
with one Levenberg-Marquardt pass on the complex residuals. The scan runs
on count-weighted means over bins of equal width, where each dip is a
kernel in the lag between bins, so one FFT correlation per linewidth
level gives the cost at every candidate resonance. The refinement
and the covariance use a closed-form Jacobian, so neither depends on a
finite-difference step rule of the optimizer. The solver, its convergence
check and the covariance come from ``_lsq``, and the parameter scales from
``_param_scale``, which the Kerr fit shares. The model is written once, in
a forward step, ``_notch``, and a derivative step, ``_notch_rows``, that
builds the Jacobian from the forward terms; the Kerr model of ``kerrfit``
evaluates both at a shifted detuning. The photon calibration of a linear fit,
:func:`photon_number` and its inverse :func:`single_photon_power`, lives
here too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from ._lsq import _centre_alpha, fit_errors, least_squares, settle
from .constants import HBAR
from .core import (
    EnvironmentParams,
    FrequencyTrace,
    LinearResonatorParams,
    _freeze_array,
    dbm_to_watts,
    watts_to_dbm,
)
from .errors import ConvergenceError, DegenerateGeometryError, InsufficientDataError

__all__ = [
    "PARAM_NAMES",
    "FitOptions",
    "LinearFitResult",
    "model_s21_linear",
    "estimate_delay",
    "fit_linear",
    "photon_number",
    "single_photon_power",
    "segment_trace",
    "q_sigma",
    "linear_payload",
]

#: Order of the free parameters in covariance matrices and uncertainty maps.
PARAM_NAMES = ("f_r", "kappa_c", "kappa_int", "phi0", "amplitude", "alpha", "tau")

#: Fewest samples in each wing from which :func:`estimate_delay` takes a slope.
MIN_WING_SAMPLES = 4


class _Terms(NamedTuple):
    """The forward terms of the notch model at one parameter vector.

    ``S = B (1 - m/d)`` with ``d = 2i delta_r + kappa_L``,
    ``m = kappa_c e^{i phi0}/cos(phi0)`` and ``B = A e^{i alpha} e^{-2 pi i f tau}``.
    """

    d: np.ndarray  # 2i delta_r + kappa_L
    tilt: complex  # e^{i phi0}
    mismatch: complex  # m
    resonant: np.ndarray  # (d - m)/d
    delay: np.ndarray  # e^{-2 pi i f tau}
    rotation: complex  # e^{i alpha}
    background: np.ndarray  # B
    s: np.ndarray  # S


def _notch(p, f: np.ndarray, shift: float | np.ndarray = 0.0) -> _Terms:
    """Forward terms of the notch S21 at the :data:`PARAM_NAMES` vector ``p``.

    ``shift`` [rad/s] is subtracted from the detuning ``delta_r = omega_0 -
    omega_d``; the Kerr model is this model at ``shift = kappa_L xi n``.
    """
    f_r, kappa_c, kappa_int, phi0, amplitude, alpha, tau = p
    delta_r = 2.0 * math.pi * (f_r - f) - shift
    d = 2j * delta_r + (kappa_c + kappa_int)
    tilt = np.exp(1j * phi0)
    mismatch = kappa_c * tilt / math.cos(phi0)
    resonant = (d - mismatch) / d
    delay = np.exp(-2j * math.pi * f * tau)
    rotation = np.exp(1j * alpha)
    background = amplitude * rotation * delay
    return _Terms(d, tilt, mismatch, resonant, delay, rotation, background, background * resonant)


def _notch_rows(p, f: np.ndarray, t: _Terms, rows: np.ndarray) -> np.ndarray:
    """The complex derivatives of S21 in :data:`PARAM_NAMES` order at fixed
    shift, from the forward terms ``t`` of :func:`_notch` at ``p``, written
    into the complex ``(7, F)`` array ``rows`` and returned. ``rows`` may be
    a slice of a larger array, as the Kerr model's ``(8, P, F)`` Jacobian."""
    kappa_c, phi0 = p[1], p[3]
    q = np.divide(t.background, t.d, out=rows[3])  # B/d
    b_m_d2 = np.divide(q, t.d, out=rows[2])
    b_m_d2 *= t.mismatch  # B m/d^2
    np.multiply(b_m_d2, 4j * math.pi, out=rows[0])
    np.multiply(q, -t.tilt / math.cos(phi0), out=rows[1])
    rows[1] += b_m_d2
    q *= -1j * kappa_c / math.cos(phi0) ** 2
    np.multiply(t.delay, t.rotation, out=rows[4])
    rows[4] *= t.resonant
    np.multiply(t.s, 1j, out=rows[5])
    np.multiply(f, -2j * math.pi, out=rows[6])
    rows[6] *= t.s
    return rows


def model_s21_linear(
    res: LinearResonatorParams, env: EnvironmentParams, f: float | np.ndarray
) -> complex | np.ndarray:
    """Complex feedline transmission of a notch resonator at frequency ``f``.

    Detuning convention: ``delta_r = omega_0 - omega_d``. The mismatch term
    ``kappa_c e^{i phi0}/cos(phi0)`` makes the model invariant under
    ``phi0 -> phi0 + pi``, so ``phi0`` is reported in (-pi/2, pi/2).
    """
    p = (res.f_r, res.kappa_c, res.kappa_int, res.phi0, env.amplitude, env.alpha, env.tau)
    out = _notch(p, np.asarray(f, dtype=float)).s
    return out if out.ndim else complex(out)


def _wing_size(n: int, wing_fraction: float) -> int:
    """Samples in each wing of an ``n``-sample trace."""
    return int(round(n * wing_fraction))


def estimate_delay(trace: FrequencyTrace, wing_fraction: float = 0.1) -> float:
    """Cable delay from the phase slope of the off-resonant trace wings.

    Returns ``-(1/2pi) d(phase)/df`` averaged over the two outer wings, each
    containing ``wing_fraction`` of the samples.
    """
    if not 0.0 < wing_fraction <= 0.25:
        raise ValueError(f"wing_fraction must be in (0, 0.25], got {wing_fraction}")
    n = len(trace)
    n_wing = _wing_size(n, wing_fraction)
    if n_wing < MIN_WING_SAMPLES:
        raise InsufficientDataError(
            f"need at least {MIN_WING_SAMPLES} samples per wing, got {n_wing} "
            f"({n} samples at wing_fraction={wing_fraction})"
        )
    slopes = []
    for sl in (slice(0, n_wing), slice(n - n_wing, n)):
        # the least-squares slope of the unwrapped phase, from centred sums
        df = trace.frequencies[sl] - trace.frequencies[sl].mean()
        phase = np.unwrap(np.angle(trace.values[sl]))
        slopes.append(df @ (phase - phase.mean()) / (df @ df))
    return -float(np.mean(slopes)) / (2.0 * math.pi)


def _wrap_angle(angle: float) -> float:
    """Wrap into (-pi, pi]."""
    return float(-((-angle + math.pi) % (2.0 * math.pi)) + math.pi)


def _wrap_half_pi(phi: float) -> float:
    """Wrap into (-pi/2, pi/2] using the model's phi0 -> phi0 + pi invariance."""
    return float(-((-phi + math.pi / 2) % math.pi) + math.pi / 2)


#: Most bins, and the number of Q_L levels, of the seed scan.
SEED_BLOCKS = 128
SEED_Q_LEVELS = 12


def _seed_bins(freqs: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Point counts and mean values of ``z`` in ``min(F, SEED_BLOCKS)`` bins
    of equal width across the trace; an empty bin has mean 0."""
    n = min(freqs.size, SEED_BLOCKS)
    edges = freqs[0] + (freqs[-1] - freqs[0]) / n * np.arange(n)
    starts = np.searchsorted(freqs, edges)
    counts = np.diff(starts, append=freqs.size)
    sums = np.add.reduceat(z, starts)  # an empty bin's entry is z[start], not 0
    return counts, np.divide(sums, counts, out=np.zeros(n, dtype=complex), where=counts > 0)


def _seed_drops(counts: np.ndarray, means: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cost drops of the seed scan on ``n`` bins, and its linewidth levels.

    The levels are the span in linewidths, log-spaced from 1 to ``n/2``.
    Entry ``[k, c]`` is ``|<g, r>|^2 / (sum w |g|^2 - |<g, b>|^2)``: how far
    the count-weighted cost of the bin means falls when the dip centred on
    bin ``c`` at level ``s_k``, ``g(m) = 1/(1 - 2i s_k m/n)`` in bin
    ``c + m``, joins the background ``b``, orthonormal under the weights
    ``w``; ``r`` is the residual after the background.
    """
    n = counts.size
    u = np.sqrt(counts)
    t = (np.arange(n) + 0.5) / n - 0.5  # the bin centres, in spans from the trace centre
    b0 = u / math.sqrt(counts.sum())
    b1 = u * t
    b1 -= (b0 @ b1) * b0
    b1 /= math.sqrt(b1 @ b1)
    r = u * means
    r -= (b0 @ r) * b0 + (b1 @ r) * b1
    levels = (0.5 * n) ** (np.arange(SEED_Q_LEVELS) / (SEED_Q_LEVELS - 1))
    # Each inner product is a correlation sum_m g(m) x[c + m] of a column x
    # over the bins, taken as a product of spectra over 2n points so that no
    # lag wraps around. g(-m) = conj g(m), so the kernel's spectrum is real
    # and comes from the lags 0 .. n alone; irfft's 1/(2n) stands in for
    # ifft's.
    y = (2.0 / n) * levels[:, None] * np.arange(n + 1)
    kernel = np.fft.irfft(1.0 / (1.0 - 1j * y), 2 * n)
    columns = np.fft.fft([np.conj(u * r), u * b0, u * b1, counts], 2 * n)
    overlap, along_b0, along_b1, weight = (
        np.fft.ifft(kernel * col, norm="forward")[:, :n] for col in columns
    )
    norm = weight.real - np.abs(along_b0) ** 2 - np.abs(along_b1) ** 2
    drops = np.zeros((SEED_Q_LEVELS, n))
    np.divide(np.abs(overlap) ** 2, norm, out=drops, where=norm > 0.0)
    return levels, drops


def _profiled_seed(freqs: np.ndarray, z: np.ndarray):
    """Start of the refinement from a global scan of the profiled notch cost.

    At fixed ``(f_r, Q_L)`` the delay-corrected model ``a (1 - c g)`` with
    ``g = 1/(1 - 2i Q_L x)`` and ``x = f/f_r - 1`` is linear in ``(a, a c)``,
    so its cost is profiled in closed form (Golub & Pereyra, SIAM J. Numer.
    Anal. 10, 413 (1973)). The scan runs on the means of at most
    ``SEED_BLOCKS`` bins of equal width, each weighted by its point count,
    so an empty bin drops out: ``f_r`` over the bin centres, ``Q_L`` over
    log-spaced linewidths from the whole span down to two bins. A background
    slope ``{1, f - f_mid}`` is projected out, so a residual delay that
    twists the background does not pass for a span-wide dip. In the scan
    ``x`` is ``(f - f_r)/f_mid``, so ``g`` depends only on the lag between
    two bins, and every inner product the cost needs is a correlation of
    one kernel per ``Q_L`` level with a column over the bins: one FFT pass
    covers all levels and centres (:func:`_seed_drops`). The background and
    dip of the best cell are then solved on the full trace. Returns
    ``(f_r, kappa_c, kappa_l, phi0, a)`` with ``a`` the complex background
    at ``f_r``.
    """
    f_mid = 0.5 * (freqs[0] + freqs[-1])
    span = freqs[-1] - freqs[0]
    counts, means = _seed_bins(freqs, z)
    levels, drops = _seed_drops(counts, means)
    k, i = np.unravel_index(np.argmax(drops), drops.shape)
    f_r = float(freqs[0] + (i + 0.5) * span / counts.size)
    q_l = float(levels[k] * f_mid / span)

    # the 3 x 3 normal equations of the background {1, t} and the dip g
    g = 1.0 / (1.0 - 2j * q_l * (freqs / f_r - 1.0))
    t = (freqs - f_mid) / span
    sum_t, sum_g, t_g = t.sum(), g.sum(), t @ g
    gram = np.array(
        [
            [freqs.size, sum_t, sum_g],
            [sum_t, t @ t, t_g],
            [sum_g.conjugate(), t_g.conjugate(), g.real.sum()],  # |g|^2 = Re g
        ]
    )
    try:
        a0, a1, b = np.linalg.solve(gram, np.array([z.sum(), t @ z, np.vdot(g, z)]))
    except np.linalg.LinAlgError:
        raise DegenerateGeometryError("the trace's background and dip are degenerate") from None
    a = a0 + a1 * (f_r - f_mid) / span
    if not abs(a) > 0.0:
        raise DegenerateGeometryError("the trace has no off-resonant background")
    c = -b / a
    kappa_l = 2.0 * math.pi * f_r / q_l
    kappa_c = min(max(c.real, 1e-6), 1.0) * kappa_l
    phi0 = math.atan(c.imag / c.real) if c.real > 0.0 else 0.0
    return f_r, kappa_c, kappa_l, phi0, complex(a)


@dataclass(frozen=True)
class FitOptions:
    """Knobs of :func:`fit_linear`."""

    wing_fraction: float = 0.1
    max_iterations: int = 200

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")


#: Fewest samples :func:`fit_linear` takes: the shortest trace whose wings
#: hold :data:`MIN_WING_SAMPLES` each at the default ``wing_fraction``.
MIN_FIT_SAMPLES = next(
    n
    for n in itertools.count(MIN_WING_SAMPLES)
    if _wing_size(n, FitOptions.wing_fraction) >= MIN_WING_SAMPLES
)


@dataclass(frozen=True)
class LinearFitResult:
    """Outcome of :func:`fit_linear`.

    ``uncertainties`` and ``covariance`` follow the :data:`PARAM_NAMES`
    ordering; ``n_photons`` is the on-resonance steady-state occupation at
    the trace's drive power (``None`` when the power is unknown).
    """

    resonator: LinearResonatorParams
    environment: EnvironmentParams
    uncertainties: Mapping[str, float]
    covariance: np.ndarray
    residual_rms: float
    n_photons: float | None
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "covariance", _freeze_array(self.covariance, float))
        object.__setattr__(self, "uncertainties", MappingProxyType(dict(self.uncertainties)))


def _param_scale(f_r: float, kappa_l: float, amplitude: float, span: float) -> np.ndarray:
    """The solver's unit of each :data:`PARAM_NAMES` parameter: the
    linewidth for ``f_r`` (at least ``1e-6 f_r``), ``kappa_l`` for both
    rates, 0.3 rad for both phases, the amplitude, and the delay that turns
    the phase by one radian across ``span``."""
    f_scale = max(kappa_l / (2.0 * math.pi), 1e-6 * f_r)
    return np.array([f_scale, kappa_l, kappa_l, 0.3, amplitude, 0.3, 1.0 / (2.0 * math.pi * span)])


def _refinement_problem(freqs: np.ndarray, values: np.ndarray):
    """Residual and closed-form Jacobian of the 7-parameter refinement.

    Both are float views of the complex arrays, the real and imaginary part
    of each point side by side. The Jacobian is the transpose of the
    C-ordered (7, 2F) view, one contiguous row per parameter. The solver
    asks for each Jacobian at the point of the residual just before it, so
    the problem keeps the forward terms of the latest residual, and a
    Jacobian at that point, bit for bit, reuses them.
    """
    kept: tuple[bytes, _Terms | None] = (b"", None)  # the latest residual's key and terms

    def residual(p):
        nonlocal kept
        terms = _notch(p, freqs)
        kept = (p.tobytes(), terms)
        return (terms.s - values).view(float)

    def jacobian(p):
        key, terms = kept
        if key != p.tobytes():
            terms = _notch(p, freqs)
        rows = np.empty((len(PARAM_NAMES), freqs.size), dtype=complex)
        return _notch_rows(p, freqs, terms, rows).view(float).T

    return residual, jacobian


def fit_linear(trace: FrequencyTrace, options: FitOptions | None = None) -> LinearFitResult:
    """Fit one trace to the linear notch model.

    Raises :class:`ConvergenceError` (carrying the last iterate) if the
    refinement exhausts its iteration budget or ends at a non-positive
    coupling rate. A negative internal rate at the optimum is pinned to zero
    and flagged in ``result.flags``.
    """
    options = options or FitOptions()
    n = len(trace)
    if n < MIN_FIT_SAMPLES:
        raise InsufficientDataError(f"need at least {MIN_FIT_SAMPLES} samples, got {n}")
    freqs = trace.frequencies
    values = trace.values
    flags: list[str] = []

    # Stage 1: delay estimate from the wings, then removed.
    tau0 = estimate_delay(trace, options.wing_fraction)
    z1 = values * np.exp(2j * math.pi * freqs * tau0)

    # Stage 2: start values from the global scan of the profiled cost.
    f_r0, kappa_c0, kappa_l0, phi0, a = _profiled_seed(freqs, z1)
    a0 = abs(a)
    p0 = np.array([f_r0, kappa_c0, kappa_l0 - kappa_c0, phi0, a0, float(np.angle(a)), tau0])

    # Stage 3: full complex least-squares refinement of all 7 parameters,
    # with alpha refined as the background phase at the trace centre.
    turn = math.pi * (freqs[0] + freqs[-1])
    residual, jacobian, x0, back = _centre_alpha(*_refinement_problem(freqs, values), p0, turn)
    span = trace.span
    x_scale = _param_scale(f_r0, kappa_l0, a0, span)
    sol = least_squares(
        residual,
        x0,
        jac=jacobian,
        x_scale=x_scale,
        ftol=1e-12,
        xtol=1e-12,
        gtol=1e-14,
        # Each iteration costs one Jacobian and at least one residual.
        max_nfev=options.max_iterations,
    )
    p = settle(sol, PARAM_NAMES, f"no convergence within {options.max_iterations} iterations", back)

    f_r, kappa_c, kappa_int, phi0, amplitude, alpha, tau = p
    if amplitude < 0.0:
        amplitude = -amplitude
        alpha += math.pi
    alpha = _wrap_angle(alpha)
    phi0 = _wrap_half_pi(phi0)
    if kappa_c <= 0.0:
        raise ConvergenceError(
            "optimum has non-positive coupling rate; the trace probably holds no dip",
            last_params=dict(zip(PARAM_NAMES, p)),
        )
    if kappa_int < 0.0:
        flags.append("kappa_int pinned to 0 (optimum was negative)")
        kappa_int = 0.0

    # Stage 4: parameter covariance from the solver's Jacobian at the
    # optimum, mapped back to the 0 Hz phase alpha.
    covariance, sigmas, _ = fit_errors(sol, sol.jac, x_scale, back)
    uncertainties = dict(zip(PARAM_NAMES, (float(s) for s in sigmas)))
    residual_rms = math.sqrt(2.0 * sol.cost / n)

    resonator = LinearResonatorParams(
        f_r=float(f_r), kappa_c=float(kappa_c), kappa_int=float(kappa_int), phi0=float(phi0)
    )
    environment = EnvironmentParams(amplitude=float(amplitude), alpha=float(alpha), tau=float(tau))
    if span < 5.0 * resonator.linewidth_hz:
        flags.append("trace span below 5 linewidths; parameters may be poorly constrained")

    n_photons = None
    if trace.drive_power is not None:
        n_photons = photon_number(resonator, trace.drive_power)
    return LinearFitResult(
        resonator=resonator,
        environment=environment,
        uncertainties=uncertainties,
        covariance=covariance,
        residual_rms=residual_rms,
        n_photons=n_photons,
        flags=tuple(flags),
    )


def photon_number(res: LinearResonatorParams, p_feedline: float) -> float:
    """On-resonance steady-state photon number at feedline power ``p_feedline`` [dBm].

    ``<N_ph> = (2 kappa_c / kappa_L^2) P[W] / (hbar omega_0)``.
    """
    p_watts = dbm_to_watts(p_feedline)
    omega0 = 2.0 * math.pi * res.f_r
    return 2.0 * res.kappa_c / res.kappa_l**2 * p_watts / (HBAR * omega0)


def single_photon_power(res: LinearResonatorParams) -> float:
    """Feedline power [dBm] at which the on-resonance occupation is one.

    The inverse of :func:`photon_number` at ``<N_ph> = 1``.
    """
    omega0 = 2.0 * math.pi * res.f_r
    p_watts = HBAR * omega0 * res.kappa_l**2 / (2.0 * res.kappa_c)
    return watts_to_dbm(p_watts)


def q_sigma(
    f_r: float, kappa: float, covariance: np.ndarray, names: Sequence[str], kappa_name: str
) -> float | None:
    """1-sigma on ``Q = 2 pi f_r / kappa`` from ``covariance``, whose rows and
    columns follow ``names``; ``None`` where Q is not finite."""
    q = 2.0 * math.pi * f_r / kappa if kappa > 0.0 else math.inf
    if not math.isfinite(q):
        return None
    i, k = names.index("f_r"), names.index(kappa_name)
    dq_df = 2.0 * math.pi / kappa
    dq_dk = -q / kappa
    var = (
        dq_df**2 * covariance[i, i]
        + dq_dk**2 * covariance[k, k]
        + 2.0 * dq_df * dq_dk * covariance[i, k]
    )
    return math.sqrt(max(var, 0.0))


def linear_payload(fit: LinearFitResult) -> dict:
    """The report block of a linear fit: parameters, sigmas, quality factors,
    photon calibration and flags."""
    res, env, u = fit.resonator, fit.environment, fit.uncertainties
    cov = fit.covariance
    return {
        "f_r_hz": res.f_r,
        "f_r_sigma_hz": u["f_r"],
        "kappa_c_rad_s": res.kappa_c,
        "kappa_c_sigma_rad_s": u["kappa_c"],
        "kappa_c_over_2pi_hz": res.kappa_c / (2.0 * math.pi),
        "kappa_int_rad_s": res.kappa_int,
        "kappa_int_sigma_rad_s": u["kappa_int"],
        "kappa_int_over_2pi_hz": res.kappa_int / (2.0 * math.pi),
        "q_c": res.q_c,
        "q_c_sigma": q_sigma(res.f_r, res.kappa_c, cov, PARAM_NAMES, "kappa_c"),
        "q_i": res.q_i,
        "q_i_sigma": q_sigma(res.f_r, res.kappa_int, cov, PARAM_NAMES, "kappa_int"),
        "q_l": res.q_l,
        "phi0_rad": res.phi0,
        "phi0_sigma_rad": u["phi0"],
        "amplitude": env.amplitude,
        "amplitude_sigma": u["amplitude"],
        "alpha_rad": env.alpha,
        "alpha_sigma_rad": u["alpha"],
        "tau_s": env.tau,
        "tau_sigma_s": u["tau"],
        "n_photons": fit.n_photons,
        "single_photon_power_dbm": single_photon_power(res),
        "residual_rms": fit.residual_rms,
        "flags": list(fit.flags),
    }


def segment_trace(
    trace: FrequencyTrace,
    prominence_db: float = 3.0,
    window_linewidths: float = 20.0,
    baseline_percentile: float = 50.0,
) -> list[FrequencyTrace]:
    """Split a multi-resonator scan into single-dip windows.

    Dips must reach ``prominence_db`` below the background (estimated as
    the ``baseline_percentile`` of the magnitude in dB); each window spans
    ``window_linewidths`` estimated linewidths (the dip's full width at
    half prominence) centered on the dip.
    """
    # scipy.signal is imported here so that only dip segmentation pays its import time.
    from scipy.signal import find_peaks

    mag_db = 20.0 * np.log10(np.maximum(np.abs(trace.values), 1e-300))
    baseline = float(np.percentile(mag_db, baseline_percentile))
    peaks, props = find_peaks(
        -mag_db,
        height=prominence_db - baseline,
        prominence=prominence_db,
        width=1,
        rel_height=0.5,
    )
    segments = []
    for peak, width in zip(peaks, props["widths"]):
        half = int(round(width * window_linewidths / 2.0))
        lo = max(peak - half, 0)
        hi = min(peak + half + 1, len(trace))
        segments.append(
            FrequencyTrace(
                frequencies=trace.frequencies[lo:hi],
                values=trace.values[lo:hi],
                drive_power=trace.drive_power,
            )
        )
    return segments
