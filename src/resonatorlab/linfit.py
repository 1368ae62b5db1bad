"""Linear notch-resonator model and its complex least-squares fitter.

The fit has three stages: estimate and remove the cable delay from the
phase slope of the trace wings, seed the resonance by a global scan of the
cost profiled over its linear parameters, then refine all seven parameters
with one Levenberg-Marquardt pass on the complex residuals. The scan runs
on count-weighted means over bins of equal width, where each dip is a
kernel in the lag between bins, so one FFT correlation per linewidth
level gives the cost at every candidate resonance. The refinement
and the covariance use a closed-form Jacobian, so neither depends on a
finite-difference step rule of the optimizer. The Kerr fit shares the
parameter scales, ``_param_scale``, and the whole solve, ``_fit_notch``: its
model takes the delay phase about the trace centre, so alpha is refined
there, and it runs the solver of ``_lsq`` with the notch tolerances, checks
the budget and takes the covariance from ``_lsq`` for alpha at 0 Hz.
The model is written once, in a forward step, ``_notch``, and a derivative
step, ``_notch_rows``, that builds the Jacobian from the forward terms; the
Kerr model of ``kerrfit`` evaluates both at a shifted detuning. The photon
calibration of a linear fit, :func:`photon_number` and its inverse
:func:`single_photon_power`, lives here too.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from ._lsq import fit_errors, least_squares
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
    ``m = kappa_c e^{i phi0}/cos(phi0)`` and ``B = A e^{i alpha} e^{-2 pi i (f - centre) tau}``.
    """

    d: np.ndarray  # 2i delta_r + kappa_L
    tilt: complex  # e^{i phi0}
    mismatch: complex  # m
    resonant: np.ndarray  # (d - m)/d
    offset: np.ndarray  # f - centre
    delay: np.ndarray  # e^{-2 pi i (f - centre) tau}
    rotation: complex  # e^{i alpha}
    background: np.ndarray  # B
    s: np.ndarray  # S


def _delay(offset: np.ndarray, tau: float) -> np.ndarray:
    """``e^{-2 pi i offset tau}`` as cos + i sin of its real phase, cheaper than
    ``np.exp``: the one delay phasor of every notch model and fit."""
    phase = -2.0 * math.pi * offset * tau
    delay = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=delay.real)
    np.sin(phase, out=delay.imag)
    return delay


def _notch(
    p, f: np.ndarray, shift=None, delay: np.ndarray | None = None, centre: float | None = None
) -> _Terms:
    """Forward terms of the notch S21 at the :data:`PARAM_NAMES` vector ``p``.

    ``shift`` [rad/s], if given, is subtracted from the detuning ``delta_r =
    omega_0 - omega_d``; the Kerr model is this model at ``shift = kappa_L xi
    n``, and the linear model has none, which gives the bits of a zero shift.
    ``centre`` [Hz], if given, is the delay's phase reference, where alpha is
    the background phase, as the fits take it; the public models take 0 Hz.
    ``delay``, if given, is the :func:`_delay` term at the same ``f``, tau and
    centre, taken as it is instead of computed again.
    """
    f_r, kappa_c, kappa_int, phi0, amplitude, alpha, tau = p
    delta_r = 2.0 * math.pi * (f_r - f)
    if shift is not None:
        delta_r = delta_r - shift
    d = 2j * delta_r + (kappa_c + kappa_int)
    tilt = np.exp(1j * phi0)
    mismatch = kappa_c * tilt / math.cos(phi0)
    resonant = (d - mismatch) / d
    offset = f if centre is None else f - centre
    if delay is None:
        delay = _delay(offset, tau)
    rotation = np.exp(1j * alpha)
    background = amplitude * rotation * delay
    s = background * resonant
    return _Terms(d, tilt, mismatch, resonant, offset, delay, rotation, background, s)


def _notch_rows(p, t: _Terms, rows: np.ndarray) -> np.ndarray:
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
    np.multiply(t.offset, -2j * math.pi, out=rows[6])
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
    out = _notch(p, np.atleast_1d(np.asarray(f, dtype=float))).s
    return out if np.ndim(f) else complex(out[0])


def _wing_size(n: int, wing_fraction: float) -> int:
    """Samples in each wing of an ``n``-sample trace."""
    return int(round(n * wing_fraction))


def estimate_delay(trace: FrequencyTrace, wing_fraction: float = 0.1) -> float:
    """Cable delay from the phase slope of the off-resonant trace wings.

    Returns ``-(1/2pi) d(phase)/df`` averaged over the two outer wings, each
    containing ``wing_fraction`` of the samples. The wings are stacked as the
    two rows of one array, so the phase, its unwrapping and the centring run
    once over both; each slope is a least-squares slope from centred sums,
    which are pairwise sums along the rows, not BLAS dot products, whose
    rounding depends on the thread count.
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
    f, v = trace.frequencies, trace.values
    df = np.stack((f[:n_wing], f[n - n_wing :]))
    df -= df.mean(axis=1, keepdims=True)
    phase = np.unwrap(np.angle(np.stack((v[:n_wing], v[n - n_wing :]))))
    phase -= phase.mean(axis=1, keepdims=True)
    slopes = (df * phase).sum(axis=1) / (df * df).sum(axis=1)
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


@functools.lru_cache(maxsize=None)  # one entry per bin count, at most SEED_BLOCKS
def _seed_kernel(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The linewidth levels of the seed scan on ``n`` bins, and the spectra
    over ``2n`` points of their dips, one row per level; both read-only.

    Each inner product of :func:`_seed_drops` is a correlation sum_m g(m)
    x[c + m] of a column x over the bins, taken as a product of spectra over
    2n points so that no lag wraps around. g(-m) = conj g(m), so the
    kernel's spectrum is real and comes from the lags 0 .. n alone; irfft's
    1/(2n) stands in for ifft's. The kernel depends on ``n`` alone, so it is
    built once per bin count: every trace of ``SEED_BLOCKS`` points or more
    shares one.
    """
    levels = (0.5 * n) ** (np.arange(SEED_Q_LEVELS) / (SEED_Q_LEVELS - 1))
    y = (2.0 / n) * levels[:, None] * np.arange(n + 1)
    kernel = np.fft.irfft(1.0 / (1.0 - 1j * y), 2 * n)
    levels.flags.writeable = kernel.flags.writeable = False
    return levels, kernel


def _seed_drops(counts: np.ndarray, means: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cost drops of the seed scan on ``n`` bins, and its linewidth levels.

    The levels are the span in linewidths, log-spaced from 1 to ``n/2``.
    Entry ``[k, c]`` is ``|<g, r>|^2 / (sum w |g|^2 - |<g, b>|^2)``: how far
    the count-weighted cost of the bin means falls when the dip centred on
    bin ``c`` at level ``s_k``, ``g(m) = 1/(1 - 2i s_k m/n)`` in bin
    ``c + m``, joins the background ``b``, orthonormal under the weights
    ``w``; ``r`` is the residual after the background. The four correlation
    columns share the cached kernel of :func:`_seed_kernel` and one batched
    inverse FFT.
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
    levels, kernel = _seed_kernel(n)
    columns = np.fft.fft([np.conj(u * r), u * b0, u * b1, counts], 2 * n)
    overlap, along_b0, along_b1, weight = np.fft.ifft(
        kernel * columns[:, None, :], norm="forward"
    )[..., :n]
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
    # pairwise sums, not BLAS dot products, whose rounding depends on the thread count
    sum_t, sum_g, t_g = t.sum(), g.sum(), (t * g).sum()
    gram = np.array(
        [
            [freqs.size, sum_t, sum_g],
            [sum_t, (t * t).sum(), t_g],
            [sum_g.conjugate(), t_g.conjugate(), g.real.sum()],  # |g|^2 = Re g
        ]
    )
    try:
        a0, a1, b = np.linalg.solve(gram, np.array([z.sum(), (t * z).sum(), (g.conj() * z).sum()]))
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


def _refinement_problem(freqs, values, centre=None, start=None):
    """Residual and closed-form Jacobian of the 7-parameter refinement, with
    alpha the background phase at ``centre``, or at 0 Hz without it.

    Both are float views of the complex arrays, the real and imaginary part
    of each point side by side. The Jacobian is the transpose of the
    C-ordered (7, 2F) view, one contiguous row per parameter. The problem
    keeps the forward terms of the latest vector it was asked about, by a
    residual or a Jacobian, and a vector with the same bits reuses them: the
    solver asks for each Jacobian at the point of the residual just before
    it. ``start``, if given, is the first vector kept and its terms from
    :func:`_notch` at ``centre``: the fit hands over the seed's.
    """
    kept = (b"", None) if start is None else (start[0].tobytes(), start[1])

    def terms(p) -> _Terms:
        nonlocal kept
        if kept[0] != p.tobytes():
            kept = (b"", None)  # free the previous terms before these are built
            kept = (p.tobytes(), _notch(p, freqs, None, None, centre))
        return kept[1]

    def residual(p):
        return (terms(p).s - values).view(float)

    def jacobian(p):
        rows = np.empty((len(PARAM_NAMES), freqs.size), dtype=complex)
        return _notch_rows(p, terms(p), rows).view(float).T

    return residual, jacobian


def _fit_notch(residual, jacobian, x0, x_scale, centre, names, max_iterations):
    """Solve a notch fit from ``x0``; returns the reported parameters
    ``names``, their covariance and 1-sigma, and the rms per point.

    The first seven entries of ``x0`` are :data:`PARAM_NAMES`; ``x0`` and the
    problem take ``alpha`` (position 5) as the background phase at
    ``centre``, the trace centre. At 0 Hz, at high Q, its Jacobian column
    would nearly parallel that of ``tau`` (position 6); at the centre the
    scaled Jacobian stays well conditioned. The reported alpha is the phase
    at 0 Hz, ``alpha_c + 2 pi centre tau``: ``x = back @ x_c``. Raises
    :class:`ConvergenceError` with the last iterate when ``max_iterations``
    residual evaluations run out.
    """
    back = np.eye(x0.size)
    back[5, 6] = 2.0 * math.pi * centre
    sol = least_squares(
        residual,
        x0,
        jac=jacobian,
        x_scale=x_scale,
        ftol=1e-12,
        xtol=1e-12,
        gtol=1e-14,
        # One residual per accepted step, more after rejected ones.
        max_nfev=max_iterations,
    )
    x = back @ sol.x
    if sol.status == 0:
        message = f"no convergence within {max_iterations} iterations"
        raise ConvergenceError(message, last_params=dict(zip(names, x)))
    covariance, sigmas, _ = fit_errors(sol, sol.jac, x_scale, back)
    # two residuals, re and im, per point
    return x, covariance, sigmas, math.sqrt(2.0 * sol.cost / (sol.fun.size / 2))


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

    # Stage 1: delay estimate from the wings, then removed about the trace centre.
    tau0 = estimate_delay(trace, options.wing_fraction)
    centre = 0.5 * (freqs[0] + freqs[-1])
    delay0 = _delay(freqs - centre, tau0)  # _notch's delay term at tau0

    # Stage 2: start values from the global scan of the profiled cost.
    f_r0, kappa_c0, kappa_l0, phi0, a = _profiled_seed(freqs, values * delay0.conj())
    a0 = abs(a)
    p0 = np.array([f_r0, kappa_c0, kappa_l0 - kappa_c0, phi0, a0, float(np.angle(a)), tau0])

    # Stage 3: full complex least-squares refinement of all 7 parameters and
    # their covariance, from the seed's terms, which reuse delay0.
    start = (p0, _notch(p0, freqs, None, delay0, centre))
    problem = _refinement_problem(freqs, values, centre, start)
    span = trace.span
    x_scale = _param_scale(f_r0, kappa_l0, a0, span)
    p, covariance, sigmas, residual_rms = _fit_notch(
        *problem, p0, x_scale, centre, PARAM_NAMES, options.max_iterations
    )

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

    uncertainties = dict(zip(PARAM_NAMES, (float(s) for s in sigmas)))

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
