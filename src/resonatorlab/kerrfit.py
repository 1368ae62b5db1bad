"""Kerr-nonlinear notch model: photon cubic, branch selection, one forward
model of a whole power sweep with its Jacobian, and the joint power-sweep
fit for the self-Kerr coefficient.

Conventions. ``K`` is the self-Kerr coefficient in Hz; positive ``K``
softens the resonator, so the dip moves to lower frequency as the drive
power grows. Internally the reduced detuning is

    delta = (omega_0 - omega_d) / kappa_L,

the same detuning sign as the linear model, which puts the bistable region
on the low-frequency side of the resonance. The reduced drive is
``xi = |alpha_in|^2 kappa_c K_ang / kappa_L^3`` with ``K_ang = 2 pi K`` and
``|alpha_in|^2 = P[W]/(hbar omega_d)``; the renormalized photon number ``n``
solves

    F(n) = xi^2 n^3 - 2 delta xi n^2 + (delta^2 + 1/4) n - 1/2 = 0.

The Kerr model is the linear notch model, with ``phi`` in place of
``phi0``, at the detuning shifted by ``kappa_L xi n``. The shift is exactly
zero at ``K = 0``, where both models agree bit for bit.

The cubic is invariant under ``(delta, xi) -> (-delta, -xi)``, which is how
negative ``K`` is folded into a non-negative ``xi`` for the root solver.
Derivatives of ``n`` follow by implicit differentiation, ``dn/dv = -F_v/F_n``
(Yurke & Buks, J. Lightwave Technol. 24, 5054 (2006); Swenson et al.,
J. Appl. Phys. 113, 104501 (2013)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from ._lsq import _centre_alpha, fit_errors, least_squares, settle
from .constants import BRANCH_RULES, HBAR
from .core import (
    EnvironmentParams,
    LinearResonatorParams,
    PowerSweep,
    dbm_to_watts,
    dip_frequency,
)
from .errors import DataError
from .linfit import (
    LinearFitResult,
    _notch,
    _notch_rows,
    _param_scale,
    _wrap_half_pi,
    photon_number,
)

__all__ = [
    "BRANCH_RULES",
    "KerrParams",
    "KerrFitOptions",
    "KerrFitResult",
    "photon_cubic_roots",
    "model_s21_kerr",
    "fit_kerr",
]

#: Reduced drive below which :func:`photon_cubic_roots` starts Newton from the
#: linear root instead of using the closed form.
XI_NEWTON = 1e-8

#: Parameter vector of :func:`_sweep_model` and :func:`fit_kerr`: the linear
#: parameters with ``phi`` in place of ``phi0``, then K.
SWEEP_PARAM_NAMES = ("f_r", "kappa_c", "kappa_int", "phi", "amplitude", "alpha", "tau", "kerr")

#: Highest-power slices on which :func:`fit_kerr` ranks its start candidates.
RANK_ROWS = 3


@dataclass(frozen=True)
class KerrParams:
    """Linear resonator + environment plus the nonlinear pair (K, phi)."""

    linear: LinearResonatorParams
    environment: EnvironmentParams
    kerr: float  # Hz, sign free; positive red-shifts
    phi: float = 0.0  # rad, nonlinear-model mismatch phase

    def __post_init__(self):
        if not math.isfinite(self.kerr):
            raise ValueError(f"kerr must be finite, got {self.kerr}")
        if not abs(self.phi) < math.pi / 2:
            raise ValueError(f"|phi| must be below pi/2, got {self.phi}")


@dataclass(frozen=True)
class KerrFitOptions:
    """Options of :func:`fit_kerr`; ``branch`` is one of :data:`BRANCH_RULES`."""

    branch: str = "lowest"
    k_init: float | None = None  # Hz; default: dip-trajectory slope estimate
    mask_bistable: bool = False  # drop the points with three roots at the start K
    max_iterations: int = 200

    def __post_init__(self):
        if self.k_init is not None and not math.isfinite(self.k_init):
            raise ValueError(f"k_init must be finite, got {self.k_init}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")


@dataclass(frozen=True)
class KerrFitResult:
    params: KerrParams
    k_uncertainty: float  # Hz, 1-sigma
    phi_uncertainty: float  # rad, 1-sigma
    residual_rms: float
    #: (P, F) S21 of the fitted model on the sweep grid: :func:`model_s21_kerr`
    #: of ``params`` at each power
    model_s21: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.k_uncertainty < 0.0 or self.phi_uncertainty < 0.0:
            raise ValueError("uncertainties must be non-negative")


def photon_cubic_roots(delta, xi) -> np.ndarray:
    """All real non-negative roots of the photon cubic, vectorized.

    ``delta`` and ``xi`` broadcast together; ``xi`` must be non-negative.
    Returns an array of shape ``broadcast_shape + (3,)`` holding the roots in
    ascending order, NaN-padded (every point has one or three roots, counting
    multiplicity at the bifurcation).

    Each point gets one formula. At ``xi = 0`` the root is the linear one,
    ``1/(2 (delta^2 + 1/4))``; below :data:`XI_NEWTON` it is Newton-polished
    from there. Above, a positive discriminant (three roots) takes the
    trigonometric form, whose three roots are polished and sorted; all other
    points take the single Cardano root, polished on its own. Every polish
    is the same three guarded Newton steps on the unscaled cubic.
    """
    delta_b, xi_b = np.broadcast_arrays(np.asarray(delta, float), np.asarray(xi, float))
    if np.any(xi_b < 0.0):
        raise ValueError("xi must be non-negative; fold the sign of K into delta")
    d = delta_b.ravel()
    x = xi_b.ravel()
    roots = np.full((d.size, 3), np.nan)
    shape = delta_b.shape + (3,)

    cubic = x >= XI_NEWTON
    out = roots  # the rows of the cubic points
    if not cubic.all():
        linear = x == 0.0
        roots[linear, 0] = 0.5 / (d[linear] ** 2 + 0.25)
        # Below XI_NEWTON the only real root lies within a relative ~xi of the
        # linear root, while the closed form below loses it to cancellation in
        # t - b/3 (all digits by xi ~ 1e-14); Newton from the linear root is exact.
        small = ~linear & ~cubic
        if np.any(small):
            ds, xs = d[small], x[small]
            roots[small, 0] = _polish(0.5 / (ds * ds + 0.25), ds, xs)
        if not cubic.any():
            return roots.reshape(shape)
        d, x = d[cubic], x[cubic]
        out = np.full((d.size, 3), np.nan)

    # Monic form n^3 + b n^2 + c n + e.
    b = -2.0 * d / x
    c = (d * d + 0.25) / (x * x)
    e = -0.5 / (x * x)
    # Depressed cubic t^3 + p t + q with n = t - b/3.
    p = c - b * b / 3.0
    q = 2.0 * b**3 / 27.0 - b * c / 3.0 + e
    p3 = p**3  # needed twice, and np.power is slow on the negative p of most points
    three = -4.0 * p3 - 27.0 * q * q > 0.0

    one = slice(None)
    if three.any():
        pp, qq, bb = p[three], q[three], b[three]
        m = 2.0 * np.sqrt(-pp / 3.0)
        arg = np.clip(3.0 * qq / (m * pp), -1.0, 1.0)
        theta = np.arccos(arg) / 3.0
        k = np.array([0.0, 1.0, 2.0])
        t = m[:, None] * np.cos(theta[:, None] - 2.0 * math.pi * k[None, :] / 3.0)
        n3 = _polish(t - bb[:, None] / 3.0, d[three, None], x[three, None])
        n3[n3 <= 0.0] = np.nan
        out[three] = np.sort(n3, axis=1)  # NaNs go last
        one = ~three
        p, q, b, d, x, p3 = p[one], q[one], b[one], d[one], x[one], p3[one]

    s = np.sqrt(np.maximum(q * q / 4.0 + p3 / 27.0, 0.0))
    # Pick the larger-magnitude cube-root argument to avoid cancellation.
    h = -q / 2.0
    u = np.cbrt(np.where(q > 0.0, h - s, h + s))
    nonzero = u != 0.0
    t = np.where(nonzero, u - p / np.where(nonzero, 3.0 * u, 1.0), 0.0)
    n1 = _polish(t - b / 3.0, d, x)
    n1[n1 <= 0.0] = np.nan
    out[one, 0] = n1

    if out is not roots:
        roots[cubic] = out
    return roots.reshape(shape)


def _polish(n: np.ndarray, delta: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """A few guarded Newton steps on the well-conditioned unscaled cubic;
    ``delta`` and ``xi`` broadcast against the roots ``n``."""
    # each product grouped left to right, as x*x*n**3 evaluates (3*x*x, not
    # 3*(x*x)): another grouping can move the last bit of a root
    c3, c2, c1 = xi * xi, 2.0 * delta * xi, delta * delta + 0.25
    d2, d1 = 3.0 * xi * xi, 4.0 * delta * xi
    for _ in range(3):
        n2 = n * n
        f = c3 * n**3 - c2 * n2 + c1 * n - 0.5
        fp = d2 * n2 - d1 * n + c1
        with np.errstate(invalid="ignore", divide="ignore"):
            step = f / fp
        # Near-double roots have fp -> 0; keep the unpolished value there.
        # The test is false for a NaN or infinite step.
        ok = np.abs(step) <= 0.05 * (1.0 + np.abs(n))
        n = n - np.where(ok, step, 0.0)
    return n


def _select_branch(roots: np.ndarray, branch: str) -> np.ndarray:
    """Pick one root per point from ascending NaN-padded ``roots`` (m, 3)."""
    if branch == "lowest":
        return roots[:, 0]
    if branch == "highest":
        return np.nanmax(roots, axis=1)
    if branch == "sweep-continuation":
        # Follow the root nearest the previous point's. Only points with
        # several roots offer a choice, and the first point takes its lowest.
        n = roots[:, 0].copy()
        for i in np.flatnonzero(np.isfinite(roots[1:, 1])) + 1:
            finite = roots[i][np.isfinite(roots[i])]
            n[i] = finite[np.argmin(np.abs(finite - n[i - 1]))]
        return n
    raise ValueError(f"unknown branch rule {branch!r}; expected one of {BRANCH_RULES}")


def _sweep_vector(res, env, kerr, phi) -> np.ndarray:
    """The :data:`SWEEP_PARAM_NAMES` vector of one model."""
    linear = [res.f_r, res.kappa_c, res.kappa_int, phi, env.amplitude, env.alpha, env.tau]
    return np.array([*linear, kerr])


class _Solve(NamedTuple):
    """The photon numbers of a sweep at one point of the cubic's inputs.

    A solve holds for the grid, powers and branch rule it was made on; only
    ``key`` is checked when it is offered again.
    """

    key: bytes  # _cubic_key of the vector solved at
    n: np.ndarray  # (P, F) photon numbers on the branch
    three: np.ndarray  # (P, F) flags of the points where the cubic has three roots


def _cubic_key(p: np.ndarray) -> bytes:
    """The parameters the cubic depends on, bit for bit: f_r, kappa_c, the
    clipped kappa_int and K. The other four do not enter it."""
    return np.array([p[0], p[1], max(p[2], 0.0), p[7]]).tobytes()


def _drives(p: np.ndarray, f: np.ndarray, watts: Sequence[float]):
    """``kappa_L``, the reduced detuning, and an iterator of ``(|alpha_in|^2, xi)``
    over the power rows."""
    f_r, kappa_c, kappa_int, kerr = p[0], p[1], max(p[2], 0.0), p[7]
    kappa_l = kappa_c + kappa_int
    hbar_omega = HBAR * (2.0 * math.pi * f)
    # subtract frequencies before scaling: forming omega_0 - omega_d from
    # two large rounded products would cost ~4 digits of detuning accuracy
    delta = 2.0 * math.pi * (f_r - f) / kappa_l

    def rows():  # one row at a time, so no sweep-sized array is held
        for power in watts:
            alpha_in_sq = power / hbar_omega
            yield alpha_in_sq, alpha_in_sq * kappa_c * (2.0 * math.pi * kerr) / kappa_l**3

    return kappa_l, delta, rows()


def _solve_sweep(p: np.ndarray, f: np.ndarray, watts: Sequence[float], branch: str) -> _Solve:
    """Solve the photon cubic on every power row at ``p``: one kernel call per row."""
    _, delta, rows = _drives(p, f, watts)
    sign = -1.0 if p[7] < 0.0 else 1.0
    n = np.empty((len(watts), f.size))
    three = np.empty(n.shape, dtype=bool)
    for i, (_, xi) in enumerate(rows):
        roots = photon_cubic_roots(sign * delta, sign * xi)
        three[i] = np.isfinite(roots[:, 2])
        n[i] = _select_branch(roots, branch)
    return _Solve(_cubic_key(p), n, three)


def _sweep_model(
    p: np.ndarray,
    f: np.ndarray,
    watts: Sequence[float],
    branch: str,
    jac: bool = False,
    solve: _Solve | None = None,
) -> tuple[np.ndarray, np.ndarray | None, _Solve]:
    """S21 over the (power x frequency) grid, with its Jacobian on request.

    ``p`` holds :data:`SWEEP_PARAM_NAMES`, ``watts`` the feedline power [W] of
    each row. Returns the complex S21 ``(P, F)``; the complex ``dS21/dp``
    ``(8, P, F)`` if ``jac`` is set and ``None`` otherwise; and the solve the
    model used, whose ``three`` flags the points where the cubic has three
    roots. Each power row is one sweep for ``"sweep-continuation"``. The
    first seven entries enter as the linear model's, with ``phi`` as
    ``phi0``. ``solve`` is used when it was made at the same cubic inputs as
    ``p``, bit for bit, and the cubic is solved afresh otherwise.
    """
    if solve is None or solve.key != _cubic_key(p):
        solve = _solve_sweep(p, f, watts, branch)
    kappa_c, kerr = p[1], p[7]
    linear = (p[0], kappa_c, max(p[2], 0.0), *p[3:7])
    kappa_l, delta, rows = _drives(p, f, watts)

    s21 = np.empty(solve.n.shape, dtype=complex)
    d = None
    if jac:
        d = np.empty((p.size,) + s21.shape, dtype=complex)
        delta_sq, delta_4 = delta * delta, 4.0 * delta  # the same on every row
    for i, (alpha_in_sq, xi) in enumerate(rows):
        n = solve.n[i]
        # the linear model at the detuning shifted by kappa_L xi n, which is
        # exactly 0 at K = 0
        terms = _notch(linear, f, kappa_l * xi * n)
        s21[i] = terms.s
        if not jac:
            continue

        # c holds the derivatives at the shift kappa_L (delta - u), u = delta
        # - xi n, fixed, and dS/d(shift) = -w with w = c_0/(2 pi). Implicit
        # differentiation of the cubic gives du = g (d delta - n d xi) with
        # g = (u^2 + 1/4)/F_n. phi, amplitude, alpha and tau enter as in the
        # linear model.
        c = _notch_rows(linear, f, terms, d[:7, i])
        u = delta - xi * n
        xn_3 = 3.0 * xi * n
        f_n = (xn_3 - delta_4) * xi * n + delta_sq + 0.25
        with np.errstate(divide="ignore", invalid="ignore"):  # F_n -> 0 at the folds
            g = (u * u + 0.25) / f_n
            w = c[0] / (2.0 * math.pi)
            drift = u - g * (delta - xn_3)  # -d(shift)/d(kappa_int)
            feed = kappa_l * g * n * (alpha_in_sq * 2.0 * math.pi / kappa_l**3)  # per d(kappa_c K)
        d[7, i] = -w * feed * kappa_c
        c[0] *= g
        c[1] += w * (drift - feed * kerr)
        if p[2] >= 0.0:
            c[2] += w * drift
        else:  # zero when clipped
            c[2] = 0.0
    return s21, d, solve


def model_s21_kerr(
    params: KerrParams,
    f: float | np.ndarray,
    p_feedline: float,
    branch: str = "lowest",
) -> complex | np.ndarray:
    """Kerr-nonlinear notch transmission at drive frequency ``f`` [Hz] and
    feedline power ``p_feedline`` [dBm].

    ``branch`` resolves the bistable regime: ``"lowest"``/``"highest"`` pick
    the corresponding real root pointwise, ``"sweep-continuation"`` follows
    the root continuously along the array order of ``f`` (for a scalar ``f``
    it reduces to ``"lowest"``).
    """
    f_arr = np.atleast_1d(np.asarray(f, dtype=float))
    p = _sweep_vector(params.linear, params.environment, params.kerr, params.phi)
    out = _sweep_model(p, f_arr, [dbm_to_watts(p_feedline)], branch)[0][0]
    return out if np.ndim(f) else complex(out[0])


def _estimate_k_init(sweep: PowerSweep, res: LinearResonatorParams) -> float:
    """Slope of the dip frequency versus linear photon number, negated."""
    dips = dip_frequency(sweep.frequencies, [t.values for t in sweep.traces])
    n_ph = np.array([photon_number(res, t.drive_power) for t in sweep.traces])
    dn = n_ph - n_ph.mean()
    denom = float(np.dot(dn, dn))
    k0 = -float(np.dot(dn, dips - dips.mean())) / denom if denom > 0.0 else 0.0
    if not math.isfinite(k0) or k0 == 0.0:
        return res.linewidth_hz * 1e-2
    return k0


def fit_kerr(
    sweep: PowerSweep,
    linear: LinearFitResult,
    options: KerrFitOptions | None = None,
) -> KerrFitResult:
    """Fit (K, phi) jointly with the linear parameters to a full 2-D power sweep.

    ``linear`` seeds the fit and should come from a sub-single-photon slice
    of the same sweep; a resonance outside the sweep's grid is rejected as a
    mismatch. The fit starts from the best of four K values by the unmasked
    sum of squares over the :data:`RANK_ROWS` highest-power slices, and
    ``mask_bistable`` drops the points with three roots at that start.
    The fit solves for the :data:`SWEEP_PARAM_NAMES` vector over every
    slice, with alpha refined at the sweep centre; ``params.linear.phi0``
    stays the seed's, as ``phi`` takes its role. ``k_uncertainty`` is
    marginal: it comes from the joint covariance of all eight parameters.

    The solver gets the complex residual and ``dS21/dp`` of the kept points
    as float views, the real and imaginary part of each point side by side.
    A trial point with ``kappa_c <= 0`` gets a NaN residual, on which the
    solver shrinks its step. The photon cubic is solved once per distinct
    (f_r, kappa_c, kappa_int, K): a Jacobian reuses the solve of the
    residual at its point, and ``model_s21`` that of the solver's last
    Jacobian, at its solution.
    """
    options = options or KerrFitOptions()
    res0 = linear.resonator
    env0 = linear.environment
    freqs = sweep.frequencies
    if not freqs[0] <= res0.f_r <= freqs[-1]:
        raise DataError(
            f"linear-fit resonance {res0.f_r} Hz lies outside the sweep grid "
            f"[{freqs[0]}, {freqs[-1]}] Hz; sweep and linear fit do not match"
        )
    watts = [dbm_to_watts(t.drive_power) for t in sweep.traces]
    data = [t.values for t in sweep.traces]  # rows, not a copy of the sweep
    span = sweep.traces[0].span

    k0 = options.k_init if options.k_init is not None else _estimate_k_init(sweep, res0)
    k_scale = max(abs(k0), res0.linewidth_hz * 1e-3)
    x0 = _sweep_vector(res0, env0, k0, res0.phi0)
    x_scale = np.append(_param_scale(res0.f_r, res0.kappa_l, env0.amplitude, span), k_scale)
    keep = None  # grid points the fit uses; all of them unless masked
    solve = at_x = None  # the latest residual's solve, and the latest Jacobian's

    def fitted(z):  # the kept points of each (P, F) grid in z, re and im side by side
        z = z.reshape(-1, freqs.size * len(watts))
        return (z if keep is None else np.compress(keep, z, axis=1)).view(float)

    def residual(x):
        nonlocal solve
        if not x[1] > 0.0:  # xi would be negative: neither cubic nor model
            return fitted(np.full((len(watts), freqs.size), complex(np.nan, np.nan)))[0]
        delta_z, _, solve = _sweep_model(x, freqs, watts, options.branch, solve=solve)
        for row, measured in zip(delta_z, data):
            row -= measured
        return fitted(delta_z)[0]

    def jacobian(x):
        nonlocal at_x
        at_x = solve  # drop the previous point's solve before the Jacobian is built
        return fitted(_sweep_model(x, freqs, watts, options.branch, True, solve)[1]).T

    # Pick the best of a few starting K values before refining; the SSR
    # landscape is benign but the slope estimate can be off by a factor.
    # K shows most at the highest powers, so those rows alone rank them.
    def ssr_at(k):
        p = np.array([*x0[:7], k])
        r = _sweep_model(p, freqs, watts[-RANK_ROWS:], options.branch)[0] - data[-RANK_ROWS:]
        return float(np.vdot(r, r).real)

    candidates = {float(k0), float(3.0 * k0), float(k0 / 3.0), float(-k0)}
    x0[7] = min(candidates, key=ssr_at)
    if options.mask_bistable:
        solve = _solve_sweep(x0, freqs, watts, options.branch)  # the first residual's
        keep = ~solve.three.ravel()
        if not np.any(keep):
            raise DataError("masking bistable points left no data to fit")

    # alpha and tau are both free: refine alpha at the sweep centre
    turn = math.pi * (freqs[0] + freqs[-1])
    residual, jacobian, x0, back = _centre_alpha(residual, jacobian, x0, turn)
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
    message = f"no convergence within {options.max_iterations} iterations"
    x = settle(sol, SWEEP_PARAM_NAMES, message, back)
    _, sigmas, _ = fit_errors(sol, sol.jac, x_scale, back)
    f_r, kappa_c, kappa_int, phi, amplitude, alpha, tau, kerr = map(float, x)
    params = KerrParams(
        linear=LinearResonatorParams(f_r, kappa_c, max(kappa_int, 0.0), res0.phi0),
        environment=EnvironmentParams(amplitude, alpha, tau),
        kerr=kerr,
        phi=_wrap_half_pi(phi),
    )
    # phi does not enter the cubic: the solve at sol.x holds at the reported values
    p = _sweep_vector(params.linear, params.environment, kerr, params.phi)
    return KerrFitResult(
        params=params,
        k_uncertainty=float(sigmas[7]),
        phi_uncertainty=float(sigmas[3]),
        residual_rms=math.sqrt(2.0 * sol.cost / (sol.fun.size / 2)),
        model_s21=_sweep_model(p, freqs, watts, options.branch, solve=at_x)[0],
    )

