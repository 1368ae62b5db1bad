"""Kerr-nonlinear notch model: per-point photon cubic, branch selection and
the two-stage power-sweep fit for the self-Kerr coefficient.

Conventions. ``K`` is the self-Kerr coefficient in Hz; positive ``K``
softens the resonator, so the dip moves to lower frequency as the drive
power grows. Internally the reduced detuning is

    delta = (omega_0 - omega_d) / kappa_L,

the same detuning sign as the linear model, which makes the ``K = 0``
limit of the nonlinear response coincide with the linear model exactly and
puts the bistable region on the low-frequency side of the resonance. The
reduced drive is ``xi = |alpha_in|^2 kappa_c K_ang / kappa_L^3`` with
``K_ang = 2 pi K`` and ``|alpha_in|^2 = P[W]/(hbar omega_d)``; the
renormalized photon number ``n`` solves

    1/2 = (delta^2 + 1/4) n - 2 delta xi n^2 + xi^2 n^3.

The cubic is invariant under ``(delta, xi) -> (-delta, -xi)``, which is how
negative ``K`` is folded into a non-negative ``xi`` for the root solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import least_squares

from .constants import HBAR
from .core import (
    EnvironmentParams,
    LinearResonatorParams,
    PowerSweep,
    dbm_to_watts,
    watts_to_dbm,
)
from .errors import ConvergenceError, DataError
from .linfit import LinearFitResult, _central_jacobian, _scaled_pinv, photon_number

__all__ = [
    "BRANCH_RULES",
    "KerrParams",
    "KerrFitOptions",
    "KerrFitResult",
    "solve_photon_cubic",
    "photon_cubic_roots",
    "model_s21_kerr",
    "combine_linear_fits",
    "fit_kerr",
    "single_photon_power",
    "kerr_from_array",
]

BRANCH_RULES = ("lowest", "highest", "sweep-continuation")

#: Reduced drive below which :func:`photon_cubic_roots` starts Newton from the
#: linear root instead of using the closed form.
XI_NEWTON = 1e-8


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
    branch: str = "lowest"
    k_init: float | None = None  # Hz; default: dip-trajectory slope estimate
    mask_bistable: bool = False  # drop above-bifurcation points from the fit
    free_all: bool = False  # diagnostic mode: also free the linear parameters
    propagate_linear_uncertainty: bool = True  # fold stage-1 sigmas into sigma_K
    max_iterations: int = 200
    cost_tol: float = 1e-12
    step_tol: float = 1e-12


@dataclass(frozen=True)
class KerrFitResult:
    params: KerrParams
    k_uncertainty: float  # Hz, 1-sigma
    phi_uncertainty: float  # rad, 1-sigma
    residual_rms: float

    def __post_init__(self):
        if self.k_uncertainty < 0.0 or self.phi_uncertainty < 0.0:
            raise ValueError("uncertainties must be non-negative")


def photon_cubic_roots(delta, xi) -> np.ndarray:
    """All real non-negative roots of the photon cubic, vectorized.

    ``delta`` and ``xi`` broadcast together; ``xi`` must be non-negative.
    Returns an array of shape ``broadcast_shape + (3,)`` holding the roots in
    ascending order, NaN-padded (every point has one or three roots, counting
    multiplicity at the bifurcation).
    """
    delta_b, xi_b = np.broadcast_arrays(np.asarray(delta, float), np.asarray(xi, float))
    if np.any(xi_b < 0.0):
        raise ValueError("xi must be non-negative; fold the sign of K into delta")
    d = delta_b.ravel()
    x = xi_b.ravel()
    roots = np.full((d.size, 3), np.nan)

    linear = x == 0.0
    roots[linear, 0] = 0.5 / (d[linear] ** 2 + 0.25)

    # Below XI_NEWTON the only real root lies within a relative ~xi of the
    # linear root, while the closed form below loses it to cancellation in
    # t - b/3 (all digits by xi ~ 1e-14); Newton from the linear root is exact.
    small = ~linear & (x < XI_NEWTON)
    if np.any(small):
        ds, xs = d[small], x[small]
        roots[small, 0] = _polish((0.5 / (ds * ds + 0.25))[:, None], ds, xs)[:, 0]

    cubic = x >= XI_NEWTON
    if np.any(cubic):
        dd = d[cubic]
        xx = x[cubic]
        # Monic form n^3 + b n^2 + c n + e.
        b = -2.0 * dd / xx
        c = (dd * dd + 0.25) / (xx * xx)
        e = -0.5 / (xx * xx)
        # Depressed cubic t^3 + p t + q with n = t - b/3.
        p = c - b * b / 3.0
        q = 2.0 * b**3 / 27.0 - b * c / 3.0 + e
        disc = -4.0 * p**3 - 27.0 * q * q
        out = np.full((dd.size, 3), np.nan)

        three = disc > 0.0
        if np.any(three):
            pp, qq, bb = p[three], q[three], b[three]
            m = 2.0 * np.sqrt(-pp / 3.0)
            arg = np.clip(3.0 * qq / (m * pp), -1.0, 1.0)
            theta = np.arccos(arg) / 3.0
            k = np.array([0.0, 1.0, 2.0])
            t = m[:, None] * np.cos(theta[:, None] - 2.0 * math.pi * k[None, :] / 3.0)
            out[three] = t - bb[:, None] / 3.0

        one = ~three
        if np.any(one):
            pp, qq, bb = p[one], q[one], b[one]
            s = np.sqrt(np.maximum(qq * qq / 4.0 + pp**3 / 27.0, 0.0))
            # Pick the larger-magnitude cube-root argument to avoid cancellation.
            w = np.where(qq > 0.0, -qq / 2.0 - s, -qq / 2.0 + s)
            u = np.cbrt(w)
            t = np.where(u != 0.0, u - pp / np.where(u != 0.0, 3.0 * u, 1.0), 0.0)
            out[one, 0] = t - bb / 3.0

        out = _polish(out, dd, xx)
        out[out <= 0.0] = np.nan
        out = np.sort(out, axis=1)  # NaNs go last
        roots[cubic] = out

    return roots.reshape(delta_b.shape + (3,))


def _polish(n: np.ndarray, delta: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """A few guarded Newton steps on the well-conditioned unscaled cubic."""
    d = delta[:, None]
    x = xi[:, None]
    for _ in range(3):
        f = x * x * n**3 - 2.0 * d * x * n**2 + (d * d + 0.25) * n - 0.5
        fp = 3.0 * x * x * n**2 - 4.0 * d * x * n + (d * d + 0.25)
        with np.errstate(invalid="ignore", divide="ignore"):
            step = f / fp
        # Near-double roots have fp -> 0; keep the unpolished value there.
        bad = ~np.isfinite(step) | (np.abs(step) > 0.05 * (1.0 + np.abs(n)))
        step[bad] = 0.0
        n = n - step
    return n


def solve_photon_cubic(delta: float, xi: float) -> np.ndarray:
    """Real non-negative roots for one ``(delta, xi)`` pair, ascending."""
    if xi < 0.0:
        raise ValueError("xi must be non-negative; fold the sign of K into delta")
    row = photon_cubic_roots(np.array(delta, float), np.array(xi, float))
    return row[np.isfinite(row)]


def _select_branch(roots: np.ndarray, branch: str) -> np.ndarray:
    """Pick one root per point from ascending NaN-padded ``roots`` (m, 3)."""
    if branch == "lowest":
        return roots[:, 0]
    if branch == "highest":
        return np.nanmax(roots, axis=1)
    if branch == "sweep-continuation":
        n = np.empty(roots.shape[0])
        previous = roots[0, 0]
        for i in range(roots.shape[0]):
            row = roots[i]
            finite = row[np.isfinite(row)]
            previous = finite[np.argmin(np.abs(finite - previous))]
            n[i] = previous
        return n
    raise ValueError(f"unknown branch rule {branch!r}; expected one of {BRANCH_RULES}")


def _kerr_values(
    f_r: float,
    kappa_c: float,
    kappa_int: float,
    kerr: float,
    phi: float,
    amplitude: float,
    alpha: float,
    tau: float,
    f: np.ndarray,
    p_feedline: float,
    branch: str,
) -> np.ndarray:
    """Model evaluation on primitive values (no container validation)."""
    omega_d = 2.0 * math.pi * f
    kappa_l = kappa_c + kappa_int
    alpha_in_sq = dbm_to_watts(p_feedline) / (HBAR * omega_d)
    # subtract frequencies before scaling: forming omega_0 - omega_d from
    # two large rounded products would cost ~4 digits of detuning accuracy
    delta = 2.0 * math.pi * (f_r - f) / kappa_l
    xi = alpha_in_sq * kappa_c * (2.0 * math.pi * kerr) / kappa_l**3
    sign = -1.0 if kerr < 0.0 else 1.0
    roots = photon_cubic_roots(sign * delta, sign * xi)
    n = _select_branch(roots, branch)
    denom = 1.0 + 2j * (delta - xi * n)
    resonant = 1.0 - (kappa_c / kappa_l) * (np.exp(1j * phi) / math.cos(phi)) / denom
    # same rounding chain as the linear model so the K = 0 limit matches it
    # to well below the 1e-10 contract
    background = amplitude * np.exp(1j * alpha) * np.exp(-2j * math.pi * f * tau)
    return background * resonant


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
    if branch not in BRANCH_RULES:
        raise ValueError(f"unknown branch rule {branch!r}; expected one of {BRANCH_RULES}")
    f_arr = np.atleast_1d(np.asarray(f, dtype=float))
    res, env = params.linear, params.environment
    out = _kerr_values(
        res.f_r,
        res.kappa_c,
        res.kappa_int,
        params.kerr,
        params.phi,
        env.amplitude,
        env.alpha,
        env.tau,
        f_arr,
        p_feedline,
        branch,
    )
    return out if np.ndim(f) else complex(out[0])


def combine_linear_fits(fits: Sequence[LinearFitResult]) -> LinearFitResult:
    """Inverse-variance average of several linear fits of the same resonator.

    Used to pool the sub-single-photon slices of a power sweep into one set
    of stage-1 parameters before the nonlinear fit. Parameters are combined
    independently (cross-correlations are dropped), which is adequate for an
    initialization/anchoring role; zero-uncertainty fits fall back to equal
    weights. The background phase ``alpha`` is pooled as an angle, by the
    weighted circular mean. ``n_photons`` is not meaningful for pooled powers
    and is ``None``.
    """
    fits = list(fits)
    if not fits:
        raise ValueError("need at least one fit to combine")
    if len(fits) == 1:
        return fits[0]
    from .linfit import PARAM_NAMES  # local import to avoid cycle at module load

    combined: dict[str, float] = {}
    uncertainties: dict[str, float] = {}
    for name in PARAM_NAMES:
        values = np.array(
            [
                getattr(f.resonator, name) if hasattr(f.resonator, name) else getattr(f.environment, name)
                for f in fits
            ]
        )
        sigmas = np.array([f.uncertainties[name] for f in fits])
        if np.all(sigmas > 0.0):
            weights = 1.0 / sigmas**2
            uncertainties[name] = float(1.0 / math.sqrt(np.sum(weights)))
        else:
            weights = np.ones_like(values)
            uncertainties[name] = 0.0
        if name == "alpha":
            # Circular mean, so that fits on either side of +-pi pool near pi.
            combined[name] = math.atan2(
                float(np.sum(weights * np.sin(values))), float(np.sum(weights * np.cos(values)))
            )
        else:
            combined[name] = float(np.sum(weights * values) / np.sum(weights))
    resonator = LinearResonatorParams(
        f_r=combined["f_r"],
        kappa_c=combined["kappa_c"],
        kappa_int=max(combined["kappa_int"], 0.0),
        phi0=combined["phi0"],
    )
    environment = EnvironmentParams(
        amplitude=combined["amplitude"], alpha=combined["alpha"], tau=combined["tau"]
    )
    flags = tuple(dict.fromkeys(flag for f in fits for flag in f.flags))
    return LinearFitResult(
        resonator=resonator,
        environment=environment,
        uncertainties=uncertainties,
        covariance=np.diag(np.array([uncertainties[n] for n in PARAM_NAMES]) ** 2),
        residual_rms=float(np.sqrt(np.mean([f.residual_rms**2 for f in fits]))),
        n_photons=None,
        flags=flags,
    )


def _estimate_k_init(sweep: PowerSweep, res: LinearResonatorParams) -> float:
    """Slope of the dip frequency versus linear photon number, negated."""
    dips = np.array(
        [t.frequencies[np.argmin(np.abs(t.values))] for t in sweep.traces], dtype=float
    )
    n_ph = np.array([photon_number(res, t.drive_power) for t in sweep.traces])
    dn = n_ph - n_ph.mean()
    denom = float(np.dot(dn, dn))
    if denom <= 0.0:
        return res.kappa_l / (2.0 * math.pi) * 1e-2
    k0 = -float(np.dot(dn, dips - dips.mean())) / denom
    if not math.isfinite(k0) or k0 == 0.0:
        return res.kappa_l / (2.0 * math.pi) * 1e-2
    return k0


def fit_kerr(
    sweep: PowerSweep,
    linear: LinearFitResult,
    options: KerrFitOptions | None = None,
) -> KerrFitResult:
    """Fit (K, phi) to a full 2-D power sweep with the linear parameters held
    fixed at the values from ``linear``.

    ``linear`` should come from a sub-single-photon slice of the same sweep
    (beware that pooling slices with appreciable occupation imprints the Kerr
    red-shift on the pooled resonance); a resonance outside the sweep's grid
    is rejected as a mismatch. By default the reported ``k_uncertainty``
    includes the first-order effect of the uncertainties of the fixed linear
    parameters, not just the conditional error bar.
    """
    options = options or KerrFitOptions()
    if options.branch not in BRANCH_RULES:
        raise ValueError(f"unknown branch rule {options.branch!r}; expected one of {BRANCH_RULES}")
    res0 = linear.resonator
    env0 = linear.environment
    freqs = sweep.frequencies
    if not freqs[0] <= res0.f_r <= freqs[-1]:
        raise DataError(
            f"linear-fit resonance {res0.f_r} Hz lies outside the sweep grid "
            f"[{freqs[0]}, {freqs[-1]}] Hz; sweep and linear fit do not match"
        )
    powers = [t.drive_power for t in sweep.traces]
    data = np.concatenate([t.values for t in sweep.traces])
    span = sweep.traces[0].span
    theta0 = np.array(
        [res0.f_r, res0.kappa_c, res0.kappa_int, res0.phi0, env0.amplitude, env0.alpha, env0.tau]
    )
    theta_scale = np.array(
        [
            res0.kappa_l / (2.0 * math.pi),
            res0.kappa_l,
            res0.kappa_l,
            0.3,
            env0.amplitude,
            0.3,
            1.0 / (2.0 * math.pi * span),
        ]
    )

    k0 = options.k_init if options.k_init is not None else _estimate_k_init(sweep, res0)
    k_scale = max(abs(k0), res0.kappa_l / (2.0 * math.pi) * 1e-3)

    mask = None
    if options.mask_bistable:
        mask = ~_bistable_mask(res0, k0, freqs, powers)
        if not np.any(mask):
            raise DataError("masking bistable points left no data to fit")

    def stacked(theta, kerr, phi):
        f_r, kappa_c, kappa_int, _, amplitude, alpha, tau = theta
        blocks = [
            _kerr_values(
                f_r,
                kappa_c,
                max(kappa_int, 0.0),
                kerr,
                phi,
                amplitude,
                alpha,
                tau,
                freqs,
                p,
                options.branch,
            )
            for p in powers
        ]
        delta_z = np.concatenate(blocks) - data
        if mask is not None:
            delta_z = delta_z[mask]
        return np.concatenate([delta_z.real, delta_z.imag])

    if options.free_all:
        names = ("kerr", "phi", "f_r", "kappa_c", "kappa_int", "amplitude", "alpha", "tau")
        x0 = np.array([k0, res0.phi0, *theta0[[0, 1, 2, 4, 5, 6]]])
        x_scale = np.array([k_scale, 0.3, *theta_scale[[0, 1, 2, 4, 5, 6]]])

        def residual(x):
            theta = np.array([x[2], x[3], x[4], res0.phi0, x[5], x[6], x[7]])
            return stacked(theta, x[0], x[1])

    else:
        names = ("kerr", "phi")
        x0 = np.array([k0, res0.phi0])
        x_scale = np.array([k_scale, 0.3])

        def residual(x):
            return stacked(theta0, x[0], x[1])

    # Pick the best of a few starting K values before refining; the SSR
    # landscape is benign but the slope estimate can be off by a factor.
    def ssr_at(k):
        x_try = x0.copy()
        x_try[0] = k
        r = residual(x_try)
        return float(np.dot(r, r))

    candidates = {float(k0), float(3.0 * k0), float(k0 / 3.0), float(-k0)}
    x0[0] = min(candidates, key=ssr_at)

    sol = least_squares(
        residual,
        x0,
        method="lm",
        x_scale=x_scale,
        ftol=options.cost_tol,
        xtol=options.step_tol,
        gtol=1e-14,
        max_nfev=options.max_iterations * (len(x0) + 1),
    )
    if sol.status == 0:
        raise ConvergenceError(
            f"no convergence within {options.max_iterations} iterations",
            last_params=dict(zip(names, sol.x)),
        )

    ssr = 2.0 * sol.cost
    m = sol.fun.size
    dof = max(m - len(sol.x), 1)
    jac = _central_jacobian(residual, sol.x, x_scale)
    covariance = (ssr / dof) * _scaled_pinv(jac, x_scale)

    if options.propagate_linear_uncertainty and not options.free_all:
        covariance = covariance + _linear_param_leakage(
            stacked, sol.x, jac, x_scale, theta0, theta_scale, np.asarray(linear.covariance)
        )

    sigmas = np.sqrt(np.clip(np.diag(covariance), 0.0, None))
    kerr = float(sol.x[0])
    phi = float(-((-sol.x[1] + math.pi / 2) % math.pi) + math.pi / 2)
    if options.free_all:
        res_fit = LinearResonatorParams(
            f_r=float(sol.x[2]),
            kappa_c=float(sol.x[3]),
            kappa_int=max(float(sol.x[4]), 0.0),
            phi0=res0.phi0,
        )
        env_fit = EnvironmentParams(float(sol.x[5]), float(sol.x[6]), float(sol.x[7]))
    else:
        res_fit, env_fit = res0, env0
    params = KerrParams(linear=res_fit, environment=env_fit, kerr=kerr, phi=phi)
    return KerrFitResult(
        params=params,
        k_uncertainty=float(sigmas[0]),
        phi_uncertainty=float(sigmas[1]),
        residual_rms=math.sqrt(ssr / (m / 2)),
    )


def _linear_param_leakage(
    stacked,
    x_opt: np.ndarray,
    jac_x: np.ndarray,
    x_scale: np.ndarray,
    theta0: np.ndarray,
    theta_scale: np.ndarray,
    theta_cov: np.ndarray,
) -> np.ndarray:
    """First-order covariance added to (K, phi) by the fixed linear parameters.

    With residuals r(x, theta), the optimum shifts by
    ``dx = -(Jx^T Jx)^{-1} Jx^T Jtheta dtheta``; this propagates the stage-1
    covariance through that sensitivity.
    """

    def residual_theta(theta):
        return stacked(theta, x_opt[0], x_opt[1])

    jac_theta = _central_jacobian(residual_theta, theta0, theta_scale)
    jx_scaled = jac_x * x_scale[None, :]
    coef_scaled, *_ = np.linalg.lstsq(jx_scaled, jac_theta, rcond=None)
    sensitivity = -(x_scale[:, None] * coef_scaled)
    return sensitivity @ theta_cov @ sensitivity.T


def _bistable_mask(
    res: LinearResonatorParams, kerr: float, freqs: np.ndarray, powers: Sequence[float]
) -> np.ndarray:
    """True where the cubic has three real roots (stacked trace order)."""
    flags = []
    for p in powers:
        omega_d = 2.0 * math.pi * freqs
        kappa_l = res.kappa_l
        alpha_in_sq = dbm_to_watts(p) / (HBAR * omega_d)
        delta = (2.0 * math.pi * res.f_r - omega_d) / kappa_l
        xi = alpha_in_sq * res.kappa_c * (2.0 * math.pi * kerr) / kappa_l**3
        sign = -1.0 if kerr < 0.0 else 1.0
        roots = photon_cubic_roots(sign * delta, sign * xi)
        flags.append(np.sum(np.isfinite(roots), axis=1) == 3)
    return np.concatenate(flags)


def single_photon_power(res: LinearResonatorParams) -> float:
    """Feedline power [dBm] at which the on-resonance occupation is one."""
    omega0 = 2.0 * math.pi * res.f_r
    p_watts = HBAR * omega0 * res.kappa_l**2 / (2.0 * res.kappa_c)
    return watts_to_dbm(p_watts)


def kerr_from_array(e_c: float, n: int) -> float:
    """Self-Kerr estimate ``E_C / N^2`` [Hz] for an N-junction array."""
    if not e_c > 0.0:
        raise ValueError(f"charging energy must be positive, got {e_c}")
    if n < 1:
        raise ValueError(f"junction count must be at least 1, got {n}")
    return e_c / float(n) ** 2
