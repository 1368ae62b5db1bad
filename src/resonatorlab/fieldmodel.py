"""Thin-film superconductor formulas and the in-plane-field tuning model.

Two mechanisms shift a junction-array resonance in an in-plane field: the
field suppresses the superconducting gap of the leads (critical-field
scale ``b_crit``) and it threads flux through the junction barrier,
modulating the critical current on the Fraunhofer scale ``b_phi0``. Their
product gives

    f_r(B) = f0 (1 - (B/b_crit)^2)^{1/4} sqrt(sinc(pi B / b_phi0)),

valid below the first sinc zero and below the critical field. ``sinc`` is
the unnormalized ``sin(y)/y`` with the pi written explicitly, so the first
zero sits exactly at ``B = b_phi0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._lsq import fit_errors, from_jacobian, least_squares
from .constants import FLUX_QUANTUM
from .core import FieldSweepPoint, _freeze_array
from .errors import ConvergenceError, DomainError, InsufficientDataError

__all__ = [
    "FilmSpec",
    "FieldModelParams",
    "FieldFitResult",
    "effective_penetration_depth",
    "parallel_critical_field",
    "flux_quantum_field",
    "fr_vs_field",
    "fit_field_sweep",
]

SQRT24 = math.sqrt(24.0)

#: Fewest field points :func:`fit_field_sweep` fits: one more than its parameters.
MIN_FIELD_POINTS = 4


@dataclass(frozen=True)
class FilmSpec:
    """Geometry and material constants of one superconducting film."""

    thickness: float  # m
    london_depth: float  # m
    pippard_length: float  # m
    bulk_critical_field: float  # T

    def __post_init__(self):
        for name in ("thickness", "london_depth", "pippard_length", "bulk_critical_field"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v}")

    @property
    def is_thin_film(self) -> bool:
        """Whether the dirty thin-film approximation (d << xi0) applies."""
        return self.thickness < self.pippard_length


@dataclass(frozen=True)
class FieldModelParams:
    """Parameters of the f_r(B) tuning curve."""

    f0: float  # Hz, zero-field resonance
    b_crit: float  # T, in-plane critical field
    b_phi0: float  # T, field threading one flux quantum through a junction

    def __post_init__(self):
        for name in ("f0", "b_crit", "b_phi0"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v}")

    @property
    def b_max(self) -> float:
        """Upper edge of the model domain."""
        return min(self.b_crit, self.b_phi0)


def effective_penetration_depth(film: FilmSpec) -> float:
    """Thickness-enhanced penetration depth ``lambda_L sqrt(xi0/d)``.

    Uses the short-mean-free-path form with the mean free path replaced by
    the thickness; it requires ``d << xi0`` and refuses thick films rather
    than returning a silently wrong number.
    """
    if not film.is_thin_film:
        raise DomainError(
            f"thin-film approximation needs thickness < pippard_length; "
            f"got d={film.thickness} m, xi0={film.pippard_length} m"
        )
    return film.london_depth * math.sqrt(film.pippard_length / film.thickness)


def parallel_critical_field(film: FilmSpec) -> float:
    """In-plane critical field ``B_bulk (lambda_eff / d) sqrt(24)`` of a thin film."""
    lam = effective_penetration_depth(film)
    return film.bulk_critical_field * lam / film.thickness * SQRT24


def flux_quantum_field(
    width: float, t_ox: float, film1: FilmSpec, film2: FilmSpec
) -> float:
    """Field that threads one flux quantum through a junction's cross-section.

    The field penetrates the barrier plus each lead up to
    ``min(lambda_eff, d)``, giving an area ``w (lambda_1 + t_ox + lambda_2)``.
    """
    if not (width > 0.0 and t_ox > 0.0):
        raise ValueError("width and t_ox must be positive")
    lam1 = min(effective_penetration_depth(film1), film1.thickness)
    lam2 = min(effective_penetration_depth(film2), film2.thickness)
    area = width * (lam1 + t_ox + lam2)
    return FLUX_QUANTUM / area


def fr_vs_field(params: FieldModelParams, b: float | np.ndarray) -> float | np.ndarray:
    """Resonance frequency at in-plane field ``b`` [T].

    Valid for ``0 <= b < min(b_crit, b_phi0)``; outside, the gap is closed or
    the model would continue onto a Fraunhofer side lobe, so a
    :class:`DomainError` is raised instead.
    """
    b_arr = np.asarray(b, dtype=float)
    if np.any(b_arr < 0.0) or np.any(b_arr >= params.b_max):
        raise DomainError(
            f"field must lie in [0, {params.b_max}) T for f0={params.f0}, "
            f"b_crit={params.b_crit}, b_phi0={params.b_phi0}"
        )
    out = _tuning((params.f0, params.b_crit, params.b_phi0), b_arr)[0]
    return out if out.ndim else float(out)


def _tuning(x, b: np.ndarray, jac: bool = False):
    """``f_r(B)`` at ``x = (f0, b_crit, b_phi0)``, with its Jacobian on request.

    Returns ``(f, cols)``, with ``cols`` the ``(len(b), 3)`` derivatives when
    ``jac`` is set and ``None`` otherwise. No domain check: callers keep
    ``b`` below both field scales.
    """
    f0, b_crit, b_phi0 = x
    r = b / b_crit
    z = b / b_phi0
    gap_factor = (1.0 - r**2) ** 0.25
    # np.sinc is sin(pi x)/(pi x), exactly the convention needed here.
    sinc = np.sinc(z)
    f = f0 * gap_factor * np.sqrt(sinc)
    if not jac:
        return f, None
    cols = np.column_stack(
        [
            f / f0,
            f * r**2 / (2.0 * b_crit * (1.0 - r**2)),
            f * (1.0 - np.cos(math.pi * z) / sinc) / (2.0 * b_phi0),
        ]
    )
    return f, cols


@dataclass(frozen=True)
class FieldFitResult:
    """Weighted-least-squares fit of a measured field sweep."""

    params: FieldModelParams
    uncertainties: tuple[float, float, float]  # 1-sigma on (f0, b_crit, b_phi0)
    correlation: np.ndarray  # 3x3, ordered like the parameters
    covariance: np.ndarray
    residual_rms: float  # weighted residual rms (dimensionless)

    def __post_init__(self):
        for name in ("correlation", "covariance"):
            object.__setattr__(self, name, _freeze_array(getattr(self, name), float))


def _default_initial(points: Sequence[FieldSweepPoint]) -> FieldModelParams:
    b_max = max(p.field for p in points)
    f0 = min(points, key=lambda p: p.field).resonance
    return FieldModelParams(f0=f0, b_crit=1.5 * b_max, b_phi0=2.5 * b_max)


def fit_field_sweep(
    points: Sequence[FieldSweepPoint],
    initial: FieldModelParams | None = None,
) -> FieldFitResult:
    """Fit (f0, b_crit, b_phi0) to fitted-resonance-vs-field data.

    Residuals are weighted by the per-point resonance uncertainties. A
    sweep of fewer than :data:`MIN_FIELD_POINTS` points, with no field
    above 0 T or with fewer than 3 distinct fields raises
    :class:`InsufficientDataError`. The iterates are kept
    inside the model domain by fitting each field scale as ``b = edge (1 +
    e^u)``, with ``edge`` just above the largest measured field; an optimum
    at ``f0 <= 0`` raises :class:`ConvergenceError`. The full correlation
    matrix is part of the result because b_crit and b_phi0 are strongly
    anti-correlated when the data stop well below both scales. A scale the
    data leave unconstrained gets an infinite uncertainty and NaN
    correlations.
    """
    points = list(points)
    if len(points) < MIN_FIELD_POINTS:
        raise InsufficientDataError(
            f"need at least {MIN_FIELD_POINTS} field points to fit 3 parameters, got {len(points)}"
        )
    fields = np.array([p.field for p in points])
    freqs = np.array([p.resonance for p in points])
    sigmas = np.array([p.sigma for p in points])
    b_max = float(fields.max())
    if not b_max > 0.0:
        raise InsufficientDataError("no field above 0 T")
    # a set of floats, not np.unique, which imports numpy.ma; -0.0 == 0.0 is one field
    if len(set(fields.tolist())) < 3:
        raise InsufficientDataError("need at least 3 distinct fields to fit 3 parameters")

    # Both field scales are fitted as b = edge (1 + e^u), so every iterate
    # stays strictly inside the model domain.
    edge = b_max * (1.0 + 1e-9)
    guess = initial or _default_initial(points)
    if guess.b_max <= edge:
        raise DomainError(
            f"initial guess puts fields outside the model domain: "
            f"max field {b_max} T, domain edge {guess.b_max} T"
        )

    def model(x):  # (f0, u_crit, u_phi0) -> (f0, b_crit, b_phi0) and d(b)/d(u)
        lift = edge * np.exp(x[1:])
        return np.array([x[0], *(edge + lift)]), np.array([1.0, *lift])

    def residual(x):
        return (_tuning(model(x)[0], fields)[0] - freqs) / sigmas

    def jacobian(x):
        params, chain = model(x)
        return _tuning(params, fields, jac=True)[1] * (chain / sigmas[:, None])

    x0 = np.array([guess.f0, *np.log(np.array([guess.b_crit, guess.b_phi0]) / edge - 1.0)])
    sol = least_squares(
        residual,
        x0,
        normal=from_jacobian(jacobian),
        x_scale=[guess.f0, 1.0, 1.0],
        ftol=1e-14,
        xtol=1e-14,
        gtol=1e-14,
        max_nfev=2000,
    )
    x = model(sol.x)[0]
    if sol.status == 0 or not (x[0] > 0.0 and np.all(np.isfinite(x))):
        reason = "did not converge" if sol.status == 0 else "ended outside the model domain"
        raise ConvergenceError(
            f"field-sweep fit {reason}", last_params=dict(zip(("f0", "b_crit", "b_phi0"), x))
        )

    # the covariance in (f0, b_crit, b_phi0), not in the fitted log-lifts
    jac = _tuning(x, fields, jac=True)[1] / sigmas[:, None]
    x_scale = np.array([guess.f0, guess.b_crit, guess.b_phi0])
    covariance, sigmas_fit, unscaled = fit_errors(sol, x_scale, jac=jac)
    # The correlation structure comes from (J^T J)^-1 alone, so it stays
    # defined for noiseless data where the residual variance vanishes.
    denom = np.sqrt(np.outer(np.diag(unscaled), np.diag(unscaled)))
    with np.errstate(invalid="ignore", divide="ignore"):
        correlation = np.where(denom > 0.0, unscaled / denom, np.eye(3))

    params = FieldModelParams(f0=float(x[0]), b_crit=float(x[1]), b_phi0=float(x[2]))
    return FieldFitResult(
        params=params,
        uncertainties=tuple(float(s) for s in sigmas_fit),
        correlation=correlation,
        covariance=covariance,
        residual_rms=math.sqrt(2.0 * sol.cost / len(points)),
    )
