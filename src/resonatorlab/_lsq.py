"""Unbounded trust-region least squares in ``x_scale`` units.

The Levenberg-Marquardt method in its trust-region form (Moré, Lecture
Notes in Math. 630, 105 (1978)). Each step minimizes the linearized cost
within a ball of radius ``Delta`` in the scaled variables ``x / x_scale``;
the damping ``lam`` of ``(H + lam I) p = -g`` that puts the step on the
ball comes from Moré's iteration on the secular equation ``||p(lam)|| =
Delta``. ``H = J_s^T J_s`` is the small scaled normal matrix, so one
eigendecomposition of it per Jacobian serves every ``lam``. The ratio
test, the radius update and the stopping rules are those of scipy's
``least_squares(method="trf")`` without bounds, plus MINPACK's test on the
predicted reduction: an undamped step whose Gauss-Newton decrement is below
``ftol`` of the cost ends the solve unevaluated. The result carries the
scipy attributes that the package reads, the Jacobian at the solution
among them. The normal matrix squares the conditioning of ``J_s``:
callers parametrize their fits so that ``J_s`` stays well conditioned.

``J^T J`` is summed over row blocks of :data:`QR_BLOCK_ROWS` rows, each
multiplied by BLAS ``gemm`` against a small copy of itself: numpy sends the
product of an array with its own transpose to ``syrk``, which is about
twice as slow as ``gemm`` on so few columns, and the blocks keep the copy
small next to a tall Jacobian. The cost is a pairwise sum of the squared
residuals, not a BLAS dot product, so it does not depend on the BLAS
thread count.

Each fitter calls :func:`least_squares` itself, the two notch fits through
``linfit._fit_notch``, and takes its covariance from :func:`fit_errors`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = ["LeastSquaresResult", "least_squares", "fit_errors"]

EPS = np.finfo(float).eps

#: Rows of the Jacobian that :func:`_scaled_pinv` factors, and
#: :func:`_normal_matrix` multiplies, at a time.
QR_BLOCK_ROWS = 1024


class LeastSquaresResult(NamedTuple):
    """Outcome of :func:`least_squares`.

    ``status`` is 0 when ``max_nfev`` ran out, 1 for ``gtol``, 2 for either
    ``ftol`` test, 3 for ``xtol`` and 4 for both ``ftol`` and ``xtol``.
    """

    x: np.ndarray
    cost: float  # half the sum of squared residuals at x
    fun: np.ndarray  # residuals at x
    nfev: int
    njev: int
    status: int
    jac: np.ndarray  # Jacobian at x, built after every accepted step, the last one included


def _norm(v: np.ndarray) -> float:
    """The 2-norm of a short vector; ``np.linalg.norm`` computes it the same way."""
    return math.sqrt(v @ v)


def _normal_matrix(jmat: np.ndarray) -> np.ndarray:
    """``J^T J``, summed over row blocks of at most :data:`QR_BLOCK_ROWS` rows.

    Each block of ``J`` is copied into a small Fortran-ordered buffer, and
    the transposed block times the copy is a product of two buffers, for
    which numpy calls ``gemm`` rather than ``syrk``. The result is made
    exactly symmetric.
    """
    m, n = jmat.shape
    block = np.empty((min(m, QR_BLOCK_ROWS), n), order="F")
    hess = np.zeros((n, n))
    for i in range(0, m, QR_BLOCK_ROWS):
        rows = jmat[i : i + QR_BLOCK_ROWS]
        copy = block[: rows.shape[0]]
        copy[...] = rows
        hess += rows.T @ copy
    return 0.5 * (hess + hess.T)


def _trust_step(w, v, gv, radius, lam, full_rank):
    """Scaled step ``p`` and damping ``lam`` with ``||p|| <= radius``.

    ``w, v`` is the eigendecomposition of ``H`` and ``gv = v^T g``. The
    undamped step is taken when ``H`` is safely invertible and the step fits;
    otherwise ``lam`` solves ``||p(lam)|| = radius`` to within 1 %, in at
    most 10 iterations from the previous ``lam``.
    """
    if full_rank:
        p = -v @ (gv / w)
        if _norm(p) <= radius:
            return p, 0.0

    def phi(lam):  # ||p(lam)|| - radius and its derivative in lam
        denom = w + lam
        p_norm = _norm(gv / denom)
        return p_norm - radius, -np.sum(gv**2 / denom**3) / p_norm

    upper = _norm(gv) / radius
    if full_rank:
        value, slope = phi(0.0)
        lower = -value / slope
    else:
        lower = 0.0
    for _ in range(10):
        if lam < lower or lam > upper or lam <= 0.0:
            lam = max(0.001 * upper, (lower * upper) ** 0.5)
        value, slope = phi(lam)
        if value < 0.0:
            upper = lam
        ratio = value / slope
        lower = max(lower, lam - ratio)
        lam -= (value + radius) * ratio / radius
        if abs(value) < 0.01 * radius:
            break
    p = -v @ (gv / (w + lam))
    return p * (radius / _norm(p)), lam


def least_squares(
    fun, x0, jac, x_scale=1.0, ftol=1e-8, xtol=1e-8, gtol=1e-8, max_nfev=None
) -> LeastSquaresResult:
    """Minimize ``0.5 ||fun(x)||^2`` from ``x0`` with the Jacobian ``jac(x)``.

    ``x_scale`` sets the unit of each variable in the trust region.
    ``max_nfev`` (default ``100 len(x0)``) counts residual evaluations, the
    first one included. A trial point with non-finite residuals shrinks the
    trust region. Stops when ``||g||_inf < gtol``, when an accepted step
    lowers the cost by less than ``ftol`` of it or the undamped step is
    predicted to (status 2 for both), or when a step is shorter than
    ``xtol (xtol + ||x||)``, unscaled in both tests.
    """
    x = np.array(x0, dtype=float)
    n = x.size
    scale = np.broadcast_to(np.asarray(x_scale, dtype=float), x.shape)
    if max_nfev is None:
        max_nfev = 100 * n
    f = np.asarray(fun(x), dtype=float)
    if not np.isfinite(f).all():
        raise ValueError("residuals are not finite at the initial point")
    nfev = 1
    jmat = jac(x)
    njev = 1
    m = f.size
    cost = 0.5 * float(np.add.reduce(f * f))
    g = jmat.T @ f
    scale2 = np.outer(scale, scale)
    radius = _norm(x / scale) or 1.0
    lam = 0.0
    status = None
    while True:
        if np.abs(g).max() < gtol:
            status = 1
        if status is not None or nfev >= max_nfev:
            break
        hess = _normal_matrix(jmat) * scale2
        g_s = g * scale
        w, v = np.linalg.eigh(hess)  # ascending
        np.maximum(w, 0.0, out=w)
        gv = v.T @ g_s
        # scipy's rank test on the singular values sqrt(w) of J_s
        full_rank = m >= n and w[0] > (EPS * m) ** 2 * w[-1]

        reduction = -1.0
        while reduction <= 0.0 and nfev < max_nfev:
            step_s, lam = _trust_step(w, v, gv, radius, lam, full_rank)
            predicted = -(0.5 * step_s @ hess @ step_s + g_s @ step_s)
            if lam == 0.0 and predicted < ftol * cost:  # the Gauss-Newton decrement
                status = 2
                break
            step = scale * step_s
            x_new = x + step
            f_new = np.asarray(fun(x_new), dtype=float)
            nfev += 1
            step_s_norm = _norm(step_s)
            if not np.isfinite(f_new).all():
                radius = 0.25 * step_s_norm
                continue

            cost_new = 0.5 * float(np.add.reduce(f_new * f_new))
            reduction = cost - cost_new
            if predicted > 0.0:
                ratio = reduction / predicted
            elif predicted == reduction == 0.0:
                ratio = 1.0
            else:
                ratio = 0.0
            new_radius = radius
            if ratio < 0.25:
                new_radius = 0.25 * step_s_norm
            elif ratio > 0.75 and step_s_norm > 0.95 * radius:
                new_radius = 2.0 * radius

            ftol_met = reduction < ftol * cost and ratio > 0.25
            xtol_met = _norm(step) < xtol * (xtol + _norm(x))
            if ftol_met or xtol_met:
                status = 4 if ftol_met and xtol_met else 2 if ftol_met else 3
                break
            lam *= radius / new_radius
            radius = new_radius

        if reduction > 0.0:
            x, f, cost = x_new, f_new, cost_new
            jmat = None  # free the old Jacobian before the next one is built
            jmat = jac(x)
            njev += 1
            g = jmat.T @ f
    return LeastSquaresResult(x, cost, f, nfev, njev, 0 if status is None else status, jmat)


def _scaled_pinv(jac: np.ndarray, x_scale: np.ndarray, back: np.ndarray | None = None) -> np.ndarray:
    """``(J^T J)^{-1}`` computed via the scaled Jacobian ``J_s = J diag(x_scale)``.

    Scaling first keeps the problem well conditioned when parameter
    magnitudes span many decades. The directions come from the SVD of the
    R factor of a QR of ``J_s``, which, unlike ``J_s^T J_s``, does not
    square the condition number. R is the QR of the stacked R factors of
    row blocks of at most :data:`QR_BLOCK_ROWS` rows, so a tall ``J_s`` is
    never scaled and copied whole. A ``J_s`` of one block is not factored
    twice: the QR of its triangular R would return R unchanged. ``back``
    maps the fitted parameters onto the reported ones, ``x = back @
    x_fit``, and the result is their covariance. A direction
    whose singular value is below ``eps max(J.shape)`` of the largest is one
    the data do not constrain: a reported parameter that moves along it gets
    infinite variance and NaN covariances.
    """
    rows = range(0, jac.shape[0], QR_BLOCK_ROWS)
    r = np.vstack([np.linalg.qr(jac[i : i + QR_BLOCK_ROWS] * x_scale, mode="r") for i in rows])
    if len(rows) > 1:
        r = np.linalg.qr(r, mode="r")
    _, s, vt = np.linalg.svd(r)
    w, v = s**2, vt.T
    kept = w > (EPS * max(jac.shape)) ** 2 * w.max()
    load = x_scale[:, None] * v  # parameter change per unit of each direction
    if back is not None:
        load = back @ load
    cov = (load[:, kept] / w[kept]) @ load[:, kept].T
    # loadings below sqrt(eps) of the parameter's scale are rounding noise
    loose = np.any(np.abs(load[:, ~kept]) > np.sqrt(EPS) * x_scale[:, None], axis=1)
    cov[loose, :] = np.nan
    cov[:, loose] = np.nan
    idx = np.flatnonzero(loose)
    cov[idx, idx] = np.inf
    return cov


def fit_errors(sol: LeastSquaresResult, jac: np.ndarray, x_scale: np.ndarray, back=None):
    """Covariance, 1-sigma and ``(J^T J)^{-1}`` of a solve from ``jac`` at
    ``sol.x``: :func:`_scaled_pinv` times ``ssr/dof``, ``dof = max(m - n, 1)``."""
    unscaled = _scaled_pinv(jac, x_scale, back)
    dof = max(sol.fun.size - sol.x.size, 1)
    covariance = (2.0 * sol.cost / dof) * unscaled
    return covariance, np.sqrt(np.clip(np.diag(covariance), 0.0, None)), unscaled
