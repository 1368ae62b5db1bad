"""Independent oracles used by the tests.

The photon-cubic oracle brackets roots by a dense sign-change scan and
refines them by bisection; it never touches the closed-form solver under
test. Scan windows come from the Fujiwara bound on the monic cubic, so
every real root is inside the scanned interval by construction. The
central-difference Jacobian is the reference for the closed-form Jacobians
of the linear, Kerr and field models.
"""

from __future__ import annotations

import numpy as np

LINEAR_NODE_MAX = 24.0


def cubic_value(n, delta, xi):
    return xi * xi * n**3 - 2.0 * delta * xi * n**2 + (delta * delta + 0.25) * n - 0.5


def root_bound(delta, xi):
    """Fujiwara upper bound for the positive roots."""
    if xi == 0.0:
        return 5.0
    b = -2.0 * delta / xi
    c = (delta * delta + 0.25) / (xi * xi)
    d = -0.5 / (xi * xi)
    return 2.0 * max(abs(b), np.sqrt(abs(c)), np.cbrt(abs(d))) + 1.0


def brute_force_roots(delta, xi, n_max=None, step=1e-4):
    """Literal fixed-step sign-change scan, then bisection refinement."""
    if n_max is None:
        n_max = root_bound(delta, xi)
    nodes = np.arange(0.0, n_max + step, step)
    return _refine(nodes, delta, xi)


def scanned_roots(delta, xi, linear_nodes=12001, log_nodes=8001):
    """Composite linear+log scan sized to the per-point root bound."""
    bound = root_bound(delta, xi)
    nodes = np.linspace(0.0, min(LINEAR_NODE_MAX, bound), linear_nodes)
    if bound > LINEAR_NODE_MAX:
        nodes = np.concatenate(
            [nodes, np.geomspace(LINEAR_NODE_MAX, bound, log_nodes)[1:]]
        )
    return _refine(nodes, delta, xi)


def scanned_roots_many(deltas, xis, linear_nodes=12001, log_nodes=8001, chunk=32):
    """:func:`scanned_roots` for many ``(delta, xi)`` pairs, one list entry each.

    Pairs are scanned a chunk at a time, with the same per-pair nodes,
    sign-change test and bisection as the scalar oracle.
    """
    deltas = np.asarray(deltas, dtype=float).ravel()
    xis = np.asarray(xis, dtype=float).ravel()
    bounds = np.array([root_bound(d, x) for d, x in zip(deltas, xis)])
    out = [None] * deltas.size
    for has_log in (False, True):
        pairs = np.flatnonzero((bounds > LINEAR_NODE_MAX) == has_log)
        for start in range(0, pairs.size, chunk):
            sel = pairs[start : start + chunk]
            bound = bounds[sel]
            nodes = np.linspace(0.0, np.minimum(LINEAR_NODE_MAX, bound), linear_nodes, axis=1)
            if has_log:
                log = np.geomspace(LINEAR_NODE_MAX, bound, log_nodes, axis=1)
                nodes = np.concatenate([nodes, log[:, 1:]], axis=1)
            for i, roots in zip(sel, _refine_rows(nodes, deltas[sel], xis[sel])):
                out[i] = roots
    return out


def _refine_rows(nodes, deltas, xis, iterations=90):
    """:func:`_refine` over the rows of ``nodes``, row ``k`` at ``(deltas[k], xis[k])``."""
    values = cubic_value(nodes, deltas[:, None], xis[:, None])
    sign = np.sign(values)
    exact_rows, exact_cols = np.nonzero(values == 0.0)
    rows, flips = np.nonzero((sign[:, :-1] * sign[:, 1:]) < 0.0)
    mids = _bisect(
        nodes[rows, flips],
        nodes[rows, flips + 1],
        values[rows, flips],
        deltas[rows],
        xis[rows],
        iterations,
    )
    return [
        np.sort(np.concatenate([nodes[k, exact_cols[exact_rows == k]], mids[rows == k]]))
        for k in range(nodes.shape[0])
    ]


def _refine(nodes, delta, xi, iterations=90):
    values = cubic_value(nodes, delta, xi)
    sign = np.sign(values)
    exact = nodes[values == 0.0]
    flips = np.flatnonzero((sign[:-1] * sign[1:]) < 0.0)
    lo = nodes[flips].astype(float)
    hi = nodes[flips + 1].astype(float)
    mids = _bisect(lo, hi, values[flips], delta, xi, iterations)
    return np.sort(np.concatenate([exact, mids]))


def _bisect(lo, hi, flo, delta, xi, iterations):
    """Midpoints of the sign-change brackets ``[lo, hi]`` after ``iterations`` halvings."""
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        fmid = cubic_value(mid, delta, xi)
        take_left = (flo * fmid) <= 0.0
        hi = np.where(take_left, mid, hi)
        lo = np.where(take_left, lo, mid)
        flo = np.where(take_left, flo, fmid)
    return 0.5 * (lo + hi)


def continuation_branch(roots):
    """Per-point sweep continuation over ascending NaN-padded ``roots`` (m, 3):
    at every point, in array order, the root nearest the previous choice,
    starting from the first point's lowest root."""
    n = np.empty(roots.shape[0])
    previous = roots[0, 0]
    for i in range(roots.shape[0]):
        finite = roots[i][np.isfinite(roots[i])]
        previous = finite[np.argmin(np.abs(finite - previous))]
        n[i] = previous
    return n


def central_jacobian(residual, x, x_scale):
    """Central-difference Jacobian with steps tied to the parameter scales."""
    m = residual(x).size
    jac = np.empty((m, x.size))
    for j in range(x.size):
        h = 1e-6 * x_scale[j]
        xp = x.copy()
        xp[j] += h
        xm = x.copy()
        xm[j] -= h
        jac[:, j] = (residual(xp) - residual(xm)) / (2.0 * h)
    return jac
