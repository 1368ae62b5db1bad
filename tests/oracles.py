"""Independent oracles used by the tests.

The photon-cubic oracle brackets roots by a dense sign-change scan and
refines them by bisection; it never touches the closed-form solver under
test. Scan windows come from the Fujiwara bound on the monic cubic, so
every real root is inside the scanned interval by construction. The
central-difference Jacobian is the reference for the closed-form Jacobians
of the linear, Kerr and field models. :func:`exact_backward_errors` and
:func:`exact_root_counts` judge computed photon-cubic roots in exact
rational arithmetic on the float inputs, and
:func:`reference_photon_cubic_roots`, the earlier photon-cubic kernel kept
verbatim, is the baseline the current kernel must do no worse than on
them. :func:`dense_seed_drops` is the dense
per-level loop that the FFT correlation of the linear fit's seed scan
replaced, kept as its reference on the same binned problem, and
:func:`reference_seed_drops` is the FFT scan as it was before its kernel
was cached, kept verbatim as the bit-for-bit reference of the current one.
"""

from __future__ import annotations

import math
from fractions import Fraction

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


def exact_backward_errors(roots, delta, xi):
    """Backward error of each finite root in ``roots`` (m, 3), in units of
    the float epsilon: ``|F(n)|`` over the sum of the absolute values of the
    cubic's terms, ``xi^2 n^3 + 2 |delta| xi n^2 + (delta^2 + 1/4) n + 1/2``,
    both exact at the float inputs ``delta`` and ``xi`` (m,)."""
    out = []
    for row, d, x in zip(roots, np.asarray(delta).tolist(), np.asarray(xi).tolist()):
        d, x = Fraction(d), Fraction(x)
        c3, c2, c1 = x * x, 2 * d * x, d * d + Fraction(1, 4)
        for n in map(Fraction, row[np.isfinite(row)].tolist()):
            f = ((c3 * n - c2) * n + c1) * n - Fraction(1, 2)
            scale = ((c3 * n + abs(c2)) * n + c1) * n + Fraction(1, 2)
            out.append(float(abs(f) / scale))
    return np.array(out) / np.finfo(float).eps


def exact_root_counts(delta, xi):
    """Number of real roots of the photon cubic at each float input pair,
    from the sign of its exact discriminant: 3 where it is positive, else 1
    (every real root is positive). ``xi = 0`` leaves the linear equation."""
    counts = []
    for d, x in zip(np.asarray(delta).tolist(), np.asarray(xi).tolist()):
        d, x = Fraction(d), Fraction(x)
        a, b, c, e = x * x, -2 * d * x, d * d + Fraction(1, 4), Fraction(-1, 2)
        disc = 18 * a * b * c * e - 4 * b**3 * e + b * b * c * c - 4 * a * c**3 - 27 * a * a * e * e
        counts.append(3 if x != 0 and disc > 0 else 1)
    return np.array(counts)


def reference_photon_cubic_roots(delta, xi, xi_newton=1e-8):
    """The photon-cubic kernel before roots were solved by kind: every point
    above ``xi_newton`` gets three root columns, three-column polishing, NaN
    masking and a sort, whether its roots exist or not."""
    delta_b, xi_b = np.broadcast_arrays(np.asarray(delta, float), np.asarray(xi, float))
    if np.any(xi_b < 0.0):
        raise ValueError("xi must be non-negative; fold the sign of K into delta")
    d = delta_b.ravel()
    x = xi_b.ravel()
    roots = np.full((d.size, 3), np.nan)

    linear = x == 0.0
    roots[linear, 0] = 0.5 / (d[linear] ** 2 + 0.25)

    small = ~linear & (x < xi_newton)
    if np.any(small):
        ds, xs = d[small], x[small]
        roots[small, 0] = _reference_polish((0.5 / (ds * ds + 0.25))[:, None], ds, xs)[:, 0]

    cubic = x >= xi_newton
    if np.any(cubic):
        dd = d[cubic]
        xx = x[cubic]
        b = -2.0 * dd / xx
        c = (dd * dd + 0.25) / (xx * xx)
        e = -0.5 / (xx * xx)
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
            w = np.where(qq > 0.0, -qq / 2.0 - s, -qq / 2.0 + s)
            u = np.cbrt(w)
            t = np.where(u != 0.0, u - pp / np.where(u != 0.0, 3.0 * u, 1.0), 0.0)
            out[one, 0] = t - bb / 3.0

        out = _reference_polish(out, dd, xx)
        out[out <= 0.0] = np.nan
        out = np.sort(out, axis=1)
        roots[cubic] = out

    return roots.reshape(delta_b.shape + (3,))


def _reference_polish(n, delta, xi):
    d = delta[:, None]
    x = xi[:, None]
    for _ in range(3):
        f = x * x * n**3 - 2.0 * d * x * n**2 + (d * d + 0.25) * n - 0.5
        fp = 3.0 * x * x * n**2 - 4.0 * d * x * n + (d * d + 0.25)
        with np.errstate(invalid="ignore", divide="ignore"):
            step = f / fp
        bad = ~np.isfinite(step) | (np.abs(step) > 0.05 * (1.0 + np.abs(n)))
        step[bad] = 0.0
        n = n - step
    return n


def dense_seed_drops(counts, means, levels):
    """The seed scan's cost drops, level by level, from the full matrix of
    Lorentzians between every candidate centre bin ``c`` and every bin
    ``c + m``, ``g(m) = 1/(1 - 2i s m/n)`` at ``s`` spans per linewidth, on
    the bin means weighted by their point counts."""
    n = counts.size
    u = np.sqrt(counts)
    t = (np.arange(n) + 0.5) / n - 0.5
    basis, _ = np.linalg.qr(u[:, None] * np.column_stack([np.ones(n), t]))
    zb = u * means
    r = zb - basis @ (basis.T @ zb)
    cols = u[:, None] * np.column_stack([r.real, r.imag, basis])
    drops = np.zeros((levels.size, n))
    x = t[None, :] - t[:, None]
    for k, level in enumerate(levels):
        y = 2.0 * level * x
        d = 1.0 / (1.0 + y * y)
        re_g = d @ cols  # <Re g, .> per candidate centre
        im_g = (y * d) @ cols  # <Im g, .>
        overlap = (re_g[:, 0] + im_g[:, 1]) ** 2 + (re_g[:, 1] - im_g[:, 0]) ** 2
        norm = d @ counts - (re_g[:, 2:] ** 2 + im_g[:, 2:] ** 2).sum(axis=1)
        np.divide(overlap, norm, out=drops[k], where=norm > 0.0)
    return drops


def reference_seed_drops(counts, means, q_levels=12):
    """The seed scan's levels and cost drops with the kernel built on every
    call and one inverse FFT per column."""
    n = counts.size
    u = np.sqrt(counts)
    t = (np.arange(n) + 0.5) / n - 0.5
    b0 = u / math.sqrt(counts.sum())
    b1 = u * t
    b1 -= (b0 @ b1) * b0
    b1 /= math.sqrt(b1 @ b1)
    r = u * means
    r -= (b0 @ r) * b0 + (b1 @ r) * b1
    levels = (0.5 * n) ** (np.arange(q_levels) / (q_levels - 1))
    y = (2.0 / n) * levels[:, None] * np.arange(n + 1)
    kernel = np.fft.irfft(1.0 / (1.0 - 1j * y), 2 * n)
    columns = np.fft.fft([np.conj(u * r), u * b0, u * b1, counts], 2 * n)
    overlap, along_b0, along_b1, weight = (
        np.fft.ifft(kernel * col, norm="forward")[:, :n] for col in columns
    )
    norm = weight.real - np.abs(along_b0) ** 2 - np.abs(along_b1) ** 2
    drops = np.zeros((q_levels, n))
    np.divide(np.abs(overlap) ** 2, norm, out=drops, where=norm > 0.0)
    return levels, drops
