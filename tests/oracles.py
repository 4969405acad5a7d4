"""Reference implementations kept beside the tests as oracles.

Each one is the straightforward form of a routine whose runtime version
was restructured for speed.  Where the arithmetic is the same the tests
require the two to agree bit for bit; ``rk4_lyapunov_stepwise`` rounds
differently from the runtime route and is compared to a tolerance.
"""

import math

import numpy as np

from cvbell.mixtures import component_bell_curve, pure_bell_curve
from cvbell.tolerances import TOLERANCES


def nelder_mead_pairwise(f, x0, step, diameter_tol=1e-6, max_iter=2000):
    """Nelder-Mead with the simplex diameter taken pair by pair in a loop.

    Same algorithm and constants as ``cvbell.numerics.nelder_mead_minimize``.
    """
    x0 = np.asarray(x0, dtype=float)
    ndim = x0.size
    step = np.broadcast_to(np.asarray(step, dtype=float), (ndim,))
    verts = [x0.copy()]
    for i in range(ndim):
        v = x0.copy()
        v[i] += step[i]
        verts.append(v)
    verts = np.array(verts)
    vals = np.array([f(v) for v in verts])

    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    for _ in range(max_iter):
        order = np.argsort(vals, kind="stable")
        verts, vals = verts[order], vals[order]
        diam = 0.0
        for i in range(ndim + 1):
            for j in range(i + 1, ndim + 1):
                d = verts[i] - verts[j]
                diam = max(diam, math.sqrt(float(np.sum(d * d))))
        if diam < diameter_tol:
            break
        centroid = np.mean(verts[:-1], axis=0)
        xr = centroid + alpha * (centroid - verts[-1])
        fr = f(xr)
        if fr < vals[0]:
            xe = centroid + gamma * (xr - centroid)
            fe = f(xe)
            if fe < fr:
                verts[-1], vals[-1] = xe, fe
            else:
                verts[-1], vals[-1] = xr, fr
        elif fr < vals[-2]:
            verts[-1], vals[-1] = xr, fr
        else:
            xc = centroid + rho * (verts[-1] - centroid)
            fc = f(xc)
            if fc < vals[-1]:
                verts[-1], vals[-1] = xc, fc
            else:
                for i in range(1, ndim + 1):
                    verts[i] = verts[0] + sigma * (verts[i] - verts[0])
                    vals[i] = f(verts[i])
    best = int(np.argmin(vals))
    return verts[best].copy(), float(vals[best])


def rk4_lyapunov_stepwise(A, D, sigma0, t, steps):
    """Classical RK4 for dS/dt = A S + S A^T + D, one formula per step.

    The form ``cvbell.numerics.rk4_lyapunov`` had before it iterated the
    step as a precomputed affine map.
    """
    A = np.asarray(A, dtype=float)
    At = A.T
    D = np.asarray(D, dtype=float)
    S = np.array(sigma0, dtype=float, copy=True)
    h = t / steps

    def rhs(M):
        return A @ M + M @ At + D

    for _ in range(steps):
        k1 = rhs(S)
        k2 = rhs(S + 0.5 * h * k1)
        k3 = rhs(S + 0.5 * h * k2)
        k4 = rhs(S + h * k3)
        S = S + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        S = 0.5 * (S + S.T)
    return S


def bell_of_variances(J, s1, s2):
    """B(J) = (1 + 2 e^{-aJ} - e^{-bJ}) / (s1 s2), a = 1/s1 + 1/s2, b = 4/s1."""
    J = np.asarray(J, dtype=float)
    return (1.0 + 2.0 * np.exp(-J * (1.0 / s1 + 1.0 / s2))
            - np.exp(-4.0 * J / s1)) / (s1 * s2)


def max_bell_dense(s1, s2, lo, hi, nodes=4001, sections=200):
    """max_J B on [lo, hi] by a dense geometric scan and golden section.

    The scan's best node brackets the maximum between its neighbours
    (B has a single maximum in J); golden section in log J then narrows
    that bracket.  Returns (J, B at J, largest B on the scan).
    """
    grid = np.geomspace(lo, hi, nodes)
    vals = bell_of_variances(grid, s1, s2)
    k = int(np.argmax(vals))
    a = math.log(grid[max(k - 1, 0)])
    b = math.log(grid[min(k + 1, nodes - 1)])
    f = lambda u: float(bell_of_variances(math.exp(u), s1, s2))
    g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(sections):
        c, e = b - g * (b - a), a + g * (b - a)
        if f(c) >= f(e):
            b = e
        else:
            a = c
    u = 0.5 * (a + b)
    best_j, best_b = (math.exp(u), f(u)) if f(u) > vals[k] else (grid[k], vals[k])
    return float(best_j), float(best_b), float(vals.max())


def i0_series(x):
    """sum_k (x^2/4)^k / (k!)^2 term by term; at x = 15 the k = 40 tail
    is < 1e-16 relative."""
    q = x * x / 4.0
    term = np.ones_like(x)
    acc = np.ones_like(x)
    for k in range(1, 41):
        term = term * q / (k * k)
        acc = acc + term
    return acc


def i0_asymptotic_tail(x):
    """sum_k a_k / x^k with a_k = a_{k-1} (2k-1)^2 / (8k), term by term;
    24 terms keep the truncation below 1e-13 relative at x = 15."""
    term = np.ones_like(x)
    acc = np.ones_like(x)
    for k in range(1, 25):
        term = term * (2 * k - 1) ** 2 / (8.0 * k * x)
        acc = acc + term
    return acc


def bessel_i0(x):
    """I0(x) for x >= 0: the power series below
    ``TOLERANCES.bessel_switch``, the asymptotic expansion above.

    Overflows to ``inf`` beyond x ~ 709.  The runtime keeps only
    ``cvbell.numerics.bessel_i0_log``.
    """
    a = np.asarray(x, dtype=float)
    if np.any(a < 0.0):
        raise ValueError("bessel_i0 requires a nonnegative argument")
    out = np.empty_like(a)
    small = a < TOLERANCES.bessel_switch
    if np.any(small):
        out[small] = i0_series(a[small])
    if np.any(~small):
        xl = a[~small]
        with np.errstate(over="ignore"):
            out[~small] = (np.exp(xl) / np.sqrt(2.0 * np.pi * xl)
                           * i0_asymptotic_tail(xl))
    return float(out) if out.ndim == 0 else out


def bessel_i0_log_loops(x):
    """log I0(x) as ``cvbell.numerics.bessel_i0_log`` had it before its
    Horner form: ``log`` of the term-by-term series."""
    a = np.asarray(x, dtype=float)
    out = np.empty_like(a)
    small = a < TOLERANCES.bessel_switch
    if np.any(small):
        out[small] = np.log(i0_series(a[small]))
    if np.any(~small):
        xl = a[~small]
        out[~small] = (xl - 0.5 * np.log(2.0 * np.pi * xl)
                       + np.log(i0_asymptotic_tail(xl)))
    return float(out) if out.ndim == 0 else out


def threshold_bisection(r, J_grid, kind, p_tol):
    """p* of ``cvbell.mixtures.werner_violation_threshold`` by bisection.

    The form the runtime had before it located the bisection's final
    cell directly: halve [0, 1] until its width is at most ``p_tol``,
    keeping the predicate max_J B(p, J) > 2 true at the upper end.
    Returns None when p = 1 does not violate.
    """
    J_grid = np.asarray(J_grid, dtype=float)
    b_pure = pure_bell_curve(J_grid, r)
    b_ref = component_bell_curve(J_grid, r, kind)

    def best_b(p):
        return float((p * b_pure + (1.0 - p) * b_ref).max())

    if not best_b(1.0) > 2.0:
        return None
    lo, hi = 0.0, 1.0
    while hi - lo > p_tol:
        mid = 0.5 * (lo + hi)
        if best_b(mid) > 2.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
