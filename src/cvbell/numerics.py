"""Self-contained numeric kernel: special functions, integrators, solvers.

Everything in this module is implemented from scratch on top of plain
ndarray or float arithmetic so that each algorithm is auditable and its
accuracy can be stated explicitly.  The rest of the package builds its
oracles out of these routines, so none of them may silently delegate to
an external special-function or linear-algebra library.

Contents
--------
* log I0(x) of the modified Bessel function (power series below x=15,
  asymptotic expansion above; DLMF 10.25.2 and 10.40.1), as Horner
  polynomials that stay finite for arguments up to 1e8,
* the stabilised quotient (1 - exp(-p))/p with a Taylor branch near 0,
* Gauss-Legendre and periodic trapezoidal quadrature rules,
* a fixed-step RK4 integrator for the Lyapunov matrix equation
  dS/dt = A S + S A^T + D,
* eigenvalues of symmetric 4x4 matrices: exact pair-splitting for the
  doubly degenerate anti-diagonal pattern, cyclic Jacobi otherwise,
* matrix exponential by scaling and squaring of the truncated series,
* a derivative-free Nelder-Mead minimiser on Python floats.

All tolerances are compile-time constants collected in ``TOLERANCES``
(defined in :mod:`cvbell.tolerances`, which needs no numpy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .modes import (  # the log I0 tables and Horner rule are shared
    _I0_ASYMPTOTIC,
    _I0_SERIES,
    _exp_quotient_taylor,
    _horner_tail,
)
from .tolerances import TOLERANCES, Tolerances

__all__ = [
    "TOLERANCES",
    "Tolerances",
    "QuadratureRule",
    "bessel_i0_log",
    "one_minus_exp_over",
    "gauss_legendre",
    "periodic_trapezoid",
    "rk4_lyapunov",
    "sym4_eigenvalues",
    "jacobi_eigenvalues",
    "matrix_exp4",
    "nelder_mead_minimize",
]


def _as_array(x):
    a = np.asarray(x, dtype=float)
    return a, (a.ndim == 0)


def _maybe_scalar(a: np.ndarray, scalar: bool):
    return float(a) if scalar else a


# ----------------------------------------------------------------------
# log of the modified Bessel function of the first kind, order zero
# ----------------------------------------------------------------------

def bessel_i0_log(x):
    """log I0(x), finite for all 0 <= x <= 1e8.

    Below ``TOLERANCES.bessel_switch`` the power series, above it
    x - log(2 pi x)/2 plus the log of the asymptotic series; each series
    is a Horner polynomial whose constant term 1 is left out and added
    back through ``log1p``, so nothing overflows and log I0(x) ~ x^2/4
    keeps its relative accuracy down to tiny x.  The tables and the
    Horner rule are those of :func:`cvbell.modes.log_i0`, its form on
    one float.
    """
    a, scalar = _as_array(x)
    if np.any(a < 0.0):
        raise ValueError("bessel_i0_log requires a nonnegative argument")
    out = np.empty_like(a)
    small = a < TOLERANCES.bessel_switch
    if np.any(small):
        xs = a[small]
        out[small] = np.log1p(_horner_tail(xs * xs / 4.0, _I0_SERIES))
    if not np.all(small):
        xl = a[~small]
        out[~small] = (xl - 0.5 * np.log(2.0 * np.pi * xl)
                       + np.log1p(_horner_tail(1.0 / xl, _I0_ASYMPTOTIC)))
    return _maybe_scalar(out, scalar)


# ----------------------------------------------------------------------
# stabilised (1 - exp(-p)) / p
# ----------------------------------------------------------------------

def one_minus_exp_over(p):
    """(1 - exp(-p))/p with a removable singularity at p = 0.

    For |p| below ``TOLERANCES.taylor_cutoff`` the 6-term alternating
    Taylor polynomial 1 - p/2 + p^2/6 - p^3/24 + p^4/120 - p^5/720 is
    used; elsewhere the direct quotient via expm1.  The branches agree to
    1e-15 relative at the switch.  Positive and strictly decreasing on
    the real line.  A Python or numpy float (or int) takes a scalar
    branch with the same operations and returns a ``float``.
    """
    if isinstance(p, (float, int)):
        t = float(p)
        if abs(t) < TOLERANCES.taylor_cutoff:
            return _exp_quotient_taylor(t)
        return float(-np.expm1(-t) / t)
    a, scalar = _as_array(p)
    small = np.abs(a) < TOLERANCES.taylor_cutoff
    safe = np.where(small, 1.0, a)
    direct = -np.expm1(-safe) / safe
    out = np.where(small, _exp_quotient_taylor(a), direct)
    return _maybe_scalar(out, scalar)


# ----------------------------------------------------------------------
# quadrature rules
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a 1-D quadrature rule.

    ``domain`` is the integration interval (a, b); ``periodic`` marks
    rules on the circle of circumference b - a (right endpoint omitted
    from the nodes).
    """

    nodes: np.ndarray
    weights: np.ndarray
    domain: tuple
    periodic: bool = False

    def integrate(self, f: Callable) -> float:
        return float(np.sum(self.weights * f(self.nodes)))

    @property
    def measure(self) -> float:
        """Total weight the rule should carry (length of the domain)."""
        a, b = self.domain
        return float(b - a)


def gauss_legendre(n: int, a: float = -1.0, b: float = 1.0) -> QuadratureRule:
    """Gauss-Legendre rule with ``n`` nodes on [a, b].

    Nodes are the roots of the Legendre polynomial P_n, found by Newton
    iteration on the three-term recurrence; exact for polynomials of
    degree <= 2n - 1.
    """
    if n < 1:
        raise ValueError("need at least one node")
    if not b > a:
        raise ValueError("empty integration interval")
    k = np.arange(n)
    # Tricomi-style initial guess, then Newton on P_n
    x = np.cos(np.pi * (k + 0.75) / (n + 0.5))
    for _ in range(100):
        p_prev = np.zeros_like(x)
        p = np.ones_like(x)
        for j in range(1, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    p_prev = np.zeros_like(x)
    p = np.ones_like(x)
    for j in range(1, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    nodes = 0.5 * (a + b) + 0.5 * (b - a) * x[::-1]
    weights = 0.5 * (b - a) * w[::-1]
    return QuadratureRule(nodes=nodes, weights=weights, domain=(a, b))


def periodic_trapezoid(n: int, period: float = 2.0 * np.pi) -> QuadratureRule:
    """Equispaced trapezoidal rule on a period; spectrally accurate for
    smooth periodic integrands."""
    if n < 1:
        raise ValueError("need at least one node")
    nodes = np.arange(n) * (period / n)
    weights = np.full(n, period / n)
    return QuadratureRule(nodes=nodes, weights=weights, domain=(0.0, period),
                          periodic=True)


# ----------------------------------------------------------------------
# Lyapunov RK4
# ----------------------------------------------------------------------

def rk4_lyapunov(A: np.ndarray, D: np.ndarray, sigma0: np.ndarray, t: float,
                 steps: int) -> np.ndarray:
    """Integrate dS/dt = A S + S A^T + D with classical RK4.

    Fixed step h = t/steps; the iterate is re-symmetrised after every
    step so roundoff cannot accumulate asymmetry.  Because the equation
    is linear with constant coefficients, each step adds the same affine
    function of S; it is built once from the RK4 formula and then iterated.

    Parameters
    ----------
    A, D : ndarray
        Drift and (symmetric) diffusion matrices.
    sigma0 : ndarray
        Initial second-moment matrix.
    t : float
        Final time, t >= 0.
    steps : int
        Number of RK4 steps, >= 1.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if t < 0:
        raise ValueError("cannot integrate backwards")
    A = np.asarray(A, dtype=float)
    At = A.T
    D = np.asarray(D, dtype=float)
    S = np.array(sigma0, dtype=float, copy=True)
    if t == 0:
        return S
    h = t / steps

    def increment(M, F):
        # symmetrised RK4 increment of dM/dt = A M + M A^T + F
        def rhs(X):
            return A @ X + X @ At + F

        k1 = rhs(M)
        k2 = rhs(M + 0.5 * h * k1)
        k3 = rhs(M + 0.5 * h * k2)
        k4 = rhs(M + h * k3)
        dM = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return 0.5 * (dM + dM.T)

    # The increment is affine in S: increment(S, D) = increment(S, 0) +
    # increment(0, D).  It is read off once as a matrix G on the flattened
    # S, and each step is then S + G S + c: about 2 us per step instead of
    # about 25 us for the twenty small-matrix operations of the formula.
    # The increment of an antisymmetric part is zero, so symmetrising S
    # first gives the same iterates; they then stay exactly symmetric.
    # Adding the small increment to S, rather than iterating I + G, keeps
    # the rounding of G from compounding over the steps.
    n = S.shape[0]
    zero = np.zeros((n, n))
    basis = np.eye(n * n).reshape(n * n, n, n)
    G = np.stack([increment(E, zero).ravel() for E in basis], axis=1)
    c = increment(zero, D).ravel()
    v = (0.5 * (S + S.T)).ravel()
    for _ in range(steps):
        v = v + (G @ v + c)
    return v.reshape(n, n)


# ----------------------------------------------------------------------
# symmetric 4x4 eigenvalues
# ----------------------------------------------------------------------

def jacobi_eigenvalues(M: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps until the off-diagonal Frobenius norm falls below
    ``TOLERANCES.jacobi_residual`` (relative to the matrix norm).
    Returns the eigenvalues sorted ascending.
    """
    A = np.array(M, dtype=float, copy=True)
    n = A.shape[0]
    scale = max(1.0, math.sqrt(float(np.sum(A * A))))
    for _ in range(60):
        off = math.sqrt(max(0.0, float(np.sum(A * A) - np.sum(np.diag(A) ** 2))))
        if off <= TOLERANCES.jacobi_residual * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                if abs(theta) > 1e150:
                    # theta^2 would overflow; tan collapses to 1/(2 theta)
                    tt = 0.5 / theta
                else:
                    tt = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(tt * tt + 1.0)
                s = tt * c
                rp = A[p, :].copy()
                rq = A[q, :].copy()
                A[p, :] = c * rp - s * rq
                A[q, :] = s * rp + c * rq
                cp = A[:, p].copy()
                cq = A[:, q].copy()
                A[:, p] = c * cp - s * cq
                A[:, q] = s * cp + c * cq
    return np.sort(np.diag(A))


def _matches_cross_pattern(M: np.ndarray, tol: float) -> bool:
    a = M[0, 0]
    b = M[0, 3]
    model = np.array([
        [a, 0.0, 0.0, b],
        [0.0, a, b, 0.0],
        [0.0, b, a, 0.0],
        [b, 0.0, 0.0, a],
    ])
    return bool(np.max(np.abs(M - model)) <= tol)


def sym4_eigenvalues(M: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) of a symmetric 4x4 matrix.

    Matrices of the doubly degenerate cross pattern
    [[a,0,0,b],[0,a,b,0],[0,b,a,0],[b,0,0,a]] are split exactly into
    {a - |b|, a - |b|, a + |b|, a + |b|}; anything else falls back to the
    cyclic Jacobi iteration.

    Raises
    ------
    ValueError
        If the input is not 4x4 or not symmetric within
        ``TOLERANCES.symmetry_abs``.
    """
    A = np.asarray(M, dtype=float)
    if A.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    if np.max(np.abs(A - A.T)) > TOLERANCES.symmetry_abs:
        raise ValueError("matrix is not symmetric to working tolerance")
    scale = max(1.0, float(np.max(np.abs(A))))
    if _matches_cross_pattern(A, 1e-12 * scale):
        a = float(np.mean(np.diag(A)))
        b = abs(float((A[0, 3] + A[1, 2]) / 2.0))
        return np.array([a - b, a - b, a + b, a + b])
    return jacobi_eigenvalues(A)


# ----------------------------------------------------------------------
# matrix exponential
# ----------------------------------------------------------------------

def matrix_exp4(A: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(A t) by scaling and squaring of the truncated Taylor series.

    The argument is scaled by 2^-s until its infinity norm is below 1/2,
    the series is summed until terms fall under ``TOLERANCES.expm_series``
    relative, and the result is squared s times.
    """
    B = np.asarray(A, dtype=float) * t
    if B.shape[0] != B.shape[1]:
        raise ValueError("matrix must be square")
    norm = float(np.max(np.sum(np.abs(B), axis=1)))
    s = 0
    if norm > 0.5:
        s = int(math.ceil(math.log2(norm / 0.5)))
        B = B / (2.0 ** s)
    n = B.shape[0]
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, 60):
        term = term @ B / k
        out = out + term
        if float(np.max(np.abs(term))) <= TOLERANCES.expm_series * float(np.max(np.abs(out))):
            break
    for _ in range(s):
        out = out @ out
    return out


# ----------------------------------------------------------------------
# Nelder-Mead
# ----------------------------------------------------------------------

def _square_distance(a: list, b: list) -> float:
    d2 = 0.0
    for x, y in zip(a, b):
        d2 += (x - y) * (x - y)
    return d2


def nelder_mead_minimize(f: Callable, x0: np.ndarray, step,
                         diameter_tol: float = TOLERANCES.simplex_diameter,
                         max_iter: int = 2000):
    """Minimise ``f`` with the Nelder-Mead simplex method.

    Deterministic: the initial simplex is x0 plus one ``step``
    displacement per coordinate, and iteration stops once the simplex
    diameter (largest vertex-to-vertex distance) drops below
    ``diameter_tol`` or ``max_iter`` iterations have run.  ``f`` is
    called with a 1-D ndarray.

    The simplex is kept in lists of Python floats, where numpy would
    spend more time on its 3-vectors than the objective does.  Sums run
    left to right as numpy's do on these few elements, the sort is
    stable and ties in the final minimum go to the first vertex, so
    the result is bit for bit that of the same algorithm on ndarrays.

    Returns
    -------
    (x, fx) : tuple of ndarray and float
        Best vertex found and its function value.
    """
    x0 = np.asarray(x0, dtype=float).tolist()
    ndim = len(x0)
    step = np.broadcast_to(np.asarray(step, dtype=float), (ndim,)).tolist()
    verts = [x0]
    for i in range(ndim):
        v = x0.copy()
        v[i] += step[i]
        verts.append(v)
    vals = [float(f(np.array(v))) for v in verts]
    pairs = [(i, j) for i in range(ndim + 1) for j in range(i + 1, ndim + 1)]

    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    for _ in range(max_iter):
        order = sorted(range(ndim + 1), key=vals.__getitem__)
        verts = [verts[i] for i in order]
        vals = [vals[i] for i in order]
        # the diameter is below diameter_tol once every pair of vertices
        # is closer than that; the first pair that is not settles it
        if all(math.sqrt(_square_distance(verts[i], verts[j])) < diameter_tol
               for i, j in pairs):
            break
        centroid = verts[0].copy()
        for v in verts[1:-1]:
            centroid = [c + x for c, x in zip(centroid, v)]
        centroid = [c / ndim for c in centroid]
        worst = verts[-1]
        xr = [c + alpha * (c - w) for c, w in zip(centroid, worst)]
        fr = float(f(np.array(xr)))
        if fr < vals[0]:
            xe = [c + gamma * (x - c) for c, x in zip(centroid, xr)]
            fe = float(f(np.array(xe)))
            if fe < fr:
                verts[-1], vals[-1] = xe, fe
            else:
                verts[-1], vals[-1] = xr, fr
        elif fr < vals[-2]:
            verts[-1], vals[-1] = xr, fr
        else:
            xc = [c + rho * (w - c) for c, w in zip(centroid, worst)]
            fc = float(f(np.array(xc)))
            if fc < vals[-1]:
                verts[-1], vals[-1] = xc, fc
            else:
                best = verts[0]
                for i in range(1, ndim + 1):
                    verts[i] = [b + sigma * (v - b)
                                for b, v in zip(best, verts[i])]
                    vals[i] = float(f(np.array(verts[i])))
    best = vals.index(min(vals))
    return np.array(verts[best]), vals[best]
