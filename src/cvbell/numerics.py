"""Self-contained numeric kernel: special functions, eigenvalues, simplex.

Everything in this module is implemented from scratch on top of plain
ndarray or float arithmetic so that each algorithm is auditable and its
accuracy can be stated explicitly; none of it delegates to an external
special-function or linear-algebra library.  The grid scans use the
two array kernels, the maximiser the simplex, and the 4x4 eigenvalues
serve the W -> V route of :mod:`cvbell.phase_space`.

Contents
--------
* log I0(x) of the modified Bessel function (power series below x=15,
  asymptotic expansion above; DLMF 10.25.2 and 10.40.1), as Horner
  polynomials that stay finite for every finite x >= 0,
* the stabilised quotient (1 - exp(-p))/p with a Taylor branch near 0,
* eigenvalues of the model's 4x4 matrices, which all have the doubly
  degenerate cross pattern and split into pairs exactly,
* a derivative-free Nelder-Mead minimiser on lists of Python floats.

All tolerances are compile-time constants collected in ``TOLERANCES``
(defined in :mod:`cvbell.tolerances`, which needs no numpy).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .modes import (  # the log I0 tables and Horner rule are shared
    _I0_ASYMPTOTIC,
    _I0_SERIES,
    _LOG_2PI,
    _exp_quotient_taylor,
    _horner_tail,
)
from .tolerances import TOLERANCES, Tolerances

__all__ = [
    "TOLERANCES",
    "Tolerances",
    "bessel_i0_log",
    "one_minus_exp_over",
    "sym4_eigenvalues",
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
    """log I0(x), finite for every finite x >= 0.

    Below ``TOLERANCES.bessel_switch`` the power series, above it
    x - (log 2 pi + log x)/2 plus the log of the asymptotic series; each
    series is a Horner polynomial whose constant term 1 is left out and
    added back through ``log1p``, so nothing overflows and log I0 ~ x^2/4
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
        out[~small] = (xl - 0.5 * (_LOG_2PI + np.log(xl))
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
    the real line.  A 0-d input returns a ``float``; the float core has
    its own form, :func:`cvbell.modes.exp_quotient`.
    """
    a, scalar = _as_array(p)
    small = np.abs(a) < TOLERANCES.taylor_cutoff
    safe = np.where(small, 1.0, a)
    direct = -np.expm1(-safe) / safe
    out = np.where(small, _exp_quotient_taylor(a), direct)
    return _maybe_scalar(out, scalar)


# ----------------------------------------------------------------------
# eigenvalues of the model's 4x4 matrices
# ----------------------------------------------------------------------

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
    """Eigenvalues (ascending) of a model 4x4 matrix.

    Every W and V matrix of the model has the doubly degenerate cross
    pattern [[a,0,0,b],[0,a,b,0],[0,b,a,0],[b,0,0,a]], which splits
    exactly into {a - |b|, a - |b|, a + |b|, a + |b|}.

    Raises
    ------
    ValueError
        If the input is not 4x4, not symmetric within
        ``TOLERANCES.symmetry_abs``, or off the pattern by more than
        1e-12 of its largest entry (or of 1, if that is larger).
    """
    A = np.asarray(M, dtype=float)
    if A.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    if np.max(np.abs(A - A.T)) > TOLERANCES.symmetry_abs:
        raise ValueError("matrix is not symmetric to working tolerance")
    scale = max(1.0, float(np.max(np.abs(A))))
    if not _matches_cross_pattern(A, 1e-12 * scale):
        raise ValueError("matrix is off the model's cross pattern")
    a = float(np.mean(np.diag(A)))
    b = abs(float((A[0, 3] + A[1, 2]) / 2.0))
    return np.array([a - b, a - b, a + b, a + b])


# ----------------------------------------------------------------------
# Nelder-Mead
# ----------------------------------------------------------------------

def _square_distance(a: list, b: list) -> float:
    d2 = 0.0
    for x, y in zip(a, b):
        d2 += (x - y) * (x - y)
    return d2


#: iteration cap of the simplex search
_MAX_ITER = 2000


def nelder_mead_minimize(f: Callable, x0: list, step: list):
    """Minimise ``f`` with the Nelder-Mead simplex method.

    Deterministic: the initial simplex is the list ``x0`` plus one
    ``step[i]`` displacement per coordinate i, and iteration stops once
    the simplex diameter (largest vertex-to-vertex distance) drops below
    ``TOLERANCES.simplex_diameter`` or ``_MAX_ITER``
    iterations have run.  ``f`` is called with a list of floats.

    The simplex is kept in lists of Python floats, where numpy would
    spend more time on its 3-vectors than the objective does.  Sums run
    left to right as numpy's do on these few elements, the sort is
    stable and ties in the final minimum go to the first vertex, so
    the result is bit for bit that of the same algorithm on ndarrays.

    Returns
    -------
    (x, fx) : tuple of list and float
        Best vertex found and its function value.
    """
    ndim = len(x0)
    verts = [x0]
    for i in range(ndim):
        v = x0.copy()
        v[i] += step[i]
        verts.append(v)
    vals = [float(f(v)) for v in verts]
    pairs = [(i, j) for i in range(ndim + 1) for j in range(i + 1, ndim + 1)]

    diameter_tol = TOLERANCES.simplex_diameter
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    for _ in range(_MAX_ITER):
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
        fr = float(f(xr))
        if fr < vals[0]:
            xe = [c + gamma * (x - c) for c, x in zip(centroid, xr)]
            fe = float(f(xe))
            if fe < fr:
                verts[-1], vals[-1] = xe, fe
            else:
                verts[-1], vals[-1] = xr, fr
        elif fr < vals[-2]:
            verts[-1], vals[-1] = xr, fr
        else:
            xc = [c + rho * (w - c) for c, w in zip(centroid, worst)]
            fc = float(f(xc))
            if fc < vals[-1]:
                verts[-1], vals[-1] = xc, fc
            else:
                best = verts[0]
                for i in range(1, ndim + 1):
                    verts[i] = [b + sigma * (v - b)
                                for b, v in zip(best, verts[i])]
                    vals[i] = float(f(verts[i]))
    best = vals.index(min(vals))
    return verts[best], vals[best]
