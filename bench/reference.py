"""Reference values for the cvbell benchmark, computed without cvbell.

Every state of the model is a two-mode Gaussian fixed by its two
normal-mode variances

    s_i = e^{-p_i} + (2 nbar + 1) d E(p_i),   p1 = d + 2r,  p2 = d - 2r,

with E(p) = (1 - e^{-p})/p.  Both are sums of positive terms, so the
formulas below lose nothing to cancellation, which makes them a
reference that shares no code and no algorithm with the package (it
works through the coefficient triple, 4x4 W/V matrices and an
eigensolver).  Everything here is numpy only; ``np.i0`` supplies the
Bessel function of the phase-diffused state.

The ``check_*`` functions raise :class:`Mismatch` on the first
disagreement.  Tolerances are relative to the scale of the quantity,
because the variances grow like e^{2r}.
"""

from __future__ import annotations

import math

import numpy as np

#: sup over r and J of the pure-state Bell combination, 1 + 2^{2/3} - 2^{-4/3}
BELL_SUPREMUM = 1.0 + 2.0 ** (2.0 / 3.0) - 2.0 ** (-4.0 / 3.0)

#: relative tolerance for quantities compared at their own scale
RTOL = 1e-11

#: figure reproductions are all computed at this squeezing
FIGURE_R = 1.5


class Mismatch(Exception):
    """A program output disagrees with the reference."""


# ----------------------------------------------------------------------
# formulas
# ----------------------------------------------------------------------

def e_of(p):
    """E(p) = (1 - e^{-p})/p with E(0) = 1."""
    p = np.asarray(p, dtype=float)
    safe = np.where(p == 0.0, 1.0, p)
    return np.where(p == 0.0, 1.0, -np.expm1(-safe) / safe)


def variances(r, d, nbar):
    """Normal-mode variances (s1, s2), s1 <= s2, broadcast over inputs."""
    r, d, nbar = (np.asarray(v, dtype=float) for v in (r, d, nbar))
    occ = 2.0 * nbar + 1.0
    p1, p2 = d + 2.0 * r, d - 2.0 * r
    return (np.exp(-p1) + occ * d * e_of(p1),
            np.exp(-p2) + occ * d * e_of(p2))


def state(r, d, nbar) -> dict:
    """Every per-state column the CLI reports, plus the scale s1 + s2."""
    r, d, nbar = (np.asarray(v, dtype=float) for v in (r, d, nbar))
    s1, s2 = variances(r, d, nbar)
    e_small = e_of(d + 2.0 * r) * (d * nbar - r)
    e_large = e_of(d - 2.0 * r) * (d * nbar + r)
    return {"s1": s1, "s2": s2, "scale": 1.0 + s1 + s2,
            "c1": 2.0 * (s1 + s2), "c2": 2.0 * (s1 - s2), "h": s1 * s2,
            "N": (s1 + s2) / 4.0 - 0.5, "M": (s1 - s2) / 4.0,
            "e_small": e_small, "e_large": e_large,
            "margin": np.minimum(e_small, e_large)}


def correlations(J, s1, s2):
    """The four displaced-parity correlations (pi1, pi2, pi3, pi4)."""
    J = np.asarray(J, dtype=float)
    h = s1 * s2
    side = np.exp(-J * (1.0 / s1 + 1.0 / s2)) / h
    return 1.0 / h + 0.0 * J, side, side, np.exp(-4.0 * J / s1) / h


def bell(J, s1, s2):
    """B = [1 + 2 e^{-J(1/s1 + 1/s2)} - e^{-4J/s1}] / (s1 s2)."""
    p1, p2, p3, p4 = correlations(J, s1, s2)
    return p1 + p2 + p3 - p4


def bell_scale(J, s1, s2):
    """Sum of the magnitudes that B is assembled from."""
    p1, p2, p3, p4 = correlations(J, s1, s2)
    return p1 + p2 + p3 + p4


def log_i0(x):
    """log I0(x) from np.i0, with the asymptotic series where it overflows."""
    x = np.asarray(x, dtype=float)
    small = x <= 600.0
    out = np.empty_like(x)
    out[small] = np.log(np.i0(x[small]))
    big = x[~small]
    if big.size:
        term = np.ones_like(big)
        tail = np.ones_like(big)
        for k in range(1, 12):
            term = term * (2 * k - 1) ** 2 / (8.0 * k * big)
            tail = tail + term
        out[~small] = big - 0.5 * np.log(2.0 * np.pi * big) + np.log(tail)
    return out


def pure_variances(r):
    return math.exp(-2.0 * r), math.exp(2.0 * r)


def component_correlations(J, r, kind):
    """Correlations of the p = 0 reference state of a mixture."""
    J = np.asarray(J, dtype=float)
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    if kind == "werner-thermal":
        # product of the thermal marginals: both variances equal cosh 2r
        return correlations(J, c, c)
    side = np.exp(-2.0 * c * J)
    return (1.0 + 0.0 * J, side, side, np.exp(log_i0(4.0 * s * J) - 4.0 * c * J))


def mixture_correlations(J, p, r, kind):
    pure = correlations(J, *pure_variances(r))
    comp = component_correlations(J, r, kind)
    return tuple(p * a + (1.0 - p) * b for a, b in zip(pure, comp))


def mixture_bell(J, p, r, kind):
    p1, p2, p3, p4 = mixture_correlations(J, p, r, kind)
    return p1 + p2 + p3 - p4


def mixture_scale(J, p, r, kind):
    return sum(mixture_correlations(J, p, r, kind))


def threshold_grid(kind):
    """The documented default budget grid of the threshold search."""
    return np.geomspace(1e-4 if kind == "werner-thermal" else 1e-6, 1.0, 200)


def best_mixture_bell(p, r, kind):
    return float(np.max(mixture_bell(threshold_grid(kind), p, r, kind)))


def steady_variances(gamma, kappa, nbar):
    q = 2.0 * kappa / gamma
    occ = 2.0 * nbar + 1.0
    return occ / (1.0 + q), occ / (1.0 - q)


def max_bell_over_j(r, d, nbar, lo=1e-4, hi=1.0):
    """max_J B on [lo, hi]: a dense geometric scan, then golden section."""
    s1, s2 = variances(r, d, nbar)
    grid = np.geomspace(lo, hi, 4001)
    vals = bell(grid, s1, s2)
    k = int(np.argmax(vals))
    a, b = math.log(grid[max(k - 1, 0)]), math.log(grid[min(k + 1, grid.size - 1)])
    f = lambda u: float(bell(math.exp(u), s1, s2))
    g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(100):
        c, e = b - g * (b - a), a + g * (b - a)
        if f(c) >= f(e):
            b = e
        else:
            a = c
    return max(float(vals[k]), f(0.5 * (a + b)))


def coarse_grid_best(fixed: dict, points: int = 32) -> float:
    """Best B on the maximiser's documented coarse grid.

    ``points`` nodes per free axis over the default bounds: geometric in
    J on [1e-4, 1], linear in r on [0, 3], d on [0, 5], nbar on [0, 2].
    The maximiser adopts its refinement only when it beats this value.
    """
    axes = {"J": np.geomspace(1e-4, 1.0, points),
            "r": np.linspace(0.0, 3.0, points),
            "d": np.linspace(0.0, 5.0, points),
            "nbar": np.linspace(0.0, 2.0, points)}
    r, d, nbar = (np.asarray(fixed[k], dtype=float) if k in fixed else axes[k]
                  for k in ("r", "d", "nbar"))
    s1, s2 = variances(*np.ix_(*(np.atleast_1d(v) for v in (r, d, nbar))))
    J = [fixed["J"]] if "J" in fixed else axes["J"]
    # one J node at a time keeps the 32^4 case small
    return max(float(np.max(bell(j, s1, s2))) for j in J)


# ----------------------------------------------------------------------
# comparison helpers
# ----------------------------------------------------------------------

def close(name, got, want, scale, rtol=RTOL):
    """Raise unless |got - want| <= rtol * scale everywhere."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise Mismatch(f"{name}: shape {got.shape} != {want.shape}")
    err = np.abs(got - want)
    limit = rtol * np.asarray(scale, dtype=float)
    bad = ~(err <= limit)
    if np.any(bad):
        i = np.unravel_index(int(np.argmax(bad)), bad.shape) if bad.ndim else ()
        raise Mismatch(f"{name}: got {got[i]!r}, reference {want[i]!r} "
                       f"(tolerance {np.broadcast_to(limit, bad.shape)[i]:.3e})")


def same(name, got, want):
    if got != want:
        raise Mismatch(f"{name}: got {got!r}, expected {want!r}")


def check_verdicts(name, separable, r, d, nbar, scale):
    """Separable exactly when r <= d nbar, away from the boundary."""
    separable, r, d, nbar, scale = np.broadcast_arrays(
        np.asarray(separable, dtype=bool),
        *(np.asarray(v, dtype=float) for v in (r, d, nbar, scale)))
    law = r <= d * nbar
    near = np.abs(e_of(d + 2.0 * r) * (d * nbar - r)) <= 1e-9 * scale
    bad = (separable != law) & ~near
    if np.any(bad):
        i = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise Mismatch(f"{name}: verdict wrong at r={r[i]}, d={d[i]}, "
                       f"nbar={nbar[i]} (law says {bool(law[i])})")


def check_threshold(prefix, r, kind, p_star, violated, best, p_tol=1e-4):
    """p* brackets max_J B = 2 within the bisection tolerance."""
    top = best_mixture_bell(1.0, r, kind)
    close(f"{prefix}best_B_at_p1", best, top, 3.0)
    same(f"{prefix}violated_at_p1", bool(violated), top > 2.0)
    if not top > 2.0:
        if not math.isnan(p_star):
            raise Mismatch(f"{prefix}p_star {p_star} reported without violation")
        return
    if not 0.0 < p_star <= 1.0:
        raise Mismatch(f"{prefix}p_star {p_star} outside (0, 1]")
    below = best_mixture_bell(max(0.0, p_star - p_tol), r, kind)
    above = best_mixture_bell(min(1.0, p_star + p_tol), r, kind)
    if not (below <= 2.0 < above):
        raise Mismatch(f"{prefix}p_star {p_star} does not bracket B = 2 "
                       f"(B {below!r} at p*-tol, {above!r} at p*+tol)")
