"""Purity and separability analysis of the evolved states.

Purity is read off the coefficient triple: every state of the family
satisfies c1^2 - c2^2 = 16 h, and the square of the Wigner function
integrates to (4 pi^2)^-1 sqrt(det W) / 4, so the state is pure exactly
when additionally c1^2 - c2^2 = 16 h^2, i.e. h = 1.

Separability of a two-mode Gaussian state with correlation matrix V is
equivalent to V - I/2 >= 0.  Every state of the family factorises in
the frame of its two normal modes, with variances

    s_i = e^-p_i + (2 nbar + 1) d E(p_i),   p1 = d + 2r,  p2 = d - 2r,

and E(p) = (1 - e^-p)/p, so the spectrum of V - I/2 is the doubly
degenerate pair (s_i - 1)/2 and the separability margin is
(min(s1, s2) - 1)/2 (the Simon PPT criterion in that frame).  Two
routes decide it:

* the single-point report :func:`separability_eigenvalues` builds
  W -> V -> V - I/2 and diagonalises it numerically,
* the closed-form route evaluates the pair

      e_large = E(p2) (d nbar + r),   e_small = E(p1) (d nbar - r),

  whose sign reproduces the separability law "separable iff r <= d nbar".

The grid scan :func:`separability_map` takes its margin from the
normal-mode variances and checks it cell by cell against the closed
pair.  The routes must agree to ``TOLERANCES.route_agreement`` times
1 + min(s1, s2) in every cell, because both are the size of the smaller
variance and round like it;
disagreement (or a NaN) raises :class:`~cvbell.errors.CrossCheckError`
instead of returning a silently wrong verdict.  States with margin
exactly on the boundary count as separable (the criterion is a
non-strict inequality).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import evolve_coefficients
from .errors import CrossCheckError
from .numerics import TOLERANCES, one_minus_exp_over, sym4_eigenvalues
from .parallel import chunked_rows
from .phase_space import (
    GaussianForm,
    SqueezedStateParams,
    v_from_w,
    w_matrix_from_form,
)

__all__ = [
    "PurityReport",
    "SeparabilityReport",
    "SeparabilityMap",
    "is_pure",
    "separability_closed_pair",
    "separability_eigenvalues",
    "separability_map",
]


@dataclass(frozen=True)
class PurityReport:
    """Verdict plus the relative defect |c1^2 - c2^2 - 16 h^2| / 16 h^2."""

    pure: bool
    residual: float


def is_pure(form: GaussianForm) -> PurityReport:
    """Decide purity of a coefficient triple.

    The residual is zero in exact arithmetic iff sqrt(det W) = 4,
    equivalently h = 1 for normalised model states; the verdict uses
    ``TOLERANCES.purity_rel``.
    """
    target = 16.0 * form.h * form.h
    residual = abs(form.c1 ** 2 - form.c2 ** 2 - target) / target
    return PurityReport(pure=residual < TOLERANCES.purity_rel, residual=residual)


@dataclass(frozen=True)
class SeparabilityReport:
    """Spectral separability verdict for one parameter point.

    ``eigenvalues`` are the four eigenvalues of V - I/2 ascending (the
    doubly degenerate pair {e_small, e_small, e_large, e_large});
    ``margin`` is the smallest one; ``closed_pair`` carries the
    closed-form (e_large, e_small) cross-check values.
    """

    eigenvalues: np.ndarray
    separable: bool
    margin: float
    closed_pair: tuple


def separability_closed_pair(params: SqueezedStateParams):
    """Closed-form eigenvalue pair (e_large, e_small) of V - I/2."""
    e_large = float(one_minus_exp_over(params.p2)) * (params.d * params.nbar + params.r)
    e_small = float(one_minus_exp_over(params.p1)) * (params.d * params.nbar - params.r)
    return e_large, e_small


def separability_eigenvalues(params: SqueezedStateParams) -> SeparabilityReport:
    """Dual-route separability analysis at one parameter point.

    Primary verdict from the numeric eigensolve of V - I/2; the closed
    forms are asserted against it and any disagreement beyond
    ``TOLERANCES.route_agreement`` raises :class:`CrossCheckError`.
    """
    form = evolve_coefficients(params)
    v = v_from_w(w_matrix_from_form(form))
    numeric = sym4_eigenvalues(v.entries - 0.5 * np.eye(4))
    e_large, e_small = separability_closed_pair(params)
    closed = np.array([e_small, e_small, e_large, e_large])
    gap = float(np.max(np.abs(numeric - closed)))
    if gap > TOLERANCES.route_agreement:
        raise CrossCheckError(
            f"separability routes disagree by {gap:.3e} at "
            f"(r={params.r}, d={params.d}, nbar={params.nbar})")
    margin = float(numeric[0])
    return SeparabilityReport(
        eigenvalues=numeric,
        separable=margin >= TOLERANCES.boundary_margin,
        margin=margin,
        closed_pair=(e_large, e_small),
    )


@dataclass(frozen=True)
class SeparabilityMap:
    """Separability verdicts over a (d, nbar) grid at fixed r.

    ``separable[i, j]`` refers to (d_grid[i], nbar_grid[j]);
    ``boundary_nbar[i]`` is the smallest grid nbar that is separable at
    d_grid[i] (NaN when the whole row is nonseparable).  The underlying
    law puts the boundary at nbar = r / d.
    """

    r: float
    d_grid: np.ndarray
    nbar_grid: np.ndarray
    separable: np.ndarray
    margin: np.ndarray
    boundary_nbar: np.ndarray


def _margin_rows(r: float, d_grid: np.ndarray, nbar_grid: np.ndarray,
                 lo: int, hi: int) -> np.ndarray:
    d = d_grid[lo:hi, None]
    nbar = nbar_grid[None, :]
    # the factors that depend on d alone are computed on the d column
    p1 = d + 2.0 * r
    p2 = d - 2.0 * r
    e1 = one_minus_exp_over(p1)
    e2 = one_minus_exp_over(p2)
    occ = 2.0 * nbar + 1.0
    # normal-mode variances: sums of positive terms, so nothing cancels;
    # full-grid temporaries are updated in place because a fresh block
    # per operation costs about as much as the arithmetic itself
    s1 = occ * (d * e1)
    s1 += np.exp(-p1)
    s2 = occ * (d * e2)
    s2 += np.exp(-p2)
    margin = np.minimum(s1, s2, out=s1)
    # both routes are min(s1, s2)-sized and round like it, so the tolerance
    # scales with the smaller variance; the larger one (up to e^{4r}) would
    # loosen it exactly where the verdict is decided
    scale = margin + 1.0
    margin -= 1.0
    margin *= 0.5
    # paired closed-form route must agree everywhere before we trust it;
    # a NaN gap fails the comparison and raises as well
    dn = d * nbar
    e_small = dn - r
    e_small *= e1
    e_large = np.add(dn, r, out=dn)
    e_large *= e2
    dev = np.minimum(e_small, e_large, out=e_small)
    dev -= margin
    gap = np.abs(dev, out=dev)
    if not np.all(gap <= TOLERANCES.route_agreement * scale):
        worst = float(np.max(gap / scale))
        raise CrossCheckError(
            f"separability routes disagree by {worst:.3e} relative to "
            f"1 + min(s1, s2) (tolerance {TOLERANCES.route_agreement:.0e}) "
            f"on the scan grid")
    return margin


def separability_map(r: float, d_grid, nbar_grid,
                     workers: int | None = None) -> SeparabilityMap:
    """Classify separability over a (d, nbar) grid at fixed r.

    Grids must be ascending and nonnegative.  The margin
    (min(s1, s2) - 1)/2 comes from the normal-mode variances, with the
    closed-form pair asserted against it cell by cell; rows are chunked
    across the scan thread pool for large grids.
    """
    d_grid = np.asarray(d_grid, dtype=float)
    nbar_grid = np.asarray(nbar_grid, dtype=float)
    for name, g in (("d_grid", d_grid), ("nbar_grid", nbar_grid)):
        if g.ndim != 1 or g.size == 0:
            raise ValueError(f"{name} must be a nonempty 1-D grid")
        if np.any(g < 0):
            raise ValueError(f"{name} must be nonnegative")
        if g.size > 1 and np.any(np.diff(g) <= 0):
            raise ValueError(f"{name} must be strictly ascending")
    if float(r) < 0:
        raise ValueError("r must be nonnegative")
    r = float(r)

    margin = chunked_rows(
        lambda lo, hi: _margin_rows(r, d_grid, nbar_grid, lo, hi),
        len(d_grid), len(nbar_grid), workers)
    separable = margin >= TOLERANCES.boundary_margin
    boundary = np.where(separable.any(axis=1),
                        nbar_grid[separable.argmax(axis=1)], np.nan)
    return SeparabilityMap(r=r, d_grid=d_grid, nbar_grid=nbar_grid,
                           separable=separable, margin=margin,
                           boundary_nbar=boundary)
