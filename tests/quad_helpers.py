"""Brute-force quadrature helpers shared by the test modules.

Every Wigner evaluator in the package is validated against direct
multi-dimensional quadrature here.  The model Gaussians factorize in
the rotated frame

    u+ = (x1 + x3)/sqrt2,  u- = (x1 - x3)/sqrt2,
    w+ = (x2 + x4)/sqrt2,  w- = (x2 - x4)/sqrt2,

(an orthogonal change of variables, Jacobian 1) where u+ and w- carry
the wide variance h/(c1 + c2) and u- and w+ the narrow h/(c1 - c2), so
a Gauss-Legendre box aligned with those axes converges fast.  Axes may
use composite panels: mixtures superpose widely different length
scales, and a fine central panel plus coarse outer panels is much
cheaper than a uniformly fine rule.  Truncated 6-sigma boxes lose
about 1e-8 of the mass, far inside the 1e-6 tolerance used here.

The phase-averaged states need care: their thin shell |a1| = |a2| is
curved, so no single rotated axis is "the" narrow one and every axis
must resolve the transverse scale 1/sqrt(2(cosh+sinh)).  The helpers
below take explicit per-axis rules so each test states its scales.
"""

from __future__ import annotations

import math

import numpy as np

from cvbell import NormalModes, TwoModePoint, wigner_pure_2mss
from oracles import gauss_legendre

SQRT_HALF = math.sqrt(0.5)


def point_from_xvec(x1, x2, x3, x4) -> TwoModePoint:
    """The point of real coordinates (Re a1, Im a1, Re a2, Im a2)."""
    return TwoModePoint(alpha1=x1 + 1j * x2, alpha2=x3 + 1j * x4)


def point_in_normal_modes(s1, s2, u1, u2, v1, v2) -> TwoModePoint:
    """The point with a1 + a2* = sqrt(s2) (u1 + i u2) and
    a1 - a2* = sqrt(s1) (v1 + i v2): in units where the Gaussian of
    variances (s1, s2) is exp(-(u1^2 + u2^2) - (v1^2 + v2^2)) times its
    peak, whatever the squeezing."""
    wide = math.sqrt(s2) * complex(u1, u2)
    narrow = math.sqrt(s1) * complex(v1, v2)
    return TwoModePoint(alpha1=(wide + narrow) / 2,
                        alpha2=((wide - narrow) / 2).conjugate())


def xvec_of(point: TwoModePoint) -> tuple:
    """Real coordinates (Re a1, Im a1, Re a2, Im a2) of ``point``; the
    exact inverse of :func:`point_from_xvec`."""
    a1 = np.asarray(point.alpha1)
    a2 = np.asarray(point.alpha2)
    return a1.real, a1.imag, a2.real, a2.imag


def gaussian_sigmas(form: NormalModes):
    """(wide, narrow) standard deviations of a form in the rotated frame."""
    wide = math.sqrt(form.h / (form.c1 + form.c2))
    narrow = math.sqrt(form.h / (form.c1 - form.c2))
    return wide, narrow


def axis_rule(half_width: float, n: int):
    """Single Gauss-Legendre panel over [-half_width, half_width]."""
    rule = gauss_legendre(n, -half_width, half_width)
    return rule.nodes, rule.weights


def composite_axis(breaks, counts):
    """Piecewise Gauss-Legendre rule with panels between ``breaks``."""
    if len(counts) != len(breaks) - 1:
        raise ValueError("need one node count per panel")
    nodes, weights = [], []
    for a, b, n in zip(breaks[:-1], breaks[1:], counts):
        rule = gauss_legendre(n, float(a), float(b))
        nodes.append(rule.nodes)
        weights.append(rule.weights)
    return np.concatenate(nodes), np.concatenate(weights)


def rotated_box_integral(evaluator, axes) -> float:
    """4-D integral of ``evaluator`` over a rotated-frame box.

    ``axes`` is a sequence of four (nodes, weights) pairs for
    (u+, u-, w+, w-).  Evaluation is chunked along the first axis to
    bound memory.
    """
    (up, cup), (um, cum), (wp, cwp), (wm, cwm) = axes
    x2 = SQRT_HALF * (wp[:, None] + wm[None, :])
    x4 = SQRT_HALF * (wp[:, None] - wm[None, :])
    w_cd = cwp[:, None] * cwm[None, :]
    total = 0.0
    for i in range(len(up)):
        x1 = (SQRT_HALF * (up[i] + um))[:, None, None]
        x3 = (SQRT_HALF * (up[i] - um))[:, None, None]
        vals = evaluator(point_from_xvec(x1, x2[None, :, :],
                                         x3, x4[None, :, :]))
        total += cup[i] * float(np.einsum("b,bcd,cd->", cum, vals, w_cd))
    return total


def form_normalization(evaluator, form: NormalModes, n: int = 48) -> float:
    """Normalization integral of a single Gaussian-form evaluator."""
    wide, narrow = gaussian_sigmas(form)
    wide_axis = axis_rule(6.0 * wide, n)
    narrow_axis = axis_rule(6.0 * narrow, n)
    return rotated_box_integral(evaluator,
                                (wide_axis, narrow_axis, narrow_axis,
                                 wide_axis))


def werner_axes(r: float):
    """Rotated-frame rules for Werner mixtures: the squeezed component
    sets the extreme narrow/wide scales, the thermal product the
    isotropic one; the narrow axes get a fine central panel."""
    pure = NormalModes(math.exp(-2.0 * r), math.exp(2.0 * r))
    wide, narrow = gaussian_sigmas(pure)
    iso = math.sqrt(math.cosh(2.0 * r)) / 2.0
    w_half = 6.0 * max(wide, iso)
    n_half = 6.0 * max(narrow, iso)
    inner = min(8.0 * narrow, n_half)
    wide_axis = axis_rule(w_half, 48)
    narrow_axis = composite_axis((-n_half, -inner, inner, n_half),
                                 (32, 48, 32))
    return (wide_axis, narrow_axis, narrow_axis, wide_axis)


def uniform_box_axes(half_width: float, n: int):
    """Same single-panel rule on all four rotated axes (for mixtures
    whose narrow features are not axis-aligned)."""
    rule = axis_rule(half_width, n)
    return (rule, rule, rule, rule)


def polar_normalization(evaluator, radius: float, n: int = 200) -> float:
    """Normalization of an evaluator that depends only on the moduli.

    Writes the 4-D integral as (2 pi)^2 times a radial double integral
    with measure a1 a2 da1 da2.
    """
    rule = gauss_legendre(n, 0.0, radius)
    a1 = rule.nodes[:, None]
    a2 = rule.nodes[None, :]
    vals = np.asarray(evaluator(TwoModePoint(a1 + 0.0j, a2 + 0.0j)))
    integrand = a1 * a2 * vals
    return float((2.0 * math.pi) ** 2
                 * rule.weights @ integrand @ rule.weights)


def marginal_by_quadrature(alpha1: complex, r: float, n: int = 128) -> float:
    """Single-mode marginal at alpha1 by integrating the pure density
    over the other mode."""
    sigma = 0.5 / math.sqrt(math.cosh(2.0 * r))
    half = abs(alpha1) + 6.0 * sigma + 1.0
    rule = gauss_legendre(n, -half, half)
    x3 = rule.nodes[:, None]
    x4 = rule.nodes[None, :]
    vals = wigner_pure_2mss(TwoModePoint(alpha1, x3 + 1j * x4), r)
    return float(rule.weights @ vals @ rule.weights)
