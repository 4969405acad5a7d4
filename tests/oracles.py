"""Reference implementations kept beside the tests as oracles.

Each one is an independent route to a quantity the runtime computes in
closed form on the normal-mode variances (s1, s2), or the
straightforward form of a routine whose runtime version was
restructured for speed:

* the coefficient triple (c1, c2, h) written out in p1 = d + 2r and
  p2 = d - 2r (:func:`coefficient_triple`), and the normal-mode
  variances to 50 digits (:func:`variances_50`),
* the Wigner density of a state in the (c1, c2, h) form to 50 digits
  (:func:`wigner_50`),
* the mixtures' Bell values, the minimum ratio R of their threshold,
  the scaled Bessel function e^-x I0(x) and the series I0(x) - 1 to 60
  digits (:func:`mixture_bell_60`, :func:`min_ratio_60`, :func:`i0e_60`,
  :func:`i0_excess_60`),
* the threshold's full-grid array pass, which forms R at all 200 nodes
  with the 40-term Bessel series (:func:`threshold_nodes_full_grid`),
* the drift and diffusion of the Fokker-Planck equation, the RK4
  Lyapunov integrator, the analytic propagator and the series matrix
  exponential, which give the second moments Sigma(t) without the
  closed form (:func:`covariance_ode_oracle`,
  :func:`propagate_covariance`, :func:`propagate_green`),
* the real-coordinate moment matrices of a state's coefficient triple,
* Gauss-Legendre and periodic trapezoidal quadrature, and the
  phase-diffused density by a brute-force double phase average,
* Nelder-Mead and log I0 as the runtime had them before they were
  restructured, and the two grid scans as row-block loops that
  broadcast each row's factor against the grid's row
  (:func:`separability_map_broadcast`, :func:`bell_surface_broadcast`),
* cyclic Jacobi eigenvalues of a symmetric matrix, the reference of
  the runtime's closed 4x4 cross-pattern split.

Where the arithmetic is the same the tests require the two to agree bit
for bit; ``rk4_lyapunov_stepwise`` rounds differently from
``rk4_lyapunov`` and is compared to a tolerance.
"""

import math
from dataclasses import dataclass
from typing import Callable

import mpmath
import numpy as np

from cvbell import NormalModes, TwoModePoint, wigner_pure_2mss
from cvbell.dynamics import row_blocks, scan_inputs, variance_arrays
from cvbell.mixtures import _DEFAULT_BUDGETS
from cvbell.modes import (_I0_SERIES, _bessel_correlation, _check_rates,
                          _horner_tail, _pure_gain, _reference_loss,
                          _require_finite)
from cvbell.numerics import _i0e_array, one_minus_exp_over
from cvbell.tolerances import TOLERANCES


class ConvergenceError(RuntimeError):
    """An oracle's quadrature or integration could not reach its
    documented tolerance (it is under-resolved)."""


#: off-diagonal Frobenius residual, relative to the matrix norm, at which
#: the Jacobi oracle stops
JACOBI_RESIDUAL = 1e-12
#: relative size at which the matrix-exponential series is truncated
EXPM_SERIES = 1e-18
#: relative tolerance of the quadrature-weight sum against the measure
WEIGHT_SUM_REL = 1e-14
#: step-halving self-check threshold inside the covariance oracle
ODE_SELFCHECK_ABS = 1e-8
#: phase-average quadrature: node-doubling agreement, absolute
PHASE_AVERAGE_ABS = 1e-8
#: relative accuracy demanded of the small-J slope probe
SLOPE_REL = 1e-3


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


def separability_map_broadcast(r, d_grid, nbar_grid) -> tuple:
    """(margin, separable, boundary_nbar) of the separability map, each
    block formed by broadcasting the d column against the nbar row.

    The map's arithmetic in its straightforward form: per block, s1 =
    (2 nbar + 1)(d E(p1)) + e^-p1 and the margin (s1 - 1)/2; the
    verdict is d nbar >= r on the full grid and the boundary its first
    true column.
    """
    r, d_grid, nbar_grid = scan_inputs(r, None, d_grid=d_grid,
                                       nbar_grid=nbar_grid)
    shape = (len(d_grid), len(nbar_grid))
    margin = np.empty(shape)
    separable = np.empty(shape, dtype=bool)
    nbar = nbar_grid[None, :]
    occ = 2.0 * nbar + 1.0
    d = d_grid[:, None]
    p1 = d + 2.0 * r
    de1, decay1 = d * one_minus_exp_over(p1), np.exp(-p1)
    for lo, hi in row_blocks(*shape):
        rows = slice(lo, hi)
        s = occ * de1[rows]
        s += decay1[rows]
        np.subtract(s, 1.0, out=margin[rows])
        margin[rows] *= 0.5
        with np.errstate(over="ignore"):
            separable[rows] = d[rows] * nbar >= r
    boundary = np.where(separable.any(axis=1),
                        nbar_grid[separable.argmax(axis=1)], np.nan)
    return margin, separable, boundary


def bell_surface_broadcast(r, nbar, J_grid, d_grid) -> np.ndarray:
    """B over the (J, d) grid, each block formed by broadcasting the J
    column against the rows of 1/s1, 1/s2 and 1/h, as
    (1 + 2 e^{-aJ} - e^{-(-4J)(1/s1)})/h with a = 1/s1 + 1/s2."""
    r, J_grid, d_grid = scan_inputs(r, nbar, J_grid=J_grid, d_grid=d_grid)
    s1, s2 = variance_arrays(r, d_grid, nbar)
    values = np.empty((len(J_grid), len(d_grid)))
    with np.errstate(over="ignore"):
        for lo, hi in row_blocks(*values.shape):
            J = J_grid[lo:hi, None]
            inv1 = 1.0 / s1
            B = np.exp(J * -(inv1 + 1.0 / s2))
            B *= 2.0
            B += 1.0
            B -= np.exp(-4.0 * J * inv1)
            B *= 1.0 / (s1 * s2)
            values[lo:hi] = B
    return values


def jacobi_eigenvalues(M: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps until the off-diagonal Frobenius norm falls below
    ``JACOBI_RESIDUAL`` (relative to the matrix norm).
    Returns the eigenvalues sorted ascending.
    """
    A = np.array(M, dtype=float, copy=True)
    n = A.shape[0]
    scale = max(1.0, math.sqrt(float(np.sum(A * A))))
    for _ in range(60):
        off = math.sqrt(max(0.0, float(np.sum(A * A) - np.sum(np.diag(A) ** 2))))
        if off <= JACOBI_RESIDUAL * scale:
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


# ----------------------------------------------------------------------
# the coefficient triple in p1 = d + 2r and p2 = d - 2r
# ----------------------------------------------------------------------

def coefficient_triple(r, d, nbar):
    """(c1, c2, h) with p1 = d + 2r, p2 = d - 2r and E(p) = (1 - e^-p)/p:

        c1 = 2(e^-p2 + e^-p1) + (2 nbar + 1) 2d (E(p1) + E(p2))
        c2 = -2(e^-p2 - e^-p1) + (2 nbar + 1) 2d (E(p1) - E(p2))
        h  = prod_i [e^-pi + (2 nbar + 1) d E(pi)]

    The formula the runtime evaluated before it took the triple from the
    normal-mode variances, 2(s1 + s2), 2(s1 - s2) and s1 s2.
    Broadcasts its arguments.
    """
    r, d, nbar = (np.asarray(x, dtype=float) for x in (r, d, nbar))
    p1 = d + 2.0 * r
    p2 = d - 2.0 * r
    e1 = one_minus_exp_over(p1)
    e2 = one_minus_exp_over(p2)
    q1 = np.exp(-p1)
    q2 = np.exp(-p2)
    occ = 2.0 * nbar + 1.0
    # 2d, not p1 + p2: for r >> d that sum rounds d by up to ulp(2r)
    c1 = 2.0 * (q2 + q1) + occ * (2.0 * d) * (e1 + e2)
    c2 = -2.0 * (q2 - q1) + occ * (2.0 * d) * (e1 - e2)
    h = (q1 + occ * d * e1) * (q2 + occ * d * e2)
    return c1, c2, h


def variances_50(r, d, nbar) -> tuple:
    """(s1, s2) of the state at (r, d, nbar) as 50-digit mpmath numbers,

        s_i = e^-p_i + (2 nbar + 1) d E(p_i),   p1 = d + 2r,  p2 = d - 2r,

    with E(0) = 1.  Arithmetic on them keeps 50 digits only inside
    ``mpmath.workdps(50)``.
    """
    with mpmath.workdps(50):
        r, d, nbar = (mpmath.mpf(x) for x in (r, d, nbar))
        occ = 2 * nbar + 1
        return tuple(mpmath.exp(-p) + occ * d * (-mpmath.expm1(-p) / p if p else 1)
                     for p in (d + 2 * r, d - 2 * r))


def wigner_50(point: TwoModePoint, s1, s2):
    """W at ``point`` of the Gaussian of variances (s1, s2), to 50 digits.

    The (c1, c2, h) form, with c1 = 2(s1 + s2), c2 = 2(s1 - s2) and
    h = s1 s2:

        W = (2/pi)^2 (1/h) exp{-[c1 (|a1|^2 + |a2|^2)
                                 + c2 (a1 a2 + a1* a2*)] / (2h)}.

    Its two terms grow like s2 |a|^2 / h and cancel along the squeezed
    axis, so the working precision is 50 digits plus those of the larger
    term.  s1 and s2 may be floats, taken as exact, or mpmath numbers,
    taken to 50 digits.
    """
    a1, a2 = complex(point.alpha1), complex(point.alpha2)
    x1, y1, x2, y2 = (mpmath.mpf(v) for v in (a1.real, a1.imag,
                                              a2.real, a2.imag))
    with mpmath.workdps(50):
        s1, s2 = mpmath.mpf(s1), mpmath.mpf(s2)
        size = (s1 + s2) * (x1 ** 2 + y1 ** 2 + x2 ** 2 + y2 ** 2) / (s1 * s2)
        extra = int(mpmath.log10(size)) + 2 if size > 1 else 0
    with mpmath.workdps(50 + extra):
        radial = x1 ** 2 + y1 ** 2 + x2 ** 2 + y2 ** 2
        cross = 2 * (x1 * x2 - y1 * y2)
        h = s1 * s2
        exponent = -(2 * (s1 + s2) * radial + 2 * (s1 - s2) * cross) / (2 * h)
        return 4 / mpmath.pi ** 2 / h * mpmath.exp(exponent)


#: argument above which :func:`i0e_60` sums the asymptotic series, whose
#: smallest term there, ~e^-2x, lies far below 60 digits
I0E_ASYMPTOTIC_FROM = 200


def i0e_60(x):
    """e^-x I0(x) of x >= 0 as a 60-digit mpmath number.

    ``mpmath.besseli`` up to :data:`I0E_ASYMPTOTIC_FROM`; above it, where
    besseli grows slow and then overflows, the asymptotic series
    sum_k a_k / x^k / sqrt(2 pi x), a_k = a_{k-1} (2k-1)^2 / (8k)
    (DLMF 10.40.1), summed until a term falls below 1e-70.
    """
    with mpmath.workdps(60):
        x = mpmath.mpf(x)
        if x <= I0E_ASYMPTOTIC_FROM:
            return mpmath.besseli(0, x) * mpmath.exp(-x)
        total = term = mpmath.mpf(1)
        k = 0
        while term > mpmath.mpf(10) ** -70:
            k += 1
            term *= mpmath.mpf(2 * k - 1) ** 2 / (8 * k * x)
            total += term
        return total / mpmath.sqrt(2 * mpmath.pi * x)


def i0_excess_60(x):
    """I0(x) - 1 = sum_{k >= 1} (x^2/4)^k / (k!)^2 of x >= 0 as a 60-digit
    mpmath number, summed term by term until a term falls below 1e-70 of
    the sum; meant for the series branch, x below ~15."""
    with mpmath.workdps(60):
        q = mpmath.mpf(x) ** 2 / 4
        total = term = q
        k = 1
        while term > total * mpmath.mpf(10) ** -70:
            k += 1
            term *= q / k ** 2
            total += term
        return total


def mixture_bell_60(p, r, J, kind) -> tuple:
    """(B, correlations) of p (squeezed vacuum) + (1 - p) (reference of
    ``kind``) at budget J, as 60-digit mpmath numbers.

    With c = cosh 2r and s = sinh 2r the squeezed vacuum has the
    correlations [1, e^{-2cJ}, e^{-2cJ}, e^{-4 e^{2r} J}], the product of
    its thermal marginals [1, e^{-2J/c}, e^{-2J/c}, e^{-4J/c}] / c^2 and
    the phase-diffused state [1, e^{-2cJ}, e^{-2cJ}, I0(4sJ) e^{-4cJ}],
    the last one as :func:`i0e_60` at 4sJ times e^{-4 e^{-2r} J}.
    """
    with mpmath.workdps(60):
        p, r, J = (mpmath.mpf(x) for x in (p, r, J))
        c, s = mpmath.cosh(2 * r), mpmath.sinh(2 * r)
        side = mpmath.exp(-2 * c * J)
        pure = (1, side, side, mpmath.exp(-4 * mpmath.exp(2 * r) * J))
        if kind == "werner-thermal":
            thermal = mpmath.exp(-2 * J / c) / c ** 2
            reference = (1 / c ** 2, thermal, thermal,
                         mpmath.exp(-4 * J / c) / c ** 2)
        else:
            reference = (1, side, side,
                         i0e_60(4 * s * J) * mpmath.exp(-4 * mpmath.exp(-2 * r) * J))
        corr = tuple(p * a + (1 - p) * b for a, b in zip(pure, reference))
        return corr[0] + corr[1] + corr[2] - corr[3], corr


def min_ratio_60(r, kind, grid):
    """min R of the threshold on the budget ``grid``, to 60 digits.

    R(J) = (2 - B_ref) / (B_pure - B_ref) over the nodes where
    B_pure > B_ref, with both curves from :func:`mixture_bell_60`, and
    the minimum taken with 1 as ``werner_violation_threshold`` takes it.
    """
    with mpmath.workdps(60):
        ratios = [mpmath.mpf(1)]
        for J in grid:
            pure = mixture_bell_60(1, r, J, kind)[0]
            reference = mixture_bell_60(0, r, J, kind)[0]
            if pure > reference:
                ratios.append((2 - reference) / (pure - reference))
        return min(ratios)


def _bessel_excess_40(J, c, s):
    """e^{-4cJ} (I0(4sJ) - 1) on an array of budgets with all 40 terms of
    the power series below the switch, as the runtime had it before each
    series took only the terms its largest argument needs."""
    x = 4.0 * (s * J)
    out = np.exp(-4.0 * c * J)
    small = x < TOLERANCES.bessel_switch
    if np.any(small):
        xs = x[small]
        out[small] *= _horner_tail(xs * xs / 4.0, _I0_SERIES)
    if not np.all(small):
        large = ~small
        out[large] = (_bessel_correlation(J[large], c, s, np.exp, _i0e_array)
                      - out[large])
    return out


def threshold_nodes_full_grid(r: float, kind: str) -> tuple:
    """(j_min, j_top) of the threshold on its default budget grid, as
    ``werner_violation_threshold`` located them before it formed the
    loss at the live nodes only: R at all 200 nodes with the 40-term
    series, inf where the pure state does not gain, and the first node
    of the smallest R.  ``threshold_report(kind, r, *nodes)`` is then the
    report both front ends must give."""
    J = _DEFAULT_BUDGETS[kind]
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    with np.errstate(over="ignore"):
        gain = _pure_gain(J, c, s, np.exp, np.expm1)
        loss = _reference_loss(J, c, s, kind, np.expm1, _bessel_excess_40)
    ratio = np.divide(loss, gain + loss, out=np.full_like(J, np.inf),
                      where=gain > 0.0)
    return float(J[np.argmin(ratio)]), float(J[np.argmax(gain)])


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


def phase_average_quadrature_oracle(a1: float, a2: float, r: float,
                                    nodes: int = 128) -> float:
    """Phase-diffused density by brute-force double phase average.

    Trapezoid over both arm phases of the pure density at moduli
    (a1, a2); periodic smooth integrand, so convergence is spectral.
    A node-doubled pass must agree to ``PHASE_AVERAGE_ABS``
    or the routine refuses the answer.
    """
    if nodes < 8:
        raise ValueError("need at least 8 phase nodes")

    def averaged(n: int) -> float:
        rule = periodic_trapezoid(n)
        phi1 = rule.nodes[:, None]
        phi2 = rule.nodes[None, :]
        vals = wigner_pure_2mss(
            TwoModePoint(a1 * np.exp(1j * phi1), a2 * np.exp(1j * phi2)), r)
        w = rule.weights
        return float(w @ vals @ w) / (2.0 * math.pi) ** 2

    coarse, fine = averaged(nodes), averaged(2 * nodes)
    if abs(fine - coarse) > PHASE_AVERAGE_ABS:
        raise ConvergenceError(
            f"phase average not settled: {nodes} vs {2 * nodes} nodes "
            f"differ by {abs(fine - coarse):.3e}")
    return fine


# ----------------------------------------------------------------------
# Lyapunov RK4 and the matrix exponential
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


def matrix_exp4(A: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(A t) by scaling and squaring of the truncated Taylor series.

    The argument is scaled by 2^-s until its infinity norm is below 1/2,
    the series is summed until terms fall under ``EXPM_SERIES``
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
        if float(np.max(np.abs(term))) <= EXPM_SERIES * float(np.max(np.abs(out))):
            break
    for _ in range(s):
        out = out @ out
    return out


# ----------------------------------------------------------------------
# real-coordinate second moments of a state's coefficient triple
# ----------------------------------------------------------------------

def precision_xvec(form: NormalModes) -> np.ndarray:
    """Precision (inverse covariance) matrix over x = (Re a1, Im a1,
    Re a2, Im a2) implied by a coefficient triple."""
    c1, c2, h = form.c1, form.c2, form.h
    return np.array([
        [c1, 0.0, c2, 0.0],
        [0.0, c1, 0.0, -c2],
        [c2, 0.0, c1, 0.0],
        [0.0, -c2, 0.0, c1],
    ]) / h


def covariance_xvec(form: NormalModes) -> np.ndarray:
    """Second-moment matrix over x = (Re a1, Im a1, Re a2, Im a2).

    Analytic block inverse of :func:`precision_xvec`: with
    q = c1^2 - c2^2, the variances are h c1 / q and the only covariances
    are +-(h c2 / q) between Re a1, Re a2 and Im a1, Im a2.
    """
    c1, c2, h = form.c1, form.c2, form.h
    q = c1 * c1 - c2 * c2
    v0 = h * c1 / q
    cu = -h * c2 / q
    return np.array([
        [v0, 0.0, cu, 0.0],
        [0.0, v0, 0.0, -cu],
        [cu, 0.0, v0, 0.0],
        [0.0, -cu, 0.0, v0],
    ])


def form_from_covariance_xvec(sigma: np.ndarray) -> NormalModes:
    """Recover the state from a model covariance matrix.

    Inverts :func:`covariance_xvec`: with v0 = Sigma[0,0] = (s1 + s2)/8
    and cu = Sigma[0,2] = (s2 - s1)/8 the variances are
    s1 = 4 (v0 - cu) and s2 = 4 (v0 + cu).  Raises if the input does not
    carry the model's correlation structure.
    """
    s = np.asarray(sigma, dtype=float)
    if s.shape != (4, 4):
        raise ValueError("expected a 4x4 covariance matrix")
    v0 = float(s[0, 0])
    cu = float(s[0, 2])
    model = np.array([
        [v0, 0.0, cu, 0.0],
        [0.0, v0, 0.0, -cu],
        [cu, 0.0, v0, 0.0],
        [0.0, -cu, 0.0, v0],
    ])
    scale = max(1.0, float(np.max(np.abs(s))))
    if np.max(np.abs(s - model)) > TOLERANCES.pattern_abs * scale:
        raise ValueError("covariance matrix is outside the model family "
                         "(correlation structure violated)")
    return NormalModes(4.0 * (v0 - cu), 4.0 * (v0 + cu))


# ----------------------------------------------------------------------
# the Fokker-Planck equation: drift, diffusion, ODE and propagators
# ----------------------------------------------------------------------
#
# The joint Wigner function obeys a linear Fokker-Planck equation with
# drift A x and constant diffusion D over x = (Re a1, Im a1, Re a2, Im a2):
#
#     A = [[-g/2, 0, k, 0], [0, -g/2, 0, -k],
#          [k, 0, -g/2, 0], [0, -k, 0, -g/2]],
#     D = (g/4) (2 nbar + 1) I,
#
# so the second moments solve dSigma/dt = A Sigma + Sigma A^T + D.  A is
# symmetric and commutes with the swap generator, so the propagator and
# the accumulated noise Q(t) have closed forms in that eigenbasis.

#: swap-like generator; A = -(g/2) I + k SWAP_SIGN and SWAP_SIGN^2 = I
SWAP_SIGN = np.array([
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, -1.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, -1.0, 0.0, 0.0],
])
SWAP_SIGN.flags.writeable = False


def drift_matrix(gamma: float, kappa: float) -> np.ndarray:
    """Drift matrix A of the Fokker-Planck equation (symmetric)."""
    _check_rates(gamma, kappa)
    return -(gamma / 2.0) * np.eye(4) + kappa * SWAP_SIGN


def diffusion_matrix(gamma: float, nbar: float) -> np.ndarray:
    """Diffusion matrix D = (gamma/4)(2 nbar + 1) I."""
    _check_rates(gamma, 0.0, nbar)
    return (gamma / 4.0) * (2.0 * nbar + 1.0) * np.eye(4)


def drift_eigenvalues(gamma: float, kappa: float) -> np.ndarray:
    """Eigenvalues of A, ascending: -(g + 2k)/2 twice, -(g - 2k)/2 twice."""
    _check_rates(gamma, kappa)
    lo = -(gamma + 2.0 * kappa) / 2.0
    hi = -(gamma - 2.0 * kappa) / 2.0
    return np.array([lo, lo, hi, hi])


def covariance_ode_oracle(kappa: float, gamma: float, nbar: float, t: float,
                          steps: int = 10000) -> np.ndarray:
    """Second moments Sigma(t) from vacuum by brute-force RK4.

    Integrates the Lyapunov equation directly, with a step-halving self
    check.  The inverse of the result must match the precision matrix
    implied by ``cvbell.evolve_coefficients``.

    Raises
    ------
    ConvergenceError
        If halving the step count moves the answer by more than
        ``ODE_SELFCHECK_ABS`` (the step count is too small
        for the requested parameters).
    """
    _check_rates(gamma, kappa, nbar)
    if _require_finite("t", t) < 0:
        raise ValueError("t must be nonnegative")
    if steps < 1000:
        raise ValueError("oracle needs at least 1000 steps")
    A = drift_matrix(gamma, kappa)
    D = diffusion_matrix(gamma, nbar)
    sigma0 = np.eye(4) / 4.0
    full = rk4_lyapunov(A, D, sigma0, t, steps)
    half = rk4_lyapunov(A, D, sigma0, t, steps // 2)
    drift_err = float(np.max(np.abs(full - half)))
    if drift_err > ODE_SELFCHECK_ABS:
        raise ConvergenceError(
            f"covariance oracle not converged: step-halving moved the "
            f"result by {drift_err:.3e} (> {ODE_SELFCHECK_ABS:.0e}); "
            f"increase steps")
    return full


def _propagator(gamma: float, kappa: float, t: float) -> np.ndarray:
    # exp(A t) = e^{-g t/2} [cosh(k t) I + sinh(k t) SWAP_SIGN]
    return math.exp(-gamma * t / 2.0) * (
        math.cosh(kappa * t) * np.eye(4) + math.sinh(kappa * t) * SWAP_SIGN)


def _accumulated_noise(gamma: float, kappa: float, nbar: float,
                       t: float) -> np.ndarray:
    # Q(t) = int_0^t e^{A s} D e^{A^T s} ds, evaluated in the eigenbasis
    # of SWAP_SIGN where the integrand splits into scalar exponentials
    d = gamma * t
    p1 = d + 2.0 * kappa * t
    p2 = d - 2.0 * kappa * t
    e1 = float(one_minus_exp_over(p1))
    e2 = float(one_minus_exp_over(p2))
    occ = 2.0 * nbar + 1.0
    return (d * occ / 8.0) * ((e1 + e2) * np.eye(4) + (e2 - e1) * SWAP_SIGN)


def propagate_covariance(sigma0: np.ndarray, kappa: float, gamma: float,
                         t: float, nbar: float = 0.0) -> np.ndarray:
    """Sigma(t) = e^{At} Sigma(0) e^{A^T t} + Q(t) for any initial
    second-moment matrix."""
    _check_rates(gamma, kappa, nbar)
    if _require_finite("t", t) < 0:
        raise ValueError("t must be nonnegative")
    s0 = np.asarray(sigma0, dtype=float)
    if s0.shape != (4, 4):
        raise ValueError("expected a 4x4 covariance matrix")
    prop = _propagator(gamma, kappa, t)
    out = prop @ s0 @ prop.T + _accumulated_noise(gamma, kappa, nbar, t)
    return 0.5 * (out + out.T)


def propagate_green(sigma0: np.ndarray, kappa: float, gamma: float,
                    t: float, nbar: float = 0.0) -> NormalModes:
    """Propagate a model initial state and return the state it reaches.

    Applies :func:`propagate_covariance` and converts back through the
    correlation-structure check; with the vacuum initial condition the
    result equals ``cvbell.evolve_coefficients``, and a thermal input at
    kappa = 0 is a fixed point.
    """
    return form_from_covariance_xvec(
        propagate_covariance(sigma0, kappa, gamma, t, nbar))
