"""Reference implementations kept beside the tests as oracles.

Each one is an independent route to a quantity the runtime computes in
closed form on the normal-mode variances (s1, s2), or the
straightforward form of a routine whose runtime version was
restructured for speed:

* the coefficient triple (c1, c2, h) written out in p1 = d + 2r and
  p2 = d - 2r (:func:`coefficient_triple`),
* the drift and diffusion of the Fokker-Planck equation, the RK4
  Lyapunov integrator, the analytic propagator and the series matrix
  exponential, which give the second moments Sigma(t) without the
  closed form (:func:`covariance_ode_oracle`,
  :func:`propagate_covariance`, :func:`propagate_green`),
* the real-coordinate moment matrices of a coefficient triple,
* Gauss-Legendre and periodic trapezoidal quadrature, and the
  phase-diffused density by a brute-force double phase average,
* Nelder-Mead, log I0 and the threshold bisection as the runtime had
  them before they were restructured,
* cyclic Jacobi eigenvalues of a symmetric matrix, the reference of
  the runtime's closed 4x4 cross-pattern split.

Where the arithmetic is the same the tests require the two to agree bit
for bit; ``rk4_lyapunov_stepwise`` rounds differently from
``rk4_lyapunov`` and is compared to a tolerance.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from cvbell import ConvergenceError, GaussianForm, TwoModePoint, wigner_pure_2mss
from cvbell.mixtures import component_bell_curve, pure_bell_curve
from cvbell.modes import _check_rates, _require_finite
from cvbell.numerics import one_minus_exp_over
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
    A node-doubled pass must agree to ``TOLERANCES.phase_average_abs``
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
    if abs(fine - coarse) > TOLERANCES.phase_average_abs:
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
# real-coordinate second moments of a coefficient triple
# ----------------------------------------------------------------------

def precision_xvec(form: GaussianForm) -> np.ndarray:
    """Precision (inverse covariance) matrix over x = (Re a1, Im a1,
    Re a2, Im a2) implied by a coefficient triple."""
    c1, c2, h = form.c1, form.c2, form.h
    return np.array([
        [c1, 0.0, c2, 0.0],
        [0.0, c1, 0.0, -c2],
        [c2, 0.0, c1, 0.0],
        [0.0, -c2, 0.0, c1],
    ]) / h


def covariance_xvec(form: GaussianForm) -> np.ndarray:
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


def form_from_covariance_xvec(sigma: np.ndarray) -> GaussianForm:
    """Recover the coefficient triple from a model covariance matrix.

    Inverts :func:`covariance_xvec` using the normalisation identity
    c1^2 - c2^2 = 16 h: c1 = 16 Sigma[0,0], c2 = -16 Sigma[0,2],
    h = 16 (Sigma[0,0]^2 - Sigma[0,2]^2).  Raises if the input does not
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
    return GaussianForm(c1=16.0 * v0, c2=-16.0 * cu,
                        h=16.0 * (v0 * v0 - cu * cu))


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
        ``TOLERANCES.ode_selfcheck_abs`` (the step count is too small
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
    if drift_err > TOLERANCES.ode_selfcheck_abs:
        raise ConvergenceError(
            f"covariance oracle not converged: step-halving moved the "
            f"result by {drift_err:.3e} (> {TOLERANCES.ode_selfcheck_abs:.0e}); "
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
                    t: float, nbar: float = 0.0) -> GaussianForm:
    """Propagate a model initial state and return its coefficient triple.

    Applies :func:`propagate_covariance` and converts back through the
    correlation-structure check; with the vacuum initial condition the
    result equals ``cvbell.evolve_coefficients``, and a thermal input at
    kappa = 0 is a fixed point.
    """
    return form_from_covariance_xvec(
        propagate_covariance(sigma0, kappa, gamma, t, nbar))
