"""Reference implementations kept beside the tests as oracles.

Each one is the straightforward form of a routine whose runtime version
was restructured for speed.  Where the arithmetic is the same the tests
require the two to agree bit for bit; ``rk4_lyapunov_stepwise`` rounds
differently from the runtime route and is compared to a tolerance.
"""

import math

import numpy as np


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
