"""Acceptance battery: one test per contract criterion.

Each test prints a single verdict line (visible under ``pytest -s``)
with its wall-clock time and budget, then asserts the checked
condition and the budget.  Tolerances are the package-wide frozen ones
from ``cvbell.TOLERANCES`` where applicable and are stated inline
otherwise.
"""

import math
import time

import numpy as np

from cvbell import (
    MixtureSpec,
    SqueezedStateParams,
    TwoModePoint,
    bell_closed_form,
    bell_combination,
    evolve_coefficients,
    is_pure,
    maximize_bell,
    mixture_bell_curve,
    mixture_evaluator,
    model_evaluator,
    nm_from_v,
    one_minus_exp_over,
    phase_averaged_wigner,
    separability_eigenvalues,
    separability_map,
    small_j_slope,
    steady_state,
    thermal_marginal,
    v_from_w,
    werner_violation_threshold,
    wigner_pure_2mss,
)
from cvbell.phase_space import w_matrix_from_form, wigner_gaussian_eval

from oracles import (
    covariance_ode_oracle,
    covariance_xvec,
    phase_average_quadrature_oracle,
)
from quad_helpers import (
    form_normalization,
    marginal_by_quadrature,
    point_from_xvec,
    polar_normalization,
    rotated_box_integral,
    uniform_box_axes,
    werner_axes,
)

GRID_R = np.linspace(0.0, 3.0, 30)
GRID_D = np.linspace(0.0, 6.0, 30)
GRID_N = np.linspace(0.0, 5.0, 30)


def _verdict(num, label, ok, elapsed, budget, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{label}]: {state} "
          f"({elapsed:.2f}s / budget {budget:.0f}s) {detail}".rstrip())
    assert ok, f"criterion {num} ({label}): {detail}"
    assert elapsed < budget, (
        f"criterion {num} ({label}) over budget: {elapsed:.2f}s")


def test_criterion_01_bell_maximum():
    t0 = time.time()
    anchor = bell_combination(
        model_evaluator(SqueezedStateParams(1.5, 0.0, 0.0)), 0.01).B
    res = maximize_bell(("J",), {"r": 1.5, "d": 0.0, "nbar": 0.0})
    elapsed = time.time() - t0
    ok = 2.185 <= anchor <= 2.195 and 2.185 <= res.b_max <= 2.195
    _verdict(1, "bell maximum", ok, elapsed, 1.0,
             f"B(J=0.01)={anchor:.6f}, B_max={res.b_max:.6f}")


def test_criterion_02_pure_reduction():
    t0 = time.time()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for r in (0.0, 0.5, 1.0, 1.5, 2.0):
        form = evolve_coefficients(SqueezedStateParams(r, 0.0, 0.0))
        for _ in range(100):
            x = rng.uniform(-0.5, 0.5, size=4)
            pt = point_from_xvec(*x)
            ref = wigner_pure_2mss(pt, r)
            got = wigner_gaussian_eval(pt, form)
            worst = max(worst, abs(got - ref) / ref)
    elapsed = time.time() - t0
    _verdict(2, "pure reduction", worst <= 1e-12, elapsed, 1.0,
             f"max rel dev {worst:.2e} over 5x100 points (tol 1e-12)")


def test_criterion_03_dynamics_oracle():
    t0 = time.time()
    rng = np.random.default_rng(113)
    worst = 0.0
    for _ in range(50):
        r = rng.uniform(0.0, 3.0)
        d = rng.uniform(0.0, 6.0)
        nbar = rng.uniform(0.0, 5.0)
        sigma = covariance_ode_oracle(kappa=r / d, gamma=1.0, nbar=nbar, t=d,
                                      steps=10000)
        closed = covariance_xvec(
            evolve_coefficients(SqueezedStateParams(r, d, nbar)))
        worst = max(worst, float(np.max(np.abs(sigma - closed))))
    elapsed = time.time() - t0
    _verdict(3, "dynamics oracle", worst <= 1e-6, elapsed, 30.0,
             f"max elementwise dev {worst:.2e} over 50 draws (tol 1e-6)")


def test_criterion_04_separability_law():
    t0 = time.time()
    law_ok = True
    closed_dev = 0.0
    dn = GRID_D[:, None] * GRID_N[None, :]
    for r in GRID_R:
        m = separability_map(float(r), GRID_D, GRID_N)
        expected = dn - r >= -1e-12
        law_ok = law_ok and bool(np.array_equal(m.separable, expected))
        closed_margin = (one_minus_exp_over(GRID_D[:, None] + 2.0 * r)
                         * (dn - r))
        closed_dev = max(closed_dev,
                         float(np.max(np.abs(m.margin - closed_margin))))
    # pointwise subsample through the full eigenvalue report
    rng = np.random.default_rng(7)
    pair_dev = 0.0
    for _ in range(200):
        params = SqueezedStateParams(rng.uniform(0, 3), rng.uniform(0, 6),
                                     rng.uniform(0, 5))
        rep = separability_eigenvalues(params)
        e_large, e_small = rep.closed_pair
        eigs = np.sort(np.asarray(rep.eigenvalues))
        pair_dev = max(pair_dev, float(np.max(np.abs(
            eigs - np.array([e_small, e_small, e_large, e_large])))))
    elapsed = time.time() - t0
    ok = law_ok and closed_dev <= 1e-9 and pair_dev <= 1e-9
    _verdict(4, "separability law", ok, elapsed, 10.0,
             f"verdict=sign(d*nbar-r) on 30^3, closed-vs-numeric dev "
             f"{max(closed_dev, pair_dev):.2e} (tol 1e-9)")


def test_criterion_05_purity_slice():
    t0 = time.time()
    mismatches = 0
    vacuum_line = 0
    for r in GRID_R:
        for d in GRID_D:
            for nbar in GRID_N:
                form = evolve_coefficients(
                    SqueezedStateParams(float(r), float(d), float(nbar)))
                pure = is_pure(form).pure
                on_vacuum_line = r == 0.0 and nbar == 0.0 and d > 0.0
                if on_vacuum_line:
                    # zero-temperature damping fixes the vacuum: this line
                    # is exactly pure as well and is excluded from the
                    # d=0-only statement (29 cells)
                    vacuum_line += 1
                    if not pure:
                        mismatches += 1
                elif pure != (d == 0.0):
                    mismatches += 1
    elapsed = time.time() - t0
    _verdict(5, "purity slice", mismatches == 0, elapsed, 5.0,
             f"pure exactly on d=0 slice; {vacuum_line} vacuum-line cells "
             f"(r=0, nbar=0, d>0) excluded and verified pure")


def test_criterion_06_steady_state():
    t0 = time.time()
    gamma, kappa, nbar = 3.0, 1.0, 0.5
    rep = steady_state(gamma, kappa, nbar)
    n_inf, m_inf = nm_from_v(v_from_w(w_matrix_from_form(rep.limit_form)))
    t_long = 40.0 / (gamma - 2.0 * kappa)
    form = evolve_coefficients(SqueezedStateParams.from_rates(
        kappa=kappa, gamma=gamma, t=t_long, nbar=nbar))
    n_t, m_t = nm_from_v(v_from_w(w_matrix_from_form(form)))
    dev = max(abs(n_t - n_inf), abs(m_t - m_inf))
    thermal = steady_state(2.0, 0.0, nbar=0.7)
    n_th, m_th = nm_from_v(v_from_w(w_matrix_from_form(thermal.limit_form)))
    boundary = steady_state(2.0, 1.0)
    elapsed = time.time() - t0
    ok = (rep.classification == "squeezed-thermal" and dev <= 1e-8
          and thermal.classification == "thermal"
          and abs(n_th - 0.7) <= 1e-12 and abs(m_th) <= 1e-12
          and boundary.classification == "boundary-undefined"
          and not boundary.exists)
    _verdict(6, "steady state", ok, elapsed, 1.0,
             f"N,M dev at t=40/(gamma-2kappa): {dev:.2e} (tol 1e-8)")


def test_criterion_07_diffusion_shape():
    t0 = time.time()
    d_grid = np.linspace(0.0, 50.0, 501)
    vals = [bell_closed_form(
        evolve_coefficients(SqueezedStateParams(1.5, float(d), 0.0)), 0.01)
        for d in d_grid]
    b0, b50 = vals[0], vals[-1]
    elapsed = time.time() - t0
    ok = b0 > 2.0 and min(vals) < 2.0 and 1.95 < b50 < 2.0
    _verdict(7, "diffusion shape", ok, elapsed, 1.0,
             f"B(0)={b0:.4f} > 2, min={min(vals):.4f} < 2, "
             f"B(50)={b50:.6f} in (1.95, 2)")


def test_criterion_08_werner_threshold():
    t0 = time.time()
    rep = werner_violation_threshold(1.5)
    elapsed = time.time() - t0
    ok = rep.p_star is not None and 0.87 <= rep.p_star <= 0.93
    _verdict(8, "werner threshold", ok, elapsed, 10.0,
             f"p_star={rep.p_star} in [0.87, 0.93]")


def test_criterion_09_phase_diffused_slopes():
    t0 = time.time()
    worst = 0.0
    for p in (0.1, 0.5, 1.0):
        for r in (0.5, 1.5):
            res = small_j_slope(mixture_evaluator(
                MixtureSpec(p=p, r=r, kind="phase-diffused")))
            ref = 4.0 * p * math.sinh(2.0 * r)
            worst = max(worst, abs(res.slope - ref) / ref)
    violations = []
    J = np.geomspace(1e-7, 1e-2, 400)
    for p in (0.05, 0.2):
        curve = mixture_bell_curve(MixtureSpec(p=p, r=1.5,
                                               kind="phase-diffused"), J)
        violations.append(float(np.max(curve)))
    elapsed = time.time() - t0
    ok = worst <= 1e-3 and all(v > 2.0 for v in violations)
    _verdict(9, "phase-diffused slopes", ok, elapsed, 5.0,
             f"max slope rel dev {worst:.2e} (tol 1e-3); "
             f"max B at p=0.05, 0.2: "
             f"{violations[0]:.5f}, {violations[1]:.5f} > 2")


def test_criterion_10_quadrature_quality():
    t0 = time.time()
    # phase-average oracle vs the Bessel closed form on a 5x5 moduli grid
    oracle_dev = 0.0
    for a1 in np.linspace(0.1, 1.3, 5):
        for a2 in np.linspace(0.1, 1.3, 5):
            quad = phase_average_quadrature_oracle(float(a1), float(a2), 1.5)
            closed = float(phase_averaged_wigner(
                TwoModePoint(complex(a1), complex(a2)), 1.5))
            oracle_dev = max(oracle_dev, abs(quad - closed))
    # single-mode marginal vs 2-D quadrature
    marginal_dev = 0.0
    for alpha1 in (0j, 0.3 + 0.2j, -0.5j, 0.7 + 0j):
        marginal_dev = max(marginal_dev, abs(
            thermal_marginal(alpha1, 1.5) - marginal_by_quadrature(alpha1,
                                                                   1.5)))
    # every Wigner evaluator normalizes to 1 under 4-D quadrature
    norms = {}
    pure = evolve_coefficients(SqueezedStateParams(1.5, 0.0, 0.0))
    norms["pure r=1.5"] = form_normalization(
        lambda pt: wigner_gaussian_eval(pt, pure), pure)
    diffused = evolve_coefficients(SqueezedStateParams(1.5, 1.0, 0.5))
    norms["diffused (1.5, 1, 0.5)"] = form_normalization(
        lambda pt: wigner_gaussian_eval(pt, diffused), diffused)
    for p in (0.0, 0.5, 1.0):
        norms[f"werner p={p}"] = rotated_box_integral(
            mixture_evaluator(MixtureSpec(p=p, r=1.5, kind="werner-thermal")),
            werner_axes(1.5))
    half = 6.0 * math.sqrt(1.0 / (4.0 * (math.cosh(1.0) - math.sinh(1.0))))
    for p in (0.2, 0.5):
        norms[f"phase-diffused p={p}"] = rotated_box_integral(
            mixture_evaluator(MixtureSpec(p=p, r=0.5, kind="phase-diffused")),
            uniform_box_axes(half, 56))
    for r in (1.0, 1.5):
        norms[f"phase-averaged r={r}"] = polar_normalization(
            lambda pt: phase_averaged_wigner(pt, r),
            radius=6.0 * math.exp(r) / 2.0 + 2.0)
    norm_dev = max(abs(v - 1.0) for v in norms.values())
    elapsed = time.time() - t0
    ok = oracle_dev <= 1e-8 and marginal_dev <= 1e-8 and norm_dev <= 1e-6
    _verdict(10, "quadrature quality", ok, elapsed, 60.0,
             f"oracle dev {oracle_dev:.2e}, marginal dev {marginal_dev:.2e} "
             f"(tol 1e-8); worst of {len(norms)} normalizations off by "
             f"{norm_dev:.2e} (tol 1e-6)")


def test_criterion_11_sign_convention_note():
    # Executable note: with the cross term exp(-J(c1+c2)/h) instead of
    # exp(-J(c1-c2)/h) the combination at the reference point would be
    # ~1.637; the four-point assembly of actual parities gives ~2.19,
    # which pins the implemented sign convention.
    t0 = time.time()
    form = evolve_coefficients(SqueezedStateParams(1.5, 0.0, 0.0))
    J = 0.01
    flipped = (1.0 + 2.0 * math.exp(-J * form.c1 / (2.0 * form.h))
               - math.exp(-J * (form.c1 + form.c2) / form.h)) / form.h
    assembled = bell_combination(
        model_evaluator(SqueezedStateParams(1.5, 0.0, 0.0)), J).B
    elapsed = time.time() - t0
    ok = (abs(flipped - 1.6372366275657204) < 1e-9
          and 2.185 <= assembled <= 2.195
          and assembled - flipped > 0.5)
    _verdict(11, "sign convention", ok, elapsed, 1.0,
             f"flipped-sign value {flipped:.4f} vs assembly "
             f"{assembled:.4f}")
