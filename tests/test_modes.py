"""Tests of the numpy-free normal-mode core :mod:`cvbell.modes`."""

import contextlib
import io
import math
import os
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvbell import (
    CrossCheckError,
    MixtureSpec,
    SqueezedStateParams,
    bell_combination,
    coefficient_arrays,
    mixture_evaluator,
    separability_map,
)
from cvbell.bell import maximize_bell
from cvbell.cli import _linspace, main
from cvbell.dynamics import evolve_coefficients, variance_arrays
from cvbell.modes import NormalModes, steady_limit, werner_bell
from oracles import coefficient_triple

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import outputs  # noqa: E402  (the benchmark's own checks, read only)

EPS = sys.float_info.epsilon

# the whole declared domain, up to where e^{2r} stays inside the float range
states = st.tuples(st.floats(0.0, 350.0), st.floats(0.0, 1e3),
                   st.floats(0.0, 1e3))


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


# ----------------------------------------------------------------------
# regression: single-point commands that the 4x4 W/V route got wrong
# ----------------------------------------------------------------------

REGRESSION_ROWS = [
    # exit 3, "routes disagree by 1.469e-09" (inside the README's r <= 3)
    ("coeffs", {"r": 2.9, "d": 0.0, "nbar": 1.0}),
    # exit 3, "parity conjugation identity violated"
    ("separability", {"r": 4.0, "d": 0.0, "nbar": 0.0}),
    ("separability", {"r": 5.0, "d": 0.0, "nbar": 0.0}),
    ("separability", {"r": 8.0, "d": 1.0, "nbar": 1.0}),
    # exit 3, "routes disagree by 4.503e-07" (absolute 1e-9 check)
    ("coeffs", {"r": 6.0, "d": 1.0, "nbar": 0.0}),
    # exit 3 at its r = 5 sample, "routes disagree by 1.257e-07"
    ("coeffs-scan", {"kappa": 1.0, "gamma": 0.1, "t_max": 10.0,
                     "t_count": 5, "nbar": 0.0}),
    # exit 3, "non-normalizable form": (c1, c2, h) cannot hold this state
    ("coeffs", {"r": 20.0, "d": 1.0, "nbar": 0.0}),
]


@pytest.mark.parametrize("kind, params", REGRESSION_ROWS)
def test_former_faults_match_the_reference(kind, params):
    from workloads import argv_of

    code, out, err = run_cli(*argv_of(kind, params, "csv"))
    assert code == 0, err
    outputs.check_command(kind, params, out, "csv")


def _exact_nm(r, d, nbar):
    mpmath.mp.dps = 50
    r, d, nbar = (mpmath.mpf(x) for x in (r, d, nbar))
    occ = 2 * nbar + 1
    s = [mpmath.exp(-p) + (occ * d * (-mpmath.expm1(-p) / p) if p else 0)
         for p in (d + 2 * r, d - 2 * r)]
    return (s[0] + s[1]) / 4 - mpmath.mpf(1) / 2, (s[0] - s[1]) / 4


@pytest.mark.parametrize("d", [0.0, 0.1, 1.0])
def test_n_and_m_match_fifty_digits(d):
    # the W/V route was 3.1e-12 relative off at r = 2.7, d = 0, nbar = 1
    code, out, _ = run_cli("coeffs", "--r", 2.7, "--d", d, "--nbar", 1.0)
    assert code == 0
    header, row = (l.split(",") for l in out.splitlines()
                   if not l.startswith("#"))
    vals = dict(zip(header, row))
    n_exact, m_exact = _exact_nm(2.7, d, 1.0)
    assert abs(float(vals["N"]) - n_exact) <= 1e-15 * abs(n_exact)
    assert abs(float(vals["M"]) - m_exact) <= 1e-15 * abs(m_exact)


# ----------------------------------------------------------------------
# the core against the grid kernels
# ----------------------------------------------------------------------

@pytest.mark.parametrize("r", [0.5, 1.5, 3.0, 10.0, 20.0])
def test_core_matches_separability_map_cells(r):
    d_grid = np.linspace(0.0, 10.0, 30)
    n_grid = np.linspace(0.0, 5.0, 30)
    m = separability_map(r, d_grid, n_grid)
    for i, d in enumerate(d_grid):
        for j, nbar in enumerate(n_grid):
            modes = NormalModes.of(SqueezedStateParams(r, float(d), float(nbar)))
            scale = 1.0 + min(modes.s1, modes.s2)
            assert abs(m.margin[i, j] - modes.margin) <= 1e-15 * scale
            assert m.separable[i, j] == modes.separable


def test_core_matches_coefficient_arrays():
    # the triple written out in p1 and p2 is the independent reference;
    # both use 2d (p1 + p2 rounds d by up to ulp(2r) and needed a
    # tolerance 2 nbar + 1 times wider)
    rng = np.random.default_rng(5)
    for _ in range(2000):
        r = float(rng.uniform(0.0, 20.0))
        d = 0.0 if rng.random() < 0.2 else float(10 ** rng.uniform(-3, 1.3))
        nbar = 0.0 if rng.random() < 0.2 else float(10 ** rng.uniform(-3, 1))
        modes = NormalModes.of(SqueezedStateParams(r, d, nbar))
        c1, c2, h = coefficient_triple(r, d, nbar)
        assert abs(c1 - modes.c1) <= 1e-15 * modes.c1
        assert abs(c2 - modes.c2) <= 1e-15 * modes.c1
        assert abs(h - modes.h) <= 1e-15 * (1 + modes.s1) * (1 + modes.s2)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(states, st.sampled_from([("r",), ("d",), ("nbar",), ("r", "d"),
                                ("d", "nbar"), ("r", "d", "nbar")]),
       st.floats(0.0, 1.0))
def test_every_runtime_route_is_the_normal_mode_core(state, free, J):
    # one state route: the Wigner coefficients of one state and the B
    # the maximiser reports at fixed J are the core's, bit for bit; the
    # array view shares its formula but numpy's exp and expm1 may differ
    # from the C library's in the last bit
    params = SqueezedStateParams(*state)
    modes = NormalModes.of(params)
    core = (modes.c1, modes.c2, modes.h)
    try:
        form = evolve_coefficients(params)
    except ValueError:
        # the pure limit at large r: c1 = |c2| in floats
        assert core[0] <= abs(core[1])
    else:
        assert (form.c1, form.c2, form.h) == core
    s1, s2 = (float(s) for s in variance_arrays(*state))
    view = tuple(float(x) for x in coefficient_arrays(*state))
    assert view == (2.0 * (s1 + s2), 2.0 * (s1 - s2), s1 * s2)
    # the triple written out in p1, p2, and numpy's view, within the
    # bounds of test_core_matches_coefficient_arrays
    for c1, c2, h in (view, coefficient_triple(*state)):
        assert abs(c1 - modes.c1) <= 1e-15 * modes.c1
        assert abs(c2 - modes.c2) <= 1e-15 * modes.c1
        assert abs(h - modes.h) <= 1e-15 * (1 + modes.s1) * (1 + modes.s2)
    fixed = {n: v for n, v in zip(("r", "d", "nbar"), state) if n not in free}
    res = maximize_bell(free, {**fixed, "J": J})
    assert res.params["J"] == J
    best = SqueezedStateParams(*(res.params[n] for n in ("r", "d", "nbar")))
    assert res.b_max == NormalModes.of(best).bell(J)[0]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(states)
def test_core_is_accurate_to_fifty_digits(state):
    r, d, nbar = state
    modes = NormalModes.of(SqueezedStateParams(r, d, nbar))
    mpmath.mp.dps = 50
    R, D, NB = (mpmath.mpf(x) for x in state)
    occ = 2 * NB + 1
    s1, s2 = (mpmath.exp(-p) + (occ * D * (-mpmath.expm1(-p) / p) if p else 0)
              for p in (D + 2 * R, D - 2 * R))
    # every output is a sum of positive terms of size 1 + s1 + s2 (or a
    # product of two of them), rounded a few times; e^-p and E(p) carry
    # the rounding of p = d +- 2r multiplied by |p| <= d + 2r
    tol = 8 * EPS * (1 + d + 2 * r)
    scale = 1 + s1 + s2
    for got, want in ((modes.c1, 2 * (s1 + s2)), (modes.c2, 2 * (s1 - s2)),
                      (modes.N, (s1 + s2) / 4 - mpmath.mpf(1) / 2),
                      (modes.M, (s1 - s2) / 4)):
        assert abs(got - want) <= tol * scale
    assert abs(modes.h - s1 * s2) <= tol * s1 * s2
    small = 1 + min(s1, s2)
    assert abs(modes.margin - (min(s1, s2) - 1) / 2) <= tol * small


# ----------------------------------------------------------------------
# invariants over the whole declared domain
# ----------------------------------------------------------------------

@settings(max_examples=300, derandomize=True, deadline=None)
@given(states)
def test_route_check_accepts_every_legal_state(state):
    # the W/V route rejected legal states from r ~ 2.8 on
    modes = NormalModes.of(SqueezedStateParams(*state))
    r, d, nbar = state
    if abs(d * nbar - r) > 1e-9 * (1.0 + r):
        assert modes.separable == (r <= d * nbar)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(states)
def test_bell_at_zero_budget_is_two_over_h(state):
    modes = NormalModes.of(SqueezedStateParams(*state))
    B, correlations = modes.bell(0.0)
    assert correlations == (1.0 / modes.h,) * 4
    assert abs(B - 2.0 / modes.h) <= EPS * 4.0 / modes.h


def test_pure_exactly_without_diffusion():
    for r in (0.0, 1.0, 5.0, 100.0, 350.0):
        assert NormalModes.of(SqueezedStateParams(r, 0.0, 3.0)).pure
        assert not NormalModes.of(SqueezedStateParams(r, 0.05, 3.0)).pure
    # zero-temperature damping of the vacuum stays the vacuum
    assert NormalModes.of(SqueezedStateParams(0.0, 5.0, 0.0)).pure


def test_steady_state_variances():
    kind, modes = steady_limit(3.0, 1.0, 0.5)
    assert kind == "squeezed-thermal"
    assert (modes.s1, modes.s2) == (2.0 / (1.0 + 2.0 / 3.0), 2.0 / (1.0 - 2.0 / 3.0))
    kind, modes = steady_limit(1.0, 0.0, 0.5)
    assert kind == "thermal"
    assert (modes.c2, modes.M, modes.N) == (0.0, 0.0, 0.5)
    assert steady_limit(2.0, 1.0) == ("boundary-undefined", None)
    assert steady_limit(1.0, 1.0) == ("none", None)
    with pytest.raises(ValueError, match="overflow.*nbar=1e\\+308"):
        steady_limit(1.0, 0.4, 1e308)


def test_werner_bell_matches_the_density_assembly():
    for p, r, J in ((0.95, 1.5, 0.01), (0.3, 0.2, 0.5), (1.0, 3.0, 1e-4),
                    (0.0, 2.0, 0.02)):
        spec = MixtureSpec(p=p, r=r, kind="werner-thermal")
        B, correlations = werner_bell(spec, J)
        assembled = bell_combination(mixture_evaluator(spec), J)
        assert B == pytest.approx(assembled.B, rel=1e-12)
        np.testing.assert_allclose(correlations, assembled.correlations,
                                   rtol=1e-12)


def test_werner_bell_affine_check_catches_a_corrupted_correlation(monkeypatch):
    real = NormalModes.correlations
    monkeypatch.setattr(NormalModes, "correlations",
                        lambda self, J: tuple(1.000001 * c
                                              for c in real(self, J)))
    with pytest.raises(CrossCheckError, match="affine"):
        werner_bell(MixtureSpec(p=0.5, r=1.5), 0.01)


def test_route_check_catches_a_corrupted_variance(monkeypatch):
    import cvbell.modes as modes

    # near the boundary d nbar = r at r = 10 the margin is ~0 while
    # s2 ~ 4e8; a 1e-6 relative error in the pair must still be caught
    real = modes.separability_closed_pair
    monkeypatch.setattr(modes, "separability_closed_pair",
                        lambda params: tuple((1.0 + 1e-6) * e
                                             for e in real(params)))
    with pytest.raises(CrossCheckError, match="relative to 1 \\+ s"):
        NormalModes.of(SqueezedStateParams(10.0, 1.0, 9.5))


# ----------------------------------------------------------------------
# overflow at large squeezing
# ----------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("coeffs", "--r", "400", "--d", "0"),
    ("separability", "--r", "400", "--d", "0"),
    ("bell", "--J", "0.01", "--r", "400"),
    ("werner", "--J", "0.01", "--p", "0.5", "--r", "400"),
    ("werner", "--threshold", "--r", "400"),
    ("phase-diffused", "--slope", "--p", "0.5", "--r", "400"),
])
def test_overflow_exits_3_naming_r(argv):
    code, out, err = run_cli(*argv)
    assert code == 3
    assert out == ""
    assert "r=400.0" in err and "overflow" in err


def test_overflow_is_a_value_error():
    with pytest.raises(ValueError, match="overflow.*r=400.0"):
        NormalModes.of(SqueezedStateParams(400.0, 0.0))
    with pytest.raises(ValueError, match="overflow.*nbar=1e\\+307"):
        NormalModes.of(SqueezedStateParams(1.0, 1.0, 1e307))
    with pytest.raises(ValueError, match="r=400.0 overflows"):
        MixtureSpec(p=0.5, r=400.0)


def test_werner_below_overflow_gives_finite_values():
    # cosh(2r)^2 overflows from r ~ 177; the product state's correlations
    # are then 0, not a traceback
    B, correlations = werner_bell(MixtureSpec(p=0.5, r=200.0), 0.01)
    assert all(math.isfinite(c) for c in correlations)
    assert B == pytest.approx(0.5, rel=1e-15)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

@pytest.mark.parametrize("start, stop, num", [
    (0.0, 10.0, 201), (0.0, 2.0, 5), (0.0, 12.345, 51), (0.0, 0.0, 3),
    (0.0, -1.0, 3), (0.0, 1e-310, 4), (0.0, 7.0 / 3.0, 97)])
def test_linspace_is_numpy_bit_for_bit(start, stop, num):
    assert _linspace(start, stop, num) == np.linspace(start, stop, num).tolist()
