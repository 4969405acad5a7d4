"""Unit tests for purity and separability classification."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvbell import (
    CrossCheckError,
    NormalModes,
    SqueezedStateParams,
    evolve_coefficients,
    is_pure,
    one_minus_exp_over,
    separability_closed_pair,
    separability_eigenvalues,
    separability_map,
)
from cvbell.dynamics import row_blocks, variance_arrays
from cvbell.modes import exp_quotient

from oracles import separability_map_broadcast

# frozen margin of the strongly nonseparable reference point
MARGIN_R15_D5 = -0.18743710075726833


def test_pure_on_no_diffusion_slice():
    # from r ~ 3.5 on, c1 + c2 = 4 s1 cancels in floats (at r = 7 it is
    # 1e-4 off), so purity must be read off h = s1 s2, which does not
    for r in (0.0, 0.7, 1.5, 2.4, 3.5, 7.0, 9.0, 10.0, 20.0, 350.0):
        for nbar in (0.0, 0.5, 3.0):
            form = evolve_coefficients(SqueezedStateParams(r, 0.0, nbar))
            rep = is_pure(form)
            assert rep.pure
            assert abs(rep.residual) < 1e-12


def test_vacuum_line_stays_pure():
    # zero-temperature damping of the vacuum never mixes the state
    for d in (0.1, 1.0, 10.0):
        assert is_pure(evolve_coefficients(SqueezedStateParams(0.0, d, 0.0))).pure


def test_mixed_once_diffused():
    for r, d, nbar in ((1.5, 0.5, 0.0), (0.0, 0.5, 1.0), (2.0, 3.0, 4.0),
                       (0.3, 0.05, 0.0)):
        assert not is_pure(evolve_coefficients(
            SqueezedStateParams(r, d, nbar))).pure


def test_purity_tracks_h_equals_one():
    form = evolve_coefficients(SqueezedStateParams(1.0, 2.0, 0.5))
    assert form.h > 1.0
    assert not is_pure(form).pure


def test_frozen_margin():
    rep = separability_eigenvalues(SqueezedStateParams(1.5, 5.0, 0.0))
    assert rep.margin == pytest.approx(MARGIN_R15_D5, rel=1e-12)
    assert not rep.separable


def test_report_internal_consistency():
    rng = np.random.default_rng(23)
    for _ in range(50):
        params = SqueezedStateParams(rng.uniform(0, 3), rng.uniform(0, 6),
                                     rng.uniform(0, 5))
        rep = separability_eigenvalues(params)
        eigs = np.asarray(rep.eigenvalues)
        assert np.all(np.diff(eigs) >= -1e-12)
        assert rep.margin == pytest.approx(float(eigs[0]), abs=1e-13)
        assert rep.separable == (params.d * params.nbar >= params.r)


def test_closed_pair_matches_numeric_eigenvalues():
    rng = np.random.default_rng(29)
    for _ in range(50):
        params = SqueezedStateParams(rng.uniform(0, 3), rng.uniform(0, 6),
                                     rng.uniform(0, 5))
        rep = separability_eigenvalues(params)
        e_large, e_small = rep.closed_pair
        eigs = np.sort(np.asarray(rep.eigenvalues))
        np.testing.assert_allclose(eigs, [e_small, e_small, e_large, e_large],
                                   atol=1e-9)


def test_closed_pair_formula():
    # e_small = E(p1)(d nbar - r), e_large = E(p2)(d nbar + r)
    params = SqueezedStateParams(0.8, 2.0, 1.4)
    e_large, e_small = separability_closed_pair(params)
    assert e_small == pytest.approx(
        one_minus_exp_over(params.p1) * (2.0 * 1.4 - 0.8), rel=1e-12)
    assert e_large == pytest.approx(
        one_minus_exp_over(params.p2) * (2.0 * 1.4 + 0.8), rel=1e-12)
    assert e_small <= e_large


def test_boundary_counts_as_separable():
    # d * nbar == r exactly on the boundary
    rep = separability_eigenvalues(SqueezedStateParams(1.0, 2.0, 0.5))
    assert rep.separable
    assert abs(rep.margin) < 1e-12


def test_never_separable_without_thermal_noise():
    for r in (0.1, 1.0, 2.9):
        for d in (0.5, 3.0, 6.0):
            rep = separability_eigenvalues(SqueezedStateParams(r, d, 0.0))
            assert not rep.separable


def test_margin_monotone_in_nbar():
    margins = [separability_eigenvalues(
        SqueezedStateParams(1.5, 2.0, nbar)).margin
        for nbar in np.linspace(0.0, 5.0, 21)]
    assert np.all(np.diff(margins) > 0.0)


def test_separability_flips_once_along_nbar():
    reports = [separability_eigenvalues(SqueezedStateParams(1.5, 5.0, nbar))
               for nbar in np.linspace(0.0, 2.0, 41)]
    flags = [r.separable for r in reports]
    assert flags[0] is False and flags[-1] is True
    assert sum(1 for a, b in zip(flags, flags[1:]) if a != b) == 1


def test_map_boundary_crossings():
    grid = np.linspace(0.0, 10.0, 201)
    m = separability_map(1.5, np.array([2.5, 5.0]), grid)
    # the crossing sits at nbar = r/d; the map reports the first separable
    # grid value, which is within one cell of it
    cell = grid[1] - grid[0]
    assert abs(m.boundary_nbar[0] - 1.5 / 2.5) <= cell
    assert abs(m.boundary_nbar[1] - 1.5 / 5.0) <= cell
    assert m.separable.shape == (2, 201)
    assert m.margin.shape == (2, 201)


def test_map_agrees_with_pointwise_route():
    d_grid = np.linspace(0.0, 6.0, 7)
    n_grid = np.linspace(0.0, 5.0, 6)
    m = separability_map(0.9, d_grid, n_grid)
    for i, d in enumerate(d_grid):
        for j, nbar in enumerate(n_grid):
            rep = separability_eigenvalues(
                SqueezedStateParams(0.9, float(d), float(nbar)))
            assert m.separable[i, j] == rep.separable
            assert m.margin[i, j] == pytest.approx(rep.margin, abs=1e-12)


def _variances(r, d, nbar):
    # normal-mode variances s_i = e^-p_i + (2 nbar + 1) d E(p_i)
    p1, p2 = d + 2.0 * r, d - 2.0 * r
    occ = 2.0 * nbar + 1.0
    return (math.exp(-p1) + occ * d * one_minus_exp_over(p1),
            math.exp(-p2) + occ * d * one_minus_exp_over(p2))


@pytest.mark.parametrize("r", [0.5, 1.5, 2.5])
def test_map_matches_eigensolver_margin(r):
    d_grid = np.linspace(0.0, 6.0, 40)
    n_grid = np.linspace(0.0, 5.0, 40)
    m = separability_map(r, d_grid, n_grid)
    rng = np.random.default_rng(41)
    for i, j in zip(rng.integers(0, 40, 60), rng.integers(0, 40, 60)):
        d, nbar = float(d_grid[i]), float(n_grid[j])
        rep = separability_eigenvalues(SqueezedStateParams(r, d, nbar))
        s1, s2 = _variances(r, d, nbar)
        assert abs(m.margin[i, j] - rep.margin) <= 1e-12 * (1.0 + s1 + s2)


@pytest.mark.parametrize("r", [0.5, 1.5, 3.0, 10.0, 20.0])
def test_map_matches_closed_pair_everywhere(r):
    d_grid = np.linspace(0.0, 10.0, 25)
    n_grid = np.linspace(0.0, 5.0, 25)
    m = separability_map(r, d_grid, n_grid)
    for i, d in enumerate(d_grid):
        for j, nbar in enumerate(n_grid):
            closed = min(separability_closed_pair(
                SqueezedStateParams(r, float(d), float(nbar))))
            scale = 1.0 + d * nbar + r
            assert abs(m.margin[i, j] - closed) <= 1e-14 * scale


@pytest.mark.parametrize("r", [10.0, 20.0])
def test_map_finite_at_large_squeezing(r):
    # the variances span e^-2r .. e^2r here: no NaN, no warning, and the
    # verdicts still follow the law
    d_grid = np.linspace(0.0, 10.0, 200)
    n_grid = np.linspace(0.0, 5.0, 200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = separability_map(r, d_grid, n_grid)
    assert np.all(np.isfinite(m.margin))
    law = d_grid[:, None] * n_grid[None, :] - r
    away = np.abs(law) > 1e-9
    assert np.array_equal(m.separable[away], law[away] >= 0.0)
    hit = np.isfinite(m.boundary_nbar)
    assert np.array_equal(hit, np.any(law >= 0.0, axis=1))


def test_map_route_check_rejects_nan(monkeypatch):
    import cvbell.analysis as analysis
    real = analysis.one_minus_exp_over
    monkeypatch.setattr(analysis, "one_minus_exp_over",
                        lambda p: real(p) * np.nan)
    with pytest.raises(CrossCheckError):
        separability_map(1.0, np.linspace(0.0, 1.0, 3),
                         np.linspace(0.0, 1.0, 3))


def test_is_pure_validates_input():
    # is_pure takes a state, and a state has finite positive variances
    for s1, s2 in ((0.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.inf)):
        with pytest.raises(ValueError):
            is_pure(NormalModes(s1, s2))


def test_purity_residuals_of_a_state_with_huge_coefficients():
    # c1 ~ 7e154: c1 ** 2 on a float raised OverflowError, while the
    # normal-mode core (and ``cvbell coeffs``) answers pure=false
    form = evolve_coefficients(SqueezedStateParams(20.0, 10.0, 5e141))
    rep = is_pure(form)
    assert not rep.pure
    assert rep.residual == pytest.approx(1.0, abs=1e-12)


def test_map_route_check_is_relative_to_variances():
    # at nbar ~ 1e8 the variances are ~1e8 and the two routes round apart
    # by ~1e-8 absolute (4e-17 relative); that is agreement, not a fault
    d_grid = np.linspace(0.5, 3.0, 50)
    n_grid = np.linspace(0.0, 1e8, 50)
    m = separability_map(1.0, d_grid, n_grid)
    law = d_grid[:, None] * n_grid[None, :] - 1.0
    assert np.array_equal(m.separable, law >= 0.0)
    for workers in (1, 2):
        again = separability_map(1.0, d_grid, n_grid, workers=workers)
        assert np.array_equal(again.margin, m.margin)


def test_map_route_check_reports_relative_gap(monkeypatch):
    import cvbell.analysis as analysis
    real = analysis.one_minus_exp_over
    monkeypatch.setattr(analysis, "one_minus_exp_over",
                        lambda p: real(p) * (1.0 + 1e-6))
    with pytest.raises(CrossCheckError, match="relative to 1 \\+ min\\(s1, s2\\)"):
        separability_map(1.0, np.linspace(0.5, 3.0, 20),
                         np.linspace(0.0, 5.0, 20))


def test_map_route_check_is_not_loosened_by_the_larger_variance(monkeypatch):
    # at r = 10, d = 1 the cells near nbar = r / d have s1 ~ 1 but
    # s2 ~ 4e8; a 1e-6 relative error in E(p) moves the routes apart by
    # ~5e-7 there, far above the 1e-9 tolerance on a margin that is ~0
    # (a tolerance relative to 1 + s1 + s2 would have been 0.4)
    import cvbell.analysis as analysis
    d_grid = np.array([1.0])
    n_grid = np.linspace(9.5, 10.5, 5)
    clean = separability_map(10.0, d_grid, n_grid)
    assert np.array_equal(clean.separable[0], n_grid >= 10.0)
    real = analysis.one_minus_exp_over
    monkeypatch.setattr(analysis, "one_minus_exp_over",
                        lambda p: real(p) * (1.0 + 1e-6))
    with pytest.raises(CrossCheckError):
        separability_map(10.0, d_grid, n_grid)


# ----------------------------------------------------------------------
# the order of each pair, s1 <= s2 and e_small <= e_large: it holds but
# where rounding ties the pair, so the map and NormalModes.margin keep min
# ----------------------------------------------------------------------

EPS = 2.0 ** -52

# the declared domain: r up to 350, tiny r down to 1e-300, and r = 0
squeezing = st.one_of(st.just(0.0), st.floats(1e-300, 1e-10),
                      st.floats(0.0, 350.0))
noise = st.floats(0.0, 1e3)


def _check_order(r, d, s1, s2, e_small, e_large, ordered):
    # the first of each pair is the smaller wherever E(p) and e^-p are
    # ordered at p1 >= p2; elsewhere r is tiny and the pairs tie to an ulp
    ordered = np.asarray(ordered)
    assert np.all(ordered | (r <= 1e-15 * np.maximum(1.0, d)))
    tied = ~ordered
    assert np.all((s1 <= s2) | tied & (s1 <= s2 * (1.0 + 4.0 * EPS)))
    slack = 4.0 * EPS * np.abs(e_large)
    assert np.all((e_small <= e_large) | tied & (e_small <= e_large + slack))


@settings(max_examples=500, derandomize=True, deadline=None)
@given(squeezing, noise, noise)
def test_first_of_each_pair_is_the_smaller(r, d, nbar):
    params = SqueezedStateParams(r, d, nbar)
    p1, p2 = params.p1, params.p2
    e_large, e_small = separability_closed_pair(params)
    ordered = (exp_quotient(p1) <= exp_quotient(p2)
               and math.exp(-p1) <= math.exp(-p2))
    try:
        modes = NormalModes.of(params)
    except ValueError:  # h = s1 s2 leaves the float range
        pass
    else:
        _check_order(r, d, modes.s1, modes.s2, e_small, e_large, ordered)
    s1, s2 = variance_arrays(r, d, nbar)
    e1, e2 = one_minus_exp_over(p1), one_minus_exp_over(p2)
    ordered = (e1 <= e2) & (np.exp(-p1) <= np.exp(-p2))
    _check_order(r, d, s1, s2, e1 * (d * nbar - r), e2 * (d * nbar + r),
                 ordered)


def test_first_of_each_pair_is_the_smaller_on_arrays():
    # the map's own arrays: variance_arrays and the closed pair on E(p) of
    # numpy's expm1, with a quarter of the draws where rounding can tie
    rng = np.random.default_rng(23)
    n = 200_000
    r = np.concatenate([rng.uniform(0.0, 350.0, n // 4),
                        10.0 ** rng.uniform(-300.0, -10.0, n // 4),
                        10.0 ** rng.uniform(-18.0, -15.0, n // 4),
                        np.zeros(n // 4)])
    d = np.where(rng.random(n) < 0.1, 0.0, 10.0 ** rng.uniform(-12, 3, n))
    nbar = np.where(rng.random(n) < 0.1, 0.0, 10.0 ** rng.uniform(-12, 3, n))
    p1, p2 = d + 2.0 * r, d - 2.0 * r
    e1, e2 = one_minus_exp_over(p1), one_minus_exp_over(p2)
    ordered = (e1 <= e2) & (np.exp(-p1) <= np.exp(-p2))
    assert not ordered.all()  # the draws reach the tied rows
    s1, s2 = variance_arrays(r, d, nbar)
    dn = d * nbar
    _check_order(r, d, s1, s2, e1 * (dn - r), e2 * (dn + r), ordered)


def _assert_margin_is_s1(m, r, d_grid, n_grid):
    # the squeezed mode's margin bit for bit, and within an ulp of the
    # smaller variance's where rounding ties s1 and s2
    s1, s2 = variance_arrays(r, d_grid[:, None], n_grid[None, :])
    assert np.array_equal(m.margin, (s1 - 1.0) / 2.0)
    smaller = np.minimum(s1, s2)
    assert np.all(np.abs(m.margin - (smaller - 1.0) / 2.0)
                  <= np.spacing(smaller))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(squeezing)
@example(0.0)
@example(1e-18)
@example(2e-17)  # s2 rounds below s1 on 154 cells
@example(1e-10)
def test_map_margin_is_the_smaller_variance_bit_for_bit(r):
    d_grid = np.linspace(0.0, 1.0, 101)
    n_grid = np.linspace(0.0, 100.0, 101)
    _assert_margin_is_s1(separability_map(r, d_grid, n_grid), r, d_grid,
                         n_grid)


# ----------------------------------------------------------------------
# the map forms the squeezed mode alone, also on grids where rounding
# puts a row's factors d E(p_i) and e^-p_i out of order
# ----------------------------------------------------------------------

# geometric d down to 1e-20: at r = 2e-17 a few rows near d ~ 1e-10 round
# their factors out of order
MIXED_D = np.concatenate([[0.0], np.geomspace(1e-20, 1e3, 399)])
MIXED_N = np.concatenate([[0.0], np.geomspace(1e-12, 1e3, 199)])


def _spy_variances(monkeypatch):
    import cvbell.analysis as analysis
    calls = []
    real = analysis._mode_variance

    def spy(occ, d_e, decay):
        calls.append(len(d_e))
        return real(occ, d_e, decay)
    monkeypatch.setattr(analysis, "_mode_variance", spy)
    return calls


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.one_of(st.just(0.0), st.floats(1e-300, 1e-15),
                 st.floats(0.0, 350.0)))
@example(2e-17)  # rows out of order in the second block
@example(1e-18)
def test_map_is_the_smaller_variance_on_both_paths(r):
    m = separability_map(r, MIXED_D, MIXED_N)
    _assert_margin_is_s1(m, r, MIXED_D, MIXED_N)
    assert np.array_equal(m.separable, MIXED_D[:, None] * MIXED_N >= r)


def test_ordered_map_never_forms_the_larger_variance(monkeypatch):
    # each block forms s1 once and s2 never, also at r = 2e-17, where
    # rounding puts some rows' factors out of order
    calls = _spy_variances(monkeypatch)
    for r, d_grid, n_grid in ((1.5, np.linspace(0.0, 4.5, 1000),
                               np.linspace(0.0, 2.0, 1000)),
                              (2e-17, MIXED_D, MIXED_N)):
        calls.clear()
        separability_map(r, d_grid, n_grid)
        blocks = list(row_blocks(len(d_grid), len(n_grid)))
        assert calls == [hi - lo for lo, hi in blocks]


def test_map_where_d_nbar_overflows():
    # d nbar = 1e330 overflows, but the variances 1 and 2e88 + 1 do not;
    # the closed pair (E d) nbar -+ E r stays in range too
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = separability_map(0.0, [1e242], [0.0, 1e88])
    assert m.margin.tolist() == [[0.0, 1e88]]
    assert m.separable.tolist() == [[True, True]]


# ----------------------------------------------------------------------
# the map's verdict: each row's first separable node, found by bisection,
# against the law d nbar >= r on the full grid
# ----------------------------------------------------------------------

def _chain(x, below, above):
    """The ``below`` floats under x, x itself and the ``above`` over it,
    each the float next to the last."""
    down = [x]
    for _ in range(below):
        down.append(np.nextafter(down[-1], 0.0))
    up = [x]
    for _ in range(above):
        up.append(np.nextafter(up[-1], np.inf))
    return np.array(down[:0:-1] + up)


def _assert_verdict_is_the_law(r, d_grid, n_grid):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = separability_map(r, d_grid, n_grid)
    with np.errstate(over="ignore"):
        law = np.asarray(d_grid)[:, None] * np.asarray(n_grid) >= r
    assert np.array_equal(m.separable, law)
    first = np.where(law.any(axis=1), m.nbar_grid[law.argmax(axis=1)],
                     np.nan)
    assert np.array_equal(m.boundary_nbar, first, equal_nan=True)
    return m


@pytest.mark.parametrize("r, d", [(1.5, 0.7), (1.0, 3.0), (1e-300, 1e-5),
                                  (2e-17, 1e-10), (350.0, 1e3)])
def test_verdict_across_the_boundary_node_by_node(r, d):
    # nbar steps float by float across r / d, at d and its neighbours: the
    # rounded product tips over at one of these nodes on each row
    x = r / d
    d_grid = _chain(d, 3, 3)
    n_grid = _chain(x, 40, 40)
    m = _assert_verdict_is_the_law(r, d_grid, n_grid)
    assert m.separable.any(axis=1).all() and not m.separable[:, 0].any()


def test_verdict_on_rows_without_diffusion():
    # d = 0: no nbar separates r > 0
    m = _assert_verdict_is_the_law(0.5, [0.0, 1.0], np.linspace(0.0, 3.0, 7))
    assert not m.separable[0].any() and math.isnan(m.boundary_nbar[0])


def test_verdict_without_squeezing_is_separable_from_the_first_node():
    # r = 0: every node is separable, the d = 0 row included
    n_grid = np.geomspace(1e-3, 10.0, 9)
    m = _assert_verdict_is_the_law(0.0, np.linspace(0.0, 2.0, 5), n_grid)
    assert m.separable.all()
    assert np.array_equal(m.boundary_nbar, np.full(5, n_grid[0]))


def test_verdict_where_d_nbar_leaves_the_float_range():
    # at the two larger d, d nbar passes 1e308 and rounds to inf, which is
    # separable; at d = 1e-300 it underflows and stays below r
    d_grid = np.array([0.0, 1e-300, 1e240, 1e300])
    n_grid = np.array([0.0, 1e-100, 1e70, 1e100])
    m = _assert_verdict_is_the_law(1.0, d_grid, n_grid)
    assert m.separable[2:, 2:].all() and not m.separable[:2].any()


@pytest.mark.parametrize("shape", [(1, 1), (1, 50), (50, 1), (33, 1000),
                                   (1025, 32), (3, 40_000)])
@pytest.mark.parametrize("r", [0.0, 0.7, 1.5])
def test_verdict_on_block_edge_shapes(shape, r):
    # one node, one row, one column, a partial last block (33 rows of 1000
    # and 1025 rows of 32 leave one row over) and rows wider than a block
    rows, cols = shape
    d_grid = np.linspace(0.0, 4.5, rows) if rows > 1 else np.array([2.0])
    n_grid = np.linspace(0.0, 2.0, cols) if cols > 1 else np.array([0.75])
    _assert_verdict_is_the_law(r, d_grid, n_grid)


def test_verdict_bisects_instead_of_testing_every_cell(monkeypatch):
    # the mechanism: the law is evaluated about log2(n + 1) times per row,
    # not on each of the n cells
    import cvbell.analysis as analysis
    cells = []
    real = analysis._separable

    def spy(r, d, nbar):
        cells.append(np.broadcast(d, nbar).size)
        return real(r, d, nbar)
    monkeypatch.setattr(analysis, "_separable", spy)
    rows, n = 1000, 1000
    separability_map(1.5, np.linspace(0.0, 4.5, rows),
                     np.linspace(0.0, 2.0, n))
    assert 0 < sum(cells) <= rows * math.ceil(math.log2(n + 1))


# ----------------------------------------------------------------------
# the map against its broadcast form, bit for bit
# ----------------------------------------------------------------------

def _grid(top, size, geometric):
    if size == 1:
        return np.array([top])
    if geometric:
        return np.concatenate([[0.0], np.geomspace(top * 1e-12, top,
                                                   size - 1)])
    return np.linspace(0.0, top, size)


def _assert_map_is_the_broadcast_map(r, d_grid, n_grid):
    try:
        m = separability_map(r, d_grid, n_grid)
    except ValueError:  # a variance leaves the float range
        with pytest.raises(ValueError):
            separability_map_broadcast(r, d_grid, n_grid)
        return
    margin, separable, boundary = separability_map_broadcast(
        r, d_grid, n_grid)
    assert m.margin.tobytes() == margin.tobytes()
    assert np.array_equal(m.separable, separable)
    assert np.array_equal(m.boundary_nbar, boundary, equal_nan=True)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.one_of(st.just(0.0), st.floats(1e-300, 1e-15),
                 st.floats(0.0, 354.0)),
       st.integers(1, 70), st.integers(1, 1100),
       st.floats(1e-20, 1e3), st.floats(1e-12, 1e3),
       st.booleans(), st.booleans())
@example(2e-17, 1, 1, 1.0, 1.0, False, False)
@example(354.0, 33, 1000, 5.0, 2.0, False, False)
def test_map_is_its_broadcast_form_bit_for_bit(r, rows, cols, d_top, n_top,
                                               d_geom, n_geom):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_map_is_the_broadcast_map(r, _grid(d_top, rows, d_geom),
                                         _grid(n_top, cols, n_geom))


@pytest.mark.parametrize("r", [0.0, 1e-18, 2e-17, 1e-10, 1.5])
def test_mixed_map_is_its_broadcast_form_bit_for_bit(r):
    _assert_map_is_the_broadcast_map(r, MIXED_D, MIXED_N)
