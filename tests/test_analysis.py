"""Unit tests for purity and separability classification."""

import math
import warnings

import numpy as np
import pytest

from cvbell import (
    TOLERANCES,
    CrossCheckError,
    GaussianForm,
    SqueezedStateParams,
    evolve_coefficients,
    is_pure,
    one_minus_exp_over,
    separability_closed_pair,
    separability_eigenvalues,
    separability_map,
)

# frozen margin of the strongly nonseparable reference point
MARGIN_R15_D5 = -0.18743710075726833


def test_pure_on_no_diffusion_slice():
    for r in (0.0, 0.7, 1.5, 2.4):
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
        assert rep.separable == (rep.margin >= TOLERANCES.boundary_margin)


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
    with pytest.raises(ValueError):
        is_pure(GaussianForm(c1=4.0, c2=0.0, h=0.0))


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
