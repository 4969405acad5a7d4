"""Closed-form limits of the model as tested statements.

The steady state of the process at rates gamma > 2 kappa has the
variances s = (2 nbar + 1)/(1 +- q), q = 2 kappa/gamma.  At nbar = 0,
1/s1 + 1/s2 = 2 exactly, so with u = e^{-2J} its Bell value is a
function of one variable, and its optimum over J is

    B*_steady = (2 - g(q)) / (2 nbar + 1)^2,
    g(q) = 1 + q^2 - (1 - q)(1 + 2q)(1 + q)^{-1/(1 + 2q)};

the factor (2 nbar + 1)^{-2} holds because every variance scales by
2 nbar + 1, which J absorbs.  Since g(q) >= q^2 on (0, 1), checked here
on a dense grid at 40 digits (a proof is still open),
B*_steady <= 2 - q^2: the steady state never violates.
"""

import mpmath
import pytest

from cvbell.modes import steady_limit

EPS = 2.0 ** -52


def g(q):
    """g(q) at the working precision of mpmath."""
    q = mpmath.mpf(q)
    return 1 + q ** 2 - (1 - q) * (1 + 2 * q) * (1 + q) ** (-1 / (1 + 2 * q))


@pytest.mark.parametrize("nbar", [0.0, 0.7])
@pytest.mark.parametrize("q", [0.001, 0.1, 0.5, 0.9])
def test_steady_state_bell_optimum_is_the_closed_form(q, nbar):
    # kappa = q/2 at gamma = 1 gives back q = 2 kappa/gamma exactly
    B = steady_limit(1.0, q / 2.0, nbar)[1].bell_optimum(0.0, 1e9)[1]
    with mpmath.workdps(40):
        want = (2 - g(q)) / (2 * mpmath.mpf(nbar) + 1) ** 2
        assert abs(B - want) <= 4 * EPS * want
    assert B < 2.0


def test_steady_state_never_violates():
    # g(q) >= q^2, so B*_steady <= 2 - q^2 < 2.  Near q = 0 both sides
    # are ~q^2 and differ by ~3 q^3, which floats cannot resolve; at 40
    # digits the cancellation in g leaves it resolved down to q ~ 1e-13
    with mpmath.workdps(40):
        grid = [mpmath.mpf(k) / 10001 for k in range(1, 10001)]
        grid += [mpmath.mpf(10) ** -k for k in (5, 10)]
        grid += [1 - mpmath.mpf(10) ** -k for k in range(5, 31, 5)]
        for q in grid:
            assert g(q) >= q ** 2, q
