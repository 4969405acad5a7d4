"""Every subcommand over its whole declared domain, in process.

Arguments are drawn log-uniformly: r from 1e-300 to 356 (past the
~355 where e^{2r} overflows), d, nbar, J and the rates from 1e-300 to
1e308, each also exactly 0, and p uniformly in [0, 1].  Each draw must
either exit 0 with every number finite, or exit 3 with one
``cvbell: error:`` line and nothing on stdout.  The only NaN cells are
the documented ones: ``steady`` where no limit exists, and ``p_star``
where no weight on the budget grid violates.  No draw may raise a
warning, and a traceback fails the test.  A failed cross-check is an
internal defect, never the answer to a legal input, so it is let
through the CLI's handler here and fails the test too.
"""

import contextlib
import io
import math
import random
import warnings
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvbell import cli


def log_uniform(lo_exp: float, hi_exp: float):
    """0, or 10^u for u uniform in [lo_exp, hi_exp]."""
    return st.one_of(st.just(0.0),
                     st.floats(lo_exp, hi_exp).map(lambda u: 10.0 ** u))


squeezing = log_uniform(-300.0, math.log10(356.0))
magnitude = log_uniform(-300.0, 308.0)
weight = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


def _flags(**values) -> list:
    return [x for name, v in values.items()
            for x in (f"--{name.replace('_', '-')}", repr(v))]


@st.composite
def bounds(draw, name, values):
    lo, hi = sorted((draw(values), draw(values)))
    return [f"--{name}-bounds", repr(lo), repr(hi)]


@st.composite
def commands(draw):
    """One command line of a drawn subcommand and mode."""
    kind = draw(st.sampled_from([
        "coeffs", "coeffs-scan", "figure", "maximize-J", "maximize",
        "bell", "separability", "steady", "werner", "phase-diffused"]))
    if kind == "coeffs":
        return ["coeffs"] + _flags(r=draw(squeezing), d=draw(magnitude),
                                   nbar=draw(magnitude))
    if kind == "coeffs-scan":
        return (["coeffs"]
                + _flags(kappa=draw(magnitude), gamma=draw(magnitude),
                         nbar=draw(magnitude), t_max=draw(magnitude))
                + ["--t-count", str(draw(st.integers(2, 4)))])
    if kind == "figure":
        return ["figure", str(draw(st.integers(1, 5)))]
    if kind == "maximize-J":
        argv = ["maximize", "--free", "J"] + _flags(
            r=draw(squeezing), d=draw(magnitude), nbar=draw(magnitude))
        if draw(st.booleans()):
            argv += draw(bounds("j", magnitude))
        return argv
    if kind == "maximize":
        free = draw(st.lists(st.sampled_from(["J", "r", "d", "nbar"]),
                             min_size=2, max_size=4, unique=True))
        values = {"J": magnitude, "r": squeezing, "d": magnitude,
                  "nbar": magnitude}
        argv = ["maximize", "--free", ",".join(free)]
        for name, values_of in values.items():
            if name not in free:
                argv += _flags(**{name: draw(values_of)})
            elif draw(st.booleans()):
                argv += draw(bounds(name.lower(), values_of))
        return argv
    if kind in ("bell", "separability"):
        argv = [kind] + _flags(r=draw(squeezing), d=draw(magnitude),
                               nbar=draw(magnitude))
        return argv + _flags(J=draw(magnitude)) if kind == "bell" else argv
    if kind == "steady":
        return ["steady"] + _flags(gamma=draw(magnitude),
                                   kappa=draw(magnitude),
                                   nbar=draw(magnitude))
    modes = ["bell", "threshold", "finite-dim" if kind == "werner"
             else "slope"]
    mode = draw(st.sampled_from(modes))
    if mode == "finite-dim":
        return [kind, "--r", "0", "--finite-dim",
                str(draw(st.integers(0, 10 ** 6)))]
    argv = [kind] + _flags(r=draw(squeezing))
    if mode == "threshold":
        return argv + ["--threshold"]
    argv += _flags(p=draw(weight))
    return argv + (["--slope"] if mode == "slope"
                   else _flags(J=draw(magnitude)))


class _NeverRaised(Exception):
    """Stands in for CrossCheckError in the CLI's handler."""


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), \
            mock.patch.object(cli, "CrossCheckError", _NeverRaised), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def rows(text: str) -> list:
    """The data rows of a CSV report as dicts of column -> cell."""
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def nan_allowed(argv, row, column) -> bool:
    if argv[0] == "steady":
        return row["exists"] == "false" and column in (
            "c1", "c2", "h", "N", "M")
    # no weight on the budget grid violates: the threshold has no value
    return column == "p_star" and row["violated_at_p1"] == "false"


def check(argv):
    code, out, err = run(argv)
    if code == 3:
        assert out == ""
        assert err.startswith("cvbell: error: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        return
    assert (code, err) == (0, ""), argv
    for row in rows(out):
        for column, cell in row.items():
            if cell in ("true", "false") or column == "classification":
                continue
            value = float(cell)
            assert math.isfinite(value) or (
                math.isnan(value) and nan_allowed(argv, row, column)), (
                argv, column, cell)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(commands())
# d nbar overflows, the variances do not: a false cross-check failure
@example(["separability", "--r", "1e-200", "--d", "1e242", "--nbar", "1e88"])
@example(["bell", "--J", "1", "--r", "0", "--d", "1e200", "--nbar", "1e120"])
def test_every_command_exits_0_with_finite_numbers_or_3_with_one_line(argv):
    check(argv)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 3: the 200-node budget grid misses the minimiser of R "
    "below r ~ 1.4e-4 and above r ~ 4, and prints p_star = nan although "
    "every r > 0 violates"))
@pytest.mark.parametrize("kind", ["werner", "phase-diffused"])
def test_threshold_of_every_positive_squeezing_is_a_weight(kind):
    # the same log-uniform r as the fuzz, without 0; seeded draws rather
    # than hypothesis, whose report on the expected failure would warn
    rng = random.Random(26)
    missed = []
    for _ in range(40):
        r = 10.0 ** rng.uniform(-300.0, math.log10(354.0))
        code, out, err = run([kind, "--r", repr(r), "--threshold"])
        (row,) = rows(out)
        if not math.isfinite(float(row["p_star"])):
            missed.append(r)
    assert not missed
