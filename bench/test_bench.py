"""Tests of the benchmark's own reference and checks.

    python3 -m pytest bench/test_bench.py

They show that the reference agrees with the program where the program
is right (r <= 3), and that the checks reject outputs that are wrong by
a flipped verdict, a 1e-9 relative change in B, or a dropped row.
"""

import contextlib
import io
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import cvbell  # noqa: E402
from cvbell.cli import main  # noqa: E402

import outputs  # noqa: E402
import reference as ref  # noqa: E402
import workloads as W  # noqa: E402
from reference import Mismatch  # noqa: E402


def cli_text(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main([str(a) for a in argv]) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def figures():
    return W.figures_op(cvbell.cli)


def test_reference_matches_program_states():
    rng = np.random.default_rng(0)
    for _ in range(300):
        r, d, nbar = rng.uniform(0, 3), rng.uniform(0, 6), rng.uniform(0, 3)
        form = cvbell.evolve_coefficients(cvbell.SqueezedStateParams(r, d, nbar))
        st = ref.state(r, d, nbar)
        for key in ("c1", "c2", "h"):
            ref.close(key, getattr(form, key), st[key], st["scale"])
        J = 10 ** rng.uniform(-4, 0)
        ref.close("B", cvbell.bell_closed_form(form, J),
                  ref.bell(J, st["s1"], st["s2"]), 3.0 / st["h"])
        ref.close("closed pair", cvbell.separability_closed_pair(
            cvbell.SqueezedStateParams(r, d, nbar)),
            [st["e_large"], st["e_small"]], st["scale"])


@pytest.mark.parametrize("kind", ["werner-thermal", "phase-diffused"])
def test_reference_matches_program_mixtures(kind):
    rng = np.random.default_rng(1)
    J = np.geomspace(1e-4, 1.0, 50)
    for _ in range(20):
        p, r = rng.uniform(0, 1), rng.uniform(0, 3)
        got = cvbell.mixture_bell_curve(cvbell.MixtureSpec(p, r, kind), J)
        ref.close(kind, got, ref.mixture_bell(J, p, r, kind),
                  ref.mixture_scale(J, p, r, kind))


def test_reference_steady_state_limit():
    report = cvbell.steady_state(3.0, 1.0, 0.5)
    s1, s2 = ref.steady_variances(3.0, 1.0, 0.5)
    ref.close("c1", report.limit_form.c1, 2 * (s1 + s2), 1 + s1 + s2)
    ref.close("h", report.limit_form.h, s1 * s2, 1 + s1 + s2)


def test_supremum_bounds_every_pure_state():
    assert ref.BELL_SUPREMUM == pytest.approx(2.19055, abs=1e-5)
    for r in (0.5, 1.5, 3.0, 6.0):
        assert 2.0 < ref.max_bell_over_j(r, 0.0, 0.0, lo=1e-9) < ref.BELL_SUPREMUM


def test_every_drawn_command_passes_its_check():
    rng = np.random.default_rng(2)
    for kind in W.ROUND_KINDS:
        kind, params = W.draw_command(kind, rng)
        for fmt in ("csv", "json"):
            text = cli_text(*W.argv_of(kind, params, fmt))
            outputs.check_command(kind, params, text, fmt)


def test_figures_pass_their_checks(figures):
    W.check_figures(figures)


def test_flipped_verdict_is_rejected(figures):
    lines = figures[0].splitlines()
    # nbar = 10 at d = 5 is far on the separable side
    i = max(k for k, l in enumerate(lines) if l.endswith(",true"))
    lines[i] = lines[i][: -len("true")] + "false"
    with pytest.raises(Mismatch, match="verdict"):
        outputs.check_figure(1, "\n".join(lines) + "\n")


@pytest.mark.parametrize("index,column", [(2, -1), (3, -1), (4, 1), (5, 2)])
def test_bell_value_off_by_1e9_is_rejected(figures, index, column):
    lines = figures[index - 1].splitlines()
    cells = lines[-5].split(",")
    cells[column] = repr(float(cells[column]) * (1 + 1e-9))
    lines[-5] = ",".join(cells)
    with pytest.raises(Mismatch):
        outputs.check_figure(index, "\n".join(lines) + "\n")


@pytest.mark.parametrize("index", [1, 2, 3, 4, 5])
def test_dropped_row_is_rejected(figures, index):
    lines = figures[index - 1].splitlines()
    del lines[-7]
    with pytest.raises(Mismatch, match="row count"):
        outputs.check_figure(index, "\n".join(lines) + "\n")


def test_bell_command_off_by_1e9_is_rejected():
    params = {"J": 0.01, "r": 1.5, "d": 0.3, "nbar": 0.2}
    text = cli_text(*W.argv_of("bell", params, "csv"))
    header, row = text.splitlines()[-2:]
    cells = row.split(",")
    cells[4] = repr(float(cells[4]) * (1 + 1e-9))
    with pytest.raises(Mismatch):
        outputs.check_command("bell", params, text.replace(row, ",".join(cells)),
                              "csv")


@pytest.mark.parametrize("kind,params", W.FAULTS)
def test_fault_commands_would_pass_once_mended(kind, params):
    # a report with the right values, as a mended program would print it
    st = ref.state(params["r"], params["d"], params["nbar"])
    f = lambda x: repr(float(x))
    if kind == "coeffs":
        header = "r,d,nbar,c1,c2,h,N,M,pure,margin"
        row = [f(params[k]) for k in ("r", "d", "nbar")] + [
            f(st[k]) for k in ("c1", "c2", "h", "N", "M")] + [
            "true" if params["d"] == 0 else "false", f(st["margin"])]
    else:
        header = "r,d,nbar,e1,e2,e3,e4,margin,separable"
        row = [f(params[k]) for k in ("r", "d", "nbar")] + [
            f(st["e_small"])] * 2 + [f(st["e_large"])] * 2 + [
            f(st["margin"]), "false"]
    outputs.check_command(kind, params, f"{header}\n{','.join(row)}\n", "csv")


@pytest.fixture(scope="module")
def scans():
    inp = W.scan_inputs(np.random.default_rng(3))
    return W.scans_op(cvbell, inp), inp


def test_scans_pass_their_checks(scans):
    W.check_scans(*scans)


@pytest.mark.parametrize("key,change", [
    ("surface", lambda a: a.__setitem__((500, 500), a[500, 500] * (1 + 1e-9))),
    ("separable", lambda a: a.__setitem__((-1, -1), not a[-1, -1])),
    ("boundary", lambda a: a.__setitem__(-1, np.nan)),
])
def test_scans_reject_a_changed_result(scans, key, change):
    res, inp = dict(scans[0]), scans[1]
    res[key] = res[key].copy()
    change(res[key])
    with pytest.raises(Mismatch):
        W.check_scans(res, inp)


def test_threshold_check_rejects_a_shifted_threshold():
    report = cvbell.werner_violation_threshold(1.5)
    ref.check_threshold("", 1.5, "werner-thermal", report.p_star, True,
                        report.best_b_at_unit_weight)
    with pytest.raises(Mismatch, match="bracket"):
        ref.check_threshold("", 1.5, "werner-thermal", report.p_star + 3e-4,
                            True, report.best_b_at_unit_weight)


def test_missing_layer_function_is_absent_not_an_error():
    import layers
    fns, missing = layers._resolve(["cvbell.numerics.one_minus_exp_over",
                                    "cvbell.numerics.no_such_function"])
    assert fns is None and missing == "cvbell.numerics.no_such_function"
    fns, missing = layers._resolve(["cvbell.no_such_module.f"])
    assert fns is None
    names = {p.name for p in layers.PROBES}
    assert len(names) == len(layers.PROBES)
