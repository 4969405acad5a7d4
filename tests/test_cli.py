"""End-to-end tests of the command line interface."""

import io
import json
import math
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest

from cvbell import NormalModes, SqueezedStateParams
from cvbell.cli import main
from cvbell.reports import FLOAT_FORMAT
from oracles import SLOPE_REL


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def data_lines(text):
    return [l for l in text.splitlines() if l and not l.startswith("#")]


def test_coeffs_single_point():
    code, out, _ = run_cli("coeffs", "--r", "1.5", "--d", "0", "--nbar", "0")
    assert code == 0
    header, row = data_lines(out)
    cols = header.split(",")
    vals = dict(zip(cols, row.split(",")))
    assert float(vals["c1"]) == pytest.approx(4.0 * 10.067661995777765,
                                              rel=1e-12)  # 4 cosh 3
    assert float(vals["h"]) == 1.0
    assert vals["pure"] == "true"


def test_coeffs_vacuum():
    code, out, _ = run_cli("coeffs", "--r", "0", "--d", "0", "--nbar", "0")
    assert code == 0
    row = data_lines(out)[1].split(",")
    header = data_lines(out)[0].split(",")
    vals = dict(zip(header, row))
    assert (float(vals["c1"]), float(vals["c2"]), float(vals["h"])) == (
        4.0, 0.0, 1.0)


def test_coeffs_rate_scan():
    code, out, _ = run_cli("coeffs", "--kappa", "0.75", "--gamma", "1.0",
                           "--t-max", "2.0", "--t-count", "5")
    assert code == 0
    lines = data_lines(out)
    assert lines[0].split(",")[0] == "t"
    assert len(lines) == 6


@pytest.mark.parametrize("index,min_rows", [("1", 400), ("2", 2000),
                                            ("3", 140), ("4", 199),
                                            ("5", 199)])
def test_figures_emit_data(index, min_rows):
    code, out, _ = run_cli("figure", index)
    assert code == 0
    assert len(data_lines(out)) - 1 >= min_rows


def test_figure_three_shape():
    code, out, _ = run_cli("figure", "3")
    lines = data_lines(out)
    cols = lines[0].split(",")
    rows = [dict(zip(cols, l.split(","))) for l in lines[1:]]
    by_d = {float(r["d"]): float(r["B"]) for r in rows}
    assert by_d[0.0] > 2.0
    assert min(by_d.values()) < 2.0
    assert 1.95 < by_d[50.0] < 2.0


def test_figure_five_zero_weight_never_violates():
    code, out, _ = run_cli("figure", "5")
    lines = data_lines(out)
    cols = lines[0].split(",")
    idx = cols.index("B_p0.00")
    assert all(float(l.split(",")[idx]) <= 2.0 for l in lines[1:])


def test_bad_figure_index_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["figure", "9"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["werner", "--finite-dim", "2"])
    assert exc.value.code == 2


def test_domain_error_exits_3():
    code, out, err = run_cli("bell", "--J", "0.01", "--r", "-1")
    assert code == 3
    assert out == ""
    assert "nonnegative" in err


def test_steady_boundary_is_data_not_error():
    code, out, _ = run_cli("steady", "--gamma", "2", "--kappa", "1")
    assert code == 0
    row = data_lines(out)[1]
    assert row.startswith("false,boundary-undefined")


def test_steady_squeezed_thermal():
    code, out, _ = run_cli("steady", "--gamma", "3", "--kappa", "1",
                           "--nbar", "0.5")
    header, row = (l.split(",") for l in data_lines(out))
    vals = dict(zip(header, row))
    assert vals["classification"] == "squeezed-thermal"
    assert float(vals["N"]) == pytest.approx(1.3, rel=1e-12)
    assert float(vals["M"]) == pytest.approx(-1.2, rel=1e-12)


def test_maximize_subcommand():
    code, out, _ = run_cli("maximize", "--free", "J", "--r", "1.5",
                           "--d", "0", "--nbar", "0")
    header, row = (l.split(",") for l in data_lines(out))
    vals = dict(zip(header, row))
    assert float(vals["B_max"]) == pytest.approx(2.1896428837, abs=1e-6)


@pytest.mark.parametrize("name, argv", [
    ("r", ["--free", "r", "--J", "0.01", "--d", "0", "--nbar", "0",
           "--r-bounds", "0", "inf"]),
    ("r", ["--free", "r", "--J", "0.01", "--d", "0", "--nbar", "0",
           "--r-bounds", "0", "nan"]),
    ("d", ["--free", "d", "--J", "0.01", "--r", "1", "--nbar", "0",
           "--d-bounds", "inf", "inf"]),
    ("nbar", ["--free", "nbar", "--J", "0.01", "--r", "1", "--d", "1",
              "--nbar-bounds", "nan", "1"]),
    ("J", ["--free", "J,r", "--d", "0", "--nbar", "0",
           "--j-bounds", "1e-4", "nan"]),
])
def test_maximize_rejects_a_bound_that_is_not_finite(name, argv):
    # regression: --r-bounds 0 inf warned "invalid value encountered in
    # multiply" and blamed an overflow of the coefficients; 0 nan read
    # "empty bounds"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli("maximize", *argv)
    assert (code, out) == (3, "")
    assert err.startswith(f"cvbell: error: {name} bounds must be finite")
    assert err.count("\n") == 1


def test_separability_subcommand():
    code, out, _ = run_cli("separability", "--r", "1", "--d", "2",
                           "--nbar", "1")
    header, row = (l.split(",") for l in data_lines(out))
    vals = dict(zip(header, row))
    assert vals["separable"] == "true"
    assert float(vals["margin"]) >= 0.0


def test_werner_threshold_and_finite_dim():
    code, out, _ = run_cli("werner", "--threshold", "--r", "1.5")
    row = data_lines(out)[1].split(",")
    assert 0.87 <= float(row[1]) <= 0.93
    code, out, _ = run_cli("werner", "--r", "1.5", "--finite-dim", "2")
    assert data_lines(out)[1] == "2,0.33333333333333331"


def test_phase_diffused_slope_row():
    code, out, _ = run_cli("phase-diffused", "--slope", "--p", "0.5",
                           "--r", "1.5")
    header, row = (l.split(",") for l in data_lines(out))
    vals = dict(zip(header, row))
    assert float(vals["slope"]) == pytest.approx(20.0357, rel=1e-4)
    assert vals["anchored"] == "true"


def test_csv_round_trip_is_lossless():
    # every float cell, metadata included, reads back through float() to
    # the float that %.17g printed, and the data row holds the core's
    # values bit for bit
    _, out, _ = run_cli("coeffs", "--r", "1.5", "--d", "1", "--nbar", "0")
    cells = [line.partition("=")[2] for line in out.splitlines()
             if line.startswith("# ")]
    header, row = (line.split(",") for line in data_lines(out))
    floats = []
    for cell in cells + row:
        try:
            floats.append((cell, float(cell)))
        except ValueError:  # booleans and names
            pass
    assert len(floats) > len(row)
    for cell, value in floats:
        assert FLOAT_FORMAT % value == cell
    modes = NormalModes.of(SqueezedStateParams(1.5, 1.0, 0.0))
    vals = dict(zip(header, row))
    for name in ("c1", "c2", "h", "N", "M", "margin"):
        assert float(vals[name]) == getattr(modes, name)


def test_json_structure():
    _, out, _ = run_cli("coeffs", "--r", "1.5", "--d", "1", "--nbar", "0",
                        "--format", "json")
    obj = json.loads(out)
    assert sorted(obj) == ["columns", "meta", "rows"]
    assert obj["meta"]["subcommand"] == "coeffs"
    assert any(k.startswith("tol_") for k in obj["meta"])
    assert not any("time" in k or "date" in k for k in obj["meta"])
    assert len(obj["rows"][0]) == len(obj["columns"])


def test_output_is_deterministic():
    first = run_cli("figure", "2")[1]
    second = run_cli("figure", "2")[1]
    assert first == second


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "report.csv"
    code, out, _ = run_cli("separability", "--r", "1", "--d", "2",
                           "--nbar", "1", "--out", str(target))
    assert code == 0
    ref = run_cli("separability", "--r", "1", "--d", "2", "--nbar", "1")[1]
    assert target.read_text() == ref


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cvbell.cli", "coeffs", "--r", "0", "--d", "0",
         "--nbar", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "4,0,1" in proc.stdout.replace("\r", "")


def test_slope_row_is_the_analytic_slope():
    # both mixture components are flat at J = 0, so the slope is exactly
    # 4 p sinh 2r (20.0357498548... at r = 1.5, p = 0.5)
    for p, r in ((0.5, 1.5), (0.3, 0.3), (1.0, 8.0)):
        code, out, _ = run_cli("phase-diffused", "--slope", "--p", str(p),
                               "--r", str(r))
        header, row = (l.split(",") for l in data_lines(out))
        vals = dict(zip(header, row))
        assert float(vals["slope"]) == 4.0 * p * math.sinh(2.0 * r)
        assert float(vals["B0"]) == 2.0
        assert vals["anchored"] == "true"


def test_maximize_j_alone_is_the_closed_form():
    code, out, _ = run_cli("maximize", "--free", "J", "--r", "1.5",
                           "--d", "0", "--nbar", "0")
    assert code == 0
    header, row = (l.split(",") for l in data_lines(out))
    vals = dict(zip(header, row))
    # ln(2 s2/(s1 + s2)) / (3/s1 - 1/s2) with s1 = e^-3, s2 = e^3
    assert float(vals["J"]) == pytest.approx(
        math.log(2.0 / (1.0 + math.exp(-6.0))) / (3.0 * math.exp(3.0)
                                                  - math.exp(-3.0)), rel=1e-15)
    assert float(vals["B_max"]) == pytest.approx(2.189642883758868, rel=1e-15)


def test_phase_diffused_slope_row_at_large_squeezing():
    # the probe shrinks like 1 / cosh 2r; a fixed 1e-6 probe printed
    # -1.578e6 here instead of 4 p sinh 2r = +8.886e6
    code, out, _ = run_cli("phase-diffused", "--slope", "--p", "0.5",
                           "--r", "8")
    header, row = (l.split(",") for l in data_lines(out))
    vals = dict(zip(header, row))
    assert float(vals["slope"]) == pytest.approx(2.0 * math.sinh(16.0),
                                                 rel=SLOPE_REL)
