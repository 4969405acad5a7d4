"""Command-line front end.

Every analysis is a subcommand that emits a tabular report (CSV by
default, JSON with ``--format json``).  Reports carry the full
parameter and tolerance set in their metadata and contain no
timestamps, so identical invocations produce byte-identical output.

Exit codes: 0 success, 2 usage errors (bad flags, bad figure index),
3 domain errors (invalid parameter values, failed internal
cross-checks).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .curves import (
    _geomspace,
    _linspace,
    component_bell_values,
    mixed_values,
    pure_bell_values,
    violation_threshold,
)
from .errors import CrossCheckError
from .modes import (
    MixtureSpec,
    NormalModes,
    SqueezedStateParams,
    finite_dim_werner_threshold,
    maximize_over_j,
    mixture_slope,
    phase_diffused_bell,
    steady_limit,
    werner_bell,
)
from .reports import ReportRecord, render
from .tolerances import TOLERANCES

__all__ = ["main", "build_parser"]

EPILOG = """\
exit codes:
  0  success
  2  usage error (unknown or malformed flags, bad figure index)
  3  domain error (invalid parameter values, internal cross-check failure)
"""

FIGURE_SQUEEZING = 1.5  # squeezing used by every figure reproduction


def _meta(subcommand: str, **params) -> dict:
    meta = {"tool": "cvbell", "subcommand": subcommand}
    meta.update(params)
    meta.update({f"tol_{k}": v for k, v in TOLERANCES.as_dict().items()})
    return meta


def _state_columns(params: SqueezedStateParams) -> tuple:
    """c1, c2, h, N, M, pure, margin of one state."""
    modes = NormalModes.of(params)
    return (modes.c1, modes.c2, modes.h, modes.N, modes.M, modes.pure,
            modes.margin)


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------
#
# Every handler runs on the numpy-free :mod:`cvbell.modes` and
# :mod:`cvbell.curves`: the single-point values, the figures' grids, the
# thresholds and the mixtures' Bell values.  Only ``maximize`` with a
# state parameter free imports the numpy modules, when it runs.

def cmd_coeffs(args) -> ReportRecord:
    scan = args.t_max is not None
    if scan:
        if args.kappa is None or args.gamma is None:
            args.parser.error("time scan needs --kappa and --gamma")
        if args.t_count < 2:
            raise ValueError("time scan needs at least 2 samples")
        rows = []
        for t in _linspace(0.0, args.t_max, args.t_count):
            params = SqueezedStateParams.from_rates(args.kappa, args.gamma,
                                                    t, args.nbar)
            rows.append((t, params.r, params.d) + _state_columns(params))
        meta = _meta("coeffs", kappa=args.kappa, gamma=args.gamma,
                     nbar=args.nbar, t_max=args.t_max, t_count=args.t_count)
        return ReportRecord(meta=meta,
                            columns=("t", "r", "d", "c1", "c2", "h",
                                     "N", "M", "pure", "margin"),
                            rows=rows)
    if args.r is None or args.d is None:
        args.parser.error("need --r and --d (or a --t-max time scan)")
    params = SqueezedStateParams(r=args.r, d=args.d, nbar=args.nbar)
    return ReportRecord(
        meta=_meta("coeffs", r=args.r, d=args.d, nbar=args.nbar),
        columns=("r", "d", "nbar", "c1", "c2", "h",
                 "N", "M", "pure", "margin"),
        rows=[(params.r, params.d, params.nbar) + _state_columns(params)])


def _figure_separability() -> ReportRecord:
    r = FIGURE_SQUEEZING
    rows = []
    for d in (2.5, 5.0):
        for nbar in _linspace(0.0, 10.0, 201):
            modes = NormalModes.of(SqueezedStateParams(r=r, d=d, nbar=nbar))
            rows.append((d, nbar, modes.N, modes.M) + modes.pair
                        + (modes.margin, modes.separable))
    meta = _meta("figure", index=1, r=r, nbar_max=10.0, nbar_count=201)
    return ReportRecord(meta=meta,
                        columns=("d", "nbar", "N", "M", "e_small", "e_large",
                                 "margin", "separable"),
                        rows=rows)


def _column_modes(d_grid) -> list:
    """The normal modes of each d column of a figure at r = 1.5, nbar = 0."""
    return [NormalModes.of(SqueezedStateParams(r=FIGURE_SQUEEZING, d=d))
            for d in d_grid]


def _figure_bell_surface() -> ReportRecord:
    j_grid = [0.0] + _geomspace(1e-4, 1.0, 49)
    d_grid = _linspace(0.0, 2.0, 41)
    columns = [[modes.bell(j)[0] for j in j_grid]
               for modes in _column_modes(d_grid)]
    rows = [(j, d, column[i]) for i, j in enumerate(j_grid)
            for d, column in zip(d_grid, columns)]
    meta = _meta("figure", index=2, r=FIGURE_SQUEEZING, nbar=0.0)
    return ReportRecord(meta=meta, columns=("J", "d", "B"), rows=rows)


def _figure_bell_vs_diffusion() -> ReportRecord:
    # dense where the violation dies, coarse along the long tail to 50
    d_grid = (_linspace(0.0, 0.5, 51) + _linspace(0.6, 5.0, 45)
              + _linspace(6.0, 50.0, 45))
    j = 0.01
    rows = [(d, modes.bell(j)[0])
            for d, modes in zip(d_grid, _column_modes(d_grid))]
    meta = _meta("figure", index=3, r=FIGURE_SQUEEZING, nbar=0.0, J=j)
    return ReportRecord(meta=meta, columns=("d", "B"), rows=rows)


def _figure_mixture_curves(index: int, kind: str, weights) -> ReportRecord:
    j_grid = _geomspace(1e-4, 1.0, 200)
    pure = pure_bell_values(j_grid, FIGURE_SQUEEZING)
    reference = component_bell_values(j_grid, FIGURE_SQUEEZING, kind)
    curves = [mixed_values(p, pure, reference) for p in weights]
    rows = [(j,) + tuple(c[i] for c in curves) for i, j in enumerate(j_grid)]
    meta = _meta("figure", index=index, kind=kind, r=FIGURE_SQUEEZING,
                 weights=",".join(f"{p:g}" for p in weights))
    columns = ("J",) + tuple(f"B_p{p:.2f}" for p in weights)
    return ReportRecord(meta=meta, columns=columns, rows=rows)


def cmd_figure(args) -> ReportRecord:
    if args.index == 1:
        return _figure_separability()
    if args.index == 2:
        return _figure_bell_surface()
    if args.index == 3:
        return _figure_bell_vs_diffusion()
    if args.index == 4:
        return _figure_mixture_curves(4, "werner-thermal",
                                      (1.0, 0.95, 0.9, 0.5, 0.0))
    return _figure_mixture_curves(5, "phase-diffused", (1.0, 0.5, 0.2, 0.0))


def cmd_maximize(args) -> ReportRecord:
    free = tuple(name.strip() for name in args.free.split(",") if name.strip())
    supplied = {"J": args.J, "r": args.r, "d": args.d, "nbar": args.nbar}
    fixed = {k: v for k, v in supplied.items() if k not in free and v is not None}
    bounds = {}
    for name, pair in (("J", args.j_bounds), ("r", args.r_bounds),
                       ("d", args.d_bounds), ("nbar", args.nbar_bounds)):
        if pair is not None:
            bounds[name] = (pair[0], pair[1])
    if free == ("J",):
        result = maximize_over_j(fixed, bounds or None)
    else:
        from .bell import maximize_bell

        result = maximize_bell(free, fixed, bounds or None)
    meta = _meta("maximize", free=",".join(result.free),
                 **{f"fixed_{k}": v for k, v in fixed.items()})
    p = result.params
    return ReportRecord(meta=meta,
                        columns=("J", "r", "d", "nbar", "B_max"),
                        rows=[(p["J"], p["r"], p["d"], p["nbar"],
                               result.b_max)])


def cmd_bell(args) -> ReportRecord:
    params = SqueezedStateParams(r=args.r, d=args.d, nbar=args.nbar)
    B, correlations = NormalModes.of(params).bell(args.J)
    meta = _meta("bell", J=args.J, r=args.r, d=args.d, nbar=args.nbar)
    return ReportRecord(meta=meta,
                        columns=("J", "r", "d", "nbar", "B",
                                 "pi1", "pi2", "pi3", "pi4"),
                        rows=[(args.J, args.r, args.d, args.nbar, B)
                              + correlations])


def cmd_separability(args) -> ReportRecord:
    params = SqueezedStateParams(r=args.r, d=args.d, nbar=args.nbar)
    modes = NormalModes.of(params)
    e_small, e_large = modes.pair
    meta = _meta("separability", r=args.r, d=args.d, nbar=args.nbar)
    return ReportRecord(meta=meta,
                        columns=("r", "d", "nbar", "e1", "e2", "e3", "e4",
                                 "margin", "separable"),
                        rows=[(args.r, args.d, args.nbar, e_small, e_small,
                               e_large, e_large, modes.margin,
                               modes.separable)])


def cmd_steady(args) -> ReportRecord:
    kind, modes = steady_limit(args.gamma, args.kappa, args.nbar)
    if modes is not None:
        row = (True, kind, modes.c1, modes.c2, modes.h, modes.N, modes.M)
    else:
        nan = float("nan")
        row = (False, kind, nan, nan, nan, nan, nan)
    meta = _meta("steady", gamma=args.gamma, kappa=args.kappa, nbar=args.nbar)
    return ReportRecord(meta=meta,
                        columns=("exists", "classification", "c1", "c2", "h",
                                 "N", "M"),
                        rows=[row])


def _mixture_record(args, kind: str) -> ReportRecord:
    name = kind.replace("-", "_")
    if getattr(args, "finite_dim", None) is not None:
        dim = args.finite_dim
        meta = _meta(kind, mode="finite-dim", dim=dim)
        return ReportRecord(meta=meta, columns=("dim", "p_threshold"),
                            rows=[(dim, finite_dim_werner_threshold(dim))])
    if args.threshold:
        report = violation_threshold(args.r, kind=kind)
        p_star = float("nan") if report.p_star is None else report.p_star
        meta = _meta(kind, mode="threshold", r=args.r)
        return ReportRecord(
            meta=meta,
            columns=("r", "p_star", "violated_at_p1", "best_B_at_p1"),
            rows=[(args.r, p_star, report.violated_at_unit_weight,
                   report.best_b_at_unit_weight)])
    if args.p is None:
        args.parser.error(f"{name}: need --p (or --threshold)")
    spec = MixtureSpec(p=args.p, r=args.r, kind=kind)
    if getattr(args, "slope", False):
        slope, b_zero = mixture_slope(spec)
        meta = _meta(kind, mode="slope", p=args.p, r=args.r)
        return ReportRecord(meta=meta,
                            columns=("p", "r", "slope", "anchored", "B0"),
                            rows=[(args.p, args.r, slope,
                                   abs(b_zero - 2.0) <= TOLERANCES.anchor_abs,
                                   b_zero)])
    if args.J is None:
        args.parser.error(f"{name}: need --J (or --threshold / --slope)")
    bell = werner_bell if kind == "werner-thermal" else phase_diffused_bell
    B, correlations = bell(spec, args.J)
    meta = _meta(kind, mode="bell", p=args.p, r=args.r, J=args.J)
    return ReportRecord(meta=meta,
                        columns=("p", "r", "J", "B",
                                 "pi1", "pi2", "pi3", "pi4"),
                        rows=[(args.p, args.r, args.J, B) + correlations])


def cmd_werner(args) -> ReportRecord:
    return _mixture_record(args, "werner-thermal")


def cmd_phase_diffused(args) -> ReportRecord:
    return _mixture_record(args, "phase-diffused")


# ----------------------------------------------------------------------
# parser assembly
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvbell",
        description="Wigner-function analysis of noisy two-mode squeezed "
                    "light: coefficients, separability, steady states and "
                    "phase-space Bell tests.",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default: csv)")
    common.add_argument("--out", metavar="PATH", default=None,
                        help="write the report to PATH instead of stdout")

    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("coeffs", parents=[common],
                       help="Wigner coefficients (c1, c2, h) with N, M, "
                            "purity and separability margin")
    p.add_argument("--r", type=float, default=None, help="squeezing r")
    p.add_argument("--d", type=float, default=None, help="diffusion d")
    p.add_argument("--nbar", type=float, default=0.0,
                   help="reservoir photon number (default 0)")
    p.add_argument("--kappa", type=float, default=None,
                   help="squeezing rate for a time scan")
    p.add_argument("--gamma", type=float, default=None,
                   help="loss rate for a time scan")
    p.add_argument("--t-max", dest="t_max", type=float, default=None,
                   help="scan times 0..t-max instead of a single point")
    p.add_argument("--t-count", dest="t_count", type=int, default=101,
                   help="number of scan samples (default 101)")
    p.set_defaults(handler=cmd_coeffs, parser=p)

    p = sub.add_parser("figure", parents=[common],
                       help="data behind the five summary figures")
    p.add_argument("index", type=int, choices=(1, 2, 3, 4, 5),
                   help="1 separability boundary, 2 B(J,d) surface, "
                        "3 B(d) profile, 4 Werner curves, "
                        "5 phase-diffused curves")
    p.set_defaults(handler=cmd_figure, parser=p)

    p = sub.add_parser("maximize", parents=[common],
                       help="maximize the Bell combination over chosen "
                            "parameters")
    p.add_argument("--free", required=True,
                   help="comma-separated subset of J,r,d,nbar to optimize")
    p.add_argument("--J", type=float, default=None, help="fixed J value")
    p.add_argument("--r", type=float, default=None, help="fixed r value")
    p.add_argument("--d", type=float, default=None, help="fixed d value")
    p.add_argument("--nbar", type=float, default=None, help="fixed nbar value")
    p.add_argument("--j-bounds", dest="j_bounds", type=float, nargs=2,
                   metavar=("LO", "HI"), default=None,
                   help="J search interval (default 1e-4 1)")
    p.add_argument("--r-bounds", dest="r_bounds", type=float, nargs=2,
                   metavar=("LO", "HI"), default=None,
                   help="r search interval (default 0 3)")
    p.add_argument("--d-bounds", dest="d_bounds", type=float, nargs=2,
                   metavar=("LO", "HI"), default=None,
                   help="d search interval (default 0 5)")
    p.add_argument("--nbar-bounds", dest="nbar_bounds", type=float, nargs=2,
                   metavar=("LO", "HI"), default=None,
                   help="nbar search interval (default 0 2)")
    p.set_defaults(handler=cmd_maximize, parser=p)

    p = sub.add_parser("bell", parents=[common],
                       help="four-point Bell combination of the model state")
    p.add_argument("--J", type=float, required=True,
                   help="displacement intensity")
    p.add_argument("--r", type=float, required=True, help="squeezing r")
    p.add_argument("--d", type=float, default=0.0, help="diffusion d")
    p.add_argument("--nbar", type=float, default=0.0,
                   help="reservoir photon number")
    p.set_defaults(handler=cmd_bell, parser=p)

    p = sub.add_parser("separability", parents=[common],
                       help="eigenvalue separability verdict for one state")
    p.add_argument("--r", type=float, required=True, help="squeezing r")
    p.add_argument("--d", type=float, required=True, help="diffusion d")
    p.add_argument("--nbar", type=float, default=0.0,
                   help="reservoir photon number")
    p.set_defaults(handler=cmd_separability, parser=p)

    p = sub.add_parser("steady", parents=[common],
                       help="steady-state existence and limit form")
    p.add_argument("--gamma", type=float, required=True, help="loss rate")
    p.add_argument("--kappa", type=float, required=True,
                   help="squeezing rate")
    p.add_argument("--nbar", type=float, default=0.0,
                   help="reservoir photon number")
    p.set_defaults(handler=cmd_steady, parser=p)

    for name, handler in (("werner", cmd_werner),
                          ("phase-diffused", cmd_phase_diffused)):
        p = sub.add_parser(
            name, parents=[common],
            help=f"Bell analysis of the {name} mixture family")
        p.add_argument("--r", type=float, required=True,
                       help="squeezing of the entangled component")
        p.add_argument("--p", type=float, default=None,
                       help="weight of the entangled component")
        p.add_argument("--J", type=float, default=None,
                       help="displacement intensity for a single Bell value")
        p.add_argument("--threshold", action="store_true",
                       help="smallest violating weight on the default "
                            "budget grid, to the lattice of width 2^-14 "
                            "(at most p_tol = 1e-4)")
        if name == "werner":
            p.add_argument("--finite-dim", dest="finite_dim", type=int,
                           default=None, metavar="DIM",
                           help="report the finite-dimensional threshold "
                                "1/(1+DIM) instead")
        else:
            p.add_argument("--slope", action="store_true",
                           help="report the small-J slope of B instead")
        p.set_defaults(handler=handler, parser=p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        record = args.handler(args)
    except (ValueError, CrossCheckError) as exc:
        print(f"cvbell: error: {exc}", file=sys.stderr)
        return 3
    text = render(record, args.format)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
