"""Parse cvbell reports and check them against :mod:`reference`.

The parser is the benchmark's own, so a fault in the package's report
writer cannot hide behind a matching fault in its reader.  Each
``check_*`` function raises :class:`reference.Mismatch` on the first
wrong value.
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference as ref
from reference import Mismatch, close, same

#: the eigen route (4x4 W -> V -> spectrum) loses a few more digits than
#: the closed forms; still a hundred times tighter than a 1e-9 change
RTOL_EIGEN = 1e-10


def _cell(text: str):
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def parse(text: str, fmt: str):
    """(columns, rows) of a CSV or JSON report; JSON null reads as NaN."""
    if fmt == "json":
        payload = json.loads(text)
        rows = [[math.nan if v is None else v for v in row]
                for row in payload["rows"]]
        return list(payload["columns"]), rows
    lines = [l for l in text.splitlines() if l and not l.startswith("# ")]
    if not lines:
        raise Mismatch("report has no header line")
    return lines[0].split(","), [[_cell(c) for c in l.split(",")]
                                 for l in lines[1:]]


def table(text: str, fmt: str, columns, n_rows=None) -> dict:
    """Column name -> numpy array, after checking header and row count."""
    cols, rows = parse(text, fmt)
    same("columns", tuple(cols), tuple(columns))
    if n_rows is not None:
        same("row count", len(rows), n_rows)
    if any(len(r) != len(cols) for r in rows):
        raise Mismatch("ragged row")
    return {name: np.array([r[i] for r in rows]) for i, name in enumerate(cols)}


def _echo(t, **params):
    for name, value in params.items():
        if not np.all(t[name] == value):
            raise Mismatch(f"{name} echoed as {t[name]!r}, passed {value!r}")


# ----------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------

def check_figure(index: int, text: str, fmt: str = "csv") -> None:
    r = ref.FIGURE_R
    if index == 1:
        nbar = np.linspace(0.0, 10.0, 201)
        d = np.repeat([2.5, 5.0], nbar.size)
        nbar = np.tile(nbar, 2)
        t = table(text, fmt, ("d", "nbar", "N", "M", "e_small", "e_large",
                              "margin", "separable"), d.size)
        _echo(t, d=d)
        close("figure 1 nbar", t["nbar"], nbar, 1.0, 1e-15)
        check_state("figure 1 ", t, r, d, nbar)
        return
    if index in (2, 3):
        if index == 2:
            J = np.repeat(np.concatenate(([0.0], np.geomspace(1e-4, 1.0, 49))), 41)
            d = np.tile(np.linspace(0.0, 2.0, 41), 50)
            t = table(text, fmt, ("J", "d", "B"), J.size)
            close("figure 2 J", t["J"], J, 1.0, 1e-15)
        else:
            d = np.concatenate((np.linspace(0.0, 0.5, 51),
                                np.linspace(0.6, 5.0, 45),
                                np.linspace(6.0, 50.0, 45)))
            J = 0.01
            t = table(text, fmt, ("d", "B"), d.size)
        close(f"figure {index} d", t["d"], d, 1.0 + d, 1e-15)
        s1, s2 = ref.variances(r, d, 0.0)
        close(f"figure {index} B", t["B"], ref.bell(J, s1, s2),
              ref.bell_scale(J, s1, s2))
        return
    if index == 4:
        kind, weights = "werner-thermal", (1.0, 0.95, 0.9, 0.5, 0.0)
    else:
        kind, weights = "phase-diffused", (1.0, 0.5, 0.2, 0.0)
    J = np.geomspace(1e-4, 1.0, 200)
    names = tuple(f"B_p{p:.2f}" for p in weights)
    t = table(text, fmt, ("J",) + names, J.size)
    close(f"figure {index} J", t["J"], J, 1.0, 1e-15)
    for p, name in zip(weights, names):
        close(f"figure {index} {name}", t[name],
              ref.mixture_bell(J, p, r, kind), ref.mixture_scale(J, p, r, kind))
        # B is affine in p: every column is a blend of the p=1 and p=0 ones
        close(f"figure {index} {name} affine", t[name],
              p * t[names[0]] + (1.0 - p) * t[names[-1]], 3.0)


def check_state(prefix, t, r, d, nbar):
    """Check whichever state columns ``t`` carries."""
    st = ref.state(r, d, nbar)
    for key, rtol in (("c1", ref.RTOL), ("c2", ref.RTOL), ("h", ref.RTOL),
                      ("margin", ref.RTOL), ("N", RTOL_EIGEN), ("M", RTOL_EIGEN),
                      ("e_small", RTOL_EIGEN), ("e_large", RTOL_EIGEN)):
        if key in t:
            close(prefix + key, t[key], np.broadcast_to(st[key], t[key].shape),
                  st["scale"], rtol)
    if "pure" in t:
        # pure exactly when h = 1, i.e. d = 0; draws keep d = 0 or d >= 1e-3
        want = np.broadcast_to(np.asarray(d, dtype=float) == 0.0, t["pure"].shape)
        if np.any(t["pure"].astype(bool) != want):
            raise Mismatch(prefix + "pure flag disagrees with d == 0")
    if "separable" in t:
        ref.check_verdicts(prefix + "separable", t["separable"].astype(bool),
                           r, d, nbar, st["scale"])


# ----------------------------------------------------------------------
# single CLI commands
# ----------------------------------------------------------------------

def check_command(kind: str, params: dict, text: str, fmt: str) -> None:
    """Check the report of one CLI command (see ``workloads.draw_command``)."""
    P = params
    if kind == "coeffs":
        t = table(text, fmt, ("r", "d", "nbar", "c1", "c2", "h", "N", "M",
                              "pure", "margin"), 1)
        _echo(t, r=P["r"], d=P["d"], nbar=P["nbar"])
        check_state("coeffs ", t, P["r"], P["d"], P["nbar"])
    elif kind == "coeffs-scan":
        n = int(P["t_count"])
        t = table(text, fmt, ("t", "r", "d", "c1", "c2", "h", "N", "M",
                              "pure", "margin"), n)
        times = np.linspace(0.0, P["t_max"], n)
        close("scan t", t["t"], times, P["t_max"], 1e-15)
        close("scan r", t["r"], P["kappa"] * times, 1.0 + t["r"], 1e-15)
        close("scan d", t["d"], P["gamma"] * times, 1.0 + t["d"], 1e-15)
        check_state("scan ", t, t["r"], t["d"], P["nbar"])
    elif kind == "bell":
        t = table(text, fmt, ("J", "r", "d", "nbar", "B",
                              "pi1", "pi2", "pi3", "pi4"), 1)
        _echo(t, J=P["J"], r=P["r"], d=P["d"], nbar=P["nbar"])
        s1, s2 = ref.variances(P["r"], P["d"], P["nbar"])
        _check_bell_row(t, ref.correlations(P["J"], s1, s2))
    elif kind == "separability":
        t = table(text, fmt, ("r", "d", "nbar", "e1", "e2", "e3", "e4",
                              "margin", "separable"), 1)
        _echo(t, r=P["r"], d=P["d"], nbar=P["nbar"])
        t.update(e_small=t["e1"], e_large=t["e3"])
        check_state("separability ", t, P["r"], P["d"], P["nbar"])
        close("separability e2", t["e2"], t["e1"], 1.0, 0.0)
        close("separability e4", t["e4"], t["e3"], 1.0, 0.0)
    elif kind == "steady":
        t = table(text, fmt, ("exists", "classification", "c1", "c2", "h",
                              "N", "M"), 1)
        gamma, kappa, nbar = P["gamma"], P["kappa"], P["nbar"]
        exists = gamma > 2.0 * kappa
        same("steady exists", bool(t["exists"][0]), exists)
        if not exists:
            same("steady classification", t["classification"][0],
                 "none" if gamma < 2.0 * kappa else "boundary-undefined")
            if not all(math.isnan(float(t[k][0])) for k in ("c1", "c2", "h", "N", "M")):
                raise Mismatch("steady: values reported without a steady state")
            return
        same("steady classification", t["classification"][0],
             "thermal" if kappa == 0.0 else "squeezed-thermal")
        s1, s2 = ref.steady_variances(gamma, kappa, nbar)
        scale = 1.0 + s1 + s2
        for key, want in (("c1", 2.0 * (s1 + s2)), ("c2", 2.0 * (s1 - s2)),
                          ("h", s1 * s2), ("N", (s1 + s2) / 4.0 - 0.5),
                          ("M", (s1 - s2) / 4.0)):
            close("steady " + key, t[key].astype(float), [want],
                  scale, RTOL_EIGEN)
    elif kind in ("werner", "phase-diffused"):
        mix = "werner-thermal" if kind == "werner" else kind
        mode = P["mode"]
        if mode == "bell":
            t = table(text, fmt, ("p", "r", "J", "B",
                                  "pi1", "pi2", "pi3", "pi4"), 1)
            _echo(t, p=P["p"], r=P["r"], J=P["J"])
            _check_bell_row(t, ref.mixture_correlations(P["J"], P["p"], P["r"], mix))
        elif mode == "threshold":
            t = table(text, fmt, ("r", "p_star", "violated_at_p1",
                                  "best_B_at_p1"), 1)
            _echo(t, r=P["r"])
            ref.check_threshold(f"{kind} threshold ", P["r"], mix,
                                float(t["p_star"][0]), t["violated_at_p1"][0],
                                float(t["best_B_at_p1"][0]))
        elif mode == "finite-dim":
            t = table(text, fmt, ("dim", "p_threshold"), 1)
            _echo(t, dim=P["dim"])
            close("finite-dim threshold", t["p_threshold"],
                  [1.0 / (1.0 + P["dim"])], 1.0, 1e-15)
        else:  # slope
            t = table(text, fmt, ("p", "r", "slope", "anchored", "B0"), 1)
            _echo(t, p=P["p"], r=P["r"])
            r = P["r"]
            # analytic small-J slope 4 p sinh 2r; the probe is a finite difference
            close("slope", t["slope"], [4.0 * P["p"] * math.sinh(2.0 * r)],
                  4.0 * math.cosh(2.0 * r), 1e-4)
            close("slope B0", t["B0"], [2.0], 2.0, ref.RTOL)
            same("slope anchored", bool(t["anchored"][0]), True)
    elif kind == "maximize":
        t = table(text, fmt, ("J", "r", "d", "nbar", "B_max"), 1)
        _echo(t, r=P["r"], d=P["d"], nbar=P["nbar"])
        J, b = float(t["J"][0]), float(t["B_max"][0])
        if not 1e-4 <= J <= 1.0:
            raise Mismatch(f"maximize: J {J} outside its bounds")
        s1, s2 = ref.variances(P["r"], P["d"], P["nbar"])
        scale = float(ref.bell_scale(J, s1, s2))
        close("maximize B_max", b, ref.bell(J, s1, s2), scale)
        check_maximum("maximize ", b, scale,
                      ref.coarse_grid_best({"r": P["r"], "d": P["d"],
                                            "nbar": P["nbar"]}),
                      ref.max_bell_over_j(P["r"], P["d"], P["nbar"]))
    elif kind == "figure":
        check_figure(int(P["index"]), text, fmt)
    else:
        raise ValueError(f"unknown command kind {kind!r}")


def check_maximum(prefix, b_max, scale, coarse_best, true_best):
    """At least the coarse-grid best, at most the true maximum and the
    analytic supremum, each to the reference's tolerance."""
    floor = coarse_best - ref.RTOL * scale
    ceiling = min(true_best + ref.RTOL * scale, ref.BELL_SUPREMUM)
    if not floor <= b_max <= ceiling:
        raise Mismatch(f"{prefix}B_max {b_max!r} outside [{floor!r}, "
                       f"{ceiling!r}]")


def _check_bell_row(t, pis):
    scale = sum(float(np.asarray(p)) for p in pis)
    for i, want in enumerate(pis, start=1):
        close(f"pi{i}", t[f"pi{i}"], [float(np.asarray(want))], scale)
    p1, p2, p3, p4 = pis
    close("B", t["B"], [float(np.asarray(p1 + p2 + p3 - p4))], scale)
