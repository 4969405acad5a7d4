"""Normal-mode core of every single-point computation, without numpy.

Every state of the model family is a two-mode Gaussian that factorises
in the frame of its two normal modes.  Their variances are

    s_i = e^-p_i + (2 nbar + 1) d E(p_i),   p1 = d + 2r,  p2 = d - 2r,

with E(p) = (1 - e^-p)/p, so s1 <= s2, and both are sums of positive
terms in which nothing cancels.  The steady state of the process at
rates gamma > 2 kappa has s = (2 nbar + 1)/(1 +- 2 kappa/gamma).
Everything the package reports about one state is a one-line function
of (s1, s2):

* the Wigner coefficients c1 = 2(s1 + s2), c2 = 2(s1 - s2), h = s1 s2;
* N = (s1 + s2)/4 - 1/2 and M = (s1 - s2)/4;
* the spectrum of V - I/2, the doubly degenerate pair (s_i - 1)/2, and
  the separability margin (min(s1, s2) - 1)/2, which is Simon's PPT
  criterion (PRL 84, 2726, 2000) in the normal-mode frame;
* the purity 1/h;
* the displaced-parity correlations [1, e^-aJ, e^-aJ, e^-bJ]/h, with
  a = 1/s1 + 1/s2 and b = 4/s1, and their optimum over J in closed
  form, J* = s1 ln(2 s2/(s1 + s2)) / (3 - s1/s2), which tends to the
  Banaszek-Wodkiewicz value 1 + 2^{2/3} - 2^{-4/3} of B as r grows
  (PRL 82, 2009, 1999);
* the small-J slope 4 p sinh 2r of the mixtures.

The mixtures' single Bell values come from the same place: the
Werner-type mixture has two Gaussian components, and the phase-diffused
reference state has the correlations [1, e^{-2cJ}, e^{-2cJ},
I0(4sJ) e^{-4cJ}] (c = cosh 2r, s = sinh 2r), with log I0 as a Horner
polynomial on one float (:func:`log_i0`).

The grid kernels of :mod:`cvbell.analysis` and :mod:`cvbell.bell`
evaluate the same formulas on numpy arrays, and :mod:`cvbell.curves`
on lists of floats for the figures and thresholds.  This module imports
only the standard library, so every command-line path but the
multi-parameter maximiser starts without numpy.  Where a variance
leaves the float range (e^{2r} at r > ~355) the constructors raise
``ValueError`` naming the parameters.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import CrossCheckError
from .tolerances import TOLERANCES

__all__ = [
    "DEFAULT_BOUNDS",
    "MIXTURE_KINDS",
    "PARAM_ORDER",
    "MaximizeResult",
    "MixtureSpec",
    "NormalModes",
    "SqueezedStateParams",
    "separability_closed_pair",
    "exp_quotient",
    "finite_dim_werner_threshold",
    "log_i0",
    "maximize_over_j",
    "mixture_slope",
    "phase_diffused_bell",
    "steady_limit",
    "werner_bell",
]

MIXTURE_KINDS = ("werner-thermal", "phase-diffused")

#: canonical parameter order of the maximiser, used for grids and
#: tie-breaking
PARAM_ORDER = ("J", "r", "d", "nbar")

#: search interval of each parameter the maximiser is not given bounds for
DEFAULT_BOUNDS = {
    "J": (1e-4, 1.0),
    "r": (0.0, 3.0),
    "d": (0.0, 5.0),
    "nbar": (0.0, 2.0),
}


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _require_nonnegative(name: str, value: float) -> float:
    value = _require_finite(name, value)
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")
    return value


def _check_rates(gamma: float, kappa: float, nbar: float = 0.0):
    for name, v in (("gamma", gamma), ("kappa", kappa), ("nbar", nbar)):
        _require_nonnegative(name, v)


def _where(params) -> str:
    return f"r={params.r!r}, d={params.d!r}, nbar={params.nbar!r}"


def _overflow(where: str) -> ValueError:
    return ValueError(f"the normal-mode variances overflow the float range "
                      f"at {where}")


def _exp_quotient_taylor(t):
    """1 - t/2 + t^2/6 - t^3/24 + t^4/120 - t^5/720, for floats and arrays."""
    return 1.0 + t * (-1.0 / 2 + t * (1.0 / 6 + t * (-1.0 / 24 + t * (1.0 / 120 + t * (-1.0 / 720)))))


def exp_quotient(p: float) -> float:
    """E(p) = (1 - e^-p)/p of a float, with E(0) = 1.

    The Taylor polynomial below ``TOLERANCES.taylor_cutoff``, the
    quotient through ``math.expm1`` elsewhere, as
    :func:`cvbell.numerics.one_minus_exp_over` does on arrays.  Raises
    ``OverflowError`` below p ~ -709.
    """
    if abs(p) < TOLERANCES.taylor_cutoff:
        return _exp_quotient_taylor(p)
    return -math.expm1(-p) / p


# ----------------------------------------------------------------------
# log of the modified Bessel function I0, for the phase-diffused state
# ----------------------------------------------------------------------

#: power-series coefficients 1/(k!)^2 of I0 in q = x^2/4; at x = 15 the
#: k = 40 tail is < 1e-16 relative.  Python's int division rounds
#: correctly, so each coefficient is the double nearest its exact value.
_I0_SERIES = tuple(1 / math.factorial(k) ** 2 for k in range(41))

#: asymptotic coefficients a_k = a_{k-1} (2k-1)^2 / (8k) of
#: I0(x) sqrt(2 pi x) e^{-x} in 1/x (DLMF 10.40.1); at the x = 15 switch
#: point the first omitted term is 6e-15, under 1e-15 of log I0 there
_I0_ASYMPTOTIC = tuple(
    math.prod((2 * j - 1) ** 2 for j in range(1, k + 1))
    / (8 ** k * math.factorial(k)) for k in range(25))


def _horner_tail(t, coeffs: tuple):
    """sum_{k >= 1} coeffs[k] t^k by Horner's rule.

    On a numpy array the updates run in place, in one buffer; on a float
    they rebind, with the same operations.
    """
    acc = t * coeffs[-1]
    for c in coeffs[-2:0:-1]:
        acc += c
        acc *= t
    return acc


#: log(2 pi), added to log x apart so that 2 pi x never overflows
_LOG_2PI = math.log(2.0 * math.pi)


def log_i0(x: float) -> float:
    """log I0(x) of a float x >= 0, finite for every finite x.

    :func:`cvbell.numerics.bessel_i0_log` on one float: below
    ``TOLERANCES.bessel_switch`` the power series, above it
    x - (log 2 pi + log x)/2 plus the log of the asymptotic series, each
    with its constant term 1 added back through ``log1p``.
    """
    if x < 0.0:
        raise ValueError("log_i0 requires a nonnegative argument")
    if x < TOLERANCES.bessel_switch:
        return math.log1p(_horner_tail(x * x / 4.0, _I0_SERIES))
    return (x - 0.5 * (_LOG_2PI + math.log(x))
            + math.log1p(_horner_tail(1.0 / x, _I0_ASYMPTOTIC)))


@dataclass(frozen=True)
class SqueezedStateParams:
    """Reduced parameters of the noisy squeezed state.

    r is the accumulated squeezing (coupling x time), d the accumulated
    damping (rate x time) and nbar the reservoir occupation.  The raw
    (kappa, gamma, t) parameterisation enters through :meth:`from_rates`.
    """

    r: float
    d: float
    nbar: float = 0.0

    def __post_init__(self):
        for name in ("r", "d", "nbar"):
            object.__setattr__(self, name,
                               _require_nonnegative(name, getattr(self, name)))

    @classmethod
    def from_rates(cls, kappa: float, gamma: float, t: float,
                   nbar: float = 0.0) -> "SqueezedStateParams":
        for name, v in (("kappa", kappa), ("gamma", gamma), ("t", t)):
            _require_nonnegative(name, v)
        return cls(r=kappa * t, d=gamma * t, nbar=nbar)

    @property
    def p1(self) -> float:
        return self.d + 2.0 * self.r

    @property
    def p2(self) -> float:
        return self.d - 2.0 * self.r


def separability_closed_pair(params: SqueezedStateParams) -> tuple:
    """Closed-form eigenvalue pair (e_large, e_small) of V - I/2.

    e_large = E(p2) (d nbar + r) and e_small = E(p1) (d nbar - r), whose
    sign reproduces the law "separable iff r <= d nbar".
    """
    dn = params.d * params.nbar
    try:
        return (exp_quotient(params.p2) * (dn + params.r),
                exp_quotient(params.p1) * (dn - params.r))
    except OverflowError:
        raise _overflow(_where(params)) from None


@dataclass(frozen=True)
class NormalModes:
    """Normal-mode variances (s1, s2), s1 <= s2, of one model state."""

    s1: float
    s2: float

    def __post_init__(self):
        for name in ("s1", "s2"):
            if not _require_finite(name, getattr(self, name)) > 0:
                raise ValueError(f"{name} must be positive, got "
                                 f"{getattr(self, name)!r}")

    @classmethod
    def _within_range(cls, s1: float, s2: float, where) -> "NormalModes":
        # c1 and h are the largest derived values; both must stay finite.
        # ``where()`` names the state, and is formatted only on failure
        if not (math.isfinite(2.0 * (s1 + s2)) and math.isfinite(s1 * s2)):
            raise _overflow(where())
        return cls(s1, s2)

    @classmethod
    def of(cls, params: SqueezedStateParams) -> "NormalModes":
        """Variances of the state at reduced parameters.

        Each (s_i - 1)/2 is checked against
        :func:`separability_closed_pair` within
        ``TOLERANCES.route_agreement`` times 1 + s_i, the size of both
        routes and of their rounding; for the margin that is
        1 + min(s1, s2), as in :func:`cvbell.analysis.separability_map`.
        A gap beyond it, or a NaN, raises :class:`CrossCheckError`.
        """
        occ = 2.0 * params.nbar + 1.0
        d = params.d
        try:
            s1 = math.exp(-params.p1) + occ * (d * exp_quotient(params.p1))
            s2 = math.exp(-params.p2) + occ * (d * exp_quotient(params.p2))
        except OverflowError:
            raise _overflow(_where(params)) from None
        modes = cls._within_range(s1, s2, lambda: _where(params))
        e_large, e_small = separability_closed_pair(params)
        for s, closed in ((s1, e_small), (s2, e_large)):
            gap = abs((s - 1.0) / 2.0 - closed)
            if not gap <= TOLERANCES.route_agreement * (1.0 + s):
                raise CrossCheckError(
                    f"separability routes disagree by {gap / (1.0 + s):.3e} "
                    f"relative to 1 + s (tolerance "
                    f"{TOLERANCES.route_agreement:.0e}) at ({_where(params)})")
        return modes

    @property
    def c1(self) -> float:
        return 2.0 * (self.s1 + self.s2)

    @property
    def c2(self) -> float:
        return 2.0 * (self.s1 - self.s2)

    @property
    def h(self) -> float:
        return self.s1 * self.s2

    @property
    def N(self) -> float:
        return (self.s1 + self.s2) / 4.0 - 0.5

    @property
    def M(self) -> float:
        return (self.s1 - self.s2) / 4.0

    @property
    def pair(self) -> tuple:
        """(e_small, e_large): each is a doubly degenerate eigenvalue of
        V - I/2."""
        return (self.s1 - 1.0) / 2.0, (self.s2 - 1.0) / 2.0

    @property
    def margin(self) -> float:
        """Smallest eigenvalue of V - I/2, (min(s1, s2) - 1)/2."""
        return (min(self.s1, self.s2) - 1.0) / 2.0

    @property
    def separable(self) -> bool:
        """Margin at or above ``TOLERANCES.boundary_margin``."""
        return self.margin >= TOLERANCES.boundary_margin

    @property
    def purity(self) -> float:
        return 1.0 / self.h

    @property
    def pure(self) -> bool:
        """|1 - h|/h below ``TOLERANCES.purity_rel``: the residual of
        :func:`cvbell.analysis.is_pure`, since c1^2 - c2^2 = 16 h."""
        return abs(1.0 - self.h) / self.h < TOLERANCES.purity_rel

    def correlations(self, J: float) -> tuple:
        """The four displaced-parity correlations at budget J >= 0."""
        J = _require_budget(J)
        h = self.h
        side = math.exp(-J * (1.0 / self.s1 + 1.0 / self.s2)) / h
        return 1.0 / h, side, side, math.exp(-4.0 * J / self.s1) / h

    def bell(self, J: float) -> tuple:
        """(B, correlations) at budget J, B = pi1 + pi2 + pi3 - pi4.

        B(0) = 2/h, the local-realism bound 2 for pure states.
        """
        corr = self.correlations(J)
        return corr[0] + corr[1] + corr[2] - corr[3], corr

    def bell_optimum(self, lo: float, hi: float) -> tuple:
        """(J*, B*): the budget in [lo, hi] that maximises B, and B there.

        h B(J) = 1 + 2 e^-aJ - e^-bJ with b = 4/s1 > a = 1/s1 + 1/s2
        (because s1 <= s2, as for every model state) has one stationary
        point, a maximum, at J = ln(b/2a)/(b - a), i.e.

            J* = s1 ln(2 s2/(s1 + s2)) / (3 - s1/s2);

        B rises below it and falls above it, so J* clamped to [lo, hi]
        maximises B on the interval.  At s1 = s2 (r = 0) J* = 0 and the
        clamp gives lo.  For s1 >= 3 s2, which no model state has, b <= a
        and the stationary point is a minimum: ``ValueError``.
        :func:`cvbell.bell.maximize_bell` evaluates the same formula on
        arrays.
        """
        s1, s2 = self.s1, self.s2
        if not s1 < 3.0 * s2:
            raise ValueError(f"the optimum over J needs s1 < 3 s2, got "
                             f"s1={s1!r}, s2={s2!r}")
        J = s1 * math.log1p((s2 - s1) / (s1 + s2)) / (3.0 - s1 / s2)
        J = min(max(J, lo), hi)
        return J, self.bell(J)[0]


def _require_budget(J) -> float:
    j = float(J)
    if not math.isfinite(j) or j < 0:
        raise ValueError(f"J must be a nonnegative real, got {J!r}")
    return j


def steady_limit(gamma: float, kappa: float, nbar: float = 0.0) -> tuple:
    """(classification, variances or None) of the t -> infinity limit.

    "squeezed-thermal" or "thermal" (kappa = 0) when gamma > 2 kappa,
    with the variances s = (2 nbar + 1)/(1 +- q), q = 2 kappa/gamma;
    "boundary-undefined" on gamma = 2 kappa, where two drift eigenvalues
    vanish; "none" when the squeezing wins and the moments grow without
    bound.
    """
    _check_rates(gamma, kappa, nbar)
    if gamma == 2.0 * kappa:
        return "boundary-undefined", None
    if gamma < 2.0 * kappa:
        return "none", None
    q = 2.0 * kappa / gamma
    occ = 2.0 * nbar + 1.0
    modes = NormalModes._within_range(
        occ / (1.0 + q), occ / (1.0 - q),
        lambda: f"gamma={gamma!r}, kappa={kappa!r}, nbar={nbar!r}")
    return ("thermal" if kappa == 0.0 else "squeezed-thermal"), modes


# ----------------------------------------------------------------------
# maximisation over J
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MaximizeResult:
    """Outcome of a Bell maximisation: full parameter point and value."""

    params: dict
    b_max: float
    free: tuple


def _maximize_inputs(free, fixed, bounds) -> tuple:
    """(free names in PARAM_ORDER, fixed values, bounds per free name).

    Checks the arguments of :func:`cvbell.bell.maximize_bell`: known
    names, each either free or fixed, finite nonnegative fixed values,
    nonempty bounds, positive J bounds and nonnegative other bounds.
    """
    free = tuple(free)
    if not free:
        raise ValueError("need at least one free parameter")
    for name in free:
        if name not in PARAM_ORDER:
            raise ValueError(f"unknown parameter {name!r}")
    if len(set(free)) != len(free):
        raise ValueError("duplicate free parameter")
    for name in fixed:
        if name not in PARAM_ORDER:
            raise ValueError(f"unknown parameter {name!r}")
    missing = [n for n in PARAM_ORDER if n not in free and n not in fixed]
    if missing:
        raise ValueError(f"no value for parameters: {missing}")
    overlap = [n for n in free if n in fixed]
    if overlap:
        raise ValueError(f"parameters both free and fixed: {overlap}")
    fixed_values = {}
    for name in PARAM_ORDER:
        if name in fixed:
            value = float(fixed[name])
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"fixed {name} must be a finite nonnegative "
                                 f"real, got {fixed[name]!r}")
            fixed_values[name] = value
    merged = dict(DEFAULT_BOUNDS)
    if bounds:
        merged.update({k: (float(v[0]), float(v[1])) for k, v in bounds.items()})
    free_ordered = tuple(n for n in PARAM_ORDER if n in free)
    limits = {}
    for name in free_ordered:
        lo, hi = merged[name]
        if not hi > lo:
            raise ValueError(f"empty bounds for {name}: ({lo}, {hi})")
        if name == "J" and lo <= 0:
            raise ValueError("J bounds must be positive")
        if lo < 0:
            raise ValueError(f"{name} bounds must be nonnegative")
        limits[name] = (lo, hi)
    return free_ordered, fixed_values, limits


def maximize_over_j(fixed, bounds=None) -> MaximizeResult:
    """Maximise B over J at a fixed state, in closed form.

    The same result as ``maximize_bell(("J",), fixed, bounds)``:
    ``fixed`` gives r, d and nbar, ``bounds`` may give the J interval
    (default (1e-4, 1)).  J is :meth:`NormalModes.bell_optimum` of the
    state; no grid and no search are involved.
    """
    _, values, limits = _maximize_inputs(("J",), fixed, bounds)
    params = SqueezedStateParams(values["r"], values["d"], values["nbar"])
    J, B = NormalModes.of(params).bell_optimum(*limits["J"])
    return MaximizeResult(params={**values, "J": J}, b_max=B, free=("J",))


# ----------------------------------------------------------------------
# mixtures
# ----------------------------------------------------------------------

def _require_squeezing(r) -> float:
    value = float(r)
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"squeezing must be nonnegative, got {r!r}")
    try:
        math.exp(2.0 * value)
    except OverflowError:
        raise ValueError(f"squeezing r={value!r} overflows the float range "
                         f"(e^2r > 1.8e308)") from None
    return value


@dataclass(frozen=True)
class MixtureSpec:
    """Weight p of the squeezed component, squeezing r, mixture kind."""

    p: float
    r: float
    kind: str = "werner-thermal"

    def __post_init__(self):
        p = float(self.p)
        if not math.isfinite(p) or not 0.0 <= p <= 1.0:
            raise ValueError(f"mixing weight must lie in [0, 1], got {self.p!r}")
        r = _require_squeezing(self.r)
        if self.kind not in MIXTURE_KINDS:
            raise ValueError(f"unknown mixture kind {self.kind!r}; "
                             f"expected one of {MIXTURE_KINDS}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "r", r)


def _square(x: float) -> float:
    """x ** 2, or inf where the square leaves the float range (Python's
    ``**`` raises ``OverflowError`` there)."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def _pure_curve(J, c: float, s: float, exp=math.exp):
    """B(J) = 1 + 2 e^{-2cJ} - e^{-4(c + s)J} of the squeezed vacuum.

    c = cosh 2r and s = sinh 2r.  ``exp`` is ``math.exp`` for a float J;
    :func:`cvbell.mixtures.pure_bell_curve` passes ``numpy.exp`` and an
    array.
    """
    return 1.0 + 2.0 * exp(-2.0 * c * J) - exp(-4.0 * (c + s) * J)


def _reference_curve(J, c: float, s: float, kind: str, exp=math.exp,
                     log_i0=log_i0):
    """B(J) of the p = 0 reference state of ``kind``, as
    :func:`_pure_curve` (numpy passes its ``exp`` and ``bessel_i0_log``).

    The product of the thermal marginals gives
    (1 + 2 e^{-2J/c} - e^{-4J/c}) / c^2, which is 0 where c^2 leaves the
    float range (r above ~177); the phase-diffused state gives
    1 + 2 e^{-2cJ} - I0(4sJ) e^{-4cJ}.
    """
    if kind == "werner-thermal":
        return (1.0 + 2.0 * exp(-2.0 * J / c) - exp(-4.0 * J / c)) / _square(c)
    if kind == "phase-diffused":
        return (1.0 + 2.0 * exp(-2.0 * c * J)
                - exp(log_i0(4.0 * s * J) - 4.0 * c * J))
    raise ValueError(f"unknown mixture kind {kind!r}")


def _mixed_bell(spec: MixtureSpec, J: float, c: float, s: float,
                reference: tuple) -> tuple:
    """(B, correlations) of p (squeezed vacuum) + (1 - p) (reference).

    The correlations of the two components at budget J are mixed with
    weights p and 1 - p, and B is cross-checked against the affine
    combination of the closed component curves; a gap beyond
    ``TOLERANCES.affine_mix_rel`` raises :class:`CrossCheckError`.
    """
    p, r = spec.p, spec.r
    pure = NormalModes(math.exp(-2.0 * r), math.exp(2.0 * r)).correlations(J)
    corr = tuple(p * a + (1.0 - p) * b for a, b in zip(pure, reference))
    B = corr[0] + corr[1] + corr[2] - corr[3]
    affine = (p * _pure_curve(J, c, s)
              + (1.0 - p) * _reference_curve(J, c, s, spec.kind))
    if abs(B - affine) > TOLERANCES.affine_mix_rel * max(abs(affine), 1.0):
        raise CrossCheckError(
            f"assembled Bell value {B!r} disagrees with affine component "
            f"combination {affine!r} for {spec.kind} p={p:g} r={r:g}")
    return B, corr


def _require_kind(spec: MixtureSpec, kind: str) -> None:
    if spec.kind != kind:
        raise ValueError(f"expected a {kind} spec, got {spec.kind!r}")


def werner_bell(spec: MixtureSpec, J: float) -> tuple:
    """(B, correlations) of the Werner-type mixture at budget J.

    Both components are Gaussian: the squeezed vacuum has variances
    (e^-2r, e^2r), and the product of its thermal marginals has cosh 2r
    twice.  Mixed and cross-checked by :func:`_mixed_bell`.
    """
    _require_kind(spec, "werner-thermal")
    J = _require_budget(J)
    c, s = math.cosh(2.0 * spec.r), math.sinh(2.0 * spec.r)
    return _mixed_bell(spec, J, c, s, NormalModes(c, c).correlations(J))


def phase_diffused_bell(spec: MixtureSpec, J: float) -> tuple:
    """(B, correlations) of the phase-diffused mixture at budget J.

    The reference state is the squeezed vacuum averaged over the phase
    of one arm.  Its density depends on the moduli only, and at the four
    points of the test its correlations are
    [1, e^{-2cJ}, e^{-2cJ}, I0(4sJ) e^{-4cJ}] (c = cosh 2r, s = sinh 2r):
    the Bessel factor is 1 wherever one modulus is 0.  Mixed and
    cross-checked by :func:`_mixed_bell`.  That check compares the
    squeezed component's correlations with its closed curve; the
    reference correlations are the terms of :func:`_reference_curve`
    itself, so only the tests check them, against the four-point
    assembly of the mixture's density (r <= 3).
    """
    _require_kind(spec, "phase-diffused")
    J = _require_budget(J)
    c, s = math.cosh(2.0 * spec.r), math.sinh(2.0 * spec.r)
    side = math.exp(-2.0 * c * J)
    reference = (1.0, side, side, math.exp(log_i0(4.0 * s * J) - 4.0 * c * J))
    return _mixed_bell(spec, J, c, s, reference)


def mixture_slope(spec: MixtureSpec) -> tuple:
    """(dB/dJ at J = 0+, B(0)) of the mixture, in closed form.

    Both reference states have zero slope at J = 0: the product state's
    exponentials cancel to first order, and the phase-diffused one has
    I0'(0) = 0.  B is affine in p, so the slope is p times the pure
    state's, 4 p sinh 2r.  B(0) is 2 p + (1 - p) B_ref(0), with
    B_ref(0) = 2 for the phase-diffused reference and 2/cosh^2 2r for
    the product of the thermal marginals.  A slope beyond the float
    range raises ``ValueError``.
    """
    slope = 4.0 * spec.p * math.sinh(2.0 * spec.r)
    if not math.isfinite(slope):
        raise ValueError(f"the small-J slope 4 p sinh 2r overflows the float "
                         f"range at p={spec.p!r}, r={spec.r!r}")
    if spec.kind == "phase-diffused":
        b_ref = 2.0
    else:
        b_ref = 2.0 / _square(math.cosh(2.0 * spec.r))
    return slope, spec.p * 2.0 + (1.0 - spec.p) * b_ref


def finite_dim_werner_threshold(dim: int) -> float:
    """Weight threshold 1 / (1 + dim) of the finite-dimensional analogue.

    Shrinks as the local dimension grows; the continuous-variable
    families sit at the dim -> infinity edge of the comparison.
    """
    if not isinstance(dim, numbers.Integral) or isinstance(dim, bool):
        raise ValueError("dimension must be an integer")
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    return 1.0 / (1.0 + dim)
