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
* purity, which holds exactly when h = 1;
* the displaced-parity correlations [1, e^-aJ, e^-aJ, e^-bJ]/h, with
  a = 1/s1 + 1/s2 and b = 4/s1, their Bell value
  B = (1 + 2 e^-aJ - e^-bJ)/h (:func:`_bell`), and its optimum over J,
  J* = s1 ln(2 s2/(s1 + s2)) / (3 - s1/s2) (:func:`_bell_optimum`),
  where B tends to the Banaszek-Wodkiewicz value 1 + 2^{2/3} - 2^{-4/3}
  as r grows (PRL 82, 2009, 1999);
* the small-J slope 4 p sinh 2r of the mixtures.

The separability verdict is the one exception.  The margin has the sign
of the smaller closed root E(p1) (d nbar - r) with E > 0, so a state of
the family is separable exactly when r <= d nbar, and
:func:`_separable` decides that from the inputs, on floats
(:attr:`SqueezedStateParams.separable`) and on the arrays of the map.
A margin within rounding of 0 cannot tell the two sides apart.  The
steady state and the mixture components are normal modes outside the
family's law, and have no verdict.

The mixtures' single Bell values come from the same place, one
function of the mixture and the budget (:func:`mixture_correlations`):
the Werner-type mixture has two Gaussian components, and the
phase-diffused reference state has the correlations [1, e^{-2cJ},
e^{-2cJ}, I0(4sJ) e^{-4cJ}] (c = cosh 2r, s = sinh 2r), the last one
through the scaled Bessel function e^-x I0(x) as a Horner polynomial
on one float (:func:`_i0e`).  Their violation threshold is built from
B_pure - 2 and 2 - B_ref, each formed without cancellation
(:func:`_pure_gain`, :func:`_reference_loss`).

The grid kernels of :mod:`cvbell.analysis` and :mod:`cvbell.bell`
evaluate the same formulas on numpy arrays, the maximiser's refinement
on floats without building a state, and :mod:`cvbell.curves` on lists
of floats for the figures and thresholds.  This module imports
only the standard library, so every command-line path but the
multi-parameter maximiser starts without numpy.  Where a variance, c1
or h leaves the float range (e^{2r} at r > ~355) the constructors raise
``ValueError`` naming that quantity and the parameters.
"""

from __future__ import annotations

import math
import operator

from ._record import frozen_record
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
    "maximize_over_j",
    "mixture_correlations",
    "mixture_slope",
    "steady_limit",
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


def _where(r, d, nbar) -> str:
    return f"r={r!r}, d={d!r}, nbar={nbar!r}"


def _overflow(where: str,
              what: str = "the normal-mode variances overflow") -> ValueError:
    return ValueError(f"{what} the float range at {where}")


def _in_range(s1: float, s2: float, where) -> tuple:
    """(s1, s2) if they, c1 = 2(s1 + s2) and h = s1 s2 are finite, else
    the :func:`_overflow` ``ValueError`` naming what is not; ``where()``
    names the state, and is formatted only on failure."""
    if not (math.isfinite(s1) and math.isfinite(s2)):
        what = "the normal-mode variances overflow"
    elif not math.isfinite(2.0 * (s1 + s2)):
        what = "c1 = 2(s1 + s2) overflows"
    elif not math.isfinite(s1 * s2):
        what = "h = s1 s2 overflows"
    else:
        return s1, s2
    raise _overflow(where(), what)


def exp_quotient(p: float) -> float:
    """E(p) = (1 - e^-p)/p of a float, with E(0) = 1.

    The quotient through ``math.expm1``, the one form of
    :func:`cvbell.numerics.one_minus_exp_over` on arrays; near 0 it is
    within 2^-52 of the exact value, subnormal p included.  Raises
    ``OverflowError`` below p ~ -709.
    """
    return -math.expm1(-p) / p if p else 1.0


def _mode_variance(occ, d_quotient, decay):
    """One variance, occ (d E(p)) + e^-p with occ = 2 nbar + 1."""
    s = occ * d_quotient
    s += decay
    return s


def _variances(r, d, nbar, exp=math.exp, quotient=exp_quotient) -> tuple:
    """(s1, s2), e^-p + (2 nbar + 1) d E(p) at p = d + 2r and d - 2r.

    numpy passes its ``exp`` and E(p), and the sums run in place.
    """
    occ = 2.0 * nbar + 1.0
    p1, p2 = d + 2.0 * r, d - 2.0 * r
    return (_mode_variance(occ, d * quotient(p1), exp(-p1)),
            _mode_variance(occ, d * quotient(p2), exp(-p2)))


def _model_variances(r: float, d: float, nbar: float) -> tuple:
    """:func:`_variances` of floats, or ``ValueError`` naming what leaves
    the float range at (r, d, nbar), as :meth:`NormalModes.of` raises."""
    try:
        s1, s2 = _variances(r, d, nbar)
    except OverflowError:
        raise _overflow(_where(r, d, nbar)) from None
    return _in_range(s1, s2, lambda: _where(r, d, nbar))


def _bell(J, s1, s2, exp=math.exp):
    """B = (1 + 2 e^-aJ - e^-bJ)/h of the variances (s1, s2) at budget
    J, a = 1/s1 + 1/s2, b = 4/s1, h = s1 s2; ``exp`` as in
    :func:`_variances`, and on arrays the updates run in place.

    -bJ is (-4J)(1/s1), which rounds as J (-4/s1) but stays finite
    where 4/s1 overflows (s1 below ~2.2e-308, r above ~354.2).  B(0) is
    2 (1/h), which is 2/h exactly.
    """
    inv1 = 1.0 / s1
    B = exp(J * -(inv1 + 1.0 / s2))
    B *= 2.0
    B += 1.0
    B -= exp(-4.0 * J * inv1)
    B *= 1.0 / (s1 * s2)
    return B


def _clip(x, lo, hi):
    """x clamped to [lo, hi], the float form of ``numpy.clip``."""
    return min(max(x, lo), hi)


def _bell_optimum(s1, s2, lo, hi, clip=_clip, log1p=math.log1p,
                  exp=math.exp) -> tuple:
    """(J*, B*) of :meth:`NormalModes.bell_optimum` without its checks:
    J* clamped to [lo, hi] and :func:`_bell` there; numpy passes its
    ``clip``, ``log1p`` and ``exp``, as in :func:`_variances`."""
    J = clip(s1 * log1p((s2 - s1) / (s1 + s2)) / (3.0 - s1 / s2), lo, hi)
    return J, _bell(J, s1, s2, exp)


# ----------------------------------------------------------------------
# the modified Bessel function I0, for the phase-diffused state
# ----------------------------------------------------------------------

#: power-series coefficients 1/(k!)^2 of I0 in q = x^2/4.  Python's int
#: division rounds correctly, so each coefficient is the double nearest
#: its exact value.  A sum stops before the first term below 2^-70 of
#: the first (:func:`_series_length`): below the x = 15 switch that
#: leaves at most 36 coefficients.
_I0_SERIES = tuple(1 / math.factorial(k) ** 2 for k in range(41))


def _series_length(q: float) -> int:
    """How many leading ``_I0_SERIES`` coefficients the sum of I0 - 1
    needs at q = x^2/4 >= 0, the largest q of an array.

    The sum stops before the first term q^k/(k!)^2 below 2^-70 of the
    first term, q; the terms fall faster than geometrically from there,
    so what is left out is below about 2^-70 of I0 - 1.  Where the pure
    state gains, q < 0.371342 (see :func:`_pure_gain`), and that is 12
    coefficients, 11 terms.
    """
    n, ratio = 1, 1.0  # ratio = term n over term 1, q^(n-1)/(n!)^2
    while ratio >= 2.0 ** -70 and n < len(_I0_SERIES):
        n += 1
        ratio *= q / (n * n)
    return n

#: asymptotic coefficients a_k = a_{k-1} (2k-1)^2 / (8k) of
#: I0(x) sqrt(2 pi x) e^{-x} in 1/x (DLMF 10.40.1); at the x = 15 switch
#: point the first omitted term is 6e-15 relative
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


#: 1/sqrt(2 pi), so that the scaled I0 never forms 2 pi x, which
#: overflows past x ~ 2.9e307
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _i0e(x: float) -> float:
    """e^-x I0(x) of a float x >= 0, with the limit 0 at x = inf.

    Below ``TOLERANCES.bessel_switch`` e^-x times the power series,
    above it the asymptotic series over sqrt(2 pi x), both as Horner
    polynomials.  No factor e^x is ever formed, so a caller can take
    e^-x I0(x) e^-y for any y > 0 without the cancellation of
    x - (x + y).  :func:`cvbell.numerics._i0e_array` is its form on
    arrays.
    """
    if x < TOLERANCES.bessel_switch:
        q = x * x / 4.0
        return math.exp(-x) * (1.0 + _horner_tail(
            q, _I0_SERIES[:_series_length(q)]))
    tail = _horner_tail(1.0 / x, _I0_ASYMPTOTIC)
    return (1.0 + tail) * _INV_SQRT_2PI / math.sqrt(x)


def _separable(r, d, nbar):
    """Separable exactly when r <= d nbar, on the rounded product: the
    sign of the smaller closed root E(p1) (d nbar - r), E > 0, at the
    precision of the inputs.  One comparison on floats and on numpy
    arrays; a product past the float range is inf, which is separable
    (numpy warns of the overflow unless told not to).
    """
    return d * nbar >= r


@frozen_record
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
        for name, rate in (("kappa", kappa), ("gamma", gamma)):
            if not math.isfinite(rate * t):
                raise ValueError(f"{name} * t overflows the float range at "
                                 f"{name}={rate!r}, t={t!r}")
        return cls(r=kappa * t, d=gamma * t, nbar=nbar)

    @property
    def p1(self) -> float:
        return self.d + 2.0 * self.r

    @property
    def p2(self) -> float:
        return self.d - 2.0 * self.r

    @property
    def separable(self) -> bool:
        """The separability law of the model family, :func:`_separable`."""
        return _separable(self.r, self.d, self.nbar)


def separability_closed_pair(params: SqueezedStateParams) -> tuple:
    """Closed-form eigenvalue pair (e_large, e_small) of V - I/2.

    e_large = E(p2) (d nbar + r) and e_small = E(p1) (d nbar - r), whose
    sign reproduces the law "separable iff r <= d nbar", formed as
    (E(p) d) nbar +- E(p) r: each term is at most s2, d nbar can overflow.
    """
    d, nbar, r = params.d, params.nbar, params.r
    try:
        e2, e1 = exp_quotient(params.p2), exp_quotient(params.p1)
    except OverflowError:
        raise _overflow(_where(r, d, nbar)) from None
    return (e2 * d) * nbar + e2 * r, (e1 * d) * nbar - e1 * r


@frozen_record
class NormalModes:
    """Normal-mode variances (s1, s2), s1 <= s2, of one model state.

    The one state type of the package: the Wigner coefficients
    (c1, c2, h), the moments (N, M), the separability margin, purity
    and the Bell correlations are all properties or methods of it.
    Both variances must be finite and positive.
    """

    s1: float
    s2: float

    def __post_init__(self):
        for name in ("s1", "s2"):
            if not _require_finite(name, getattr(self, name)) > 0:
                raise ValueError(f"{name} must be positive, got "
                                 f"{getattr(self, name)!r}")

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
        state = params.r, params.d, params.nbar
        s1, s2 = _model_variances(*state)
        modes = cls(s1, s2)
        e_large, e_small = separability_closed_pair(params)
        for s, closed in ((s1, e_small), (s2, e_large)):
            gap = abs((s - 1.0) / 2.0 - closed)
            if not gap <= TOLERANCES.route_agreement * (1.0 + s):
                raise CrossCheckError(
                    f"separability routes disagree by {gap / (1.0 + s):.3e} "
                    f"relative to 1 + s (tolerance "
                    f"{TOLERANCES.route_agreement:.0e}) at ({_where(*state)})")
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
    def purity_residual(self) -> float:
        """|1 - h|/h, which is 0 exactly for pure states (purity 1/h)."""
        return abs(1.0 - self.h) / self.h

    @property
    def pure(self) -> bool:
        """:attr:`purity_residual` below ``TOLERANCES.purity_rel``."""
        return self.purity_residual < TOLERANCES.purity_rel

    def correlations(self, J: float) -> tuple:
        """The four displaced-parity correlations at budget J >= 0."""
        J = _require_nonnegative("J", J)
        h = self.s1 * self.s2
        side = math.exp(-J * (1.0 / self.s1 + 1.0 / self.s2)) / h
        return 1.0 / h, side, side, math.exp(-4.0 * J / self.s1) / h

    def bell(self, J: float) -> float:
        """B = pi1 + pi2 + pi3 - pi4 at budget J >= 0, by :func:`_bell`.

        B(0) = 2/h, the local-realism bound 2 for pure states.
        """
        return _bell(_require_nonnegative("J", J), self.s1, self.s2)

    def bell_optimum(self, lo: float, hi: float) -> tuple:
        """(J*, B*): the budget in [lo, hi] that maximises B, and B there.

        h B(J) = 1 + 2 e^-aJ - e^-bJ with b = 4/s1 > a = 1/s1 + 1/s2
        (because s1 <= s2, as for every model state) has one stationary
        point, a maximum, at J = ln(b/2a)/(b - a), i.e.

            J* = s1 ln(2 s2/(s1 + s2)) / (3 - s1/s2);

        B rises below it and falls above it, so J* clamped to [lo, hi]
        maximises B on the interval.  At s1 = s2 (r = 0) J* = 0 and the
        clamp gives lo.  For s1 >= 3 s2, which no model state has, b <= a
        and the stationary point is a minimum: ``ValueError``, as for an
        interval other than 0 <= lo <= hi with lo finite (hi may be
        inf).  The formula is :func:`_bell_optimum`, which
        :func:`cvbell.bell.maximize_bell` evaluates on arrays too.
        """
        if not (math.isfinite(lo) and 0.0 <= lo <= hi):  # a NaN hi fails
            raise ValueError(f"the J interval needs 0 <= lo <= hi with lo "
                             f"finite, got lo={lo!r}, hi={hi!r}")
        s1, s2 = self.s1, self.s2
        if not s1 < 3.0 * s2:
            raise ValueError(f"the optimum over J needs s1 < 3 s2, got "
                             f"s1={s1!r}, s2={s2!r}")
        return _bell_optimum(s1, s2, lo, hi)


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
    modes = NormalModes(*_in_range(
        occ / (1.0 + q), occ / (1.0 - q),
        lambda: f"gamma={gamma!r}, kappa={kappa!r}, nbar={nbar!r}"))
    return ("thermal" if kappa == 0.0 else "squeezed-thermal"), modes


# ----------------------------------------------------------------------
# maximisation over J
# ----------------------------------------------------------------------

@frozen_record
class MaximizeResult:
    """Outcome of a Bell maximisation: full parameter point and value."""

    params: dict
    b_max: float
    free: tuple


def _maximize_inputs(free, fixed, bounds) -> tuple:
    """(free names in PARAM_ORDER, fixed values, bounds per free name).

    Checks the arguments of :func:`cvbell.bell.maximize_bell`: known
    names, each either free or fixed, finite nonnegative fixed values,
    finite nonempty bounds (the upper J bound may be inf), positive J
    bounds and nonnegative other bounds.
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
    fixed_values = {name: _require_nonnegative(f"fixed {name}", fixed[name])
                    for name in PARAM_ORDER if name in fixed}
    merged = dict(DEFAULT_BOUNDS)
    if bounds:
        merged.update({k: (float(v[0]), float(v[1])) for k, v in bounds.items()})
    free_ordered = tuple(n for n in PARAM_ORDER if n in free)
    limits = {}
    for name in free_ordered:
        lo, hi = merged[name]
        if not (math.isfinite(lo)
                and (math.isfinite(hi) or name == "J" and hi == math.inf)):
            raise ValueError(f"{name} bounds must be finite")
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


def _mixture_kind(kind: str) -> str:
    """``kind`` itself, or ``ValueError`` if it names no mixture family."""
    if kind not in MIXTURE_KINDS:
        raise ValueError(f"unknown mixture kind {kind!r}; "
                         f"expected one of {MIXTURE_KINDS}")
    return kind


@frozen_record
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
        _mixture_kind(self.kind)
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
    array.  The last exponent is (-4J)(c + s), which stays finite where
    4(c + s) overflows (r above ~354.2).
    """
    return 1.0 + 2.0 * exp(-2.0 * c * J) - exp(-4.0 * J * (c + s))


def _bessel_correlation(J, c: float, s: float, exp=math.exp, i0e=_i0e):
    """I0(4sJ) e^{-4cJ}, the fourth correlation of the phase-diffused
    reference state, as :func:`_pure_curve` (numpy passes its ``exp``
    and :func:`cvbell.numerics._i0e_array`).

    Written as e^-x I0(x) at x = 4sJ times e^{-4(c - s)J}, with
    c - s = e^{-2r} = 1/(c + s): each factor lies in [0, 1] and nothing
    cancels.  The difference of exponents log I0(4sJ) - 4cJ would lose
    every digit once sJ is large, and be NaN once 4sJ overflows.  4s
    itself overflows for r above ~354.5, so x is 4 (sJ), which is 0 at
    J = 0 rather than inf * 0.
    """
    return i0e(4.0 * (s * J)) * exp(-4.0 / (c + s) * J)


def _reference_curve(J, c: float, s: float, kind: str, exp=math.exp,
                     i0e=_i0e):
    """B(J) of the p = 0 reference state of ``kind``, as
    :func:`_bessel_correlation`.

    The product of the thermal marginals gives
    (1 + 2 e^{-2J/c} - e^{-4J/c}) / c^2, which is 0 where c^2 leaves the
    float range (r above ~177); the phase-diffused state gives
    1 + 2 e^{-2cJ} - I0(4sJ) e^{-4cJ}.
    """
    if _mixture_kind(kind) == "werner-thermal":
        return (1.0 + 2.0 * exp(-2.0 * J / c) - exp(-4.0 * J / c)) / _square(c)
    return (1.0 + 2.0 * exp(-2.0 * c * J)
            - _bessel_correlation(J, c, s, exp, i0e))


# ----------------------------------------------------------------------
# the two parts of the violation threshold, without cancellation
# ----------------------------------------------------------------------

def _pure_gain(J, c: float, s: float, exp=math.exp, expm1=math.expm1):
    """B_pure - 2 = e^{-4cJ} (1 - e^{-4sJ}) - (1 - e^{-2cJ})^2 at J > 0,
    accurate where B_pure is within rounding of 2; ``exp`` and ``expm1``
    as in :func:`_variances`.

    With v = e^{-2cJ} and s < c the gain is below v^2 (1 - v^2) - (1 - v)^2,
    so it is positive only where v^3 + v^2 + v > 1, v > 0.5436890127:
    there 4sJ < 4cJ < 1.2187558, and q = (4sJ)^2/4 < 0.371342.
    """
    return (exp(-4.0 * c * J) * -expm1(-4.0 * (s * J))
            - expm1(-2.0 * c * J) ** 2)


def _bessel_excess(J, c: float, s: float):
    """e^{-4cJ} (I0(4sJ) - 1) of a float J > 0: below
    ``TOLERANCES.bessel_switch`` e^{-4cJ} times the power series without
    its constant term, above it :func:`_bessel_correlation` - e^{-4cJ}.
    :func:`cvbell.numerics._bessel_excess_array` is its form on arrays.
    """
    decay = math.exp(-4.0 * c * J)
    x = 4.0 * (s * J)
    if x < TOLERANCES.bessel_switch:
        q = x * x / 4.0
        return decay * _horner_tail(q, _I0_SERIES[:_series_length(q)])
    return _bessel_correlation(J, c, s) - decay


def _reference_loss(J, c: float, s: float, kind: str, expm1=math.expm1,
                    excess=_bessel_excess):
    """2 - B_ref of the reference state of ``kind`` at J > 0, a sum of
    nonnegative terms: 2 (s/c)^2 + (expm1(-2J/c)/c)^2 for the product
    of the thermal marginals (no c^2 is formed), and
    (1 - e^{-2cJ})^2 + e^{-4cJ} (I0(4sJ) - 1) for the phase average.
    numpy passes its ``expm1`` and
    :func:`cvbell.numerics._bessel_excess_array`."""
    if kind == "werner-thermal":
        return 2.0 * (s / c) ** 2 + (expm1(-2.0 * J / c) / c) ** 2
    return expm1(-2.0 * c * J) ** 2 + excess(J, c, s)


def mixture_correlations(spec: MixtureSpec, J: float) -> tuple:
    """(B, correlations) of p (squeezed vacuum) + (1 - p) (reference).

    The squeezed vacuum has variances (e^-2r, e^2r).  The reference
    state of ``spec.kind`` is, for the Werner-type mixture, the product
    of its thermal marginals, a Gaussian with cosh 2r twice; for the
    phase-diffused mixture, the squeezed vacuum averaged over the phase
    of one arm, whose density depends on the moduli only and whose
    correlations at the four points of the test are
    [1, e^{-2cJ}, e^{-2cJ}, I0(4sJ) e^{-4cJ}] (c = cosh 2r,
    s = sinh 2r): the Bessel factor is 1 wherever one modulus is 0.

    The correlations of the two components at budget J are mixed with
    weights p and 1 - p, and B is cross-checked against the affine
    combination of the closed component curves; a gap beyond
    ``TOLERANCES.affine_mix_rel``, or a NaN, raises
    :class:`CrossCheckError`.  The check compares the squeezed
    component's correlations with its closed curve; the phase-diffused
    reference correlations are the terms of :func:`_reference_curve`
    itself, so only the tests check them, against the four-point
    assembly of the mixture's density.
    """
    J = _require_nonnegative("J", J)
    p, r = spec.p, spec.r
    c, s = math.cosh(2.0 * r), math.sinh(2.0 * r)
    if spec.kind == "werner-thermal":
        reference = NormalModes(c, c).correlations(J)
    else:
        side = math.exp(-2.0 * c * J)
        reference = (1.0, side, side, _bessel_correlation(J, c, s))
    pure = NormalModes(math.exp(-2.0 * r), math.exp(2.0 * r)).correlations(J)
    corr = tuple(p * a + (1.0 - p) * b for a, b in zip(pure, reference))
    B = corr[0] + corr[1] + corr[2] - corr[3]
    affine = (p * _pure_curve(J, c, s)
              + (1.0 - p) * _reference_curve(J, c, s, spec.kind))
    tol = TOLERANCES.affine_mix_rel * max(abs(affine), 1.0)
    if not abs(B - affine) <= tol:
        raise CrossCheckError(
            f"assembled Bell value {B!r} disagrees with affine component "
            f"combination {affine!r} for {spec.kind} p={p:g} r={r:g}")
    return B, corr


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
    try:
        operator.index(dim)
    except TypeError:
        raise ValueError("dimension must be an integer") from None
    if isinstance(dim, bool):
        raise ValueError("dimension must be an integer")
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    return 1.0 / (1.0 + dim)
