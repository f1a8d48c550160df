"""Kodaira-type diagnostics for the elliptic fibrations and the j-invariant pair.

For a fixed rational parameter each model's c4, c6, discriminant are exact
univariate polynomials in QQ[s]: the curves in `maps.FIBRATIONS` (the ones
the map catalog lands on) are built over the rational-function field QQ(s),
each Weierstrass coefficient is taken to its numerator over a constant
denominator, and the generic `WeierstrassCurve` arithmetic runs on those
ring elements (`xslice` builds its quartic and I, J in QQ[s][sigma]).
The discriminant's irreducible factors, from the ring's `factor_list`, name
the places; vanishing orders there (with the degree-weighted flip at infinity:
c4, c6, delta are sections of degree 8, 12, 24 on a K3) feed the standard
order table.  Orders are reduced by (4, 6, 12) whenever the local model is
non-minimal.

`j_match_check` is public API that only the tests call: an oracle matching the
mod-q j-invariants of the curve pair against the exact pair formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import sympy as sp
from sympy import QQ
from sympy.polys.fields import field

from ..ecount import WeierstrassCurve, e1_e2
from ..ffield import as_rational
from .maps import FIBRATIONS

# QQ(s), the field the fibrations are built over; its ring QQ[s] holds the profiles
_K, _s = field("s", QQ)


class FibrationError(ValueError):
    """Unknown model, unsupported parameter, or an unexpected discriminant factor."""


@dataclass(frozen=True)
class PlaceOrders:
    place: str
    degree: int  # residue degree of the place over Q
    ord_c4: int
    ord_c6: int
    ord_delta: int
    kodaira: str
    expected: str | None = None

    @property
    def matches(self):
        return self.expected is None or self.kodaira == self.expected


@dataclass(frozen=True)
class FibrationProfile:
    model: str
    t: Fraction
    places: tuple
    euler_total: int

    @property
    def passed(self):
        return self.euler_total == 24 and all(p.matches for p in self.places)


def _weierstrass_polys(model, t):
    """c4, c6 and the discriminant of the model at t, as elements of QQ[s]."""
    if model == "xslice":
        coeffs = _model_xslice(t)
    else:
        curve = FIBRATIONS[model](t, _s)
        coeffs = [_K(c) for c in (curve.a2, curve.a4, curve.a6)]
        if model == "inose":
            # the u-line model has a 1/u term: X -> X/u^2, Y -> Y/u^3 clears it
            coeffs = [c * _s**i for c, i in zip(coeffs, (2, 4, 6))]
        coeffs = [_polynomial(c) for c in coeffs]
    curve = WeierstrassCurve(*coeffs)
    return curve.c4(), curve.c6(), curve.discriminant()


def _polynomial(c):
    """The element c of QQ(s) as an element of QQ[s]; a non-constant denominator
    is a FibrationError."""
    if not c.denom.is_ground:
        raise FibrationError(f"coefficient {c.as_expr()} is not a polynomial in s")
    return c.numer.quo_ground(c.denom.LC)


def _model_xslice(t):
    # the surface sliced by its first affine coordinate: a genus-1 quartic in the
    # remaining variables; profile its Jacobian via the classical I, J invariants
    a = 1 / (256 * t)
    ring_s = _K.ring
    s = ring_s.gens[0]
    _, sig = sp.ring("_sig", ring_s)
    quartic = s**2 * (1 - sig) ** 2 * (sig - s) ** 2 - 4 * a * s * (sig - s)
    e4, e3, e2, e1, e0 = (quartic.coeff(sig**k) for k in range(4, -1, -1))
    I = 12 * e4 * e0 - 3 * e3 * e1 + e2**2
    J = 72 * e4 * e2 * e0 - 27 * e4 * e1**2 - 27 * e3**2 * e0 + 9 * e3 * e2 * e1 - 2 * e2**3
    return ring_s.zero, -27 * I, -27 * J


# the `fibration profile --model` names: the four Weierstrass fibrations and the slice
MODELS = (*FIBRATIONS, "xslice")

# weight of the fundamental line bundle for an elliptic K3: deg c4 <= 8,
# deg c6 <= 12, deg delta <= 24
_K3_DEGREES = (8, 12, 24)


def _ord_at_poly(poly, place):
    n = 0
    while not poly.is_zero:
        q, r = poly.div(place)
        if not r.is_zero:
            break
        poly = q
        n += 1
    return n


def kodaira_from_orders(oc4, oc6, od):
    """Standard vanishing-order table for minimal models."""
    if od == 0:
        return "I0"
    if oc4 == 0 and oc6 == 0:
        return f"I{od}"
    if od == 2 and oc6 == 1:
        return "II"
    if od == 3 and oc4 == 1:
        return "III"
    if od == 4 and oc6 == 2:
        return "IV"
    if od == 6 and oc4 >= 2 and oc6 >= 3:
        return "I0*"
    if od > 6 and oc4 == 2 and oc6 == 3:
        return f"I{od - 6}*"
    if od == 8 and oc6 == 4:
        return "IV*"
    if od == 9 and oc4 == 3:
        return "III*"
    if od == 10 and oc6 == 5:
        return "II*"
    raise FibrationError(f"order triple ({oc4}, {oc6}, {od}) matches no Kodaira type")


def _minimalize(oc4, oc6, od):
    while oc4 >= 4 and oc6 >= 6 and od >= 12:
        oc4, oc6, od = oc4 - 4, oc6 - 6, od - 12
    return oc4, oc6, od


# model -> (named places and their types at generic t, the places added at a
# special t, the type of every other place at a special t where it is not I1)
EXPECTED_TYPES = {
    "family19": ({"s=0": "I4", "s=1": "III*", "s=-1": "III*"}, {1: {"s=inf": "I2"}}, {}),
    "family19alt": ({"s=0": "III*", "s=inf": "III*", "s=1": "I4"}, {1: {"s=-1": "I2"}}, {}),
    "weier1": ({"s=0": "I2", "s=1": "I2", "s=inf": "I16"}, {1: {"s=1/2": "I2"}}, {}),
    "inose": (
        {"s=0": "II*", "s=inf": "II*"},
        {1: {"s=-1/8": "I2"}, Fraction(81, 256): {"s=2/9": "I2"}},
        {Fraction(-9, 16): "II"},
    ),
    "xslice": ({"s=0": "IV*", "s=inf": "I12"}, {1: {"s=1/4": "I2"}}, {}),
}


def kodaira_profile(model, t):
    """Vanishing orders and inferred types at every place of bad reduction."""
    t = as_rational(t)
    if model not in MODELS:
        raise FibrationError(f"unknown model {model!r}; have {sorted(MODELS)}")
    if t == 0:
        raise FibrationError("parameter t = 0 is outside every family")
    c4, c6, delta = _weierstrass_polys(model, sp.Rational(t))
    named, added, rest = EXPECTED_TYPES[model]
    named = {**named, **added.get(t, {})}
    rest_type = rest.get(t, "I1")
    places = []
    total = 0
    _, factors = delta.factor_list()
    for fpoly, mult in sorted(factors, key=lambda fm: str(fm[0].as_expr())):
        fpoly = fpoly.monic()
        if fpoly.degree() == 1:
            label = f"s={-fpoly.coeff(1)}"
        else:
            label = f"s^{fpoly.degree()}[{fpoly.as_expr()}]"
        # the factor's multiplicity is the discriminant's order there
        oc4, oc6, od = _minimalize(_ord_at_poly(c4, fpoly), _ord_at_poly(c6, fpoly), mult)
        if od == 0:
            continue
        ktype = kodaira_from_orders(oc4, oc6, od)
        expected = named.get(label, rest_type)
        places.append(PlaceOrders(label, fpoly.degree(), oc4, oc6, od, ktype, expected))
        total += od * fpoly.degree()
    # place at infinity via the degree-weighted flip
    oc4 = _K3_DEGREES[0] - (c4.degree() if not c4.is_zero else -10**6)
    oc6 = _K3_DEGREES[1] - (c6.degree() if not c6.is_zero else -10**6)
    od = _K3_DEGREES[2] - delta.degree()
    oc4, oc6, od = _minimalize(oc4, oc6, od)
    if od > 0:
        ktype = kodaira_from_orders(oc4, oc6, od)
        places.append(PlaceOrders("s=inf", 1, oc4, oc6, od, ktype, named.get("s=inf", rest_type)))
        total += od
    missing = set(named) - {p.place for p in places}
    if missing:
        raise FibrationError(f"expected places {sorted(missing)} not found in the discriminant")
    return FibrationProfile(model, t, tuple(places), total)


# ---------------------------------------------------------------------------
# j-invariants of the curve pair
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JPair:
    """The unordered pair A +- B sqrt(radicand) with radicand = t(t-1)."""

    rational_part: Fraction
    radical_coeff: Fraction
    radicand: Fraction

    def rational_values(self):
        """Both values as exact rationals, or None if genuinely quadratic."""
        if self.radical_coeff == 0 or self.radicand == 0:
            return (self.rational_part, self.rational_part)
        num, den = self.radicand.numerator, self.radicand.denominator
        if num < 0:
            return None
        import math

        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn != num or rd * rd != den:
            return None
        root = Fraction(rn, rd)
        return (
            self.rational_part + self.radical_coeff * root,
            self.rational_part - self.radical_coeff * root,
        )


def j_pair_coefficients(t):
    """(A, B) with the j-pair of t equal to {A +- B sqrt(t(t-1))}, in t's own ring
    (a Fraction, an element of sympy's QQ[t] or of a sympy rational-function field)."""
    return 64 * (512 * t * t - 414 * t + 27), 128 * (256 * t - 81)


def j_invariants_pair(t):
    """The j-pair of t as an exact JPair (`j_pair_coefficients` over Q)."""
    t = as_rational(t)
    if t == 0:
        raise ValueError("t = 0")
    A, B = j_pair_coefficients(t)
    return JPair(rational_part=A, radical_coeff=B, radicand=t * (t - 1))


def j_match_check(field, t, S):
    """The mod-q j-invariants of the curve pair match the exact pair formula.

    t is an int or a Fraction, S an element with S^2 = (t-1)/t; the radical
    sqrt(t(t-1)) is realised as t*S.
    """
    radical = field.element(t) * S
    e1, e2 = e1_e2(t, S, field)
    pair = j_invariants_pair(t)
    A, B = pair.rational_part, pair.radical_coeff
    expected = {(A + B * radical).code, (A - B * radical).code}
    got = {e1.j_invariant().code, e2.j_invariant().code}
    return got == expected
