"""Elliptic curve models y^2 = x^3 + a2 x^2 + a4 x + a6 and exact point counting.

Prime fields F_p with p >= MESTRE_MIN_P are counted by Shanks-Mestre
baby-step giant-step in O(p^(1/4)) group operations (Cohen, "A Course in
Computational Algebraic Number Theory", 7.4.2; Schoof 1995 for Mestre's
theorem, p > 229).  Every other field, and any prime-field curve whose sampled
points leave more than one candidate, is counted by the O(q) quadratic-character
loop q + 1 + sum_x chi(f(x)), which also serves as the oracle for the fast
count.  Curves with a2 != 0 are counted directly without completing the cube,
so characteristic 3 needs no special casing.

`trace_over_extension` (a_{q^n} from a_q) and `WeierstrassCurve.reduce` (a
rational model into F_q) are public API that only the tests call: oracles
tying counts over F_{q^n} to counts over F_q, and rational models to their
reductions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ffield import DomainError, FieldSpec, as_rational, factor, quadratic_character
from .hyperg import hg_H2


class SingularCurveError(ValueError):
    """Raised when a counting operation receives a singular model."""

    def __init__(self, disc):
        super().__init__(f"singular curve: discriminant = {disc!r}")
        self.disc = disc


@dataclass(frozen=True)
class WeierstrassCurve:
    """y^2 = x^3 + a2 x^2 + a4 x + a6 over F_q (FqElem) or exact rationals.

    The invariants (b_invariants, c4, c6, discriminant) use ring operations
    only, so geomver also builds curves on elements of sympy's QQ[s] and of
    its rational-function fields to get them.
    """

    a2: object
    a4: object
    a6: object
    field: FieldSpec | None = None

    def b_invariants(self):
        a2, a4, a6 = self.a2, self.a4, self.a6
        b2 = 4 * a2
        b4 = 2 * a4
        b6 = 4 * a6
        b8 = 4 * a2 * a6 - a4 * a4
        return b2, b4, b6, b8

    def c4(self):
        b2, b4, _, _ = self.b_invariants()
        return b2 * b2 - 24 * b4

    def c6(self):
        b2, b4, b6, _ = self.b_invariants()
        return -b2 * b2 * b2 + 36 * b2 * b4 - 216 * b6

    def discriminant(self):
        b2, b4, b6, b8 = self.b_invariants()
        return -b2 * b2 * b8 - 8 * b4 * b4 * b4 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    def equation(self, x, y):
        """y^2 - (x^3 + a2 x^2 + a4 x + a6), in the ring of x and y."""
        return y**2 - (x**3 + self.a2 * x**2 + self.a4 * x + self.a6)

    def is_singular(self):
        return self.discriminant() == 0

    def j_invariant(self):
        d = self.discriminant()
        if d == 0:
            raise SingularCurveError(d)
        c4 = self.c4()
        return c4 * c4 * c4 / d

    def reduce(self, field):
        """Reduction of a rational model into F_q."""
        return WeierstrassCurve(*map(field.element, (self.a2, self.a4, self.a6)), field)


# Prime fields from this order up are counted by Shanks-Mestre.  Below it the
# numpy character loop is faster (the two cost the same near p = 3000); it must
# stay above 229, where Mestre's theorem starts to guarantee a unique survivor.
MESTRE_MIN_P = 3500
# Points drawn on E and its twist before the O(q) count takes over.
MESTRE_MAX_POINTS = 40


def count_points(curve):
    """|E(F_q)|, including the point at infinity; the curve must be nonsingular."""
    field = curve.field
    if curve.is_singular():
        raise SingularCurveError(curve.discriminant())
    if field.n == 1 and field.p >= MESTRE_MIN_P:
        n = count_points_mestre(field.p, curve.a2.code, curve.a4.code, curve.a6.code)
        if n is not None:
            return n
    return count_points_character(curve)


def count_points_character(curve):
    """|E(F_q)| = q + 1 + sum_x chi(f(x)) over codes: the O(q) oracle on any F_q."""
    field = curve.field
    x = np.arange(field.q, dtype=np.int32)
    a2, a4, a6 = (np.int32(c.code) for c in (curve.a2, curve.a4, curve.a6))
    f = field.mul_codes(
        field.add_codes(field.mul_codes(field.add_codes(x, a2), x), a4), x
    )
    f = field.add_codes(f, a6)
    return int(field.q + 1 + field.chi_codes(f).sum())


def _ec_add(P, Q, a2, a4, p):
    """P + Q on y^2 = x^3 + a2 x^2 + a4 x + a6 over F_p; None is the point at infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - a2 - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _ec_mul(k, P, a2, a4, p):
    """k P for k >= 0 by double-and-add."""
    R = None
    while k:
        if k & 1:
            R = _ec_add(R, P, a2, a4, p)
        P = _ec_add(P, P, a2, a4, p)
        k >>= 1
    return R


def _killing_multiple(P, a2, a4, p, lo, hi):
    """Some M > 0 with M P = O, by baby-step giant-step over [lo, hi].

    The group order lies in [lo, hi] and kills P, so a match always comes.
    Baby steps store x(jP) for j = 1..m; the giant step at centre c tests
    c P = -jP for |j| <= m, i.e. (c + j) P = O, so one stride covers 2m + 1
    values of M.  Any match is exact: equal x means c P = +-j'P.
    """
    m = math.isqrt((hi - lo) // 2) + 1
    baby = {}
    R = P
    for j in range(1, m + 1):
        if R is None:
            return j
        baby.setdefault(R[0], (j, R[1]))
        R = _ec_add(R, P, a2, a4, p)
    stride = 2 * m + 1
    S = _ec_mul(stride, P, a2, a4, p)
    c = lo + m
    G = _ec_mul(c, P, a2, a4, p)
    while c - m <= hi:
        if G is None:
            return c
        hit = baby.get(G[0])
        if hit is not None:
            j, y = hit
            return c - j if G[1] == y else c + j
        G = _ec_add(G, S, a2, a4, p)
        c += stride
    raise ArithmeticError(f"no multiple of the point order in [{lo}, {hi}]")


def _point_order(P, M, a2, a4, p):
    """The exact order of P, given a multiple M of it (M <= p + 1 + 2 sqrt(p) < 2^25,
    so trial division factors it)."""
    for ell in factor(M):
        while M % ell == 0 and _ec_mul(M // ell, P, a2, a4, p) is None:
            M //= ell
    return M


def count_points_mestre(p, a2, a4, a6):
    """|E(F_p)| for y^2 = x^3 + a2 x^2 + a4 x + a6 (nonsingular, p prime), or None.

    Draws up to MESTRE_MAX_POINTS points and keeps L_E and L_T, the lcm of the
    exact orders found on E and on its quadratic twist E' (|E'| = 2p + 2 - |E|).
    A draw x with c = f(x) != 0 gives the point (c x, c^2) on
    Y^2 = X^3 + c a2 X^2 + c^2 a4 X + c^3 a6, the twist of E by c: that model
    is E when c is a square and E' otherwise, and no square root is needed.
    |E| lies in [p + 1 - 2 sqrt(p), p + 1 + 2 sqrt(p)], is a multiple of L_E,
    and 2p + 2 - |E| is a multiple of L_T, whatever points were drawn.  So
    when exactly one N in that interval meets both conditions, N = |E|.
    Returns None when the draws run out first; the random source is seeded
    from (p, a2, a4, a6), so the same curve always takes the same draws.
    """
    w = math.isqrt(4 * p)
    lo, hi = p + 1 - w, p + 1 + w
    rng = random.Random(f"{p}:{a2}:{a4}:{a6}")
    lcm_e = lcm_t = 1
    for _ in range(MESTRE_MAX_POINTS):
        x = rng.randrange(p)
        c = (((x + a2) * x + a4) * x + a6) % p
        if c == 0:
            continue
        ca2, ca4 = c * a2 % p, c * c * a4 % p
        P = (c * x % p, c * c % p)
        order = _point_order(P, _killing_multiple(P, ca2, ca4, p, lo, hi), ca2, ca4, p)
        if pow(c, (p - 1) // 2, p) == 1:
            lcm_e = math.lcm(lcm_e, order)
        else:
            lcm_t = math.lcm(lcm_t, order)
        # walk the multiples of the larger lcm; |E'| swaps the roles of the two
        step, other = max(lcm_e, lcm_t), min(lcm_e, lcm_t)
        first = -(-lo // step) * step
        survivors = [n for n in range(first, hi + 1, step) if (2 * p + 2 - n) % other == 0]
        if len(survivors) == 1:
            return survivors[0] if lcm_e >= lcm_t else 2 * p + 2 - survivors[0]
    return None


def trace(curve):
    """Frobenius trace a_q = q + 1 - |E(F_q)|."""
    return curve.field.q + 1 - count_points(curve)


def curve_pair(S):
    """E1: y^2 = x^3 - 2x^2 + (1-S)x/2 and E2: y^2 = x^3 + 4x^2 + 2(1+S)x, in S's ring."""
    return WeierstrassCurve(-2, (1 - S) / 2, 0), WeierstrassCurve(4, 2 * (1 + S), 0)


def e1_e2(t, S, field=None):
    """The curve pair over Q (field None) or F_q; S must satisfy S^2 = (t-1)/t there."""
    elem = as_rational if field is None else field.element  # into Q or F_q

    t, S = elem(t), elem(S)
    if t == 0:
        raise DomainError("t = 0")
    if S * S * t != t - 1:
        raise ValueError("S^2 != (t-1)/t")
    pair = tuple(WeierstrassCurve(elem(c.a2), elem(c.a4), elem(c.a6), field)
                 for c in curve_pair(S))
    for curve in pair:
        if curve.is_singular():
            raise SingularCurveError(curve.discriminant())
    return pair


def trace_over_extension(a_q, q, n):
    """a_{q^n} from a_q via s_k = a_q s_{k-1} - q s_{k-2}, s_0 = 2."""
    s_prev, s_cur = 2, a_q
    for _ in range(n - 1):
        s_prev, s_cur = s_cur, a_q * s_cur - q * s_prev
    return s_cur if n >= 1 else 2


@dataclass
class CurveTraceReport:
    q: int
    a: int  # element codes for reproducibility
    b: int
    passed: bool
    count: int | None = None
    rhs: int | None = None
    h2: Fraction | None = None
    chi_ab: int | None = None
    skipped: bool = False
    reason: str | None = None


def verify_curve_trace_theorem(field, a, b, cs=None):
    """Check |E_{a,b}(F_q)| = q + 1 - chi(a/b) q H2(27 b^2 / (4 a^3)) exactly.

    E_{a,b}: y^2 = x^3 - a x + b with a, b nonzero; requires gcd(q, 6) = 1.
    """
    if math.gcd(field.q, 6) != 1:
        raise DomainError("theorem requires gcd(q, 6) = 1")
    a, b = field.element(a), field.element(b)
    if a.is_zero or b.is_zero:
        raise DomainError("a and b must be nonzero")
    try:
        lhs = count_points(WeierstrassCurve(field.zero(), -a, b, field))
    except SingularCurveError:
        return CurveTraceReport(
            field.q, a.code, b.code, passed=True, skipped=True,
            reason="singular: 4a^3 = 27b^2",
        )
    z = 27 * b * b / (4 * a * a * a)
    h = hg_H2(field, z, cs=cs)
    chi_ab = quadratic_character(field, a / b)
    rhs = field.q + 1 - chi_ab * int(h * field.q)
    return CurveTraceReport(
        field.q, a.code, b.code, passed=lhs == rhs,
        count=lhs, rhs=rhs, h2=h, chi_ab=chi_ab,
    )
