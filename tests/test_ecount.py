"""Curve counting: hand-enumeration oracles, E1/E2, Hasse, twists, extensions."""

import random
from collections import Counter
from fractions import Fraction as F

import pytest
from sympy import factorint

from hgmk3 import ecount
from hgmk3.charsum import get_character_system
from hgmk3.cli import odd_prime_powers
from hgmk3.ecount import (
    SingularCurveError,
    WeierstrassCurve,
    count_points,
    count_points_character,
    count_points_mestre,
    e1_e2,
    trace,
    trace_over_extension,
    verify_curve_trace_theorem,
)
from hgmk3.ffield import DomainError, FqElem, field_new


def brute_count(p, a2, a4, a6):
    """Independent oracle: enumerate both coordinates."""
    n = 1
    for x in range(p):
        fx = (x**3 + a2 * x**2 + a4 * x + a6) % p
        n += sum(1 for y in range(p) if (y * y) % p == fx)
    return n


def curve(field, a2, a4, a6):
    return WeierstrassCurve(field.from_int(a2), field.from_int(a4), field.from_int(a6), field)


def test_count_examples():
    f5 = field_new(5)
    assert count_points(curve(f5, 0, 1, 0)) == 4 == brute_count(5, 0, 1, 0)
    assert count_points(curve(f5, 0, -1, 0)) == 8 == brute_count(5, 0, -1, 0)
    f7 = field_new(7)
    assert count_points(curve(f7, 0, 0, 1)) == 12 == brute_count(7, 0, 0, 1)


def scalar_count(curve):
    """Independent oracle on any F_q: pair every x with the y whose square is f(x)."""
    f = curve.field
    squares = Counter(y * y for y in f.elements())
    return 1 + sum(squares[x * x * x + curve.a2 * x * x + curve.a4 * x + curve.a6] for x in f.elements())


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (11, 2), (5, 3), (7, 3)])
def test_count_matches_scalar_enumeration_on_extension_fields(p, n):
    f = field_new(p, n)
    for t in (F(2), F(3), F(5, 2), F(-1), F(7), F(81, 256), F(-9, 16), F(10)):
        if t.numerator % p == 0 or t.denominator % p == 0:
            continue
        tm = f.from_rational(t)
        # the fiber at infinity of the K3 model, and a curve with a2 = 0, a6 != 0
        for c in (WeierstrassCurve(f.one() / 4, f.one() / (64 * tm), f.zero(), f),
                  WeierstrassCurve(f.zero(), tm, f.one(), f)):
            if not c.is_singular():
                assert count_points(c) == scalar_count(c), (f.q, t, c)


def test_trace_examples():
    f7 = field_new(7)
    assert trace(curve(f7, 5, 3, 0)) == -2  # E1 at (t,S)=(2,2): count 10
    assert trace(curve(f7, 4, 6, 0)) == -2  # E2: matches isogeny invariance
    f5 = field_new(5)
    assert trace(curve(f5, 0, -1, 2)) == 3  # count 3


def test_singular_curve_rejected():
    f5 = field_new(5)
    with pytest.raises(SingularCurveError):
        count_points(curve(f5, 0, 0, 0))


def test_e1_e2_models():
    e1, e2 = e1_e2(F(1), F(0))
    assert (e1.a2, e1.a4, e1.a6) == (-2, F(1, 2), 0)
    assert (e2.a2, e2.a4, e2.a6) == (4, 2, 0)
    f7 = field_new(7)
    e1, e2 = e1_e2(f7.from_int(2), f7.from_int(2), f7)
    assert (e1.a2.code, e1.a4.code, e1.a6.code) == (5, 3, 0)
    assert (e2.a2.code, e2.a4.code, e2.a6.code) == (4, 6, 0)
    e1b, _ = e1_e2(f7.from_int(2), f7.from_int(5), f7)
    assert (e1b.a2.code, e1b.a4.code) == (5, 5)  # (1-5)/2 = 5 mod 7
    with pytest.raises(ValueError, match="S\\^2"):
        e1_e2(f7.from_int(2), f7.from_int(3), f7)


@pytest.mark.parametrize("q", [5, 7, 11, 13])
def test_isogeny_invariance_and_hasse(q):
    f = field_new(q)
    for t_code in range(2, q):
        t = f.from_int(t_code)
        s2 = (t - f.one()) / t
        if s2.is_zero or s2.e % 2:
            continue
        from hgmk3.ffield import sqrt

        S = sqrt(f, s2)
        e1, e2 = e1_e2(t, S, f)
        a1, a2 = trace(e1), trace(e2)
        assert a1 == a2  # 2-isogenous
        assert a1 * a1 <= 4 * q


def test_quadratic_twist_sign_flip():
    # twisting by a nonsquare negates the trace
    f = field_new(11)
    nonsquare = f.gen()  # generator is never a square
    for a4, a6 in [(1, 3), (2, 5), (7, 1)]:
        base = curve(f, 0, a4, a6)
        d = nonsquare
        twisted = WeierstrassCurve(f.zero(), base.a4 * d * d, base.a6 * d * d * d, f)
        assert trace(base) == -trace(twisted)


def test_e1_at_minus_S_is_twist_of_e1():
    # traces at S and -S agree up to sign
    f = field_new(13)
    from hgmk3.ffield import sqrt

    for t_code in range(2, 13):
        t = f.from_int(t_code)
        s2 = (t - f.one()) / t
        if s2.is_zero or s2.e % 2:
            continue
        S = sqrt(f, s2)
        e1_plus, _ = e1_e2(t, S, f)
        e1_minus, _ = e1_e2(t, -S, f)
        assert abs(trace(e1_plus)) == abs(trace(e1_minus))


@pytest.mark.parametrize("q,n", [(3, 2), (5, 2), (3, 3), (7, 2), (3, 5), (5, 3)])
def test_count_over_extension_recurrence(q, n):
    from sympy import isprime

    if not isprime(q):
        pytest.skip("base must be prime here")
    fq = field_new(q)
    fqn = field_new(q, n)
    if fqn.q > 3**6:
        pytest.skip("direct check bounded at 3^6")
    coeffs = next(
        (a2, a4, a6)
        for a2 in range(q)
        for a4 in range(q)
        for a6 in range(q)
        if not curve(fq, a2, a4, a6).is_singular()
    )
    a = trace(curve(fq, *coeffs))
    assert count_points(curve(fqn, *coeffs)) == fqn.q + 1 - trace_over_extension(a, q, n)


def test_curve_trace_theorem_spot_values():
    f5 = field_new(5)
    r = verify_curve_trace_theorem(f5, 1, 1)
    assert r.passed and r.count == 8
    r = verify_curve_trace_theorem(f5, 1, 2)
    assert r.passed and r.count == 3 and r.chi_ab == -1
    r = verify_curve_trace_theorem(f5, 2, 1)
    assert r.skipped and "singular" in r.reason  # 4*8 - 27 = 5 = 0 mod 5


def test_curve_trace_theorem_tests_singularity_once_per_cell(monkeypatch):
    calls = []
    discriminant = WeierstrassCurve.discriminant

    def counted(self):
        calls.append(self)
        return discriminant(self)

    monkeypatch.setattr(WeierstrassCurve, "discriminant", counted)
    r = verify_curve_trace_theorem(field_new(5), 1, 1)
    assert r.passed and len(calls) == 1
    # a singular cell is skipped before H2 is evaluated
    monkeypatch.setattr(ecount, "hg_H2", None)
    r = verify_curve_trace_theorem(field_new(5), 2, 1)
    assert r.skipped and r.reason == "singular: 4a^3 = 27b^2"


def test_curve_trace_theorem_rejects_q_divisible_by_3():
    f9 = field_new(3, 2)
    with pytest.raises(DomainError):
        verify_curve_trace_theorem(f9, 1, 1)


@pytest.mark.parametrize("q", [5, 7, 11, 13])
def test_curve_trace_theorem_exhaustive_small(q):
    f = field_new(q)
    for ac in range(1, q):
        for bc in range(1, q):
            r = verify_curve_trace_theorem(f, ac, bc)
            assert r.skipped or r.passed, (q, ac, bc, r)


def test_conjugate_twist_recovers_partner_curve():
    # the S -> -S conjugate of the first curve, twisted by -2, IS the second:
    # (a2, a4) = (-2, (1+S)/2) twisted by d = -2 gives (4, 2(1+S))
    f13 = field_new(13)
    from hgmk3.ffield import sqrt as fsqrt

    for t_code in range(2, 13):
        t = f13.from_int(t_code)
        s2 = (t - f13.one()) / t
        if s2.is_zero or s2.e % 2:
            continue
        S = fsqrt(f13, s2)
        e1_conj, _ = e1_e2(t, -S, f13)
        _, e2 = e1_e2(t, S, f13)
        d = f13.from_int(-2)
        twisted = WeierstrassCurve(e1_conj.a2 * d, e1_conj.a4 * d * d, e1_conj.a6 * d**3, f13)
        assert (twisted.a2, twisted.a4, twisted.a6) == (e2.a2, e2.a4, e2.a6)
        assert twisted.j_invariant() == e2.j_invariant()
        c4t, c4e = twisted.c4(), e2.c4()
        assert c4t**3 / twisted.discriminant() == c4e**3 / e2.discriminant()


def test_rational_model_reduction_and_j():
    e1, e2 = e1_e2(F(1), F(0))
    assert e1.j_invariant() == e2.j_invariant() == 8000
    f7 = field_new(7)
    r = e1.reduce(f7)
    assert r.field is f7
    assert count_points(r) == brute_count(7, -2 % 7, pow(2, -1, 7), 0)


def assert_mestre_matches_oracle(c):
    f = c.field
    got = count_points_mestre(f.p, c.a2.code, c.a4.code, c.a6.code)
    assert got == count_points_character(c), (f.p, c.a2.code, c.a4.code, c.a6.code)


@pytest.mark.parametrize("p", [233, 241, 1009, 10007])
def test_mestre_count_matches_character_count_on_random_curves(p):
    f = field_new(p)
    rng = random.Random(f"mestre:{p}")
    done = 0
    while done < 60:
        c = curve(f, rng.randrange(p), rng.randrange(p), rng.randrange(p))
        if not c.is_singular():
            assert_mestre_matches_oracle(c)
            done += 1


@pytest.mark.parametrize("p", [233, 241])
def test_mestre_count_on_j0_and_j1728_families(p):
    # y^2 = x^3 + b and y^2 = x^3 + a x: supersingular cases and non-cyclic groups
    f = field_new(p)
    for k in range(1, p):
        assert_mestre_matches_oracle(curve(f, 0, 0, k))
        assert_mestre_matches_oracle(curve(f, 0, k, 0))


@pytest.mark.parametrize("p", [233, 241, 10007])
def test_mestre_count_with_a2_nonzero(p):
    from hgmk3.ffield import sqrt

    f = field_new(p)
    for t_code in range(2, 40):
        t = f.from_int(t_code)
        # the fiber at infinity of the K3 model
        assert_mestre_matches_oracle(WeierstrassCurve(f.one() / 4, f.one() / (64 * t), f.zero(), f))
        s2 = (t - f.one()) / t
        if s2.is_zero or s2.e % 2:
            continue
        for c in e1_e2(t, sqrt(f, s2), f):
            assert_mestre_matches_oracle(c)


def test_mestre_count_at_large_prime():
    p = 1000003
    f = field_new(p)
    for a4, a6 in [(1, 1), (5, 7), (123456, 654321), (p - 1, 0), (0, 999999)]:
        assert_mestre_matches_oracle(curve(f, 0, a4, a6))


def test_mestre_count_leaves_global_rng_and_repeats():
    state = random.getstate()
    first = count_points_mestre(10007, 3, 5, 7)
    assert random.getstate() == state
    assert count_points_mestre(10007, 3, 5, 7) == first


def test_exhausted_draws_fall_back_to_character_count(monkeypatch):
    f = field_new(10007)
    c = curve(f, 0, 5, 7)
    expected = count_points(c)
    monkeypatch.setattr(ecount, "MESTRE_MAX_POINTS", 0)
    assert count_points_mestre(f.p, 0, 5, 7) is None
    assert count_points(c) == expected == count_points_character(c)


def test_count_points_dispatch_by_field(monkeypatch):
    def refuse(*args):
        raise AssertionError("wrong counting path")

    small = curve(field_new(2003), 0, 5, 7)
    big = curve(field_new(10007), 0, 5, 7)
    ext = curve(field_new(59, 2), 0, 5, 7)
    expected = [count_points(c) for c in (small, big, ext)]
    monkeypatch.setattr(ecount, "count_points_mestre", refuse)
    assert count_points(small) == expected[0]
    monkeypatch.setattr(ecount, "MESTRE_MIN_P", 3)  # extension fields never qualify
    assert count_points(ext) == expected[2]
    monkeypatch.undo()
    monkeypatch.setattr(ecount, "count_points_character", refuse)
    assert count_points(big) == expected[1]


def class_representatives(f):
    """One (a, b) per class (z, chi(a/b)) of E_{a,b}: y^2 = x^3 - a x + b.

    With b = l a, z = 27 b^2 / (4 a^3) = 27 l^2 / (4 a) and chi(a/b) = chi(l),
    so l = 1 and l = g (the generator, a nonsquare) with a = 27 l^2 / (4 z)
    reach both classes over each z in F_q^x.
    """
    out = []
    for k in range(f.q - 1):
        z = FqElem(f, k)
        for l in (f.one(), f.gen()):
            a = f.from_int(27) * l * l / (f.from_int(4) * z)
            out.append((a, l * a))
    return out


def class_of(f, a, b):
    return f.from_int(27) * b * b / (f.from_int(4) * a * a * a), (a / b).e % 2


@pytest.mark.parametrize("q", [q for q in odd_prime_powers(5, 199) if q % 3])
def test_curve_trace_theorem_by_isomorphism_class(q):
    (p, n), = factorint(q).items()
    f = field_new(p, n)
    cs = get_character_system(f)
    reps = class_representatives(f)
    assert len({class_of(f, a, b) for a, b in reps}) == len(reps) == 2 * (q - 1)
    for a, b in reps:
        r = verify_curve_trace_theorem(f, a, b, cs)
        singular = class_of(f, a, b)[0] == f.one()
        assert (r.skipped == singular) and (r.skipped or r.passed), (q, a.code, b.code, r)


def test_curve_trace_invariants_are_isomorphism_invariant():
    f = field_new(1009)
    rng = random.Random("isomorphism-classes")
    for _ in range(40):
        a, b, u = (f.from_int(rng.randrange(1, 1009)) for _ in range(3))
        a2, b2 = a / u**4, b / u**6
        assert class_of(f, a, b) == class_of(f, a2, b2)
        if (4 * a * a * a - 27 * b * b).is_zero:
            continue
        assert count_points(WeierstrassCurve(f.zero(), -a, b, f)) == count_points(
            WeierstrassCurve(f.zero(), -a2, b2, f))
