"""Field layer: integer helpers, deterministic construction, dlog, squares,
trace, Frobenius."""

import ast
import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import divisors, factorint, isprime, mobius

import hgmk3
from hgmk3.ffield import (
    DomainError,
    FieldConstructionError,
    ReductionError,
    _is_irreducible,
    _poly_mul_mod,
    _poly_trim,
    _strong_base2,
    _strong_lucas,
    dlog,
    factor,
    field_new,
    is_prime,
    prime_power,
    quadratic_character,
    sqrt,
)
from hgmk3.ecount import e1_e2, verify_curve_trace_theorem
from hgmk3.hyperg import curve_datum, hg_sum


def brute_order(p, g):
    k, x = 1, g % p
    while x != 1:
        x = x * g % p
        k += 1
    return k


def test_generator_f7_is_least_primitive_root():
    # exhaustive order check: 2 has order 3 mod 7, 3 has order 6
    assert brute_order(7, 2) == 3
    assert brute_order(7, 3) == 6
    f = field_new(7)
    assert f.generator == 3


def test_f9_modulus_and_generator():
    f = field_new(3, 2)
    assert f.modulus == [1, 0, 1]  # x^2 + 1, least in low-to-high lex order
    # generator is x+1 (code 4): (x+1)^4 = 2 != 1, order 8
    assert f.generator == 4
    g = f.gen()
    assert (g**4).code == 2
    assert (g**8).code == 1


def test_generator_f5():
    f = field_new(5)
    assert f.generator == 2  # 2 has order 4 mod 5


def test_construction_errors_name_the_bound():
    with pytest.raises(FieldConstructionError, match="not prime"):
        field_new(6)
    with pytest.raises(FieldConstructionError, match="p = 2"):
        field_new(2, 3)
    with pytest.raises(FieldConstructionError, match="2\\^24"):
        field_new(3, 17)
    # the bound comes first: a 51-digit semiprime is not tested for primality,
    # and a degree far past the bound does not build p^n
    with pytest.raises(FieldConstructionError, match="2\\^24"):
        field_new(300000000000000000000001060000000000000000000000871)
    with pytest.raises(FieldConstructionError, match="q = 3\\^1000000000 exceeds"):
        field_new(3, 10**9)


def test_is_prime_agrees_with_sympy_below_1e5():
    assert [n for n in range(-3, 10**5) if is_prime(n)] == [
        n for n in range(-3, 10**5) if isprime(n)
    ]


def test_is_prime_agrees_with_sympy_on_62_bit_odd_n():
    # the width of the Schwartz-Zippel primes (geomver.modeval.PRIME_BITS)
    rng = random.Random(62)
    odd = [rng.getrandbits(62) | (1 << 61) | 1 for _ in range(20000)]
    primes = [n for n in odd if isprime(n)]
    assert [n for n in odd if is_prime(n)] == primes and len(primes) > 500


# strong pseudoprimes to base 2; of these only 3825123056546413051
# = 149491 * 747451 * 34233211 has no factor below 1024, so inside is_prime it
# alone reaches the Lucas test
STRONG_BASE2_PSEUDOPRIMES = (2047, 3277, 4033, 4681, 8321, 3215031751, 3825123056546413051)
# the strong Lucas pseudoprimes for Selfridge's parameters below 60000
STRONG_LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519)


@pytest.mark.parametrize("n", STRONG_BASE2_PSEUDOPRIMES)
def test_lucas_half_rejects_strong_base2_pseudoprimes(n):
    assert _strong_base2(n) and not _strong_lucas(n) and not is_prime(n)


@pytest.mark.parametrize("n", STRONG_LUCAS_PSEUDOPRIMES)
def test_base2_half_rejects_strong_lucas_pseudoprimes(n):
    assert _strong_lucas(n) and not _strong_base2(n) and not is_prime(n)


def test_each_half_passes_every_odd_prime_and_only_its_pseudoprimes():
    odd = range(3, 60000, 2)
    assert all(_strong_base2(n) and _strong_lucas(n) for n in odd if isprime(n))
    assert [n for n in odd if _strong_lucas(n) and not isprime(n)] == list(STRONG_LUCAS_PSEUDOPRIMES)
    assert [n for n in odd if _strong_base2(n) and not isprime(n)][:5] == [2047, 3277, 4033, 4681, 8321]


@contextmanager
def _deadline(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("p", [1093, 3511, 2**31 - 1])
def test_squares_are_refused_before_the_search_for_d(p):
    # no D has (D/p^2) = -1, so without the square guard the search for D runs
    # until |D| = p: about 2^30 Jacobi symbols for the Mersenne prime.  1093 and
    # 3511 are the Wieferich primes, 2^(p-1) = 1 mod p^2: their squares pass the
    # base-2 test and have no factor below 1024, so is_prime reaches the Lucas test
    with _deadline(5):
        assert not _strong_lucas(p * p)
        assert not is_prime(p * p)
    assert _strong_base2(p * p) == (p < 2**31 - 1)


def test_factor_agrees_with_sympy():
    from hgmk3.cmdata import quadratic_cm_rows

    rng = random.Random(25)
    sample = list(range(1, 2**16 + 1)) + [rng.randrange(1, 2**25) for _ in range(2000)]
    # num*den of t(t-1) at the quadratic-CM rows, which `squarefree_part` factors
    products = [t * (t - 1) for t in quadratic_cm_rows()]
    sample += [abs(r.numerator * r.denominator) for r in products]
    assert len(products) == 10
    for n in sample:
        assert factor(n) == factorint(n), n


def test_prime_power():
    assert [prime_power(q) for q in (3, 9, 2187, 16777213)] == [
        (3, 1), (3, 2), (3, 7), (16777213, 1),
    ]
    for q in (1, 15, 2**20):
        with pytest.raises(FieldConstructionError, match="not an odd prime power"):
            prime_power(q)
    with pytest.raises(FieldConstructionError, match="2\\^24"):
        prime_power(2**24 + 43)


def _module_level_imports(path):
    """Absolute module names imported by a module when it loads (not in functions)."""
    stack = list(ast.parse(path.read_text()).body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                yield node.module
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("name", ["ffield", "charsum", "hyperg", "ecount", "k3count", "nslat", "cli"])
def test_numeric_layers_import_no_sympy(name):
    path = Path(hgmk3.__file__).with_name(f"{name}.py")
    assert not [m for m in _module_level_imports(path) if m.split(".")[0] == "sympy"]


def test_dlog_examples():
    f7 = field_new(7)
    assert dlog(f7, f7.from_int(2)) == 2  # 3^2 = 2
    assert dlog(f7, f7.from_int(3)) == 1
    f5 = field_new(5)
    assert dlog(f5, f5.from_int(4)) == 2  # 2^2 = 4
    with pytest.raises(DomainError):
        dlog(f5, f5.zero())


def test_square_examples():
    f7 = field_new(7)
    squares = sorted({(x * x) % 7 for x in range(1, 7)})
    assert squares == [1, 2, 4]
    assert quadratic_character(f7, f7.from_int(6)) == -1  # 6 = -1 mod 7
    f5 = field_new(5)
    assert quadratic_character(f5, f5.from_int(4)) == 1
    assert sqrt(f5, f5.from_int(4)) == f5.from_int(2)
    assert sqrt(f5, f5.zero()) == f5.zero()
    assert sqrt(f5, f5.from_int(2)) is None


def test_sqrt_picks_smaller_exponent():
    f = field_new(13)
    for k in range(0, 12, 2):
        r = sqrt(f, f.gen() ** k)
        assert r.e == k // 2
        assert r * r == f.gen() ** k


def test_trace_examples():
    f9 = field_new(3, 2)
    x = f9.from_coeffs([0, 1])
    assert f9.trace[x.code] == 0  # x + x^3 = x - x
    assert f9.trace[f9.one().code] == 2
    f7 = field_new(7)
    assert f7.trace[4] == 4


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (7, 1), (3, 2), (3, 4), (5, 2), (31, 1), (7, 3)])
def test_dlog_roundtrip_full_table(p, n):
    f = field_new(p, n)
    if f.q > 2**10:
        pytest.skip("full-table check bounded at 2^10")
    g = f.gen()
    acc = f.one()
    for k in range(f.q - 1):
        assert acc.e == k
        assert dlog(f, acc) == k
        acc = acc * g


@pytest.mark.parametrize("p,n", [(3, 1), (7, 1), (13, 1), (3, 3), (5, 2), (7, 2)])
def test_square_count_and_parity(p, n):
    f = field_new(p, n)
    nonzero_squares = sum(1 for x in f.elements() if quadratic_character(f, x) == 1)
    assert nonzero_squares == (f.q - 1) // 2
    for x in f.elements():
        if x.is_zero:
            assert quadratic_character(f, x) == 0
        else:
            assert (quadratic_character(f, x) == 1) == (x.e % 2 == 0)


@pytest.mark.parametrize("p,n", [(3, 2), (3, 4), (5, 2), (7, 2), (3, 3)])
def test_trace_linear_and_surjective(p, n):
    f = field_new(p, n)
    if f.q > 3**4:
        pytest.skip("exhaustive trace check bounded at 3^4")
    elems = list(f.elements())
    tr = lambda x: int(f.trace[x.code])
    values = set()
    for x in elems:
        values.add(tr(x))
        for y in elems:
            assert tr(x + y) == (tr(x) + tr(y)) % p
    assert values == set(range(p))
    # F_p-scaling
    for x in elems:
        for c in range(p):
            assert tr(x * f.from_int(c)) == (c * tr(x)) % p


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (3, 3)])
def test_frobenius_permutes_and_fixes_prime_field(p, n):
    f = field_new(p, n)
    images = set()
    fixed = []
    for x in f.elements():
        y = x**p if not x.is_zero else x
        images.add(y.code)
        if y == x:
            fixed.append(x.code)
    assert len(images) == f.q
    assert sorted(fixed) == sorted(f.from_int(c).code for c in range(p))


def test_element_arithmetic_roundtrips_both_views():
    f = field_new(3, 2)
    for x in f.elements():
        assert f.from_coeffs(x.coeffs()) == x
        assert f.from_code(x.code) == x
    a = f.from_coeffs([1, 2])
    b = f.from_coeffs([2, 2])
    s = a + b
    assert s.coeffs() == [(1 + 2) % 3, (2 + 2) % 3]
    assert a - a == f.zero()
    assert (a / b) * b == a


CODE_FIELDS = [field_new(13), field_new(7, 2), field_new(5, 3), field_new(3, 5)]


@given(st.sampled_from(CODE_FIELDS), st.data())
@settings(max_examples=60, deadline=None)
def test_vectorised_codes_match_scalar_ops(f, data):
    code = st.integers(0, f.q - 1)
    pairs = data.draw(st.lists(st.tuples(code, code), max_size=40)) + [(0, 0), (0, 1), (1, 0)]
    a = np.array([x for x, _ in pairs], dtype=np.int32)
    b = np.array([y for _, y in pairs], dtype=np.int32)
    ops = {"add": (f.add_codes, lambda x, y: x + y), "sub": (f.sub_codes, lambda x, y: x - y),
           "mul": (f.mul_codes, lambda x, y: x * y)}
    for name, (vec, scalar) in ops.items():
        expect = [scalar(f.from_code(x), f.from_code(y)).code for x, y in pairs]
        assert vec(a, b).tolist() == expect, name
        assert [int(vec(np.int32(x), np.int32(y))) for x, y in pairs] == expect, name
    assert f.neg_codes(a).tolist() == [(-f.from_code(x)).code for x in a]


def scalar_tables(f):
    """exp, dlog, zech and trace by stepping the polynomial g^k one multiplication at a time."""
    p, n, q = f.p, f.n, f.q
    padded = lambda poly: list(poly) + [0] * (n - len(poly))
    code = lambda poly: sum(c * p**i for i, c in enumerate(poly))
    g = padded(_poly_trim([(f.generator // p**i) % p for i in range(n)]))
    powers, cur = [], [1]
    for _ in range(q - 1):
        powers.append(padded(cur))
        cur = _poly_mul_mod(cur, g, f.modulus, p)
    exp = [code(v) for v in powers]
    dlog = {c: k for k, c in enumerate(exp)}
    zech = [dlog.get(code([(v[0] + 1) % p] + v[1:]), -1) for v in powers]
    trace = {0: 0}
    for k, c in enumerate(exp):  # Tr(g^k) = sum_i g^(k p^i), which lies in F_p
        tr = [sum(col) % p for col in zip(*(powers[k * p**i % (q - 1)] for i in range(n)))]
        assert tr[1:] == [0] * (n - 1)
        trace[c] = tr[0]
    return exp, [dlog.get(c, -1) for c in range(q)], zech, [trace[c] for c in range(q)]


@pytest.mark.parametrize("p,n", [(3, 1), (7, 1), (3, 2), (5, 2), (7, 3), (3, 5), (3, 7)])
def test_tables_match_scalar_reference(p, n):
    f = field_new(p, n)
    exp, dlog_table, zech, trace = scalar_tables(f)
    assert f.exp.tolist() == exp
    assert f.dlog.tolist() == dlog_table
    assert f.zech.tolist() == zech
    assert f.trace.tolist() == trace
    assert f.zech[(f.q - 1) // 2] == -1  # 1 + g^((q-1)/2) = 1 - 1 = 0
    assert {a.dtype for a in (f.exp, f.dlog, f.zech, f.trace)} == {np.dtype(np.int32)}


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5),
                                 (5, 1), (5, 2), (5, 3), (7, 2)])
def test_irreducible_count_is_gauss_count(p, n):
    """The monic polynomials of degree n that pass the test number
    (1/n) sum_{d | n} mu(d) p^(n/d)."""
    passed = sum(_is_irreducible(list(tail) + [1], p) for tail in product(range(p), repeat=n))
    gauss = sum(mobius(d) * p ** (n // d) for d in divisors(n)) // n
    assert passed == gauss


def test_rational_reduction():
    f = field_new(7)
    assert f.from_rational(Fraction(81, 256)) == f.from_int(81 * pow(256, -1, 7))
    with pytest.raises(ReductionError):
        f.from_rational(Fraction(1, 7))
    assert f.from_rational(Fraction(14, 3)).code == 0


def test_element_text_encoding():
    f7 = field_new(7)
    assert f7.format_element(f7.from_int(5)) == "5"
    assert f7.parse_element("5") == f7.from_int(5)
    f9 = field_new(3, 2)
    x = f9.from_coeffs([2, 1])
    assert f9.format_element(x) == "[2,1]"
    assert f9.parse_element("[2,1]") == x


def test_equality_with_a_value_outside_the_field_is_false():
    one = field_new(7).one()
    assert not one == Fraction(1, 7)  # p divides the denominator: no element of F_7
    assert one != Fraction(1, 7)
    assert one == Fraction(8) and one == 8
    assert one != field_new(11).one() and one != 1.0


def test_elements_hash_apart_from_the_ints_they_equal():
    # the documented FqElem caveat: equal elements hash alike, an equal int need not
    f = field_new(7)
    one = f.one()
    assert one == 1 and one == 8 and hash(one) == hash(f.element(8))
    assert 1 not in {one} and {one: "x"}.get(1) is None
    assert f.element(8) in {one} and {one: "x"}[f.element(1)] == "x"
    assert {one.code: "x"}[f.element(8).code] == "x"


def _forms(field, n):
    """n as an int, as a Fraction with denominator 2 and as an element of field."""
    return n, Fraction(2 * n + field.p, 2), field.element(n)


# t with (t-1)/t a square of F_p, so that S is an int too: 3/4 = 3^2 in F_11, 2/3 = 2^2 in F_5
@pytest.mark.parametrize("p,n,other,t", [(11, 1, (13, 1), 4), (5, 2, (5, 1), 3)])
def test_every_entry_point_takes_ints_fractions_and_elements(p, n, other, t):
    """hg_sum, verify_curve_trace_theorem, e1_e2, dlog and quadratic_character reduce
    their arguments through FieldSpec.element: the three forms of one value agree, an
    element of another field is a ValueError and a float a TypeError."""
    f, g = field_new(p, n), field_new(*other)
    S = sqrt(f, Fraction(t - 1, t)).code
    assert S < p
    calls = [
        (t, lambda x: hg_sum(curve_datum(), f, x)),
        (2, lambda x: verify_curve_trace_theorem(f, x, 3)),
        (3, lambda x: verify_curve_trace_theorem(f, 2, x)),
        (t, lambda x: e1_e2(x, S, f)),
        (S, lambda x: e1_e2(t, x, f)),
        (t, lambda x: dlog(f, x)),
        (t, lambda x: quadratic_character(f, x)),
    ]
    for value, call in calls:
        results = [call(x) for x in _forms(f, value)]
        assert results[0] == results[1] == results[2]
        with pytest.raises(ValueError, match="elements of different fields"):
            call(g.element(value))
        with pytest.raises(TypeError):
            call(float(value))
