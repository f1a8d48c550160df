"""Datum compilation and the finite hypergeometric sums."""

import math
import tracemalloc
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

from hgmk3.charsum import BLOCK, CharacterSystem, PrecisionError, get_character_system
from hgmk3.cli import _field_for, odd_prime_powers
from hgmk3.ecount import verify_curve_trace_theorem
from hgmk3.ffield import DomainError, FieldSpec, FqElem, field_new
from hgmk3.hyperg import (
    DatumError,
    _s_support,
    _weights,
    curve_datum,
    datum_from_parameters,
    hg_H2,
    hg_H3,
    hg_sum,
    main_datum,
    round_certified,
)
from hgmk3.k3count import count_affine


def brute_curve_count(p, a2, a4, a6):
    n = 1
    for x in range(p):
        f = (x**3 + a2 * x**2 + a4 * x + a6) % p
        n += sum(1 for y in range(p) if (y * y - f) % p == 0)
    return n


def brute_affine_count(p, t):
    t = F(t)
    a = pow(256 * t.numerator, -1, p) * t.denominator % p
    return sum(
        1
        for x in range(p)
        for y in range(p)
        for z in range(p)
        if (x * y * z * (1 - x - y - z) - a) % p == 0
    )


def test_main_datum_compilation():
    d = main_datum()
    assert d.p_list == (4,)
    assert d.q_list == (1, 1, 1, 1)
    assert d.M == 256
    assert d.epsilon == 1
    assert d.s0() == 1
    # D(x) = x - 1
    assert d.d_multiplicities == {1: 1}


def test_curve_datum_compilation():
    d = curve_datum()
    assert d.p_list == (6, 1)
    assert d.q_list == (4, 3)
    assert d.M == F(27, 4)
    assert d.epsilon == -1
    assert d.s0() == 2
    # D(x) = (x-1)^2 (x+1) (x^2+x+1)
    assert d.d_multiplicities == {1: 2, 2: 1, 3: 1}


def test_small_datum_phi2_over_phi1():
    d = datum_from_parameters((F(1, 2),), (0,))
    assert d.p_list == (2,)
    assert d.q_list == (1, 1)
    assert d.M == 4
    assert d.epsilon == 1


def test_datum_with_vanishing_intermediate_exponents():
    # Phi_8 / (Phi_4 Phi_2 Phi_1) = (x^8-1)/(x^4-1)^2: the divisor recursion
    # passes through zero entries at 2 and 1
    d = datum_from_parameters(
        (F(1, 8), F(3, 8), F(5, 8), F(7, 8)), (0, F(1, 2), F(1, 4), F(3, 4))
    )
    assert d.p_list == (8,)
    assert d.q_list == (4, 4)
    assert d.M == 256
    assert d.epsilon == 1
    assert d.d_multiplicities == {1: 1, 2: 1, 4: 1}


@pytest.mark.parametrize("b", [20000003, 10**18 + 9])
def test_unstable_datum_is_refused_without_listing_its_units(b):
    tracemalloc.start()
    try:
        with pytest.raises(DatumError, match=f"residue 2/{b} has unequal multiplicity"):
            datum_from_parameters((F(1, b),), (0,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_datum_degree_four():
    d = datum_from_parameters((F(1, 5), F(2, 5), F(3, 5), F(4, 5)), (0, 0, 0, 0))
    assert d.p_list == (5,)
    assert d.q_list == (1,) * 5
    assert d.M == 5**5
    assert d.epsilon == -1


def test_datum_errors():
    with pytest.raises(DatumError, match="Galois-stable"):
        datum_from_parameters((F(1, 5), F(2, 5)), (0, 0))
    with pytest.raises(DatumError, match="overlap"):
        datum_from_parameters((F(1, 2), 0), (0, F(1, 4)))
    with pytest.raises(DatumError, match="equal length"):
        datum_from_parameters((F(1, 2),), (0, 0))
    with pytest.raises(DatumError, match="nonempty"):
        datum_from_parameters((), ())


def s_of(datum, q, m):
    """s(m) read from the nonzero entries that _s_support lists."""
    ms, s = _s_support(datum, q - 1)
    return dict(zip(ms.tolist(), s.tolist())).get(m % (q - 1), 0)


def test_s_multiplicity_examples():
    main = main_datum()
    curve = curve_datum()
    assert s_of(main, 7, 0) == 1
    assert s_of(main, 199, 0) == 1
    assert s_of(curve, 5, 0) == 2
    assert s_of(main, 13, 4) == 0  # d = 3 divides neither side
    # d = (q-1)/gcd: q=13, m=6 -> d=2: 2|4 once and 2|... p=(4): 1; q=(1,1,1,1): 0 -> 0
    assert s_of(main, 13, 6) == 0
    assert s_of(curve, 13, 6) == 1  # d=2 divides 6 and 4


def test_hg_sum_main_examples():
    f7 = field_new(7)
    out = hg_sum(main_datum(), f7, f7.element(4))
    assert out.rounded == -3
    assert out.residual < 1e-9
    # cross-check by the independent chain: a^2 - q for E1 over F_7 (count 10)
    assert brute_curve_count(7, 5, 3, 0) == 10
    assert (-2) ** 2 - 7 == -3


def test_hg_sum_curve_examples():
    f5 = field_new(5)
    assert hg_sum(curve_datum(), f5, f5.element(3)).rounded == F(-2, 5)
    assert hg_sum(curve_datum(), f5, f5.element(2)).rounded == F(-3, 5)
    # y^2 = x^3 - x + 1 has 8 points; 8 = 6 - 5 H -> H = -2/5
    assert brute_curve_count(5, 0, -1, 1) == 8
    assert brute_curve_count(5, 0, -1, 2) == 3


def test_hg_H3_examples():
    f7 = field_new(7)
    assert hg_H3(f7, f7.element(4)) == -3
    assert hg_H3(f7, F(1, 2)) == -3  # 1/2 = 4 mod 7
    f5 = field_new(5)
    oracle = brute_affine_count(5, 1) + 3 * 5 - 3 - 25
    assert hg_H3(f5, f5.one()) == oracle


def test_hg_H2_examples():
    f5 = field_new(5)
    assert hg_H2(f5, f5.element(3)) == F(-2, 5)
    assert hg_H2(f5, f5.element(2)) == F(-3, 5)
    f7 = field_new(7)
    h = hg_H2(f7, f7.element(4))
    assert (7 * h) ** 2 == 4  # +-2/7 with 49 H^2 - 7 = -3
    assert 49 * h * h - 7 == -3


def test_hg_H2_preconditions():
    f3 = field_new(3)
    with pytest.raises(DomainError):
        hg_H2(f3, f3.one())
    f5 = field_new(5)
    with pytest.raises(DomainError):
        hg_H2(f5, f5.zero())


def test_argument_reduction_needs_denominator_coprime():
    f3 = field_new(3)
    # curve datum has M = 27/4: eps*M^{-1} has numerator 4, denominator 27
    with pytest.raises((DomainError, ZeroDivisionError)):
        hg_sum(curve_datum(), f3, f3.one())


def next_generator_field(f):
    """F_q rebuilt on the least generator code above f's: g^k generates iff gcd(k, q - 1) = 1."""
    code = next(c for c in range(f.generator + 1, f.q) if math.gcd(int(f.dlog[c]), f.q - 1) == 1)
    return FieldSpec(f.p, f.n, generator=code)


@pytest.mark.parametrize("q,t", [(7, 2), (11, 3), (13, 5), (9, 2)])
def test_generator_independence(q, t):
    from sympy import factorint

    p, n = next(iter(factorint(q).items()))
    f = field_new(p, n)
    g = next_generator_field(f)
    assert g.generator > f.generator
    a = hg_H3(f, F(1, t))
    b = hg_H3(g, F(1, t))
    assert a == b


# F_3^x has the one generator 2, so q = 3 has no second field to compare
@pytest.mark.parametrize("q", odd_prime_powers(5, 49))
def test_sums_and_counts_do_not_depend_on_the_generator(q):
    f = _field_for(q)
    g = next_generator_field(f)
    assert g.generator > f.generator
    for t in (2, 3, -1):
        if t % f.p == 0:
            continue
        assert hg_H3(f, t) == hg_H3(g, t)
        if math.gcd(q, 6) == 1:
            assert q * hg_H2(f, t) == q * hg_H2(g, t)
        assert count_affine(f, t) == count_affine(g, t)


@pytest.mark.parametrize("a", [2, 3])
def test_additive_character_independence(a):
    f = field_new(11)
    base = get_character_system(f)
    tw = CharacterSystem(f, twist=f.element(a).code)
    for t in (2, 3, 7):
        v1 = hg_sum(main_datum(), f, f.element(t), cs=base)
        v2 = hg_sum(main_datum(), f, f.element(t), cs=tw)
        assert v1.rounded == v2.rounded
        v1 = hg_sum(curve_datum(), f, f.element(t), cs=base)
        v2 = hg_sum(curve_datum(), f, f.element(t), cs=tw)
        assert v1.rounded == v2.rounded


def hand_coded_H3(field, t_elem):
    """Term-for-term transcription of the specialised sum, independent of HGDatum."""
    cs = get_character_system(field)
    q = field.q
    N = q - 1
    k = t_elem.e
    scale = field.element(F(1, 256)) * t_elem  # M^{-1} t, eps = +1
    total = 0j
    for m in range(N):
        sm = 1 if m == 0 else 0
        term = float(q) ** (-1 + sm)
        term *= cs.gauss[4 * m % N] * cs.gauss[-m % N] ** 4
        term *= cs.omega_vector(scale, [m])[0]
        total += term
    return (-1) ** 5 / (1 - q) * total


def hand_coded_H2(field, t_elem):
    cs = get_character_system(field)
    q = field.q
    N = q - 1
    scale = field.element(F(-4, 27)) * t_elem
    total = 0j
    for m in range(N):
        d = N // math.gcd(m, N) if m else 1
        sm = {1: 2, 2: 1, 3: 1}.get(d, 0)
        term = float(q) ** (-2 + sm)
        term *= cs.gauss[6 * m % N] * cs.gauss[m] * cs.gauss[-4 * m % N] * cs.gauss[-3 * m % N]
        term *= cs.omega_vector(scale, [m])[0]
        total += term
    return total / (1 - q)


@pytest.mark.parametrize("q", [7, 11, 13])
def test_engine_matches_hand_coded_formulas(q):
    f = field_new(q)
    for t in range(2, q):
        te = f.element(t)
        got = hg_sum(main_datum(), f, te)
        assert abs(got.value - hand_coded_H3(f, te)) < 1e-8
        if math.gcd(q, 6) == 1:
            got2 = hg_sum(curve_datum(), f, te)
            assert abs(got2.value - hand_coded_H2(f, te)) < 1e-8


@pytest.mark.parametrize("q,t", [(7, 2), (11, 2), (13, 3), (19, 5)])
def test_normalization_bridge(q, t):
    # H3(1/t) = -1/q + (1/(q(q-1))) sum g(4m) g(-m)^4 omega(1/(256t))^m
    f = field_new(q)
    cs = get_character_system(f)
    N = q - 1
    z = f.element(F(1, 256 * t))
    m = np.arange(N)
    ssum = np.sum(cs.gauss[4 * m % N] * cs.gauss[-m % N] ** 4 * cs.omega_vector(z, m))
    rhs = -1 / q + ssum / (q * (q - 1))
    lhs = hg_H3(f, F(1, t))
    assert abs(lhs - rhs) < 1e-8


def test_h3_integrality_bound_guard():
    f = field_new(7)
    # legitimate values never trip it; fabricate by calling the guard path directly
    out = hg_sum(main_datum(), f, f.element(2))
    assert abs(int(out.rounded)) <= 3 * 7


def test_rounding_failure_raises_without_retry(monkeypatch):
    import hgmk3.hyperg as hyperg

    f = field_new(7)
    cs = CharacterSystem(f)
    before = hg_sum(main_datum(), f, f.element(4), cs=cs)
    assert before.rounded == -3
    # L = 2, R = 3: m = 3 l + r, r in [0, 1], reads g at 4m and -m mod 6, {0, 2, 3, 4, 5}: never g(1)
    cs.gauss[1] += 0.5
    cs._hg_cache.clear()
    assert hg_sum(main_datum(), f, f.element(4), cs=cs).value == before.value
    cs.gauss[5] += 0.5
    cs._hg_cache.clear()

    def no_second_table(*args, **kwargs):
        raise AssertionError("hg_sum fetched another table")

    monkeypatch.setattr(hyperg, "get_character_system", no_second_table)
    with pytest.raises(PrecisionError):
        hg_sum(main_datum(), f, f.element(4), cs=cs)


def test_value_past_the_float_resolution_raises():
    # q^(s0-1) H near 10^19 has a float spacing of 4096: no residual could show
    f = field_new(1009)
    datum = datum_from_parameters((F(1, 2),) * 4, (F(1, 6), F(5, 6)) * 2)
    with pytest.raises(PrecisionError, match="float spacing"):
        hg_sum(datum, f, f.element(2))
    with pytest.raises(PrecisionError, match="float spacing"):
        round_certified(complex(2.0**43), f.q)
    assert round_certified(complex(2.0**43 - 1), f.q) == (2**43 - 1, 0.0)


def test_default_settings_above_ten_thousand():
    f = field_new(10007)
    out = hg_sum(main_datum(), f, 2)
    assert out.rounded == 6479 and out.residual < 1e-9
    assert hg_H3(f, 2) == 6479


DEGREE_FOUR = datum_from_parameters((F(1, 5), F(2, 5), F(3, 5), F(4, 5)), (0, 0, 0, 0))
# N = q - 1 is 2 or a perfect square at 3, 5, 17, 37, 101 (no padding, or a
# single-row matrix); 9, 25, 27, 343 are extension fields
BLOCKED_FIELDS = [(3, 1), (5, 1), (17, 1), (37, 1), (101, 1), (3, 2), (5, 2), (3, 3), (7, 3), (1009, 1)]


def _data_for(q):
    return [d for d in (main_datum(), curve_datum(), DEGREE_FOUR) if math.gcd(q, d.denominator_lcm) == 1]


def gcd_s_of_m(datum, q):
    """s(m) by the order of m in Z/(q-1), one gcd per m."""
    ms = np.arange(q - 1, dtype=np.int64)
    d = (q - 1) // np.gcd(ms, q - 1)
    d[0] = 1
    out = np.zeros(q - 1, dtype=np.int64)
    for dv, mult in datum.d_multiplicities.items():
        out[d == dv] = mult
    return out


def whole_line_weights(datum, field):
    """(-1)^{r+s}/(1-q) w(m) over the whole line m in [0, q-2], from the Gauss table
    alone: no weight cache, no pairing of m with q-1-m."""
    cs = get_character_system(field)
    q = field.q
    N = q - 1
    ms = np.arange(N, dtype=np.int64)
    w = np.float_power(float(q), gcd_s_of_m(datum, q) - datum.s0()).astype(complex)
    for p in datum.p_list:
        w *= cs.gauss[(p * ms) % N]
    for qq in datum.q_list:
        w *= cs.gauss[(-qq * ms) % N]
    return w * (-1) ** (len(datum.p_list) + len(datum.q_list)) / (1 - q)


def whole_line_terms(weights, datum, field, t_elem):
    """The terms of the sum at t: the weights times omega(eps t / M)^m."""
    z = field.element(F(datum.epsilon) / datum.M) * t_elem
    cs = get_character_system(field)
    return weights * cs.omega_vector(z, np.arange(field.q - 1, dtype=np.int64))


def flat_hg_sum(datum, field, t_elem):
    """The sum as one flat sum of the whole-line terms."""
    terms = whole_line_terms(whole_line_weights(datum, field), datum, field, t_elem)
    value = complex(terms.sum())
    denom = field.q ** (datum.s0() - 1)
    return value, F(round((value * denom).real), denom)


@pytest.mark.parametrize("p,n", BLOCKED_FIELDS)
def test_blocked_sum_matches_flat_reference(p, n):
    f = field_new(p, n)
    for datum in _data_for(f.q):
        for e in range(f.q - 1):
            t = FqElem(f, e)
            got = hg_sum(datum, f, t)
            value, rounded = flat_hg_sum(datum, f, t)
            assert got.rounded == rounded
            assert abs(got.value - value) < 1e-8


@pytest.mark.parametrize("p,n", BLOCKED_FIELDS)
def test_s_of_m_matches_gcd_formula(p, n):
    q = p**n
    for datum in (main_datum(), curve_datum(), DEGREE_FOUR):
        s_of_m = np.zeros(q - 1, dtype=np.int64)
        ms, s = _s_support(datum, q - 1)
        s_of_m[ms] = s
        assert np.array_equal(s_of_m, gcd_s_of_m(datum, q))


def stage_length(N):
    """L: the largest divisor of N not above sqrt(N)."""
    return max(d for d in range(1, math.isqrt(N) + 1) if N % d == 0)


@pytest.mark.parametrize("p,n", BLOCKED_FIELDS)
def test_weight_cache_holds_one_padded_matrix_per_datum(p, n):
    f = field_new(p, n)
    cs = CharacterSystem(f)
    N = f.q - 1
    L = stage_length(N)
    H = N // L // 2 + 1  # the columns r in [0, R/2]
    data = _data_for(f.q)
    lookups = []
    zeta = cs.zeta
    cs.zeta = lambda r: (lookups.append(len(r)), zeta(r))[1]
    for datum in data:
        for t in (1, 2, 1):
            hg_sum(datum, f, f.element(t), cs=cs)
    assert len(cs._hg_cache) == len(data)
    for datum in data:
        T = cs._hg_cache[datum.key()]
        assert T.shape[0] == L
        _, A, B = T.shape
        assert A * B >= H and A * B - H < B and A <= B
        assert not T.reshape(L, -1)[:, H:].any()
    # per t: A + B roots of unity, not q - 1
    assert lookups and max(lookups) <= B


# the paper's two data and two more of degree 2 and 3; with DEGREE_FOUR they
# cover s0 = 0, 1, 2 and sign epsilon = +-1
CENSUS = [
    main_datum(),
    curve_datum(),
    datum_from_parameters((F(1, 3), F(2, 3)), (0, 0)),
    datum_from_parameters((F(1, 2),) * 3, (F(1, 4), F(3, 4), 0)),
]


# L = 3 and R = 4 at 13; L = 6 at 1000003; L = 46 at 3^11
@pytest.mark.parametrize("p,n", [(13, 1), (1000003, 1), (3, 11)])
def test_stage_transform_is_the_column_block_loop_bit_for_bit(p, n, monkeypatch):
    f = field_new(p, n)
    cs = CharacterSystem(f)
    N = f.q - 1
    L = stage_length(N)
    R = N // L
    H = R // 2 + 1
    halved = [0, R // 2] if R % 2 == 0 else [0]
    for datum in [d for d in CENSUS if math.gcd(f.q, d.denominator_lcm) == 1]:
        T = _weights(datum, cs).reshape(L, -1)
        cs._hg_cache.clear()
        with monkeypatch.context() as m:
            m.setattr(np.fft, "ifft", lambda a, *args, **kwargs: a)  # the filled rows, untransformed
            filled = _weights(datum, cs).reshape(L, -1).copy()
        cs._hg_cache.clear()
        filled[:, halved] *= 2  # exact: undoes the halving
        # one ifft per block of BLOCK // L columns r in [0, R/2], as the stage ran before
        # it went through charsum._line_blocks over the whole padded array
        w = filled[:, :H]
        cols = max(1, BLOCK // L)
        for start in range(0, H, cols):
            block = w[:, start:start + cols]
            np.fft.ifft(block, axis=0, norm="forward", out=block)
        w[:, halved] /= 2
        assert np.array_equal(T, filled), datum.key()
        assert not T[:, H:].any()


def index_gather_fill(datum, cs, L, R, H):
    """The rows w(R l + r), r in [0, R/2], filled as `_weights` filled them before it
    read strided views of the table: each multiplier's Gauss values gathered through
    the int64 indices (c m) mod N of a block of m."""
    q = cs.field.q
    N = q - 1
    w = np.zeros((L, H), dtype=complex)
    w.fill(float(q) ** -datum.s0())
    ms, s = _s_support(datum, N)
    ls, rs = np.divmod(ms, R)
    kept = rs < H
    w[ls[kept], rs[kept]] = np.float_power(float(q), s[kept] - datum.s0())
    multipliers = Counter(datum.p_list + tuple(-qq for qq in datum.q_list))
    for l in range(L):
        for start in range(0, H, BLOCK):
            seg = w[l, start:start + BLOCK]
            m = np.arange(R * l + start, R * l + start + len(seg), dtype=np.int64)
            for c, count in multipliers.items():
                g = cs.gauss[(c * m) % N]
                for _ in range(count):
                    seg *= g
    return w


# L = 3 and R = 4 at 13 (multipliers up to 6 wrap several times in a row of 3); L = 6
# at 1000003, whose rows span several blocks; L = 46 at 3^11
@pytest.mark.parametrize("p,n", [(13, 1), (1000003, 1), (3, 11)])
def test_strided_fill_is_the_index_gather_fill_bit_for_bit(p, n, monkeypatch):
    f = field_new(p, n)
    cs = CharacterSystem(f)
    N = f.q - 1
    L = stage_length(N)
    R = N // L
    H = R // 2 + 1
    data = [d for d in CENSUS + [DEGREE_FOUR] if math.gcd(f.q, d.denominator_lcm) == 1]
    assert len(data) >= 3
    for datum in data:
        with monkeypatch.context() as m:
            m.setattr(np.fft, "ifft", lambda a, *args, **kwargs: a)  # the filled rows, untransformed
            filled = _weights(datum, cs).reshape(L, -1)[:, :H].copy()
        cs._hg_cache.clear()
        expect = index_gather_fill(datum, cs, L, R, H)
        expect[:, [0, R // 2] if R % 2 == 0 else [0]] /= 2
        assert np.array_equal(filled, expect), datum.key()


# L = 1 at q = 3; R = N/L odd at 7 (L = 2), 7^3 (L = 18) and 2003 (L = 26);
# R even at 9 (L = 2), 13 (L = 3) and 3^5 (L = 11)
@pytest.mark.parametrize("p,n", [(3, 1), (7, 1), (3, 2), (13, 1), (3, 5), (7, 3), (2003, 1)])
def test_one_stage_sum_matches_whole_line_oracle(p, n, monkeypatch):
    import hgmk3.hyperg as hyperg

    # every cell, certified or not: the oracle checks the sum, not its rounding
    monkeypatch.setattr(hyperg, "round_certified", lambda value, q: (0, 0.0))
    f = field_new(p, n)
    data = [d for d in CENSUS + [DEGREE_FOUR] if math.gcd(f.q, d.denominator_lcm) == 1]
    assert data
    for datum in data:
        weights = whole_line_weights(datum, f)
        for e in range(f.q - 1):
            t = FqElem(f, e)
            terms = whole_line_terms(weights, datum, f, t)
            got = hg_sum(datum, f, t).value
            # relative to the sum of |terms|, the scale of the float error of either side
            assert abs(got - terms.sum()) <= 1e-9 * np.abs(terms).sum()


@pytest.mark.parametrize("p,n", [(3, 1), (7, 1), (3, 2), (11, 1), (101, 1), (7, 3)])
def test_sum_is_real_by_construction(p, n):
    f = field_new(p, n)
    for datum in _data_for(f.q):
        for t in (1, 2, -1):
            assert hg_sum(datum, f, f.element(t)).value.imag == 0.0


def test_large_field():
    f = field_new(1000003)
    assert hg_H3(f, 2) == 793921
    assert f.q * hg_H2(f, 2) == 788
    for a, b in [(1, 1), (5, 7), (123456, 654321)]:
        rep = verify_curve_trace_theorem(f, a, b)
        assert rep.passed and not rep.skipped and rep.count == rep.rhs
