"""Character layer: Gauss table values, reflection, modulus, rescaling."""

import cmath
import math

import numpy as np
import pytest

from hgmk3 import charsum
from hgmk3.charsum import SPLIT_MIN, CharacterSystem, get_character_system
from hgmk3.ffield import DomainError, field_new


def brute_gauss(field, m, twist=1):
    """Direct two-loop summation oracle, independent of the FFT path."""
    q, p = field.q, field.p
    total = 0j
    for k in range(q - 1):
        x = field.from_code(field.generator) ** k
        x_twisted = x * field.from_code(twist)
        total += cmath.exp(2j * cmath.pi * m * k / (q - 1)) * cmath.exp(
            2j * cmath.pi * int(field.trace_codes(x_twisted.code)) / p
        )
    return total


def test_g1_over_f3_is_i_sqrt3():
    f = field_new(3)
    cs = CharacterSystem(f)
    oracle = brute_gauss(f, 1)
    assert abs(oracle - 1j * math.sqrt(3)) < 1e-12
    assert abs(cs.gauss[1] - 1j * math.sqrt(3)) < 1e-9


def test_g0_is_exact_minus_one():
    for p, n in [(3, 1), (5, 1), (7, 1), (3, 2)]:
        cs = CharacterSystem(field_new(p, n))
        assert cs.gauss[0] == -1.0
        assert len(cs.gauss) == p**n - 1  # so m = q-1 reduces to 0


def test_quadratic_gauss_sum_f5():
    f = field_new(5)
    cs = CharacterSystem(f)
    oracle = brute_gauss(f, 2)
    assert abs(oracle - math.sqrt(5)) < 1e-12
    assert abs(cs.gauss[2] - math.sqrt(5)) < 1e-9


def test_index_reduction():
    f3 = field_new(3)
    cs3 = CharacterSystem(f3)
    # the table has exactly q-1 entries, so a negative index is m mod q-1
    assert cs3.gauss.shape == (2,)
    assert cs3.gauss[-1] == cs3.gauss[1]  # -1 = 1 mod 2
    f5 = field_new(5)
    cs5 = CharacterSystem(f5)
    assert cs5.gauss.shape == (4,)
    assert cs5.gauss[-2] == cs5.gauss[2]


@pytest.mark.parametrize(
    "p,n,split_min",
    [pytest.param(p, n, SPLIT_MIN, id=f"{p}-{n}") for p, n in [(3, 2), (7, 1), (13, 1)]]
    + [
        pytest.param(p, n, 1, id=f"{p}-{n}-split")
        for p, n in [(7, 1), (13, 1), (3, 2), (17, 1), (97, 1), (107, 1), (3, 5), (7, 3)]
    ],
)
def test_full_table_matches_brute_force(p, n, split_min, monkeypatch):
    # split_min = 1 builds by the Good-Thomas split, at q - 1 = 6, 12, 8,
    # 16 (one axis), 96 = 2^5 * 3 (16 rows in the half grid), 106,
    # 242 = 2 * 11^2 and 342 = 2 * 3^2 * 19
    monkeypatch.setattr(charsum, "SPLIT_MIN", split_min)
    f = field_new(p, n)
    cs = CharacterSystem(f)
    for m in range(1, f.q - 1):
        assert abs(cs.gauss[m] - brute_gauss(f, m)) < 1e-9


@pytest.mark.parametrize("p,n", [(3, 9), (3, 10)])
def test_split_residual_stays_near_the_plain_one(p, n, monkeypatch):
    # over F_3^n psi takes 3 values, each about q/3 times; one set of bits per
    # value in both halves of the grid keeps the residual near the plain
    # transform's (0.6x and 2.5x here; 6x and 15x when the halves disagree)
    f = field_new(p, n)
    plain = CharacterSystem(f).residual
    monkeypatch.setattr(charsum, "SPLIT_MIN", 1)
    assert CharacterSystem(f).residual < 5 * plain


def _whole_length_table(f):
    """The single length-(q-1) transform, as the table below SPLIT_MIN is built."""
    return np.fft.ifft(np.exp(2j * np.pi * f.trace_codes(f.exp) / f.p)) * (f.q - 1)


@pytest.mark.parametrize("p,n", [(101, 1), (199, 1), (3, 4), (7, 3)])
def test_plain_table_is_the_whole_length_ifft_bit_for_bit(p, n):
    f = field_new(p, n)
    assert f.q - 1 < SPLIT_MIN
    cs = CharacterSystem(f)
    assert cs.gauss[0] == -1.0
    assert np.array_equal(cs.gauss[1:], _whole_length_table(f)[1:])


def test_split_table_at_a_million():
    f = field_new(1000003)
    q, N = f.q, f.q - 1
    assert N >= SPLIT_MIN
    cs = get_character_system(f)
    assert cs.gauss[0] == -1.0
    assert np.max(np.abs(cs.gauss[1:] - _whole_length_table(f)[1:])) < 1e-9 * q
    m = np.arange(1, N)
    lhs = cs.gauss[m] * cs.gauss[-m % N]
    assert np.max(np.abs(lhs - cs.omega_vector(-f.one(), m) * q)) < 1e-8 * q
    # 16 entries against the direct O(q) sum over x = g^k
    psi = np.exp(2j * np.pi * f.trace_codes(f.exp) / f.p)
    k = np.arange(N, dtype=np.int64)
    for mm in np.random.default_rng(23).integers(1, N, 16).tolist():
        direct = np.sum(np.exp(2j * np.pi * (k * mm % N) / N) * psi)
        assert abs(cs.gauss[mm] - direct) < 1e-9


@pytest.mark.parametrize("p,n", [(3, 1), (31, 1), (113, 1), (3, 5), (7, 3), (5, 3), (343 and 7, 3)])
def test_modulus_q_within_1e9_relative(p, n):
    f = field_new(p, n)
    cs = CharacterSystem(f)
    mods = np.abs(cs.gauss[1:]) ** 2
    assert np.max(np.abs(mods - f.q)) / f.q < 1e-9


@pytest.mark.parametrize("p,n", [(7, 1), (3, 2), (5, 2), (7, 3)])
def test_reflection_identity(p, n):
    # g(m) g(-m) = omega^m(-1) q for m != 0
    f = field_new(p, n)
    cs = CharacterSystem(f)
    q1 = f.q - 1
    m = np.arange(1, q1)
    lhs = cs.gauss[m] * cs.gauss[-m % q1]
    rhs = cs.omega_vector(-f.one(), m) * f.q
    assert np.max(np.abs(lhs - rhs)) < 1e-8 * f.q


@pytest.mark.parametrize(
    "p,n,twist",
    [(3, 1, 1), (7, 1, 1), (3, 2, 1), (101, 1, 1), (7, 3, 1), (101, 1, 2), (65537, 1, 1), (1000003, 1, 1)],
)
def test_conjugate_symmetry(p, n, twist):
    # g(-k) = omega^k(-1) conj(g(k)) = (-1)^k conj(g(k)), on both paths and for a
    # twisted psi; the paired sums of hyperg rest on it
    f = field_new(p, n)
    cs = CharacterSystem(f, twist=twist)
    N = f.q - 1
    assert (N >= SPLIT_MIN) == (f.q > 10**4)
    k = np.arange(N)
    sign = np.where(k % 2, -1.0, 1.0)
    dev = np.abs(cs.gauss[-k % N] - sign * np.conj(cs.gauss[k]))
    assert dev.max() <= charsum.tolerance(f.q)


def test_omega_power_examples():
    f7 = field_new(7)
    cs = CharacterSystem(f7)
    assert abs(cs.omega_vector(f7.element(3), [1])[0] - cmath.exp(2j * cmath.pi / 6)) < 1e-12
    f5 = field_new(5)
    cs5 = CharacterSystem(f5)
    assert abs(cs5.omega_vector(f5.element(4), [2])[0] - 1) < 1e-12  # zeta_4^4
    assert abs(cs5.omega_vector(f5.one(), [3])[0] - 1) < 1e-12
    with pytest.raises(DomainError):
        cs5.omega_vector(f5.zero(), [1])


@pytest.mark.parametrize(
    "a,split_min",
    [pytest.param(2, SPLIT_MIN, id="2"), pytest.param(3, SPLIT_MIN, id="3"), pytest.param(2, 1, id="2-split")],
)
def test_additive_rescaling(a, split_min, monkeypatch):
    # psi(x) = psi_q(ax) rescales g(chi) by conj(chi(a)); split_min = 1 builds
    # both tables by the Good-Thomas split
    monkeypatch.setattr(charsum, "SPLIT_MIN", split_min)
    f = field_new(11)
    base = CharacterSystem(f)
    tw = CharacterSystem(f, twist=f.element(a).code)
    m = np.arange(1, f.q - 1)
    expect = np.conj(base.omega_vector(f.element(a), m)) * base.gauss[m]
    assert np.max(np.abs(tw.gauss[m] - expect)) < 1e-8


def test_only_53_bit_precision_is_accepted():
    f = field_new(17)
    assert get_character_system(f).precision == 53
    for bits in (64, 128):
        with pytest.raises(ValueError):
            get_character_system(f, bits)  # also when the 53-bit table is cached
        with pytest.raises(TypeError):
            CharacterSystem(f, bits)  # no precision argument; twist is keyword-only


def test_cached_factory_distinguishes_twist_and_precision():
    f = field_new(13)
    a = get_character_system(f)
    b = get_character_system(f)
    assert a is b
    assert get_character_system(f, 53) is a  # the precision argument is not a key
    assert f.character_system is a


def _zeta_table(q):
    """zeta_{q-1}^r for every r, precomputed: the values omega_vector must match bit for bit."""
    return np.exp(2j * np.pi * np.arange(q - 1) / (q - 1))


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 2), (101, 1), (7, 3)])
def test_omega_vector_is_bit_identical_to_table_gather(p, n):
    f = field_new(p, n)
    N = f.q - 1
    cs = get_character_system(f)
    table = _zeta_table(f.q)
    ms = np.arange(N, dtype=np.int64)
    for k in range(N):
        got = cs.omega_vector(f.from_code(f.generator) ** k, ms)
        assert np.array_equal(got, table[(ms * k) % N])


def test_omega_vector_is_bit_identical_to_table_gather_at_a_million():
    f = field_new(1000003)
    N = f.q - 1
    cs = get_character_system(f)
    table = _zeta_table(f.q)
    rng = np.random.default_rng(1)
    ms = np.concatenate([np.arange(64), rng.integers(0, N, 4096)])
    for k in [1, 2, 3, N // 2, N - 1, *rng.integers(1, N, 8).tolist()]:
        got = cs.omega_vector(f.from_code(f.generator) ** k, ms)
        assert np.array_equal(got, table[(ms * k) % N])


def test_system_holds_one_length_q_minus_1_array():
    f = field_new(101)
    cs = get_character_system(f)
    arrays = {name for name, v in vars(cs).items() if isinstance(v, np.ndarray)}
    assert arrays == {"gauss"} and cs.gauss.shape == (f.q - 1,)
