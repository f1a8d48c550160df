"""Hypergeometric data (alpha, beta) and the finite sum H_q(alpha, beta | t).

A datum is compiled from two Galois-stable multisets of rationals into integer
tuples (p_1..p_r), (q_1..q_s) with

    prod_i (x - e^{2 pi i alpha_i}) / prod (x - e^{2 pi i beta_i})
        = prod_j (x^{p_j} - 1) / prod_k (x^{q_k} - 1),

plus the scale M = prod p_j^{p_j} / prod q_k^{q_k}, the sign epsilon
(+1 iff sum q_k is even) and the root multiplicities s(m) of
D(x) = gcd(prod (x^{p_j}-1), prod (x^{q_k}-1)), listed where nonzero by
`_s_support`.  The sum itself is

    H_q = (-1)^{r+s}/(1-q) * sum_m q^{-s(0)+s(m)}
          prod_j g(p_j m) prod_k g(-q_k m) * omega(eps M^{-1} t)^m.

The weights w(m) depend on the datum and the Gauss table only, and over m the
sum is a DFT of length N = q - 1 at the frequency k = dlog(eps M^{-1} t).  One
Cooley-Tukey stage of that DFT is precomputed per datum: with L the largest
divisor of N not above sqrt(N), R = N/L and m = R l + r,

    sum_m w(m) zeta_N^{km} = sum_r zeta_N^{kr} T[k mod L, r],
    T[j, r] = sum_l w(R l + r) zeta_L^{jl}.

w(N - m) = conj(w(m)): psi(-x) = conj(psi(x)) and omega(-1) = -1 give
g(-k) = (-1)^k conj(g(k)), and sum p_j = sum q_k cancels the signs.  So
T[j, R - r] = zeta_L^{-j} conj(T[j, r]), and for j = k mod L the terms at r and
R - r are conjugates: the sum over r is 2 Re of a sum over r in [0, R/2], in
which the self-paired columns r = 0 and (R even) r = R/2 carry T/2.  The cache
on the CharacterSystem is an L x A x B array T[j, a, b] = T[j, a B + b],
B = ceil(sqrt(R/2 + 1)), zero past r = R/2.  With zeta_N^{k (a B + b)} = u[a] v[b]
the sum over m is 2 Re(u^T T[k mod L] v): per t one discrete log, one complex
matrix-vector product over N/(2L) weights and A + B roots of unity.

Values are certified by rounding: q^{s(0)-1} H_q must lie within an absolute
threshold of an integer, at a magnitude where the float spacing is finer than
that threshold, or hg_sum raises charsum.PrecisionError.  The same
rule (`round_certified`) certifies the Gauss expression of k3count's bcm and
trace checks.  There is no retry: the 53-bit Gauss table is the only one.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

import numpy as np

from .charsum import PrecisionError, _line_blocks, get_character_system
from .ffield import DomainError, as_rational, dlog

ROUNDING_THRESHOLD = 1e-3  # absolute


class DatumError(ValueError):
    """Raised for inputs that do not define a hypergeometric datum."""


class IntegrityError(ArithmeticError):
    """Raised when a certified value violates its trace bound (bug or bad reduction)."""


@dataclass(frozen=True)
class HGDatum:
    """Compiled hypergeometric datum."""

    alpha: tuple
    beta: tuple
    p_list: tuple
    q_list: tuple
    M: Fraction
    epsilon: int
    d_multiplicities: dict  # d -> multiplicity of primitive d-th roots in D(x)

    @cached_property
    def denominator_lcm(self):
        out = 1
        for a in self.alpha + self.beta:
            out = math.lcm(out, a.denominator)
        return out

    def s0(self):
        return min(len(self.p_list), len(self.q_list))

    def key(self):
        return (self.p_list, self.q_list)


def _cyclotomic_multiset(entries):
    """Multiplicity of each Phi_d in prod (x - e^{2 pi i a}) for Galois-stable input.

    The units r mod b are scanned lazily, up to the least one whose multiplicity is
    not the largest.  A Galois-stable multiset holds all phi(b) >= sqrt(b/2) units,
    so the scan runs over at most 2 k^2 residues for k entries of denominator b;
    an unstable one stops at the latest at the first unit the entries miss.
    """
    per_residue = {}
    for a in entries:
        per_residue.setdefault(a.denominator, Counter())[a.numerator] += 1
    mult = {}
    for b, residues in per_residue.items():
        top = max(residues.values())
        bad = next((r for r in range(b) if math.gcd(r, b) == 1 and residues[r] != top), None)
        if bad is not None:
            raise DatumError(
                f"parameters are not Galois-stable: residue {bad}/{b} has unequal multiplicity"
            )
        mult[b] = top
    return mult


def _divisor_closure(ds):
    out = set()
    for d in ds:
        for k in range(1, d + 1):
            if d % k == 0:
                out.add(k)
    return out


def datum_from_parameters(alpha, beta):
    """Compile (alpha, beta) into the integer datum; raises DatumError when invalid."""
    alpha, beta = (tuple(sorted(map(as_rational, params))) for params in (alpha, beta))
    if len(alpha) != len(beta):
        raise DatumError("alpha and beta must have equal length")
    if not alpha:
        raise DatumError("alpha and beta must be nonempty")
    for a in alpha + beta:
        if not 0 <= a < 1:
            raise DatumError(f"parameter {a} outside [0, 1)")
    overlap = set(alpha) & set(beta)
    if overlap:
        raise DatumError(f"alpha and beta overlap at {min(overlap)}")
    num = _cyclotomic_multiset(alpha)
    den = _cyclotomic_multiset(beta)
    exps = {d: num.get(d, 0) - den.get(d, 0) for d in set(num) | set(den)}
    support = _divisor_closure({d for d, e in exps.items() if e})
    # e_d = sum_{d | k} gamma_k, solved downward over the divisor-closed support
    gamma = {}
    for d in sorted(support, reverse=True):
        gamma[d] = exps.get(d, 0) - sum(gamma[k] for k in support if k > d and k % d == 0)
    p_list = tuple(sorted((d for d, g in gamma.items() for _ in range(g) if g > 0), reverse=True))
    q_list = tuple(sorted((d for d, g in gamma.items() for _ in range(-g) if g < 0), reverse=True))
    # reconstruction check: prod (x^{p}-1)/prod (x^{q}-1) == prod Phi_d^{e_d}
    recon = Counter()
    for p in p_list:
        recon.update(_divisor_closure({p}))
    for q in q_list:
        recon.subtract(_divisor_closure({q}))
    if {d: e for d, e in recon.items() if e} != {d: e for d, e in exps.items() if e}:
        raise DatumError("cyclotomic decomposition does not reproduce the parameters")
    if sum(p_list) != sum(q_list):
        raise DatumError("sum of p_i must equal sum of q_j")
    M = Fraction(1)
    for p in p_list:
        M *= Fraction(p) ** p
    for q in q_list:
        M /= Fraction(q) ** q
    epsilon = 1 if sum(q_list) % 2 == 0 else -1
    d_mult = {}
    for d in _divisor_closure(set(p_list) | set(q_list)):
        m = min(
            sum(1 for p in p_list if p % d == 0),
            sum(1 for q in q_list if q % d == 0),
        )
        if m:
            d_mult[d] = m
    return HGDatum(alpha, beta, p_list, q_list, M, epsilon, d_mult)


@dataclass
class HGValue:
    """One evaluated sum: raw complex value, certified rounding, residual."""

    value: complex
    rounded: Fraction
    residual: float


def _s_support(datum, N):
    """(ms, s) of the nonzero s(m): m = j N/d for d | N with gcd(j, d) = 1 has order d."""
    ms, s = [], []
    for d, mult in datum.d_multiplicities.items():
        if N % d == 0:
            js = [j for j in range(d) if math.gcd(j, d) == 1]
            ms += [j * (N // d) for j in js]
            s += [mult] * len(js)
    return np.array(ms, dtype=np.int64), np.array(s, dtype=np.int64)


def _weights(datum, cs):
    """Cached per-(datum, system) L x A x B array T[j, a, b] = T[j, a B + b] of the
    module docstring over r in [0, R/2], zero past R/2.

    Each row l of an L x (A B) array is first filled with w(R l + r),
    w(m) = q^{-s0+s(m)} prod g(p m) prod g(-q m), in place, a whole row at a time,
    each multiplier c read as strided views of the Gauss table.  One
    unnormalised L-point inverse DFT over l, in place a block of columns at a time
    (`charsum._line_blocks`), turns row l into row j.  T[j, R - r] = zeta_L^{-j}
    conj(T[j, r]), so the columns past R/2 are never stored; the self-paired columns
    r = 0 and (R even) r = R/2 are halved, so that 2 Re(u^T T[j] v) is the whole-line
    sum.  At L = 1 (q = 3) T[0] is the half line w(m), m in [0, N/2].
    """
    key = datum.key()
    cached = cs._hg_cache.get(key)
    if cached is not None:
        return cached
    q = cs.field.q
    N = q - 1
    L = next(d for d in range(math.isqrt(N), 0, -1) if N % d == 0)
    R = N // L
    H = R // 2 + 1  # r in [0, R/2]
    B = math.isqrt(H - 1) + 1  # ceil(sqrt(H)); A = ceil(H / B) <= B rows
    A = -(-H // B)
    T = np.zeros((L, A * B), dtype=complex)
    w = T[:, :H]
    w.fill(float(q) ** -datum.s0())
    ms, s = _s_support(datum, N)
    ls, rs = np.divmod(ms, R)
    kept = rs < H
    w[ls[kept], rs[kept]] = np.float_power(float(q), s[kept] - datum.s0())
    multipliers = Counter(datum.p_list + tuple(-qq for qq in datum.q_list))
    for l, row in enumerate(w):
        m = R * l
        for c, count in multipliers.items():
            # g(c m mod N) over the row: a strided view of the table up to each wrap of
            # c m past N or 0, at most |c| + 1 views as the row is at most N long
            i = 0
            while i < H:
                g = cs.gauss[c * (m + i) % N :: c][: H - i]
                for _ in range(count):  # not g**count: same rounding as factor by factor
                    row[i : i + len(g)] *= g
                i += len(g)
    # norm="forward" leaves the inverse transform unscaled: sum_l T[l] zeta_L^{jl};
    # the zero columns past R/2 stay zero
    for piece in _line_blocks(T, 0):
        np.fft.ifft(piece, axis=1, norm="forward", out=piece)
    w[:, [0, R // 2] if R % 2 == 0 else [0]] /= 2
    T = T.reshape(L, A, B)
    cs._hg_cache[key] = T
    return T


def round_certified(value, q):
    """(nearest integer, residual) of a value that must be an integer; PrecisionError
    above ROUNDING_THRESHOLD, or where the float spacing at the value is coarser than
    it, so that no residual could show.  The one rounding rule of every Gauss-sum check."""
    spacing = math.ulp(value.real)
    if spacing > ROUNDING_THRESHOLD:
        raise PrecisionError(
            f"float spacing {spacing:.3g} at |value| = {abs(value.real):.3g} "
            f"above {ROUNDING_THRESHOLD} at q = {q}"
        )
    nearest = round(value.real)
    residual = abs(value - nearest)
    if residual > ROUNDING_THRESHOLD:
        raise PrecisionError(
            f"rounding residual {residual:.3g} above {ROUNDING_THRESHOLD} at q = {q}"
        )
    return nearest, residual


def hg_sum(datum, field, t, cs=None):
    """Evaluate H_q(alpha, beta | t) at the element field.element(t) != 0; certify
    q^(s0-1) * H as an integer."""
    if math.gcd(field.q, datum.denominator_lcm) != 1:
        raise DomainError(
            f"q = {field.q} shares a factor with the parameter denominators"
        )
    if cs is None:
        cs = get_character_system(field)
    z = field.element(t)
    if z.is_zero:
        raise DomainError("hypergeometric argument t = 0")
    k = dlog(field, z * datum.epsilon / datum.M)
    q = field.q
    T = _weights(datum, cs)
    L, A, B = T.shape
    # sum_m w(m) zeta^{km} = 2 Re(u^T T[k mod L] v), v[b] = zeta^{kb}, u[a] = zeta^{kaB}
    v = cs.zeta(np.arange(B, dtype=np.int64) * k)
    u = cs.zeta(np.arange(0, A * B, B, dtype=np.int64) * k)
    value = complex(2 * (u @ (T[k % L] @ v)).real * (
        (-1) ** (len(datum.p_list) + len(datum.q_list)) / (1 - q)
    ))
    denom = q ** (datum.s0() - 1)
    nearest, residual = round_certified(value * denom, q)
    return HGValue(value, Fraction(nearest, denom), residual)


@cache
def main_datum():
    """alpha = (1/4, 1/2, 3/4), beta = (0, 0, 0): the degree-3 weight-2 datum."""
    return datum_from_parameters((Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)), (0, 0, 0))


@cache
def curve_datum():
    """alpha = (1/6, 5/6), beta = (1/4, 3/4): the elliptic-curve trace datum."""
    return datum_from_parameters((Fraction(1, 6), Fraction(5, 6)), (Fraction(1, 4), Fraction(3, 4)))


def hg_H3(field, t, cs=None):
    """Integer value of H_q(1/4,1/2,3/4; 0,0,0 | t); |value| <= 3q."""
    out = hg_sum(main_datum(), field, t, cs=cs)
    value = int(out.rounded)
    if out.rounded.denominator != 1:
        raise IntegrityError(f"H3 did not round to an integer: {out.rounded}")
    if abs(value) > 3 * field.q:
        raise IntegrityError(f"|H3| = {abs(value)} violates the 3q trace bound")
    return value


def hg_H2(field, t, cs=None):
    """Rational H_q(1/6,5/6; 1/4,3/4 | t) with q*value an integer, |q*value| <= 2 sqrt(q)."""
    if math.gcd(field.q, 6) != 1:
        raise DomainError("H2 requires gcd(q, 6) = 1")
    out = hg_sum(curve_datum(), field, t, cs=cs)
    a = out.rounded * field.q
    if a.denominator != 1:
        raise IntegrityError(f"q*H2 did not round to an integer: {out.rounded}")
    if int(a) ** 2 > 4 * field.q:
        raise IntegrityError(f"|q H2| = {abs(int(a))} violates the Hasse bound")
    return out.rounded
