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

The weights w(m) depend on the datum and the Gauss table only, and are cached
on the CharacterSystem as an A x B matrix W[a, b] = w(a B + b), B = ceil(sqrt(q-1)),
zero past m = q-2.  With omega(z)^(a B + b) = u[a] v[b] the sum over m is u^T W v:
per t one complex matrix-vector product and A + B root-of-unity lookups.

Values are certified by rounding: q^{s(0)-1} H_q must lie within an absolute
threshold of an integer, or hg_sum raises charsum.PrecisionError.  The same
rule (`round_certified`) certifies the Gauss expression of k3count's bcm and
trace checks.  There is no retry: the 53-bit Gauss table is the only one.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np

from .charsum import PrecisionError, get_character_system
from .ffield import DomainError, FqElem

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

    @property
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
    """Multiplicity of each Phi_d in prod (x - e^{2 pi i a}) for Galois-stable input."""
    per_residue = {}
    for a in entries:
        per_residue.setdefault(a.denominator, Counter())[a.numerator] += 1
    mult = {}
    for b, residues in per_residue.items():
        units = [r for r in range(b) if math.gcd(r, b) == 1] if b > 1 else [0]
        counts = {residues.get(r, 0) for r in units}
        if len(counts) != 1:
            bad = min(r for r in units if residues.get(r, 0) != max(counts))
            raise DatumError(
                f"parameters are not Galois-stable: residue {bad}/{b} has unequal multiplicity"
            )
        mult[b] = counts.pop()
    return {d: m for d, m in mult.items() if m}


def _divisor_closure(ds):
    out = set()
    for d in ds:
        for k in range(1, d + 1):
            if d % k == 0:
                out.add(k)
    return out


def datum_from_parameters(alpha, beta):
    """Compile (alpha, beta) into the integer datum; raises DatumError when invalid."""
    alpha = tuple(sorted(Fraction(a) for a in alpha))
    beta = tuple(sorted(Fraction(b) for b in beta))
    if len(alpha) != len(beta):
        raise DatumError("alpha and beta must have equal length")
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


# m values per fill step: the int64 index and gathered-table temporaries stay near 1.5 MB.
_FILL_BLOCK = 1 << 16


def _weights(datum, cs):
    """Cached per-(datum, system) A x B matrix W[a, b] = w(a B + b), zero past N - 1.

    w(m) = q^{-s0+s(m)} prod g(p m) prod g(-q m).  The matrix is filled in place,
    a block of m at a time, and a multiplier repeated in the datum is gathered once
    per block.
    """
    key = datum.key()
    cached = cs._hg_cache.get(key)
    if cached is not None:
        return cached
    q = cs.field.q
    N = q - 1
    B = math.isqrt(N - 1) + 1  # ceil(sqrt(N)); A = ceil(N / B) <= B rows
    A = -(-N // B)
    W = np.zeros(A * B, dtype=complex)
    w = W[:N]
    w.fill(float(q) ** -datum.s0())
    ms, s = _s_support(datum, N)
    w[ms] = np.float_power(float(q), s - datum.s0())
    multipliers = Counter(datum.p_list + tuple(-qq for qq in datum.q_list))
    for start in range(0, N, _FILL_BLOCK):
        seg = w[start:start + _FILL_BLOCK]
        m = np.arange(start, start + len(seg), dtype=np.int64)
        for c, count in multipliers.items():
            g = cs.gauss[(c * m) % N]
            for _ in range(count):  # not g**count: same rounding as factor by factor
                seg *= g
    W = W.reshape(A, B)
    cs._hg_cache[key] = W
    return W


def _reduce_argument(datum, field, t):
    """eps * M^{-1} * t as a nonzero field element."""
    if isinstance(t, FqElem):
        telt = t
    elif isinstance(t, (int, Fraction)):
        telt = field.from_rational(Fraction(t))
    else:
        raise TypeError(f"cannot interpret argument {t!r}")
    if telt.is_zero:
        raise DomainError("hypergeometric argument t = 0")
    scale = field.from_rational(Fraction(datum.epsilon) / datum.M)
    return scale * telt


def round_certified(value, q):
    """(nearest integer, residual) of a value that must be an integer; PrecisionError
    above ROUNDING_THRESHOLD.  The one rounding rule of every Gauss-sum check."""
    nearest = round(value.real)
    residual = abs(value - nearest)
    if residual > ROUNDING_THRESHOLD:
        raise PrecisionError(
            f"rounding residual {residual:.3g} above {ROUNDING_THRESHOLD} at q = {q}"
        )
    return nearest, residual


def hg_sum(datum, field, t, cs=None):
    """Evaluate H_q(alpha, beta | t); certify q^(s0-1) * H as an integer."""
    if math.gcd(field.q, datum.denominator_lcm) != 1:
        raise DomainError(
            f"q = {field.q} shares a factor with the parameter denominators"
        )
    if cs is None:
        cs = get_character_system(field)
    z = _reduce_argument(datum, field, t)
    q = field.q
    W = _weights(datum, cs)
    A, B = W.shape
    # sum_m w(m) omega(z)^m = u^T W v with v[b] = omega(z)^b, u[a] = omega(z)^(a B)
    v = cs.omega_vector(z, np.arange(B))
    u = cs.omega_vector(z, np.arange(0, A * B, B))
    value = complex(u @ (W @ v)) * (
        (-1) ** (len(datum.p_list) + len(datum.q_list)) / (1 - q)
    )
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
