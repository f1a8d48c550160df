"""Exact arithmetic in odd-characteristic finite fields F_q with q = p^n <= 2^24.

Elements are held Zech-style: a nonzero element is the exponent k of the fixed
generator (value = generator^k), zero is a separate marker.  Multiplication is
then addition mod q-1 and discrete logs are free; addition goes through a
precomputed successor table of size q.  Everything is chosen deterministically
(lexicographically least modulus, least generator) so downstream character sums
are reproducible bit for bit.

For bulk counting loops the module also exposes a vectorised "code" view:
an element is the integer c0 + c1*p + ... + c_{n-1}*p^(n-1) of its polynomial
coordinates.  Prime-field codes are combined as integers mod p; extension-field
codes through the exp/dlog/zech tables, so no loop runs over the n digits.

`FieldSpec.element` is the one way an int, a Fraction (reduced mod p) or an
element enters F_q; `FqElem`'s operators, `dlog`, `sqrt` and
`quadratic_character` call it, so ints and Fractions are operands as they are.

The quadratic character is `quadratic_character`; the absolute trace is the
table `FieldSpec.trace`.  The package's integer work goes through three helpers
here: `is_prime`, `factor` (trial division, for the bounded or smooth integers
the package meets) and `prime_power`, which checks the 2^24 bound before it
factors anything.  `FieldSpec.next_generator` is public API that only
the tests call: it rebuilds the field on another generator, to show that
results do not depend on the choice.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

Q_MAX = 2**24  # table-resident bound


class FieldConstructionError(ValueError):
    """Raised when (p, n) violates a construction precondition."""


class DomainError(ValueError):
    """Raised when an operation is applied outside its domain (e.g. dlog of 0)."""


class ReductionError(ZeroDivisionError):
    """Raised when a rational cannot be reduced into F_q (p divides a denominator)."""


# ---------------------------------------------------------------------------
# integer helpers
# ---------------------------------------------------------------------------

# sieve of Eratosthenes: strike the odd multiples of each odd q < 32 = sqrt(1024)
_ODD_PRIMES_BELOW_1024 = frozenset(range(3, 1024, 2)).difference(
    *(range(3 * q, 1024, 2 * q) for q in range(3, 32, 2)))
_ODD_PRIMORIAL_1024 = math.prod(_ODD_PRIMES_BELOW_1024)


def is_prime(n):
    """Deterministic primality of an integer n < 2^64, by Baillie-PSW.

    Below 1024 a table lookup.  Above: trial division by 2, 3, 5 and 7, one gcd
    with the odd primes below 1024, a strong probable-prime test to base 2
    (`_strong_base2`), then a strong Lucas test with Selfridge's parameters
    (`_strong_lucas`).  No composite below 2^64 passes both (Baillie, Fiori and
    Wagstaff, Math. Comp. 90 (2021)); above 2^64 none is known.
    """
    if n < 1024:
        return n == 2 or n in _ODD_PRIMES_BELOW_1024
    if not (n & 1 and n % 3 and n % 5 and n % 7) or math.gcd(n, _ODD_PRIMORIAL_1024) != 1:
        return False
    return _strong_base2(n) and _strong_lucas(n)


def _strong_base2(n):
    """Miller-Rabin to base 2 for odd n > 2: 2^d = 1 or 2^(d 2^r) = -1 mod n, n - 1 = d 2^s."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    x = pow(2, d >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a, n):
    """The Jacobi symbol (a/n) of an integer a and an odd n > 0."""
    a %= n
    sign = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                sign = -sign
        a, n = n, a
        if a & n & 3 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n):
    """Strong Lucas probable-prime test of an odd n > 1 with Selfridge's parameters.

    A perfect square, for which the search for D would not end, is refused
    first.  D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4; n + 1 = d 2^s with d odd.  n passes when U_d = 0 or
    V_(d 2^r) = 0 mod n for some 0 <= r < s.

    Evaluated through gamma = alpha/beta, alpha and beta the roots of
    x^2 - x + Q in Z_n[sqrt D]: beta, gamma - 1 and gamma + 1 are units there
    (as Q, D and P are), so the conditions read gamma^d = 1, gamma^d = -1 or
    gamma^(d 2^r) = -1 with r >= 1.  The ladder runs on W_k = gamma^k + gamma^-k,
    with W_1 = 1/Q - 2, W_2k = W_k^2 - 2 and W_(2k+1) = W_k W_(k+1) - W_1, up
    to (W_m, W_(m+1)) for d = 2m + 1.  As gamma (W_(m+1) -+ W_m) equals
    (gamma -+ 1) gamma^-m (gamma^d -+ 1), gamma^d = +-1 exactly when
    W_(m+1) = +-W_m; and gamma^(2e) = -1 exactly when W_e = 0.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) == 1:
        D = -D - 2 if D > 0 else 2 - D
    if j == 0:  # the first D sharing a factor with n: n is prime only when it is |D|
        return n == abs(D)
    Q = (1 - D) // 4
    if math.gcd(Q, n) != 1:  # a prime n would have met D = +-n first
        return False
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    w1 = (pow(Q, -1, n) - 2) % n
    v, w = 2, w1  # W_k, W_(k+1) at k = 0
    for bit in bin(d >> 1)[2:]:
        if bit == "1":
            v, w = (v * w - w1) % n, (w * w - 2) % n
        else:
            v, w = (v * v - 2) % n, (v * w - w1) % n
    if v == w or (v + w) % n == 0:
        return True
    v = (v * w - w1) % n  # W_d
    for _ in range(s - 1):
        if v == 0:
            return True
        v = (v * v - 2) % n
    return False


def factor(n):
    """{prime: exponent} of an integer n >= 1, primes increasing, by trial division.

    It costs about the square root of n's second-largest prime factor, so it is
    meant for the package's bounded or smooth inputs: q - 1 <= 2^24, group
    orders below 2^25, fixture integers.
    """
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def prime_power(q):
    """(p, n) with q = p^n for an odd prime p and q <= Q_MAX.

    Any other q is a FieldConstructionError; the bound is checked first, so no
    integer above it is factored.
    """
    if q > Q_MAX:
        raise FieldConstructionError(f"q = {q} exceeds the table-resident bound 2^24")
    fac = factor(q) if q >= 3 else {}
    if q % 2 == 0 or len(fac) != 1:
        raise FieldConstructionError(f"q = {q} is not an odd prime power")
    ((p, n),) = fac.items()
    return p, n


# ---------------------------------------------------------------------------
# dense polynomial helpers over F_p (coefficient lists, low degree first)
# ---------------------------------------------------------------------------

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul_mod(a, b, modulus, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_rem(out, modulus, p)


def _poly_rem(a, modulus, p):
    a = list(a)
    n = len(modulus) - 1
    for i in range(len(a) - 1, n - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(n):
                a[i - n + j] = (a[i - n + j] - c * modulus[j]) % p
    return _poly_trim(a[:n] if len(a) > n else a)


def _poly_pow_mod(a, e, modulus, p):
    result = [1]
    base = _poly_rem(a, modulus, p)
    while e:
        if e & 1:
            result = _poly_mul_mod(result, base, modulus, p)
        base = _poly_mul_mod(base, base, modulus, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        # a mod b with b made monic
        inv = pow(b[-1], -1, p)
        bm = [(c * inv) % p for c in b]
        r = _poly_rem(a, bm, p)
        a, b = b, r
    return a


def _poly_sub(a, b, p):
    m = max(len(a), len(b))
    return _poly_trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p for i in range(m)])


def _is_irreducible(coeffs, p):
    """Ben-Or test for a monic polynomial given as a low-first coefficient list:
    f of degree n is irreducible iff gcd(f, x^(p^i) - x) = 1 for every i <= n/2."""
    x = [0, 1]
    xq = x
    for _ in range((len(coeffs) - 1) // 2):
        xq = _poly_pow_mod(xq, p, coeffs, p)
        if len(_poly_gcd(coeffs, _poly_sub(xq, x, p), p)) != 1:
            return False
    return True


def _least_irreducible(p, n):
    """Lexicographically least monic irreducible of degree n over F_p.

    Coefficient lists (c0, ..., c_{n-1}) are compared low-to-high as integers.
    """
    if n == 1:
        return [0, 1]  # x, i.e. the identity quotient F_p[x]/(x) ~ F_p
    from itertools import product

    # c0 = 0 leaves the factor x, so the search starts at c0 = 1
    for tail in product(range(1, p), *[range(p)] * (n - 1)):
        coeffs = list(tail) + [1]
        if _is_irreducible(coeffs, p):
            return coeffs
    raise FieldConstructionError(f"no irreducible of degree {n} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------
# FieldSpec
# ---------------------------------------------------------------------------

class FieldSpec:
    """An odd-characteristic finite field with fixed generator and full dlog table.

    Attributes:
        p, n, q: characteristic, extension degree, order.
        modulus: monic irreducible coefficient list (low degree first), length n+1.
        generator: code of the chosen multiplicative generator.
        exp: int32 array, exp[k] = code of generator^k, k in [0, q-2].
        dlog: int32 array over codes, dlog[0] = -1.
        zech: int32 array, zech[k] = dlog(1 + generator^k), -1 when 1+g^k = 0.
        trace: int32 array over codes, absolute trace to F_p.
        character_system: the canonical charsum.CharacterSystem, None until
            charsum.get_character_system builds it; it lives as long as the field.

    Construction is single-threaded; apart from that table slot, instances are
    never mutated afterwards and are safe for concurrent read-only sharing.
    """

    def __init__(self, p, n=1, generator=None):
        if not isinstance(p, int) or p < 2:
            raise FieldConstructionError(f"p = {p} is not prime")
        if p == 2:
            raise FieldConstructionError("p = 2 is excluded (all sums require odd q)")
        # the bound before primality, so no integer above it is tested; a power
        # of more than 1024 bits is past the bound and is named, not built
        q = p**n if n * p.bit_length() <= 1024 else f"{p}^{n}"
        if n >= 1 and (isinstance(q, str) or q > Q_MAX):
            raise FieldConstructionError(f"q = {q} exceeds the table-resident bound 2^24")
        if not is_prime(p):
            raise FieldConstructionError(f"p = {p} is not prime")
        if n < 1:
            raise FieldConstructionError(f"extension degree n = {n} must be >= 1")
        self.p = p
        self.n = n
        self.q = q
        self.modulus = _least_irreducible(p, n)
        self._q1_factors = tuple(factor(q - 1))
        if generator is None:
            self.generator = self._find_generator()
        else:
            if not self._generates(int(generator)):
                raise FieldConstructionError(f"code {generator} does not generate F_{q}^x")
            self.generator = int(generator)
        self._build_tables()
        self.character_system = None

    def next_generator(self):
        """Field rebuilt with the next-larger generator (for independence checks)."""
        for code in range(self.generator + 1, self.q):
            if self._generates(code):
                return FieldSpec(self.p, self.n, generator=code)
        raise FieldConstructionError("no larger generator exists")

    # -- construction -------------------------------------------------------

    def _code_to_poly(self, code):
        out = []
        for _ in range(self.n):
            code, c = divmod(code, self.p)
            out.append(c)
        return _poly_trim(out)

    def _generates(self, code):
        if not 1 <= code < self.q:
            return False
        q1 = self.q - 1
        poly = self._code_to_poly(code)
        return all(
            _poly_pow_mod(poly, q1 // r, self.modulus, self.p) != [1]
            for r in self._q1_factors
        )

    def _find_generator(self):
        for code in range(1, self.q):
            if self._generates(code):
                return code
        raise FieldConstructionError("no generator found")  # unreachable

    def _build_tables(self):
        p, n, q = self.p, self.n, self.q
        N = q - 1
        # Blocked powers g^(jB + i) = g^(jB) * g^i: `rows` holds the coefficient
        # vectors of g^0 .. g^(B-1), built by doubling (B a power of two, B^2 >= N),
        # and `step` ends as the matrix of multiplication by g^B.
        gpoly = self._code_to_poly(self.generator)
        step = np.zeros((n, n), dtype=np.int64)
        for j in range(n):  # row j: coefficients of x^j * g
            row = _poly_mul_mod([0] * j + [1], gpoly, self.modulus, p)
            step[j, : len(row)] = row
        rows = np.eye(1, n, dtype=np.int64)  # the coefficients of g^0 = 1
        while len(rows) ** 2 < N:
            rows = np.concatenate([rows, rows @ step % p])
            step = step @ step % p
        place = p ** np.arange(n, dtype=np.int64)
        exp = np.empty(N, dtype=np.int32)
        for start in range(0, N, len(rows)):
            exp[start : start + len(rows)] = rows[: N - start] @ place
            rows = rows @ step % p
        dlog = np.full(q, -1, dtype=np.int32)
        dlog[exp] = np.arange(N, dtype=np.int32)
        self.exp = exp
        self.dlog = dlog
        # zech[k] = dlog(g^k + 1); adding 1 changes only the constant digit of a code
        self.zech = dlog[np.where(exp % p == p - 1, exp - (p - 1), exp + 1)]
        # absolute trace, F_p-linear on the power basis: Tr(x^j) is the power sum
        # s_j of the roots of the modulus c (monic, low first), by Newton's
        # identities s_j = -(j c[n-j] + sum_{i<j} c[n-i] s_{j-i}) with s_0 = n.
        # The table over codes [0, p^j) extends to [0, p^(j+1)) with Tr(x^j).
        c = self.modulus
        s = [n % p]
        for j in range(1, n):
            s.append(-(j * c[n - j] + sum(c[n - i] * s[j - i] for i in range(1, j))) % p)
        trace = np.zeros(1, dtype=np.int64)
        for sj in s:
            trace = ((np.arange(p, dtype=np.int64)[:, None] * sj + trace) % p).ravel()
        self.trace = trace.astype(np.int32)

    # -- vectorised code arithmetic ------------------------------------------
    # Prime-field codes are integers mod p.  Extension fields go through the
    # exponent domain: a * b adds exponents, a + b = a * (1 + b/a) is one zech gather.

    def _exp_codes(self, k, zero):
        """Codes of g^k, and 0 where `zero` holds; a 0-d result is a numpy scalar."""
        return np.where(zero, 0, self.exp[k % (self.q - 1)]).astype(np.int32)[()]

    def add_codes(self, a, b):
        if self.n == 1:
            return ((np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)) % self.p).astype(np.int32)
        a = np.asarray(a, dtype=np.int32)
        b = np.asarray(b, dtype=np.int32)
        ka = self.dlog[a].astype(np.int64)
        k = self.zech[(self.dlog[b] - ka) % (self.q - 1)]  # dlog(1 + b/a)
        return np.where(a == 0, b, np.where(b == 0, a, self._exp_codes(ka + k, k < 0)))[()]

    def neg_codes(self, a):
        if self.n == 1:
            return ((-np.asarray(a, dtype=np.int64)) % self.p).astype(np.int32)
        a = np.asarray(a, dtype=np.int32)
        return self._exp_codes(self.dlog[a] + (self.q - 1) // 2, a == 0)

    def sub_codes(self, a, b):
        return self.add_codes(a, self.neg_codes(np.asarray(b, dtype=np.int32)))

    def mul_codes(self, a, b):
        if self.n == 1:
            return ((np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)) % self.p).astype(np.int32)
        a = np.asarray(a, dtype=np.int32)
        b = np.asarray(b, dtype=np.int32)
        return self._exp_codes(self.dlog[a].astype(np.int64) + self.dlog[b], (a == 0) | (b == 0))

    def inv_codes(self, a):
        a = np.asarray(a, dtype=np.int32)
        if np.any(a == 0):
            raise DomainError("inverse of zero")
        return self._exp_codes(-self.dlog[a].astype(np.int64), False)

    def pow_codes(self, a, e):
        a = np.asarray(a, dtype=np.int32)
        if e <= 0 and np.any(a == 0):
            raise DomainError("0^e with e <= 0")
        return self._exp_codes(self.dlog[a].astype(np.int64) * e, a == 0)

    def chi_codes(self, a):
        """Quadratic character on codes: 0 at 0, else (-1)^dlog."""
        a = np.asarray(a, dtype=np.int32)
        k = self.dlog[a]
        out = 1 - 2 * (k & 1)
        return np.where(a == 0, 0, out).astype(np.int64)

    # -- scalar element plumbing ---------------------------------------------

    def zero(self):
        return FqElem(self, None)

    def one(self):
        return FqElem(self, 0)

    def gen(self):
        return FqElem(self, 1)

    def from_code(self, code):
        code = int(code)
        if not 0 <= code < self.q:
            raise DomainError(f"code {code} out of range for q = {self.q}")
        if code == 0:
            return FqElem(self, None)
        return FqElem(self, int(self.dlog[code]))

    def from_int(self, value):
        return self.from_code(value % self.p)

    def from_coeffs(self, coeffs):
        if len(coeffs) > self.n:
            raise DomainError("coefficient list longer than the extension degree")
        return self.from_code(sum((c % self.p) * self.p**i for i, c in enumerate(coeffs)))

    def from_rational(self, r):
        r = Fraction(r)
        if r.denominator % self.p == 0:
            raise ReductionError(f"denominator of {r} is divisible by p = {self.p}")
        num = r.numerator % self.p
        den_inv = pow(r.denominator % self.p, -1, self.p)
        return self.from_code((num * den_inv) % self.p)

    def element(self, value):
        """An element of this field as it is (one of another field is a ValueError),
        an int by from_int, a Fraction by from_rational; anything else a TypeError."""
        if isinstance(value, FqElem):
            if value.field != self:
                raise ValueError("elements of different fields")
            return value
        if isinstance(value, int):
            return self.from_int(value)
        if isinstance(value, Fraction):
            return self.from_rational(value)
        raise TypeError(f"cannot coerce {value!r} into {self!r}")

    def elements(self):
        """All q elements, zero first then generator powers."""
        yield self.zero()
        for k in range(self.q - 1):
            yield FqElem(self, k)

    def parse_element(self, text):
        """CLI/JSON encoding: an integer for prime fields, "[c0,c1,...]" otherwise;
        any other text is a DomainError."""
        text = text.strip()
        parts = [text]
        if text.startswith("["):
            parts = [c for c in text.strip("[]").split(",") if c.strip()]
        try:
            coeffs = [int(c) for c in parts]
        except ValueError:
            raise DomainError(f"{text!r} is neither an integer nor [c0,c1,...]") from None
        return self.from_coeffs(coeffs)  # an integer is its own constant coefficient

    def format_element(self, x):
        if self.n == 1:
            return str(x.code)
        return "[" + ",".join(str(c) for c in x.coeffs()) + "]"

    def __repr__(self):
        if self.n == 1:
            return f"F_{self.p}"
        return f"F_{self.p}^{self.n}"

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.n, self.generator) == (other.p, other.n, other.generator)
        )

    def __hash__(self):
        return hash((self.p, self.n, self.generator))


class FqElem:
    """A field element: the zero marker or an exponent of the fixed generator.

    An element equals every int, Fraction or element that `FieldSpec.element`
    takes to it, but hashes by (p, n, exponent) alone: one == 1 and one == 8
    in F_7 while hash(1) != hash(8), so no hash can agree with both.  A set or
    dict keyed by elements therefore misses an int key (`1 in {one}` is False):
    probe it with elements, or key it by `code`.
    """

    __slots__ = ("field", "e")

    def __init__(self, field, e):
        self.field = field
        self.e = None if e is None else e % (field.q - 1)

    @property
    def is_zero(self):
        return self.e is None

    @property
    def code(self):
        return 0 if self.e is None else int(self.field.exp[self.e])

    def coeffs(self):
        poly = self.field._code_to_poly(self.code)
        return poly + [0] * (self.field.n - len(poly))

    def __add__(self, other):
        other = self.field.element(other)
        if self.e is None:
            return other
        if other.e is None:
            return self
        f = self.field
        d = f.zech[(other.e - self.e) % (f.q - 1)]
        if d < 0:
            return FqElem(f, None)
        return FqElem(f, self.e + int(d))

    __radd__ = __add__

    def __neg__(self):
        if self.e is None:
            return self
        return FqElem(self.field, self.e + (self.field.q - 1) // 2)

    def __sub__(self, other):
        return self + (-self.field.element(other))

    def __rsub__(self, other):
        return self.field.element(other) - self

    def __mul__(self, other):
        other = self.field.element(other)
        if self.e is None or other.e is None:
            return FqElem(self.field, None)
        return FqElem(self.field, self.e + other.e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self.field.element(other)
        if other.e is None:
            raise DomainError("division by zero")
        if self.e is None:
            return self
        return FqElem(self.field, self.e - other.e)

    def __rtruediv__(self, other):
        return self.field.element(other) / self

    def __pow__(self, k):
        if self.e is None:
            if k <= 0:
                raise DomainError("0^k with k <= 0")
            return self
        return FqElem(self.field, self.e * k)

    def __eq__(self, other):
        try:
            other = self.field.element(other)
        except (TypeError, ValueError, ReductionError):
            return NotImplemented  # a value that is no element of this field is unequal
        return self.e == other.e

    def __hash__(self):
        return hash((self.field.p, self.field.n, self.e))

    def __repr__(self):
        return f"{self.field!r}({self.field.format_element(self)})"


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------

def field_new(p, n=1):
    """Deterministic field construction (least modulus, least generator)."""
    return FieldSpec(p, n)


def dlog(field, x):
    """Exponent k with generator^k = x; x must be nonzero."""
    x = field.element(x)
    if x.e is None:
        raise DomainError("dlog of zero")
    return x.e


def sqrt(field, x):
    """A square root, choosing the root with the smaller exponent; None if no root."""
    x = field.element(x)
    if x.e is None:
        return field.zero()
    if x.e % 2:
        return None
    return FqElem(field, x.e // 2)


def quadratic_character(field, x):
    """chi(x) in {-1, 0, 1} with chi(0) = 0."""
    x = field.element(x)
    if x.e is None:
        return 0
    return -1 if x.e % 2 else 1
