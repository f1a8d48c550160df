"""Multiplicative/additive characters on F_q and the Gauss-sum table g(m).

Fixes omega(x) = zeta_{q-1}^dlog(x) for the field's chosen generator and
psi_q(x) = zeta_p^Tr(x), and tabulates

    g(m) = sum_{x != 0} omega^m(x) psi_q(x),   m in [0, q-2],

which is a length-(q-1) DFT of the sequence zeta_p^Tr(g^k), evaluated in 53-bit
floating point: by one `ifft` below SPLIT_MIN, and from there on by Good's
prime-factor split of q - 1 into coprime prime powers, a multidimensional DFT
with short axes, so no whole-length Bluestein transform runs at a q - 1 with a
large prime factor.  g(0) is stored as the exact value -1.  Every
table is certified a posteriori: max | |g(m)|^2 - q | must stay within
1e-6 sqrt(q), or the build raises PrecisionError.  Exactness downstream is
recovered by integer rounding plus independent point-count oracles.

A table is read through `CharacterSystem.gauss` (index m mod q-1).  Its roots
of unity come from `zeta` (zeta_{q-1}^r) and `omega_vector` (omega(x)^m), which
evaluate exp(2j * pi * r / (q-1)) on demand in that operand order,
bit-identical to a table of roots (folding 2j * pi / (q-1) changes the bits).
`get_character_system` caches the canonical table on its field; the
keyword-only `twist` (psi(x) = psi_q(a x)), which only the tests use to show
that sums do not depend on psi, builds uncached tables.
"""

from __future__ import annotations

import math

import numpy as np

from .ffield import DomainError, FieldSpec, dlog, factor


class PrecisionError(ArithmeticError):
    """Raised when a 53-bit value misses its certification (table residual or rounding)."""


# q - 1 from which the table is built by the Good-Thomas split.  At 2^24 the
# whole-length transform of a q - 1 with a large prime factor runs as a
# Bluestein transform of about twice that length: 15 s and 1.3 GB for the
# whole process at q = 16777213 on a 2-CPU VM.  Below this length the single
# ifft stays because the recorded residuals of the small fields (the
# benchmark's golden records up to q = 199) are its bits, and the split changes
# their low bits.  The value 2^16 is not a measured crossover: it is an
# arbitrary point in the gap between those records and the `line` field
# (q = 1000003), and no workload lies between them.
SPLIT_MIN = 1 << 16


def tolerance(q):
    """Permitted max deviation of |g(m)|^2 from q."""
    return 1e-6 * math.sqrt(q)


def _crt_grid(weights, ns, N):
    """int32 sum_i j_i * weights[i] mod N over the grid prod range(ns[i]), in C order."""
    idx = np.zeros(1, dtype=np.int32)
    for w, n in zip(weights, ns):
        axis = (np.arange(n, dtype=np.int64) * w % N).astype(np.int32)
        idx = np.add.outer(idx, axis).ravel()  # entries < 2N <= 2^25
        np.subtract(idx, N, out=idx, where=idx >= N)
    return idx


def _negation_index(ns):
    """Flat C-order position of (-j_1, ..., -j_r) for each position of (j_1, ..., j_r)."""
    idx = np.zeros(1, dtype=np.intp)
    for n in ns:
        idx = np.add.outer(idx * n, -np.arange(n) % n).ravel()
    return idx


def _good_thomas_table(f, twist):
    """g(m) over F_q by Good's prime-factor split of N = q - 1, N even.

    Z/N = prod Z/n_i over the coprime prime powers n_i of N.  Input
    k = sum k_i N/n_i and output m = sum m_i e_i (e_i the CRT idempotents) turn
    zeta_N^{km} into prod zeta_{n_i}^{k_i m_i}, so the length-N DFT is one
    s-dimensional DFT with short axes and no twiddles.

    Axis 0 is the power of 2, and k + N/2 is k_0 + n_0/2.  As g^(N/2) = -1 and
    psi(-x) = conj(psi(x)), the second half of the grid is the conjugate D* of
    its first half D.  So psi is evaluated on D only, as conj(zeta_p^(p - Tr))
    above p/2 so that equal traces get equal bits; the axes after 0 are
    transformed on D only, and their transform of D* is read off as
    conj(E(-j)), E the transform of D; axis 0 goes last.  Index arrays are
    int32 or of length N/n_0, and the grid is the one complex array beside
    the output.
    """
    N = f.q - 1
    ns = [r**e for r, e in factor(N).items()]
    half = ns[0] // 2
    k = _crt_grid([N // n for n in ns], [half, *ns[1:]], N)
    codes = f.exp[k]
    del k
    if twist != 1:
        codes = f.mul_codes(codes, np.int32(twist))
    tr = f.trace[codes]
    del codes
    flip = tr > f.p // 2
    np.subtract(f.p, tr, out=tr, where=flip)
    c = np.empty(N, dtype=complex)
    top = c[: N // 2].reshape(half, *ns[1:])
    np.multiply(2j * np.pi / f.p, tr.reshape(top.shape), out=top)
    del tr
    np.exp(top, out=top)
    np.conjugate(top, out=top, where=flip.reshape(top.shape))
    del flip
    # norm="forward" leaves the inverse transforms unscaled: sum_k c_k zeta^{km}
    np.fft.ifftn(top, axes=range(1, len(ns)), norm="forward", out=top)
    top = top.reshape(half, -1)
    bottom = c[N // 2 :].reshape(half, -1)
    # the indices are in range; "wrap" skips take's out buffer
    np.take(top, _negation_index(ns[1:]), axis=1, out=bottom, mode="wrap")
    np.conjugate(bottom, out=bottom)
    grid = c.reshape(ns)
    np.fft.ifft(grid, axis=0, norm="forward", out=grid)
    idempotents = [N // n * pow(N // n, -1, n) % N for n in ns]
    gauss = np.empty(N, dtype=complex)
    gauss[_crt_grid(idempotents, ns, N)] = c
    return gauss


class CharacterSystem:
    """The Gauss-sum table of one field and additive character.

    Attributes:
        field: the underlying FieldSpec.
        precision: working precision in bits; always 53 (numpy double).
        gauss: complex array of g(m), m in [0, q-2]; gauss[0] == -1 exactly.
        residual: max over m != 0 of | |g(m)|^2 - q |.
        twist: code of the element a defining psi(x) = psi_q(a x) (1 = canonical).
    """

    precision = 53

    def __init__(self, field: FieldSpec, *, twist=1):
        self.field = field
        self.twist = int(twist)
        if not 1 <= self.twist < field.q:
            raise DomainError("additive-character twist must be a nonzero element code")
        q = field.q
        self.gauss = self._build_double()
        dev = np.abs(self.gauss)  # in place below: the bits of abs(abs(g)**2 - q)
        np.square(dev, out=dev)
        np.subtract(dev, q, out=dev)
        np.abs(dev, out=dev)
        dev[0] = 0.0
        self.residual = float(dev.max())
        tol = tolerance(q)
        if self.residual > tol:
            raise PrecisionError(f"gauss table residual {self.residual:.3g} exceeds {tol:.3g}")
        self.gauss[0] = -1.0  # exact: full additive sum is 0, minus the x=0 term
        self._hg_cache = {}

    def _build_double(self):
        f = self.field
        N = f.q - 1
        if N < SPLIT_MIN:
            codes = f.exp if self.twist == 1 else f.mul_codes(f.exp, np.int32(self.twist))
            c = np.exp(2j * np.pi * f.trace[codes] / f.p)
            # G[m] = sum_k c_k zeta_{q-1}^{km}
            return np.fft.ifft(c) * N
        return _good_thomas_table(f, self.twist)

    def omega_vector(self, x, ms):
        """omega(x)^m over an integer array of m values."""
        return self.zeta(np.asarray(ms, dtype=np.int64) * dlog(self.field, x))

    def zeta(self, r):
        """zeta_{q-1}^r over an int64 array r."""
        N = self.field.q - 1
        return np.exp(2j * np.pi * (r % N) / N)


def get_character_system(field, precision=53):
    """The field's canonical CharacterSystem, cached on the field; precision must be 53."""
    if precision != CharacterSystem.precision:
        raise ValueError(f"only 53-bit Gauss tables exist; got precision={precision!r}")
    if field.character_system is None:
        field.character_system = CharacterSystem(field)
    return field.character_system
