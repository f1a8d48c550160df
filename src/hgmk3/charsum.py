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

A split build holds the table (16 bytes per element), the half grid (8 bytes)
and one BLOCK of temporaries, so its tracemalloc peak above the field is about
28 bytes per element at q = 1000003; pocketfft's scratch is untraced, and each
`ifft` call spans at most one block, or one line where a line is longer.

A table is read through `CharacterSystem.gauss` (index m mod q-1).  Its roots
of unity come from `zeta` (zeta_{q-1}^r) and `omega_vector` (omega(x)^m), which
evaluate exp(2j * pi * r / (q-1)) on demand in that operand order,
bit-identical to a table of roots (folding 2j * pi / (q-1) changes the bits).
`get_character_system` caches the canonical table on its field; the
keyword-only `twist` (psi(x) = psi_q(a x)), which only the tests use to show
that sums do not depend on psi, builds uncached tables.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .ffield import BLOCK, DomainError, FieldSpec, dlog, factor


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


def _grid_sums(tables, size):
    """The sums sum_i tables[i][j_i] over a C-order grid, in consecutive blocks.

    Each block is an int32 array of at most `size` entries: the trailing axes whose
    grid fits are summed once by outer additions, and the axis before them is cut into
    chunks that keep a block within `size`.  Two calls with grids of one shape cut the
    same blocks.
    """
    a = len(tables)
    tail = np.zeros(1, dtype=np.int32)
    while a and len(tail) * len(tables[a - 1]) <= size:
        a -= 1
        tail = np.add.outer(tables[a], tail).ravel()
    if a == 0:
        yield tail
        return
    axis = tables[a - 1]
    step = max(1, size // len(tail))
    for lead in itertools.product(*tables[: a - 1]):
        for start in range(0, len(axis), step):
            yield np.add.outer(axis[start : start + step] + sum(lead), tail).ravel()


def _line_blocks(a, axis):
    """Views of `a` as (outer, n, inner) pieces that cover every line along `axis` (axis 1
    of each piece), each piece at most BLOCK entries, or one line where a line is longer."""
    n = a.shape[axis]
    a = a.reshape(math.prod(a.shape[:axis]), n, -1)
    outer, inner = a.shape[0], a.shape[2]
    lines = max(1, BLOCK // n)
    if lines >= inner:
        rows = lines // inner
        for i in range(0, outer, rows):
            yield a[i : i + rows]
    else:
        for i in range(outer):
            for j in range(0, inner, lines):
                yield a[i : i + 1, :, j : j + lines]


def _good_thomas_table(f, twist):
    """g(m) over F_q by Good's prime-factor split of N = q - 1, N even.

    Z/N = prod Z/n_i over the coprime prime powers n_i of N.  Input
    k = sum k_i N/n_i and output m = sum m_i e_i (e_i the CRT idempotents) turn
    zeta_N^{km} into prod zeta_{n_i}^{k_i m_i}, so the length-N DFT is one
    s-dimensional DFT with short axes and no twiddles.

    Axis 0 is the power of 2, and k + N/2 is k_0 + n_0/2.  As g^(N/2) = -1 and
    psi(-x) = conj(psi(x)), the second half of the grid is the conjugate D* of
    its first half D.  So only D is stored: psi is evaluated on it a block at a
    time, as conj(zeta_p^(p - Tr)) above p/2 so that equal traces get equal
    bits, and the axes after 0 are transformed on it one at a time, the last
    first (as `ifftn` orders them), at most BLOCK entries or one line per
    `ifft`.  Their transform of D* is conj(E(-j)), E the transform of D.  Axis
    0 goes last, a block of columns at a time: both halves gathered, the
    n_0-point `ifft`, and the block written to its CRT positions in the table.
    Beside the half grid (N/2 complex) and the table (N complex), every array
    is one block or one axis long.
    """
    N = f.q - 1
    ns = [r**e for r, e in factor(N).items()]
    n0, rest = ns[0], ns[1:]
    half = n0 // 2
    top = np.empty((half, *rest), dtype=complex)
    flat = top.reshape(-1)
    start = 0
    # input k = sum_i j_i N/n_i; j_i N/n_i < N, and the tables go with the loop
    for k in _grid_sums([np.arange(m, dtype=np.int32) * (N // n) for m, n in zip(top.shape, ns)], BLOCK):
        k %= N  # a sum below len(ns) N < 2^28
        codes = f.exp[k]
        del k
        if twist != 1:
            codes = f.mul_codes(codes, np.int32(twist))
        tr = f.trace_codes(codes)
        del codes
        flip = tr > f.p // 2
        np.subtract(f.p, tr, out=tr, where=flip)
        seg = flat[start : start + tr.size]
        start += tr.size
        np.multiply(2j * np.pi / f.p, tr, out=seg)
        np.exp(seg, out=seg)
        np.conjugate(seg, out=seg, where=flip)
    # norm="forward" leaves the inverse transforms unscaled: sum_k c_k zeta^{km}
    for axis in reversed(range(1, len(ns))):
        for piece in _line_blocks(top, axis):
            np.fft.ifft(piece, axis=1, norm="forward", out=piece)
    top = top.reshape(half, -1)
    # per axis: j e_i mod N (e_i the CRT idempotents), and -j's share of a flat column
    outs = [(np.arange(n, dtype=np.int64) * (N // n * pow(N // n, -1, n)) % N).astype(np.int32) for n in ns]
    negs = [-np.arange(n, dtype=np.int32) % n * math.prod(rest[i + 1 :]) for i, n in enumerate(rest)]
    gauss = np.empty(N, dtype=complex)
    start = 0
    cols = max(1, BLOCK // n0)
    for m, neg in zip(_grid_sums(outs[1:], cols), _grid_sums(negs, cols)):
        stop = start + m.size
        block = np.empty((n0, m.size), dtype=complex)
        block[:half] = top[:, start:stop]
        # the indices are in range; "wrap" skips take's out buffer
        np.take(top, neg, axis=1, out=block[half:], mode="wrap")
        del neg
        np.conjugate(block[half:], out=block[half:])
        np.fft.ifft(block, axis=0, norm="forward", out=block)
        m = np.add.outer(outs[0], m)  # below len(ns) N < 2^28
        m %= N
        gauss[m] = block
        del m, block  # before the next block's indices
        start = stop
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
            c = np.exp(2j * np.pi * f.trace_codes(codes) / f.p)
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
