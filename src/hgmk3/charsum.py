"""Multiplicative/additive characters on F_q and the Gauss-sum table g(m).

Fixes omega(x) = zeta_{q-1}^dlog(x) for the field's chosen generator and
psi_q(x) = zeta_p^Tr(x), and tabulates

    g(m) = sum_{x != 0} omega^m(x) psi_q(x),   m in [0, q-2],

which is a length-(q-1) DFT of the sequence zeta_p^Tr(g^k), evaluated by one
53-bit FFT.  g(0) is stored as the exact value -1.  Every table is certified
a posteriori: max | |g(m)|^2 - q | must stay within 1e-6 sqrt(q), or the build
raises PrecisionError.  Exactness downstream is recovered by integer rounding
plus independent point-count oracles.

A table is read through `CharacterSystem.gauss` (index m mod q-1) and
`omega_vector`, which evaluates exp(2j * pi * r / (q-1)) on demand in that
operand order, bit-identical to a table of roots (folding 2j * pi / (q-1)
changes the bits).  `get_character_system` caches the canonical table on its
field; the keyword-only `twist` (psi(x) = psi_q(a x)), which only the tests
use to show that sums do not depend on psi, builds uncached tables.
"""

from __future__ import annotations

import math

import numpy as np

from .ffield import DomainError, FieldSpec, dlog


class PrecisionError(ArithmeticError):
    """Raised when a 53-bit value misses its certification (table residual or rounding)."""


def tolerance(q):
    """Permitted max deviation of |g(m)|^2 from q."""
    return 1e-6 * math.sqrt(q)


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
        dev = np.abs(np.abs(self.gauss) ** 2 - q)
        dev[0] = 0.0
        self.residual = float(dev.max())
        tol = tolerance(q)
        if self.residual > tol:
            raise PrecisionError(f"gauss table residual {self.residual:.3g} exceeds {tol:.3g}")
        self.gauss[0] = -1.0  # exact: full additive sum is 0, minus the x=0 term
        self._hg_cache = {}

    def _build_double(self):
        f = self.field
        codes = f.exp if self.twist == 1 else f.mul_codes(f.exp, np.int32(self.twist))
        c = np.exp(2j * np.pi * f.trace[codes] / f.p)
        # G[m] = sum_k c_k zeta_{q-1}^{km}
        return np.fft.ifft(c) * (f.q - 1)

    def omega_vector(self, x, ms):
        """omega(x)^m over an integer array of m values."""
        N = self.field.q - 1
        r = (np.asarray(ms, dtype=np.int64) * dlog(self.field, x)) % N
        return np.exp(2j * np.pi * r / N)


def get_character_system(field, precision=53):
    """The field's canonical CharacterSystem, cached on the field; precision must be 53."""
    if precision != CharacterSystem.precision:
        raise ValueError(f"only 53-bit Gauss tables exist; got precision={precision!r}")
    if field.character_system is None:
        field.character_system = CharacterSystem(field)
    return field.character_system
