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
`omega_vector`.  The `twist` argument (psi(x) = psi_q(a x)) is public API that
only the tests use, to show that sums do not depend on the additive character.
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


def _check_precision(precision):
    if precision != 53:
        raise ValueError(f"only 53-bit Gauss tables exist; got precision={precision!r}")


class CharacterSystem:
    """Gauss-sum table plus root-of-unity lookup tables for one field.

    Attributes:
        field: the underlying FieldSpec.
        precision: working precision in bits; always 53 (numpy double).
        gauss: complex array of g(m), m in [0, q-2]; gauss[0] == -1 exactly.
        residual: max over m != 0 of | |g(m)|^2 - q |.
        twist: code of the element a defining psi(x) = psi_q(a x) (1 = canonical).
    """

    def __init__(self, field: FieldSpec, precision=53, twist=1):
        _check_precision(precision)
        self.field = field
        self.precision = 53
        self.twist = int(twist)
        if not 1 <= self.twist < field.q:
            raise DomainError("additive-character twist must be a nonzero element code")
        q = field.q
        self._zeta = np.exp(2j * np.pi * np.arange(q - 1) / (q - 1))
        self.gauss = self._build_double()
        dev = np.abs(np.abs(self.gauss) ** 2 - q)
        dev[0] = 0.0
        self.residual = float(dev.max())
        tol = tolerance(q)
        if self.residual > tol:
            raise PrecisionError(f"gauss table residual {self.residual:.3g} exceeds {tol:.3g}")
        self.gauss[0] = -1.0  # exact: full additive sum is 0, minus the x=0 term
        self._hg_cache = {}

    def _trace_sequence(self):
        f = self.field
        codes = f.exp
        if self.twist != 1:
            codes = f.mul_codes(codes, np.int32(self.twist))
        return f.trace[codes]

    def _build_double(self):
        f = self.field
        c = np.exp(2j * np.pi * self._trace_sequence() / f.p)
        # G[m] = sum_k c_k zeta_{q-1}^{km}
        return np.fft.ifft(c) * (f.q - 1)

    def omega_vector(self, x, ms):
        """omega(x)^m over an integer array of m values."""
        k = dlog(self.field, x)
        return self._zeta[(np.asarray(ms, dtype=np.int64) * k) % (self.field.q - 1)]


def get_character_system(field, precision=53, twist=1):
    """The field's CharacterSystem for this twist, cached on the field; precision must be 53."""
    _check_precision(precision)
    cs = field.character_systems.get(twist)
    if cs is None:
        cs = CharacterSystem(field, precision, twist)
        field.character_systems[twist] = cs
    return cs
