"""Static fixtures and verifiers for the rank-20 classification.

The finite parameter sets S1 (rational j) and S2 (quadratic j), the j and
character columns, and the rank-20 lattice rows are shipped as a versioned
data file; everything verifiable from the exact j-pair formula is recomputed
and cross-checked here, the rest (class polynomials, order discriminants) is
out of scope and taken as fixture.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from importlib import resources

from sympy import QQ, ring

from .ffield import Q_MAX, DomainError, FieldConstructionError, as_rational, factor, is_prime
from .geomver import j_invariants_pair, j_pair_coefficients
from .k3count import CheckReport

@cache
def _data():
    with resources.files("hgmk3.data").joinpath("cm_tables.json").open() as fh:
        return json.load(fh)


def s1_values():
    return tuple(Fraction(x) for x in _data()["s1"])


def s2_values():
    return tuple(Fraction(x) for x in _data()["s2"])


def rational_cm_rows():
    return {Fraction(k): v for k, v in _data()["rational_cm"].items()}


def quadratic_cm_rows():
    return {Fraction(k): v for k, v in _data()["quadratic_cm"].items()}


def rational_cm_j_list():
    return tuple(int(x) for x in _data()["rational_cm_j_list"])


def ns_lattice_rows():
    return {Fraction(k): tuple(v) for k, v in _data()["ns_lattice_rows"].items()}


def chi_discriminant(t):
    """The fixture D of the quadratic character attached to a rank-20 parameter."""
    t = as_rational(t)
    for rows in (rational_cm_rows(), quadratic_cm_rows()):
        if t in rows:
            return rows[t]["chi_D"]
    raise KeyError(f"t = {t} is not a rank-20 parameter")


def squarefree_part(r):
    """Exact squarefree part of a nonzero rational (num*den modulo squares).

    num*den is factored by trial division, which is quick for the fixture's
    values of t(t-1): every one is 37-smooth.
    """
    r = as_rational(r)
    if r == 0:
        raise ValueError("squarefree part of 0")
    out = -1 if r < 0 else 1
    for base, exp in factor(abs(r.numerator * r.denominator)).items():
        if exp % 2:
            out *= base
    return out


def classify_t(t):
    """'cm_rational_j' on S1, 'cm_quadratic_j' on S2, else 'generic'."""
    t = as_rational(t)
    if t == 0:
        raise DomainError("t = 0")
    if t in s1_values():
        return "cm_rational_j"
    if t in s2_values():
        return "cm_quadratic_j"
    return "generic"


def verify_rational_cm():
    """Every S1 row: the j-pair is rational, contains the stored j, and lies in
    the thirteen-element rational CM list."""
    j13 = set(rational_cm_j_list())
    out = []
    for t, row in rational_cm_rows().items():
        pair = j_invariants_pair(t)
        values = pair.rational_values()
        expected = Fraction(row["j"])
        detail = {"pair": values, "table_j": expected}
        passed = (
            values is not None
            and expected in values
            and all(v.denominator == 1 and int(v) in j13 for v in values)
        )
        out.append(CheckReport("cm-rational", t=t, passed=passed, detail=detail))
    return out


def verify_quadratic_cm():
    """Every S2 row: the j-pair is a genuine conjugate pair a +- b sqrt(m) with
    the stored squarefree m, and m is the squarefree part of t(t-1)."""
    out = []
    for t, row in quadratic_cm_rows().items():
        pair = j_invariants_pair(t)
        m = row["field_sqrt"]
        detail = {"field_sqrt": m}
        sf = squarefree_part(t * (t - 1))
        detail["squarefree_t(t-1)"] = sf
        passed = (
            pair.rational_values() is None  # b != 0 and t(t-1) not a square
            and pair.radical_coeff != 0
            and sf == m
        )
        out.append(CheckReport("cm-quadratic", t=t, passed=passed, detail=detail))
    return out


def verify_classification_consistency():
    """No t != 0 outside S1 has one of the thirteen rational CM j in its pair.

    The pair of t is {A +- B sqrt(t(t-1))} (`j_pair_coefficients`), so j is in it
    iff (j - A)^2 = B^2 t(t-1): a cubic in QQ[t], whose rational roots, read off
    its linear factors, are all found.
    """
    _, t = ring("t", QQ)
    A, B = j_pair_coefficients(t)
    s1 = set(s1_values())
    for j in rational_cm_j_list():
        _, factors = ((j - A) ** 2 - B**2 * t * (t - 1)).factor_list()
        for f, _ in factors:
            if f.degree() != 1:
                continue
            root = -f.monic().coeff(1)
            r = Fraction(int(root.numerator), int(root.denominator))
            if r != 0 and r not in s1:
                return CheckReport("cm-consistency", t=r, passed=False, detail={"j": j})
    return CheckReport("cm-consistency")


@dataclass
class SurveyRow:
    p: int
    T: int
    a_sq: int
    kronecker_D: int


def cm_trace_survey(t, p_max):
    """Empirical (T, a(E1)^2, (D/p)) rows for good primes with S in F_p.

    T comes from the affine count via T = |V_t| + 3p - 3 - p^2, which also
    serves the cells with t = 1 mod p where the fibered counter is excluded.
    Data product only: no assertion on the d(n) split is made.  A p_max above
    the 2^24 field bound is refused before any p is tried.
    """
    from .ecount import e1_e2, trace
    from .ffield import field_new, quadratic_character, sqrt
    from .k3count import count_affine

    if p_max > Q_MAX:
        raise FieldConstructionError(f"pmax = {p_max} exceeds the table-resident bound 2^24")
    t = as_rational(t)
    if classify_t(t) == "generic":
        raise DomainError(f"t = {t} is not a rank-20 parameter")
    D = chi_discriminant(t)
    rows = []
    for p in range(3, p_max + 1):
        if not is_prime(p):
            continue
        if t.numerator % p == 0 or t.denominator % p == 0:
            continue
        field = field_new(p)
        tm = field.element(t)
        S = sqrt(field, (tm - 1) / tm)
        if S is None:
            continue
        e1, _ = e1_e2(tm, S, field)
        rows.append(SurveyRow(
            p=p,
            T=count_affine(field, tm) + 3 * p - 3 - p * p,
            a_sq=trace(e1) ** 2,
            kronecker_D=quadratic_character(field, D),
        ))
    return rows
