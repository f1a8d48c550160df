"""Evaluation of exact-rational expression trees modulo a prime.

Catalog expressions are sympy trees with Rational coefficients; sampling a map
means picking a random prime p of a requested bit size, random values for the
free variables, solving each constraint (degree <= 2) with modular square
roots, and pushing values through the tree.  Primes come deterministically
from the run seed and are 3 mod 4, so a square root is one exponentiation.
"""

from __future__ import annotations

import random

import sympy as sp


class SampleDegenerateError(ArithmeticError):
    """A denominator vanished or a constraint had no root; resample."""


def random_prime(rng: random.Random, bits: int) -> int:
    """Deterministic random prime p = 3 mod 4 with the top bit set."""
    while True:
        cand = rng.getrandbits(bits) | (1 << (bits - 1)) | 3
        if sp.isprime(cand):
            return cand


def eval_mod(expr, values, p):
    """Evaluate a sympy expression at integer values mod p.

    Raises SampleDegenerateError when a division by zero occurs.
    """
    if expr.is_Integer:
        return int(expr) % p
    if expr.is_Rational:
        den = int(expr.q) % p
        if den == 0:
            raise SampleDegenerateError("rational coefficient with vanishing denominator")
        return int(expr.p) * pow(den, -1, p) % p
    if expr.is_Symbol:
        try:
            return values[expr] % p
        except KeyError:
            raise KeyError(f"unbound symbol {expr}") from None
    if expr.is_Add:
        total = 0
        for a in expr.args:
            total += eval_mod(a, values, p)
        return total % p
    if expr.is_Mul:
        total = 1
        for a in expr.args:
            total = total * eval_mod(a, values, p) % p
        return total
    if expr.is_Pow:
        base, e = expr.args
        if not e.is_Integer:
            raise ValueError(f"non-integer exponent in {expr}")
        b = eval_mod(base, values, p)
        e = int(e)
        if e < 0:
            if b == 0:
                raise SampleDegenerateError("division by zero")
            b = pow(b, -1, p)
            e = -e
        return pow(b, e, p)
    raise ValueError(f"unsupported expression node {expr.func}")


def sqrt_mod(a, p):
    """A square root of a mod a prime p = 3 mod 4, or None when a is a nonresidue."""
    a %= p
    root = pow(a, (p + 1) // 4, p)
    return root if root * root % p == a else None


def solve_step(coeffs, values, p, rng):
    """Solve a (<= quadratic) constraint given its coefficient expressions.

    coeffs is the all_coeffs() list of the constraint as a Poly in the target
    variable (highest degree first).  Returns one root, chosen by the rng when
    two exist.  Raises SampleDegenerateError when no root exists mod p.
    """
    cs = [eval_mod(c, values, p) for c in coeffs]
    while cs and cs[0] == 0:
        cs = cs[1:]
    if len(cs) == 3:
        a, b, c = cs
        disc = (b * b - 4 * a * c) % p
        root = sqrt_mod(disc, p)
        if root is None:
            raise SampleDegenerateError("constraint discriminant is a nonresidue")
        if rng.random() < 0.5:
            root = (-root) % p
        return (-b + root) * pow(2 * a, -1, p) % p
    if len(cs) == 2:
        b, c = cs
        return -c * pow(b, -1, p) % p
    raise SampleDegenerateError("constraint degenerated to a constant")
