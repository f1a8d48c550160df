"""Evaluation of exact-rational expression trees modulo a prime.

Catalog expressions are sympy trees with Rational coefficients; sampling a map
means picking a random 62-bit prime p, random values for the free variables,
solving each constraint (degree <= 2) from its equation with modular square
roots, and pushing values through the tree.  Primes come deterministically
from the run seed and are 3 mod 4, so a square root is one exponentiation.
"""

from __future__ import annotations

import random

import sympy as sp


class SampleDegenerateError(ArithmeticError):
    """A denominator vanished or a constraint had no root; resample."""


PRIME_BITS = 62


def random_prime(rng: random.Random) -> int:
    """Deterministic random PRIME_BITS-bit prime p = 3 mod 4."""
    while True:
        cand = rng.getrandbits(PRIME_BITS) | (1 << (PRIME_BITS - 1)) | 3
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


def solve_step(eq, var, values, p, rng):
    """Solve the constraint eq = 0, at most quadratic in var, for var.

    eq at var = 0, 1, -1 gives c, a+b+c and a-b+c of a var^2 + b var + c, up to
    a denominator that var does not enter, so the roots are those of the
    cleared equation.  Returns one root, chosen by the rng when two exist.
    Raises SampleDegenerateError when a denominator vanishes or no root exists
    mod p.
    """
    c, plus, minus = (eval_mod(eq, values | {var: v}, p) for v in (0, 1, -1))
    half = (p + 1) // 2  # 1/2 mod p
    a = ((plus + minus) * half - c) % p
    b = (plus - minus) * half % p
    if a:
        disc = (b * b - 4 * a * c) % p
        root = sqrt_mod(disc, p)
        if root is None:
            raise SampleDegenerateError("constraint discriminant is a nonresidue")
        if rng.random() < 0.5:
            root = (-root) % p
        return (-b + root) * pow(2 * a, -1, p) % p
    if b:
        return -c * pow(b, -1, p) % p
    raise SampleDegenerateError("constraint degenerated to a constant")
