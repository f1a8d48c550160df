"""Evaluation of exact-rational expression trees modulo a prime.

Catalog expressions are sympy trees with Rational coefficients; sampling a map
means picking a random 62-bit prime p, random values for the free variables,
solving each constraint (degree <= 2) from its equation with modular square
roots, and pushing values through the tree.  Primes come deterministically
from the run seed and are 3 mod 4, so a square root is one exponentiation.

Each expression is compiled once, on first use, into straight-line Python
source: one assignment per distinct subtree (sympy nodes hash structurally,
so the memo of the walk is the common-subexpression elimination), every
value reduced into [0, p).  The same walk tracks the degree of the numerator
that `sympy.together` would build, which `maps.RationalMap.degree_bound`
reads.  A constraint is compiled once per solved variable, into one function
that returns its values at var = 0, 1 and -1 (all `solve_step` reads):
the subtrees without the variable are evaluated once for the three.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import cache

from ..ffield import is_prime


class SampleDegenerateError(ArithmeticError):
    """A denominator vanished or a constraint had no root; resample."""


PRIME_BITS = 62


def random_prime(rng: random.Random) -> int:
    """Deterministic random PRIME_BITS-bit prime p = 3 mod 4."""
    while True:
        cand = rng.getrandbits(PRIME_BITS) | (1 << (PRIME_BITS - 1)) | 3
        if is_prime(cand):
            return cand


class _Compiler:
    """One walk over an expression: straight-line source and the together-degree.

    A node's degree is (numerator degree, {denominator base: exponent}): Add
    takes the lcm of its terms' denominators, as `sympy.together` does, Mul
    multiplies, and a negative power moves its base's numerator into the
    denominator.

    Given a symbol `var`, the walk also marks the nodes that contain it: such
    a node gets three locals, its values at var = 0, 1 and -1, and every other
    node one, computed once for all three.
    """

    def __init__(self, var=None):
        self.var = var
        self.lines = []
        self.globals = {"_Degenerate": SampleDegenerateError}
        self.memo = {}  # node -> (local name, contains var, degree)

    def visit(self, node):
        hit = self.memo.get(node)
        if hit is None:
            self.memo[node] = None  # claims the next local name before the children do
            hit = self.memo[node] = self._emit(node, f"v{len(self.memo)}")
        return hit

    def _den_degree(self, den):
        return sum(e * self.memo[base][2][0] for base, e in den.items())

    @staticmethod
    def _copies(name, args):
        """[(local, argument locals)]: one, or one per value of var when an argument contains it."""
        if not any(dep for _, dep, _ in args):
            return [(name, [a for a, _, _ in args])]
        return [(f"{name}_{i}", [f"{a}_{i}" if dep else a for a, dep, _ in args])
                for i in range(3)]

    def _emit(self, node, name):
        emit = self.lines.append
        if node.is_Integer:
            emit(f"{name} = {int(node)} % p")
            return name, False, (0, Counter())
        if node.is_Rational:
            emit(f"{name} = {int(node.q)} % p")
            emit(f"if not {name}: raise _Degenerate("
                 "'rational coefficient with vanishing denominator')")
            emit(f"{name} = {int(node.p)} * pow({name}, -1, p) % p")
            return name, False, (0, Counter())
        if node.is_Symbol:
            if node == self.var:
                emit(f"{name}_0, {name}_1, {name}_2 = 0, 1, p - 1")
                return name, True, (1, Counter())
            sym = f"_s{len(self.globals)}"
            self.globals[sym] = node
            emit(f"{name} = values[{sym}] % p")
            return name, False, (1, Counter())
        if node.is_Add:
            args = [self.visit(a) for a in node.args]
            copies = self._copies(name, args)
            for local, terms in copies:
                emit(f"{local} = ({' + '.join(terms)}) % p")
            den = Counter()
            for _, _, (_, d) in args:
                den |= d  # the lcm: each base at its largest exponent
            lcm = self._den_degree(den)
            degree = max(n + lcm - self._den_degree(d) for _, _, (n, d) in args)
            return name, len(copies) > 1, (degree, den)
        if node.is_Mul:
            args = [self.visit(a) for a in node.args]
            copies = self._copies(name, args)
            for local, (first, *rest) in copies:
                emit(f"{local} = {first}" + "".join(f" * {a} % p" for a in rest))
            den = Counter()
            for _, _, (_, d) in args:
                den.update(d)
            return name, len(copies) > 1, (sum(n for _, _, (n, _) in args), den)
        if node.is_Pow:
            base, e = node.args
            if not e.is_Integer:
                raise ValueError(f"non-integer exponent in {node}")
            e = int(e)
            arg = self.visit(base)
            _, dep, (num, den) = arg
            for local, (b,) in self._copies(name, [arg]):
                if e < 0:
                    emit(f"if not {b}: raise _Degenerate('division by zero')")
                emit(f"{local} = pow({b}, {e}, p)")
            if e > 0:
                return name, dep, (e * num, Counter({k: e * v for k, v in den.items()}))
            return name, dep, (-e * self._den_degree(den), Counter({base: -e}))
        raise ValueError(f"unsupported expression node {node.func}")


@cache
def _compiled(expr, var):
    """(function(values, p), numerator degree) for one expression, built on first use.

    Given a symbol var (not None), the function returns the expression's values
    at var = 0, 1 and -1.
    """
    c = _Compiler(var)
    result, dep, (degree, _) = c.visit(expr)
    if var is not None:
        result = ", ".join(f"{result}_{i}" if dep else result for i in range(3))
    body = "".join(f"    {line}\n" for line in c.lines)
    exec(compile(f"def evaluate(values, p):\n{body}    return {result}\n", "<eval_mod>", "exec"),
         c.globals)
    return c.globals["evaluate"], degree


def _evaluate(expr, values, p, var=None):
    """The compiled function of (expr, var) at values mod p; KeyError names an unbound symbol."""
    try:
        return _compiled(expr, var)[0](values, p)
    except KeyError as e:
        raise KeyError(f"unbound symbol {e.args[0]}") from None


def eval_mod(expr, values, p):
    """Evaluate a sympy expression at integer values mod p, by its compiled function.

    Raises SampleDegenerateError when a division by zero occurs, KeyError
    naming a symbol that `values` does not bind, and ValueError for a
    non-integer exponent or a node other than a number, symbol, sum, product
    or power.
    """
    return _evaluate(expr, values, p)


def together_degree(expr):
    """Total degree of the numerator `sympy.together(expr)` builds, before cancellation."""
    return _compiled(expr, None)[1]


def sqrt_mod(a, p):
    """A square root of a mod a prime p = 3 mod 4, or None when a is a nonresidue."""
    a %= p
    root = pow(a, (p + 1) // 4, p)
    return root if root * root % p == a else None


def solve_step(eq, var, values, p, rng):
    """Solve the constraint eq = 0, at most quadratic in var, for var.

    eq at var = 0, 1, -1 gives c, a+b+c and a-b+c of a var^2 + b var + c, up to
    a denominator that var does not enter, so the roots are those of the
    cleared equation.  Returns one root, chosen by the rng when two exist; a
    linear constraint draws nothing from the rng.  Raises
    SampleDegenerateError when a denominator vanishes or no root exists mod p.
    """
    c, plus, minus = _evaluate(eq, values, p, var)
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
