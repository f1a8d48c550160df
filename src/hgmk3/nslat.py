"""Integer lattice toolkit: the generic rank-19 Neron-Severi Gram matrix from
the (-2)-curve graph, section heights, the admissibility enumeration for the
rank-20 jumps, orthogonal complements in U^2, and the rank-20 table checks.

The intersection graph is transcribed edge by edge as ground truth: two
8-component fibers (chains with one branch node), one 4-cycle fiber, and the
two sections O, T with T.O = 0 encoded explicitly.  The named lattices are the
constants `U` and `E8_NEG` = E8(-1).  The oracles `fiber_class_vector`,
`u2_complement` and `table3_blocks` are public API; the first two only the
tests call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations

import numpy as np


class LatticeError(ValueError):
    """Inconsistent graph data, unknown table class, or inadmissible profile."""


@dataclass(frozen=True)
class GramLattice:
    """A symmetric exact Gram matrix with rank/determinant/signature utilities."""

    entries: tuple  # tuple of tuples, ints or Fractions

    def __post_init__(self):
        n = len(self.entries)
        for row in self.entries:
            if len(row) != n:
                raise LatticeError("Gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if self.entries[i][j] != self.entries[j][i]:
                    raise LatticeError("Gram matrix must be symmetric")

    @property
    def rank(self):
        return len(self.entries)

    def _pivots(self):
        """Diagonal of an exact congruence diagonalisation; 0 marks a degenerate direction.

        Swaps, row/column additions and eliminations are congruences by
        matrices of determinant +-1, so the pivots keep both the determinant
        (their product) and the inertia (their signs).
        """
        m = [[Fraction(x) for x in row] for row in self.entries]
        n = len(m)
        pivots = []
        for i in range(n):
            if m[i][i] == 0:
                pivot = next((j for j in range(i + 1, n) if m[j][j] != 0), None)
                if pivot is not None:
                    for k in range(n):
                        m[i][k], m[pivot][k] = m[pivot][k], m[i][k]
                    for k in range(n):
                        m[k][i], m[k][pivot] = m[k][pivot], m[k][i]
                else:
                    j = next((j for j in range(i + 1, n) if m[i][j] != 0), None)
                    if j is None:
                        pivots.append(0)  # zero row: degenerate direction
                        continue
                    for k in range(n):
                        m[i][k] += m[j][k]
                    for k in range(n):
                        m[k][i] += m[k][j]
            d = m[i][i]
            pivots.append(d)
            for j in range(i + 1, n):
                if m[j][i] != 0:
                    c = m[j][i] / d
                    for k in range(n):
                        m[j][k] -= c * m[i][k]
                    for k in range(n):
                        m[k][j] -= c * m[k][i]
        return pivots

    @cached_property
    def _pivot_tuple(self):
        """`_pivots()`, eliminated once per lattice (the dataclass is frozen, not slotted)."""
        return tuple(self._pivots())

    def det(self):
        """The product of the pivots, an int when integral."""
        d = math.prod(self._pivot_tuple, start=Fraction(1))
        return int(d) if d.denominator == 1 else d

    def signature(self):
        """(n_plus, n_minus), the signs of the pivots; a zero pivot is degenerate."""
        pivots = self._pivot_tuple
        return sum(d > 0 for d in pivots), sum(d < 0 for d in pivots)

    def block(self, idx):
        return GramLattice(tuple(tuple(self.entries[i][j] for j in idx) for i in idx))


def direct_sum(*lattices):
    """The orthogonal sum; the summands' pivots, concatenated, diagonalise it."""
    n = sum(l.rank for l in lattices)
    offset = 0
    entries = [[0] * n for _ in range(n)]
    for lat in lattices:
        for i in range(lat.rank):
            for j in range(lat.rank):
                entries[offset + i][offset + j] = lat.entries[i][j]
        offset += lat.rank
    out = GramLattice(tuple(tuple(row) for row in entries))
    object.__setattr__(out, "_pivot_tuple", tuple(d for l in lattices for d in l._pivot_tuple))
    return out


U = GramLattice(((0, 1), (1, 0)))

# the E8 Cartan matrix, negated: nodes 1-7 a chain, node 8 attached to node 5
_E8_EDGES = {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)}
E8_NEG = GramLattice(tuple(
    tuple(-2 if i == j else int((i, j) in _E8_EDGES or (j, i) in _E8_EDGES) for j in range(8))
    for i in range(8)
))


# ---------------------------------------------------------------------------
# the (-2)-curve graph and the generic rank-19 lattice
# ---------------------------------------------------------------------------

_NODES = (
    [f"f{i}" for i in range(8)]
    + [f"e{i}" for i in range(8)]
    + [f"g{i}" for i in range(4)]  # the 4-cycle components gamma_i
    + ["O", "T"]
)

_EDGES = [
    ("O", "f7"), ("f7", "f6"), ("f6", "f5"), ("f5", "f3"), ("f3", "f2"),
    ("f2", "f1"), ("f1", "f0"), ("f0", "T"), ("f3", "f4"),
    ("T", "e7"), ("e7", "e6"), ("e6", "e5"), ("e5", "e3"), ("e3", "e2"),
    ("e2", "e1"), ("e1", "e0"), ("e0", "O"), ("e3", "e4"),
    ("O", "g0"), ("g0", "g1"), ("g1", "g3"), ("g3", "g2"), ("g2", "g0"),
    ("g3", "T"),
]


def curve_graph_gram():
    """22 x 22 intersection matrix of the named (-2)-curves (T.O = 0 encoded)."""
    idx = {name: i for i, name in enumerate(_NODES)}
    n = len(_NODES)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = -2
    for a, b in _EDGES:
        m[idx[a]][idx[b]] = m[idx[b]][idx[a]] = 1
    return m, idx


def _alpha_vector(idx):
    """alpha = 2e1 + 4e2 + 6e3 + 3e4 + 5e5 + 4e6 + 3e7 + 2T."""
    v = [0] * len(_NODES)
    for name, c in (("e1", 2), ("e2", 4), ("e3", 6), ("e4", 3),
                    ("e5", 5), ("e6", 4), ("e7", 3), ("T", 2)):
        v[idx[name]] = c
    return v


def ns_basis_vectors():
    """The 19 basis vectors in curve coordinates, in the block order L1, L2, U1, <gamma>."""
    _, idx = curve_graph_gram()
    n = len(_NODES)

    def unit(name):
        v = [0] * n
        v[idx[name]] = 1
        return v

    def add(*vs):
        return [sum(col) for col in zip(*vs)]

    def scale(c, v):
        return [c * x for x in v]

    alpha = _alpha_vector(idx)
    g3a = add(unit("g3"), alpha)
    basis = (
        [unit(f"f{i}") for i in range(1, 8)]
        + [unit("O")]
        + [unit(f"e{i}") for i in range(1, 8)]
        + [unit("T")]
        + [g3a, unit("g2"), add(unit("g1"), scale(-2, g3a), scale(-1, unit("g2")))]
    )
    return basis


def ns_gram_generic():
    """The rank-19 Gram matrix; asserts the orthogonal block decomposition."""
    m, _ = curve_graph_gram()
    basis = ns_basis_vectors()
    B = np.array(basis, dtype=np.int64)
    gram = (B @ np.array(m, dtype=np.int64) @ B.T).tolist()  # Python ints
    lat = GramLattice(tuple(tuple(row) for row in gram))
    blocks = [range(0, 8), range(8, 16), range(16, 18), range(18, 19)]
    for bi in range(4):
        for bj in range(bi + 1, 4):
            for i in blocks[bi]:
                for j in blocks[bj]:
                    if gram[i][j] != 0:
                        raise LatticeError(
                            f"block decomposition fails at ({i}, {j}) = {gram[i][j]}"
                        )
    u1 = lat.block(list(blocks[2]))
    if u1.entries != ((0, 1), (1, -2)):
        raise LatticeError(f"hyperbolic block is {u1.entries}")
    if gram[18][18] != -4:
        raise LatticeError(f"<gamma> block is {gram[18][18]}")
    return lat


def fiber_class_vector():
    """F as the sum of the 4-cycle components; F^2 = 0 and F.O = 1 hold in the graph."""
    m, idx = curve_graph_gram()
    v = [0] * len(_NODES)
    for name in ("g0", "g1", "g2", "g3"):
        v[idx[name]] = 1
    return v


# ---------------------------------------------------------------------------
# rank-20 jumps: section profiles, heights, admissibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SectionProfile:
    """Intersection pattern of an optimal extra section with the named curves.

    An optimal generator meets f7 once, gamma1 not at all and exactly one of
    gamma0, gamma2 and gamma3, so only p_g2 and p_g3 of those bits are fields.
    """

    p_O: int = 0
    p_e7: int = 0
    p_g2: int = 0
    p_g3: int = 0

    def __post_init__(self):
        if (self.p_g2, self.p_g3) not in ((0, 0), (1, 0), (0, 1)):
            raise LatticeError("the section meets exactly one 4-cycle component")
        if self.p_e7 not in (0, 1):
            raise LatticeError("p_e7 is a 0/1 intersection bit")
        if self.p_O < 0:
            raise LatticeError("p_O must be a nonnegative integer")


def height(profile):
    """Shioda height of an optimal generator from its intersection bits."""
    return (
        Fraction(4)
        + 2 * profile.p_O
        - Fraction(3, 2) * profile.p_e7
        - Fraction(3, 4) * profile.p_g2
        - profile.p_g3
    )


def p_T_relation(profile):
    """p_T = 2 + p_O - (3/2) p_e7 - (p_g2/2 + p_g3); integrality is the tested constraint."""
    return (
        Fraction(2)
        + profile.p_O
        - Fraction(3, 2) * profile.p_e7
        - (Fraction(1, 2) * profile.p_g2 + profile.p_g3)
    )


def delta_of(profile):
    """delta = (8 + 3 p_g2 - p_e7 (1 + 6 p_g2 + 4 p_g3) + 4 p_O) / 4."""
    return Fraction(
        8 + 3 * profile.p_g2 - profile.p_e7 * (1 + 6 * profile.p_g2 + 4 * profile.p_g3)
        + 4 * profile.p_O,
        4,
    )


def delta_enumeration():
    """Admissible (p_e7, p_g2, p_g3) triples: delta and p_T must be integers.

    Expected outcome: p_e7 = p_g2, with p_g3 free when p_e7 = 0 and forced to 0
    when p_g2 = 1.
    """
    admissible = set()
    for p_e7 in (0, 1):
        for p_g2, p_g3 in ((0, 0), (1, 0), (0, 1)):
            ok = True
            for p_O in (0, 1, 2):
                prof = SectionProfile(p_O=p_O, p_e7=p_e7, p_g2=p_g2, p_g3=p_g3)
                if delta_of(prof).denominator != 1 or p_T_relation(prof).denominator != 1:
                    ok = False
            if ok:
                admissible.add((p_e7, p_g2, p_g3))
    expected = {(0, 0, 0), (0, 0, 1), (1, 1, 0)}
    if admissible != expected:
        raise LatticeError(f"admissible set {admissible} differs from {expected}")
    return admissible


_TABLE3_CLASS = {(0, 0): "L0", (1, 0): "L1", (0, 1): "L2"}


def table3_blocks(class_name, p_O):
    """Table rows: the 2x2 tail of the rank-20 lattice and its transcendental mate."""
    if class_name == "L0":
        ns = ((-4, 0), (0, -4 - 2 * p_O))
        tr = ((4, 0), (0, 4 + 2 * p_O))
    elif class_name == "L1":
        ns = ((-4, 1), (1, -2 - 2 * p_O))
        tr = ((4, 1), (1, 2 + 2 * p_O))
    elif class_name == "L2":
        ns = ((-4, 2), (2, -4 - 2 * p_O))
        tr = ((4, 2), (2, 4 + 2 * p_O))
    elif class_name == "L4":
        ns = ((-2, 0), (0, -4))
        tr = ((2, 0), (0, 4))
    else:
        raise LatticeError(f"unknown class {class_name!r}")
    return GramLattice(ns), GramLattice(tr)


def ns_cm_gram(profile):
    """The rank-20 Gram E8(-1)^2 + U + [[-4, b], [b, -2 delta]] for an admissible profile.

    Asserts det = -4 * height (raw determinant; the sign convention difference
    with the stated discriminant is |.| plus signature) and that the 2x2 block
    matches its table class.
    """
    triple = (profile.p_e7, profile.p_g2, profile.p_g3)
    if triple not in delta_enumeration():
        raise LatticeError(f"profile {triple} is inadmissible")
    d = delta_of(profile)
    b = -2 * profile.p_e7 + 3 * profile.p_g2 + 2 * profile.p_g3
    block = GramLattice(((-4, b), (b, int(-2 * d))))
    h = height(profile)
    if block.det() != 4 * h:
        raise LatticeError(f"det {block.det()} != 4 * height {4 * h}")
    cls = _TABLE3_CLASS[(profile.p_e7, profile.p_g3)]
    expect_ns, _ = table3_blocks(cls, profile.p_O)
    if block.entries != expect_ns.entries:
        raise LatticeError(f"2x2 block {block.entries} differs from class {cls}")
    lat = direct_sum(E8_NEG, E8_NEG, U, block)
    if lat.det() != -4 * h:
        raise LatticeError("full determinant inconsistent")
    return lat


# ---------------------------------------------------------------------------
# orthogonal complements in U^2
# ---------------------------------------------------------------------------

def _u2(x, y):
    """The form of U^2 = U + U in the basis (alpha0, alpha1, beta0, beta1)."""
    return x[0] * y[1] + x[1] * y[0] + x[2] * y[3] + x[3] * y[2]


def _gram2(x, y):
    return ((_u2(x, x), _u2(x, y)), (_u2(y, x), _u2(y, y)))


def u2_complement(a, b, c):
    """Orthogonal complement of [[2a, b], [b, 2c]] embedded in U^2.

    Embedding: x -> a alpha0 + alpha1 + b beta0, y -> c beta0 + beta1 in the
    basis (alpha0, alpha1, beta0, beta1).  Returns the complement Gram, which
    equals [[-2a, b], [b, -2c]].
    """
    a, b, c = int(a), int(b), int(c)
    phi_x = (a, 1, b, 0)
    phi_y = (0, 0, c, 1)
    if _gram2(phi_x, phi_y) != ((2 * a, b), (b, 2 * c)):
        raise LatticeError("embedding is not isometric")
    v1 = (-a, 1, 0, 0)
    v2 = (b, 0, c, -1)
    for v in (v1, v2):
        if _u2(phi_x, v) != 0 or _u2(phi_y, v) != 0:
            raise LatticeError("complement basis is not orthogonal to the image")
    # saturation: gcd of the 2x2 minors of the stacked basis is 1
    minors = [v1[i] * v2[j] - v1[j] * v2[i] for i, j in combinations(range(4), 2)]
    if math.gcd(*minors) != 1:
        raise LatticeError("complement basis is not saturated")
    gram = _gram2(v1, v2)
    expected = ((-2 * a, b), (b, -2 * c))
    if gram != expected:
        raise LatticeError(f"complement Gram {gram} != {expected}")
    return GramLattice(gram)


# ---------------------------------------------------------------------------
# rank-20 table rows
# ---------------------------------------------------------------------------

@dataclass
class Table5Row:
    t: Fraction
    a: int
    b: int
    c: int
    class_name: str = None
    p_O: int = None
    passed: bool = False
    reason: str = None


def verify_table5():
    """Consistency of all stored rank-20 rows with the table classes.

    [-2,0,-4] is the t=1 row (class L4); [-4,0,c] rows are L0 and [-4,2,c]
    rows are L2 with P.O = (-c-4)/2 >= 0.  Such a row passes when `ns_cm_gram`
    accepts its implied profile: the profile rebuilds the row's own block, whose
    determinant `ns_cm_gram` checks against 4 * height.
    """
    from .cmdata import ns_lattice_rows

    out = []
    for t, (a, b, c) in ns_lattice_rows().items():
        row = Table5Row(t, a, b, c)
        if (a, b, c) == (-2, 0, -4):
            row.class_name = "L4"
            row.passed = t == 1
            if not row.passed:
                row.reason = "the <-2>+<-4> row must be t = 1"
        elif a == -4 and b in (0, 2):
            row.class_name = "L0" if b == 0 else "L2"
            if (-c - 4) % 2 != 0 or (-c - 4) < 0:
                row.reason = f"c = {c} gives no nonnegative integer P.O"
            else:
                row.p_O = (-c - 4) // 2
                prof = SectionProfile(
                    p_O=row.p_O,
                    p_e7=0,
                    p_g2=0,
                    p_g3=0 if b == 0 else 1,
                )
                try:
                    ns_cm_gram(prof)
                    row.passed = True
                except LatticeError as e:
                    row.reason = str(e)
        else:
            row.reason = f"row [{a},{b},{c}] matches no table class"
        out.append(row)
    return out
