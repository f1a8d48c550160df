"""Lattice toolkit: generic NS Gram, heights, admissibility, U^2 complements."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgmk3.nslat import (
    E8_NEG,
    U,
    GramLattice,
    LatticeError,
    SectionProfile,
    curve_graph_gram,
    delta_enumeration,
    delta_of,
    direct_sum,
    fiber_class_vector,
    height,
    ns_cm_gram,
    ns_gram_generic,
    p_T_relation,
    table3_blocks,
    u2_complement,
    verify_table5,
)


def test_standard_lattices():
    assert U.det() == -1
    assert E8_NEG.det() == 1
    assert E8_NEG.signature() == (0, 8)
    assert all(E8_NEG.entries[i][i] % 2 == 0 for i in range(8))


def test_direct_sum():
    lat = direct_sum(E8_NEG, E8_NEG, U, GramLattice(((-4,),)))
    assert lat.det() == 4
    assert lat.signature() == (1, 18)


def test_curve_graph_shape():
    m, idx = curve_graph_gram()
    assert len(m) == 22
    assert m[idx["O"]][idx["T"]] == 0  # characteristic-zero fact, encoded
    assert m[idx["O"]][idx["f7"]] == 1
    assert m[idx["T"]][idx["g3"]] == 1
    assert m[idx["g0"]][idx["g1"]] == m[idx["g1"]][idx["g3"]] == 1
    assert m[idx["g3"]][idx["g2"]] == m[idx["g2"]][idx["g0"]] == 1
    assert m[idx["g0"]][idx["g3"]] == 0  # opposite components of the 4-cycle


def test_fiber_class():
    m, idx = curve_graph_gram()
    F_vec = fiber_class_vector()
    sq = sum(F_vec[a] * m[a][b] * F_vec[b] for a in range(22) for b in range(22))
    assert sq == 0
    o = [0] * 22
    o[idx["O"]] = 1
    assert sum(F_vec[a] * m[a][b] * o[b] for a in range(22) for b in range(22)) == 1


def test_ns_gram_generic():
    lat = ns_gram_generic()
    assert lat.rank == 19
    assert abs(lat.det()) == 4
    assert lat.det() == 4
    assert lat.signature() == (1, 18)
    # L1 block: O, f1..f7 span an even negative-definite unimodular lattice
    l1 = lat.block(range(0, 8))
    assert l1.det() == 1 and l1.signature() == (0, 8)
    assert all(l1.entries[i][i] % 2 == 0 for i in range(8))  # even
    l2 = lat.block(range(8, 16))
    assert l2.det() == 1 and l2.signature() == (0, 8)
    assert all(l2.entries[i][i] % 2 == 0 for i in range(8))  # even
    u1 = lat.block(range(16, 18))
    assert u1.entries == ((0, 1), (1, -2))
    assert u1.det() == -1
    # unimodular change y -> y + x turns U1 into the standard U
    a, b = (0, 1), (1, -2)
    changed = ((0, 0 + 1), (1 + 0, -2 + 2 * 1))
    assert changed == ((0, 1), (1, 0))
    assert lat.entries[18][18] == -4


def test_height_examples():
    assert height(SectionProfile(p_O=0)) == 4  # meets gamma0, nothing else
    assert height(SectionProfile(p_O=0, p_g3=1)) == 3
    assert height(SectionProfile(p_O=0, p_e7=1, p_g2=1)) == F(7, 4)


def test_p_T_relation_examples():
    assert p_T_relation(SectionProfile()) == 2
    assert p_T_relation(SectionProfile(p_e7=1, p_g2=1)) == 0
    assert p_T_relation(SectionProfile(p_e7=1)) == F(1, 2)  # non-integer: inadmissible


def test_profile_invariants():
    # gamma0's bit is 1 - p_g2 - p_g3, so exactly one of gamma0, gamma2, gamma3 is met
    for p_e7, p_g2, p_g3 in itertools.product((0, 1), (0, 1, 2), (0, 1, 2)):
        if (p_g2, p_g3) in ((0, 0), (1, 0), (0, 1)):
            prof = SectionProfile(p_e7=p_e7, p_g2=p_g2, p_g3=p_g3)
            assert (prof.p_e7, prof.p_g2, prof.p_g3) == (p_e7, p_g2, p_g3)
        else:
            with pytest.raises(LatticeError,
                               match="^the section meets exactly one 4-cycle component$"):
                SectionProfile(p_e7=p_e7, p_g2=p_g2, p_g3=p_g3)
    with pytest.raises(LatticeError):
        SectionProfile(p_O=-1)


def test_delta_enumeration():
    assert delta_enumeration() == {(0, 0, 0), (0, 0, 1), (1, 1, 0)}
    assert delta_of(SectionProfile(p_O=1)) == 3  # 2 + p_O
    assert delta_of(SectionProfile(p_O=0, p_g2=1)).denominator == 4  # 11/4
    assert delta_of(SectionProfile(p_e7=1, p_g2=1, p_O=0)) == 1


def test_ns_cm_gram_classes():
    lat = ns_cm_gram(SectionProfile(p_O=0))
    assert tuple(tuple(r) for r in lat.entries[18:]) == tuple(
        tuple([0] * 18 + list(r)) for r in ((-4, 0), (0, -4))
    )
    lat = ns_cm_gram(SectionProfile(p_O=0, p_g3=1))
    assert lat.entries[18][18:] == (-4, 2)
    assert lat.entries[19][18:] == (2, -4)
    lat = ns_cm_gram(SectionProfile(p_O=1, p_e7=1, p_g2=1))
    assert lat.entries[19][19] == -2 - 2 * 1
    assert lat.signature() == (1, 19)
    with pytest.raises(LatticeError):
        ns_cm_gram(SectionProfile(p_e7=1))  # inadmissible triple


@given(
    p_O=st.integers(min_value=0, max_value=8),
    triple=st.sampled_from([(0, 0, 0), (0, 0, 1), (1, 1, 0)]),
)
@settings(max_examples=30, deadline=None)
def test_det_equals_four_height_symbolically(p_O, triple):
    p_e7, p_g2, p_g3 = triple
    prof = SectionProfile(p_O=p_O, p_e7=p_e7, p_g2=p_g2, p_g3=p_g3)
    lat = ns_cm_gram(prof)
    assert lat.det() == -4 * height(prof)
    block = lat.block((18, 19))
    b = block.entries[0][1]
    assert block.det() == (-4) * (-2 * delta_of(prof)) - b * b == 4 * height(prof)


def test_u2_complement_examples():
    assert u2_complement(-2, 0, -2).entries == ((4, 0), (0, 4))
    assert u2_complement(0, 1, 0).entries == ((0, 1), (1, 0))
    assert u2_complement(-2, 1, -1).entries == ((4, 1), (1, 2))  # P.O = 0 row


@given(
    a=st.integers(min_value=-9, max_value=9),
    b=st.integers(min_value=-9, max_value=9),
    c=st.integers(min_value=-9, max_value=9),
)
@settings(max_examples=60, deadline=None)
def test_u2_complement_duality(a, b, c):
    first = u2_complement(a, b, c)
    assert first.entries == ((-2 * a, b), (b, -2 * c))
    second = u2_complement(-a, b, -c)
    assert second.entries == ((2 * a, b), (b, 2 * c))


def test_table3_blocks_against_complements():
    # transcendental mates of the table classes, via the U^2 complement
    for cls, (a, b, c) in {
        "L0": (-2, 0, -2), "L1": (-2, 1, -1), "L2": (-2, 2, -2),
    }.items():
        ns, tr = table3_blocks(cls, 0)
        assert u2_complement(a, b, c).entries == tr.entries
        assert ns.entries == ((2 * a, b), (b, 2 * c))


def test_table3_transcendental_with_section_offset():
    _, tr = table3_blocks("L0", 1)
    assert u2_complement(-2, 0, -3).entries == tr.entries


def test_verify_table5_all_rows():
    rows = verify_table5()
    assert len(rows) == 15
    for row in rows:
        assert row.passed, (row.t, row.reason)
    by_t = {row.t: row for row in rows}
    assert by_t[F(9)].class_name == "L0" and by_t[F(9)].p_O == 1
    assert by_t[F(1)].class_name == "L4"
    assert by_t[F(-777924)].class_name == "L2" and by_t[F(-777924)].p_O == 17


def test_signature_conventions():
    # NS lattices (1, rank-1); transcendental complements (2, rank-2)
    for cls in ("L0", "L1", "L2", "L4"):
        ns, tr = table3_blocks(cls, 0)
        full_ns = direct_sum(E8_NEG, E8_NEG, U, ns)
        assert full_ns.signature() == (1, 19)
        assert tr.signature() == (2, 0)
    generic_tr = direct_sum(U, GramLattice(((4,),)))
    assert generic_tr.signature() == (2, 1)


def _table5_lattices():
    """The rank-20 lattice of every stored table row, and ns_cm_gram's where it applies."""
    from hgmk3.cmdata import ns_lattice_rows

    out = []
    for a, b, c in ns_lattice_rows().values():
        out.append(direct_sum(E8_NEG, E8_NEG, U, GramLattice(((a, b), (b, c)))))
        if a == -4 and b in (0, 2):
            prof = SectionProfile(p_O=(-c - 4) // 2, p_g3=b // 2)
            out.append(ns_cm_gram(prof))
    return out


_SMALL_SUMS = [
    (U, U),
    (GramLattice(((0, 0), (0, 0))), U, GramLattice(((-4,),))),
    (GramLattice(((0, 2), (2, 0))), GramLattice(((0,),)), E8_NEG),
    (GramLattice(((F(1, 2), 1), (1, F(3, 4)))), GramLattice(((2, 1), (1, -3)))),
    (direct_sum(U, GramLattice(((4,),))), GramLattice(((0, 1, 1), (1, 0, 1), (1, 1, 0)))),
]


@pytest.mark.parametrize(
    "lat", _table5_lattices() + [direct_sum(*parts) for parts in _SMALL_SUMS]
)
def test_direct_sum_pivots_match_a_fresh_elimination(lat):
    fresh = GramLattice(lat.entries)
    assert "_pivot_tuple" not in vars(fresh)
    assert lat.det() == fresh.det()
    assert type(lat.det()) is type(fresh.det())
    assert lat.signature() == fresh.signature()


def test_direct_sum_is_not_eliminated_afresh(monkeypatch):
    calls = []
    pivots = GramLattice._pivots

    def counting(self):
        calls.append(self.rank)
        return pivots(self)

    monkeypatch.setattr(GramLattice, "_pivots", counting)
    lat = direct_sum(E8_NEG, U, GramLattice(((-4, 2), (2, -6))))
    assert (lat.det(), lat.signature()) == (-20, (1, 11))
    assert 12 not in calls


@st.composite
def symmetric_int_matrices(draw):
    """Symmetric integer matrices up to 6 x 6, some with zero diagonal, some singular."""
    n = draw(st.integers(min_value=1, max_value=6))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(st.integers(min_value=-5, max_value=5))
    if draw(st.booleans()):
        for i in range(n):
            m[i][i] = 0
    if n > 1 and draw(st.booleans()):
        # repeat row and column i as j: a singular matrix
        i, j = draw(st.permutations(range(n)))[:2]
        for k in range(n):
            m[j][k] = m[i][k]
        for k in range(n):
            m[k][j] = m[k][i]
    return m


@given(symmetric_int_matrices())
@settings(max_examples=300, deadline=None)
def test_det_and_signature_match_references(m):
    import numpy as np
    import sympy as sp

    lat = GramLattice(tuple(tuple(row) for row in m))
    d = lat.det()
    assert type(d) is int and d == sp.Matrix(m).det()
    eig = np.linalg.eigvalsh(np.array(m, dtype=float))
    tol = 1e-9 * max(1.0, float(np.abs(eig).max()))
    assert lat.signature() == (int((eig > tol).sum()), int((eig < -tol).sum()))


def test_det_of_a_fractional_gram():
    lat = GramLattice(((F(1, 2), 1), (1, F(3, 4))))
    assert lat.det() == F(-5, 8)
    assert lat.signature() == (1, 1)
    assert GramLattice(((0, 0), (0, 0))).det() == 0
    assert GramLattice(((0, 0), (0, 0))).signature() == (0, 0)


def test_det_and_signature_share_one_elimination(monkeypatch):
    calls = []
    pivots = GramLattice._pivots

    def counting(self):
        calls.append(self)
        return pivots(self)

    monkeypatch.setattr(GramLattice, "_pivots", counting)
    lat = ns_gram_generic()
    assert (lat.det(), lat.signature()) == (4, (1, 18))
    assert len(calls) == 1  # one per call before the pivots were cached
