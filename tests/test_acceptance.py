"""Acceptance suite: every criterion at its stated tolerance, one line each.

Grids are the stated ones (odd prime powers q <= 199, the eight-value t list),
tolerances are pinned here, and nothing is deferred to later calibration.
"""

import io
import math
import random
import time
from fractions import Fraction as F

import numpy as np

from hgmk3.charsum import CharacterSystem, get_character_system
from hgmk3.cli import _field_for, main, odd_prime_powers
from hgmk3.ecount import verify_curve_trace_theorem
from hgmk3.ffield import FieldSpec, sqrt
from hgmk3.geomver import (
    j_invariants_pair,
    j_match_check,
    kodaira_profile,
    verify_all_maps,
    verify_chain_psi,
    verify_si_parameters,
)
from hgmk3.hyperg import curve_datum, hg_sum, main_datum
from hgmk3.k3count import (
    verify_bcm_identity,
    verify_main_identity,
    verify_point_count_lemma,
)
from hgmk3.nslat import (
    delta_enumeration,
    ns_gram_generic,
    table3_blocks,
    u2_complement,
    verify_table5,
)

T_GRID = (F(2), F(3), F(5, 2), F(-1), F(7), F(81, 256), F(-9, 16), F(10))
Q_ALL = odd_prime_powers(3, 199)

_t_session_start = time.perf_counter()


def announce(num, title, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:2d} {status}: {title}{extra}")
    assert ok, f"criterion {num} failed: {title}"


def test_criterion_1_bcm_identity():
    start = time.perf_counter()
    max_residual = 0.0
    checked = 0
    for q in Q_ALL:
        field = _field_for(q)
        for t in T_GRID:
            rep = verify_bcm_identity(field, t)
            if rep.skipped:
                assert t.numerator % field.p == 0 or t.denominator % field.p == 0
                continue
            assert rep.passed, (q, t, rep)
            max_residual = max(max_residual, rep.residual)
            checked += 1
    elapsed = time.perf_counter() - start
    ok = max_residual < 1e-3 and elapsed < 60.0 and checked > 350
    announce(1, "count identity over the full grid", ok,
             f" ({checked} cells, max residual {max_residual:.2e}, {elapsed:.1f}s)")


def test_criterion_2_point_count_lemma():
    spot = verify_point_count_lemma(_field_for(7), F(2))
    assert spot.lhs == 180 and spot.rhs == 152 + 28
    checked = 0
    for q in Q_ALL:
        field = _field_for(q)
        for t in T_GRID:
            rep = verify_point_count_lemma(field, t)
            if rep.skipped:
                continue
            assert rep.passed, (q, t, rep)
            checked += 1
    announce(2, "surface = 22q - 2 + affine on the grid", checked > 300,
             f" ({checked} cells; spot (7,2): 180 = 152 + 28)")


def test_criterion_3_main_identity():
    f7 = _field_for(7)
    spot = verify_main_identity(f7, F(2))
    live = [c for c in spot.detail["cells"] if "skipped" not in c]
    assert spot.passed and all(c["h3"] == -3 and c["qH2"] ** 2 - 7 == -3 for c in live)
    checked = skipped = 0
    for q in Q_ALL:
        if math.gcd(q, 6) != 1:
            continue
        field = _field_for(q)
        cs = get_character_system(field)
        for t in T_GRID:
            rep = verify_main_identity(field, t, cs)
            if rep.skipped:
                skipped += 1
                continue
            assert rep.passed, (q, t, rep)
            checked += len([c for c in rep.detail["cells"] if "skipped" not in c])
    announce(3, "q^2 H2^2 - q = H3(1 - S^2), both roots and signs", checked > 500,
             f" ({checked} sign cells, {skipped} precondition skips)")


def test_criterion_4_curve_trace_theorem():
    f5 = _field_for(5)
    assert verify_curve_trace_theorem(f5, 1, 1).count == 8
    assert verify_curve_trace_theorem(f5, 1, 2).count == 3
    cells = 0
    for q in (5, 7, 11, 13, 25, 49):
        field = _field_for(q)
        cs = get_character_system(field)
        for a in range(1, q):
            for b in range(1, q):
                rep = verify_curve_trace_theorem(field, field.from_code(a), field.from_code(b), cs)
                assert rep.skipped or rep.passed, (q, a, b, rep)
                cells += not rep.skipped
    announce(4, "curve-trace theorem, exhaustive (a, b)", cells > 3000,
             f" ({cells} nonsingular cells)")


def test_criterion_5_j_and_cm_tables():
    from hgmk3.cmdata import verify_quadratic_cm, verify_rational_cm

    rational = verify_rational_cm()
    quadratic = verify_quadratic_cm()
    ok = len(rational) == 5 and all(c.passed for c in rational)
    ok &= len(quadratic) == 10 and all(c.passed for c in quadratic)
    # the 2^6 3^3 row collapses through the formula too
    assert 1728 in j_invariants_pair(F(81, 32)).rational_values()
    rng = random.Random("acceptance:jmatch")
    cells = 0
    while cells < 200:
        q = rng.choice([q for q in Q_ALL if q <= 97])
        field = _field_for(q)
        tc = rng.randrange(2, q)
        t_mod = field.element(tc)
        if t_mod.is_zero:
            continue
        s2 = (t_mod - field.one()) / t_mod
        S = sqrt(field, s2)
        if S is None or S.is_zero:
            continue
        assert j_match_check(field, tc, S), (q, tc)
        cells += 1
    announce(5, "Table 1/Table 2 rows and 200 j-match cells", ok)


def test_criterion_6_lattice_suite():
    lat = ns_gram_generic()
    ok = abs(lat.det()) == 4 and lat.signature() == (1, 18)
    ok &= delta_enumeration() == {(0, 0, 0), (0, 0, 1), (1, 1, 0)}
    for cls, abc in {"L0": (-2, 0, -2), "L1": (-2, 1, -1), "L2": (-2, 2, -2)}.items():
        ns, tr = table3_blocks(cls, 0)
        ok &= u2_complement(*abc).entries == tr.entries
    rows = verify_table5()
    ok &= len(rows) == 15 and all(r.passed for r in rows)
    announce(6, "NS lattice, admissibility, Table 3 complements, Table 5 rows", ok)


def test_criterion_7_map_catalog():
    reports = verify_all_maps(trials=100)
    reports += verify_chain_psi(trials=100)[-1:]
    ok = all(r.passed and r.trials == 100 for r in reports)
    si = verify_si_parameters()
    ok &= si.passed
    ok &= si.detail["h=1"] == {"a": "-40/3", "b": "448/27", "c": "-10/3", "d": "-56/27", "t": "1"}
    announce(7, "map catalog at 100 trials, 62-bit primes; exact h=1 system", ok,
             f" ({len(reports)} entries)")


def test_criterion_8_fibration_profiles():
    expectations = [
        ("family19", F(2), {"III*": 2, "I4": 1, "I1": 2}),
        ("family19", F(1), {"III*": 2, "I4": 1, "I2": 1}),
        ("weier1", F(2), {"I2": 2, "I1": 4, "I16": 1}),
        ("weier1", F(1), {"I2": 3, "I1": 2, "I16": 1}),
        ("inose", F(2), {"II*": 2, "I1": 4}),
        ("inose", F(1), {"II*": 2, "I2": 1, "I1": 2}),
        ("inose", F(81, 256), {"II*": 2, "I2": 1, "I1": 2}),
        ("inose", F(-9, 16), {"II*": 2, "II": 2}),
        ("xslice", F(2), {"IV*": 1, "I12": 1, "I1": 4}),
        ("family19alt", F(2), {"III*": 2, "I4": 1, "I1": 2}),
    ]
    ok = True
    for model, t, expect in expectations:
        prof = kodaira_profile(model, t)
        got = {}
        for place in prof.places:
            got[place.kodaira] = got.get(place.kodaira, 0) + place.degree
        ok &= prof.euler_total == 24 and prof.passed and got == expect
        if not ok:
            print(model, t, got, expect)
            break
    announce(8, "Kodaira profiles match the stated fiber lists, each summing 24", ok)


def test_criterion_9_character_layer():
    ok = True
    for q in [q for q in odd_prime_powers(3, 343) if q <= 343]:
        field = _field_for(q)
        cs = get_character_system(field)
        mods = np.abs(cs.gauss[1:]) ** 2
        ok &= float(np.max(np.abs(mods - q)) / q) < 1e-9
    # additive rescaling and generator change leave exported sums unchanged
    for q in (7, 11, 13):
        field = _field_for(q)
        base = get_character_system(field)
        # the least generator code above the field's: g^k generates iff gcd(k, q - 1) = 1
        alt_gen = FieldSpec(field.p, field.n, generator=next(
            c for c in range(field.generator + 1, q) if math.gcd(int(field.dlog[c]), q - 1) == 1))
        for a in (2, 3):
            tw = CharacterSystem(field, twist=field.element(a).code)
            for t in (2, 3):
                te = field.element(t)
                ok &= hg_sum(main_datum(), field, te, cs=base).rounded == \
                    hg_sum(main_datum(), field, te, cs=tw).rounded
                if math.gcd(q, 6) == 1:
                    ok &= hg_sum(curve_datum(), field, te, cs=base).rounded == \
                        hg_sum(curve_datum(), field, te, cs=tw).rounded
        cs2 = get_character_system(alt_gen)
        for t in (2, 3):
            ok &= hg_sum(main_datum(), field, field.element(t), cs=base).rounded == \
                hg_sum(main_datum(), alt_gen, alt_gen.element(t), cs=cs2).rounded
    announce(9, "|g(m)|^2 = q within 1e-9 relative; character/generator invariance", ok)


def test_criterion_10_determinism_and_runtime():
    argv = [
        "verify", "all", "--pmax", "199", "--t", "2,3,5/2,-1,7,81/256,-9/16,10",
    ]
    buf1, buf2 = io.StringIO(), io.StringIO()
    code1 = main(argv, out=buf1)
    code2 = main(argv, out=buf2)
    ok = code1 == code2 == 0 and buf1.getvalue() == buf2.getvalue()
    buf3 = io.StringIO()
    code3 = main(["verify", "maps", "--trials", "5"], out=buf3)
    buf4 = io.StringIO()
    code4 = main(["verify", "maps", "--trials", "5"], out=buf4)
    ok &= code3 == code4 == 0 and buf3.getvalue() == buf4.getvalue()
    elapsed = time.perf_counter() - _t_session_start
    ok &= elapsed < 600.0
    announce(10, "byte-identical reruns; full suite under ten minutes", ok,
             f" ({elapsed:.0f}s elapsed)")
