"""Surface counting and the point-count/trace/main identity verifiers."""

from fractions import Fraction as F

import pytest

from hgmk3.ffield import field_new, quadratic_character
from hgmk3.hyperg import hg_H2
from hgmk3.k3count import (
    BadReductionError,
    count_affine,
    count_elliptic_surface,
    count_quadric,
    delta_correction,
    trace_transcendental,
    verify_bcm_identity,
    verify_main_identity,
    verify_point_count_lemma,
    verify_trace_corollary,
)


def brute_affine(p, t):
    t = F(t)
    a = pow(256 * t.numerator, -1, p) * t.denominator % p
    return sum(
        1
        for x in range(p)
        for y in range(p)
        for z in range(p)
        if (x * y * z * (1 - x - y - z) - a) % p == 0
    )


def test_affine_count_oracles():
    f7 = field_new(7)
    assert count_affine(f7, 2) == 28 == brute_affine(7, 2)
    f5 = field_new(5)
    assert count_affine(f5, 1) == brute_affine(5, 1) == 13
    assert count_affine(f5, 2) == brute_affine(5, 2) == 16
    assert count_affine(f5, 3) == brute_affine(5, 3) == 12


def test_affine_modes_agree():
    for q, n in [(7, 1), (11, 1), (3, 2), (13, 1)]:
        f = field_new(q, n)
        for t in (F(2), F(3), F(5, 2), F(-9, 16), F(81, 256)):
            if t.numerator % f.p == 0 or t.denominator % f.p == 0:
                continue
            assert count_affine(f, t, "naive") == count_affine(f, t, "solved-z"), (q, n, t)


README_T = (F(2), F(3), F(5, 2), F(-1), F(7), F(81, 256), F(-9, 16), F(10))
EXTENSION_FIELDS = [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (11, 2), (5, 3), (7, 3)]


def defined_t(f):
    """The README t values whose reduction mod p is defined and nonzero."""
    return [t for t in README_T if t.numerator % f.p and t.denominator % f.p]


@pytest.mark.parametrize("p,n", EXTENSION_FIELDS)
def test_solved_z_matches_naive_on_extension_fields(p, n):
    f = field_new(p, n)
    # the naive triple loop costs about 4 s per t on F_343, so one t there
    for t in defined_t(f) if f.q < 343 else [F(2)]:
        assert count_affine(f, t) == count_affine(f, t, "naive"), (f.q, t)


@pytest.mark.parametrize("p,n", EXTENSION_FIELDS)
def test_quadric_formula_on_extension_fields(p, n):
    f = field_new(p, n)
    for t in defined_t(f):
        tm = f.from_rational(t)
        assert count_quadric(f, t) == f.q - quadratic_character(f, -tm), (f.q, t)


def test_affine_bad_reduction_rejected():
    f5 = field_new(5)
    with pytest.raises(BadReductionError):
        count_affine(f5, 5)  # t = 0 mod 5
    with pytest.raises(BadReductionError):
        count_affine(f5, F(1, 5))


def test_surface_count_7_2():
    f7 = field_new(7)
    total, breakdown = count_elliptic_surface(f7, 2)
    assert total == 180
    assert breakdown["s=1"] == breakdown["s=-1"] == 57
    assert breakdown["s=0"] == 28
    # t/(t-1) = 2 is a square mod 7: nodal pair present
    assert "nodal_pair" in breakdown


def test_no_nodal_contribution_when_nonsquare():
    f5 = field_new(5)
    _, breakdown = count_elliptic_surface(f5, 2)  # t/(t-1) = 2 nonsquare mod 5
    assert "nodal_pair" not in breakdown


def test_surface_rejects_t_equal_one():
    f5 = field_new(5)
    with pytest.raises(BadReductionError, match="1 mod"):
        count_elliptic_surface(f5, 1)
    with pytest.raises(BadReductionError, match="1 mod"):
        count_elliptic_surface(f5, F(-9, 16))  # -9/16 = 1 mod 5


def test_point_count_lemma_examples():
    f7 = field_new(7)
    r = verify_point_count_lemma(f7, 2)
    assert r.passed and r.lhs == 180 and r.rhs == 22 * 7 - 2 + 28
    f5 = field_new(5)
    r = verify_point_count_lemma(f5, 3)
    assert r.passed
    r = verify_point_count_lemma(f5, 1)
    assert r.skipped


@pytest.mark.parametrize("q,n", [(3, 1), (5, 1), (7, 1), (11, 1), (3, 2), (13, 1), (5, 2)])
def test_point_count_lemma_small_grid(q, n):
    f = field_new(q, n)
    for t in (F(2), F(3), F(5, 2), F(-1), F(7), F(81, 256), F(-9, 16), F(10)):
        r = verify_point_count_lemma(f, t)
        assert r.skipped or r.passed, (q, n, t, r)


def test_trace_transcendental_examples():
    f7 = field_new(7)
    assert trace_transcendental(f7, 2) == -3  # 180 - 1 - 49 - 133
    for q, t in [(11, 2), (13, 3), (5, 2)]:
        f = field_new(q)
        assert abs(trace_transcendental(f, t)) <= 3 * q


def test_bcm_identity_examples():
    f7 = field_new(7)
    r = verify_bcm_identity(f7, 2)
    assert r.passed and r.lhs == 28 and r.rhs == 28
    f5 = field_new(5)
    for t in (1, 2):
        r = verify_bcm_identity(f5, t)
        assert r.passed
    r = verify_bcm_identity(f5, 5)
    assert r.skipped  # 1/(256 t) = 0 precondition


def test_bcm_holds_at_t_congruent_one():
    # the affine identity has no t != 1 hypothesis
    f5 = field_new(5)
    r = verify_bcm_identity(f5, F(-9, 16))
    assert r.passed and not r.skipped


def test_trace_corollary_examples():
    f7 = field_new(7)
    r = verify_trace_corollary(f7, 2)
    assert r.passed and r.lhs == -3 and r.detail["h3"] == -3
    r = verify_trace_corollary(f7, 3)
    assert r.passed
    f11 = field_new(11)
    r = verify_trace_corollary(f11, 2)
    assert r.passed


def test_main_identity_spot_value():
    f7 = field_new(7)
    r = verify_main_identity(f7, 2)
    assert r.passed and not r.skipped
    live = [c for c in r.detail["cells"] if "skipped" not in c]
    assert live and all(c["h3"] == -3 for c in live)
    signs = {(c["S"], c["sign"]) for c in live}
    assert len(signs) == 4  # both roots, both signs


def test_main_identity_evaluates_h2_once_per_z(monkeypatch):
    # z depends only on sign * S: the four cells of a t share two values of z
    import hgmk3.k3count as k3

    calls = []

    def counting(field, z, cs=None):
        calls.append(z.code)
        return hg_H2(field, z, cs=cs)

    monkeypatch.setattr(k3, "hg_H2", counting)
    checked = 0
    for q in (7, 11, 13, 17, 19):
        f = field_new(q)
        for t in (2, 3, F(5, 2), -1, 7, 10):
            calls.clear()
            r = verify_main_identity(f, t)
            live = [c for c in r.detail.get("cells", []) if "skipped" not in c]
            if len(live) == 4:
                assert r.passed and len(calls) == len(set(calls)) == 2, (q, t)
                checked += 1
    assert checked >= 5


def test_main_identity_skips():
    f5 = field_new(5)
    r = verify_main_identity(f5, 2)
    assert r.skipped and "square" in r.reason  # (t-1)/t = 1/2 = 3 nonsquare mod 5
    f9 = field_new(3, 2)
    r = verify_main_identity(f9, 2)
    assert r.skipped and "gcd" in r.reason
    r = verify_main_identity(f5, F(-9, 16))  # -9/16 = 1 mod 5: bad reduction
    assert r.skipped and "1 mod p" in r.reason


def test_main_identity_skips_t_congruent_one():
    # t = 1 mod p cells have bad surface reduction; the identity genuinely fails
    # there (e.g. q = 121, t = 97/20 gives 75 vs -46), so they must skip
    from hgmk3.ffield import field_new as fnew

    f121 = fnew(11, 2)
    r = verify_main_identity(f121, F(97, 20))
    assert r.skipped and r.reason == "t = 1 mod p"


@pytest.mark.parametrize("q,n", [(5, 1), (7, 1), (11, 1), (13, 1), (5, 2), (7, 2)])
def test_main_identity_small_grid(q, n):
    f = field_new(q, n)
    for t in (F(2), F(3), F(5, 2), F(-1), F(7), F(81, 256), F(-9, 16), F(10)):
        r = verify_main_identity(f, t)
        assert r.skipped or r.passed, (q, n, t, r)


@pytest.mark.parametrize("q", [5, 7, 11, 13, 17, 19])
def test_quadric_count_formula_exhaustive_t(q):
    # N(1 = X^2 + t Y^2) = q - chi(-t) for t != 0
    f = field_new(q)
    for tc in range(1, q):
        t = f.from_int(tc)
        chi = 0 if (-t).is_zero else (1 if (-t).e % 2 == 0 else -1)
        assert count_quadric(f, tc) == q - chi


def test_quadric_count_formula_full_q_range():
    from hgmk3.cli import _field_for, odd_prime_powers

    for q in odd_prime_powers(3, 199):
        f = _field_for(q)
        for t in (f.one(), f.from_int(2), f.gen()):  # 1, a generic value, a nonsquare
            if t.is_zero:
                continue
            chi = 0 if (-t).is_zero else (1 if (-t).e % 2 == 0 else -1)
            assert count_quadric(f, t) == q - chi, (q, t)


def test_quadric_hand_value():
    f5 = field_new(5)
    assert count_quadric(f5, 1) == 4  # (+-1,0),(0,+-1)


@pytest.mark.parametrize("q", [7, 11, 13])
def test_delta_correction_bookkeeping(q):
    # sum over smooth fibers (incl. infinity) == |V| - Delta(q, t)
    f = field_new(q)
    for t in (2, 3, 5):
        if (F(t) - 1) % q == 0 or F(t) % q == 0:
            continue
        total, bd = count_elliptic_surface(f, t)
        special = bd["s=1"] + bd["s=-1"] + bd["s=0"] + bd.get("nodal_pair", 0)
        smooth_p1 = total - special
        assert smooth_p1 == count_affine(f, t) - delta_correction(f, t), (q, t)


def test_surface_count_report_methods_agree():
    from hgmk3.k3count import surface_count_report

    f7 = field_new(7)
    rep = surface_count_report(f7, F(2))
    assert rep.methods_agree
    assert rep.affine == {"naive": 28, "solved-z": 28, "hypergeometric": 28}
    assert rep.surface == 180 and rep.transcendental == -3
    # t = 1 mod p cell: no fibered count, trace from the affine chain
    f5 = field_new(5)
    rep = surface_count_report(f5, F(-9, 16))
    assert rep.methods_agree and rep.surface is None
    assert rep.transcendental == rep.affine["solved-z"] + 3 * 5 - 3 - 25


def test_surface_count_report_certifies_the_sum_side():
    from hgmk3.charsum import PrecisionError, get_character_system
    from hgmk3.k3count import surface_count_report

    f = field_new(7)
    cs = get_character_system(f)
    cs.gauss[1] += 0.5
    with pytest.raises(PrecisionError):
        surface_count_report(f, F(2))


def test_bcm_gauss_expression_is_certified_by_the_rounding_rule():
    from hgmk3.charsum import PrecisionError, get_character_system

    f = field_new(7)
    cs = get_character_system(f)
    cs.gauss[1] += 0.5
    with pytest.raises(PrecisionError, match="rounding residual"):
        verify_bcm_identity(f, F(2), cs)


def test_surface_count_report_skips_naive_above_bound():
    from hgmk3.k3count import NAIVE_MAX_Q, surface_count_report

    f = field_new(2003)
    assert f.q > NAIVE_MAX_Q
    rep = surface_count_report(f, F(2))
    assert set(rep.affine) == {"solved-z", "hypergeometric"}
    assert rep.methods_agree and rep.surface is not None
    assert rep.surface - (22 * 2003 - 2) == rep.affine["solved-z"]


def test_bcm_and_trace_at_default_settings_q_10007():
    f = field_new(10007)
    for rep in (verify_bcm_identity(f, F(2)), verify_trace_corollary(f, F(2))):
        assert rep.passed and not rep.skipped, rep


def test_non_cm_trace_equals_sym2_trace_when_S_rational():
    # T = a(E1)^2 - q whenever S in F_q, for non-CM t
    from hgmk3.ecount import e1_e2, trace
    from hgmk3.ffield import sqrt

    for q, t in [(7, 2), (11, 3), (13, 2), (19, 10)]:
        f = field_new(q)
        tm = f.from_int(t)
        s2 = (tm - f.one()) / tm
        S = sqrt(f, s2)
        if S is None:
            continue
        e1, _ = e1_e2(tm, S, f)
        assert trace_transcendental(f, t) == trace(e1) ** 2 - q, (q, t)
