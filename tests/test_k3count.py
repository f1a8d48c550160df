"""Surface counting and the point-count/trace/main identity verifiers."""

import hashlib
import io
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import hgmk3.k3count as k3
from hgmk3.cli import _field_for, main
from hgmk3.ffield import dlog, field_new, quadratic_character
from hgmk3.hyperg import IntegrityError, hg_H2, hg_H3
from hgmk3.k3count import (
    BadReductionError,
    count_affine,
    count_elliptic_surface,
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


def chi_one_plus(field):
    """chi(1 + g^m) for m in Z/(q-1): +-1 by the parity of zech[m], 0 at m = N/2."""
    z = field.zech.astype(np.int64)
    return np.where(z < 0, 0, 1 - 2 * (z & 1))


def windowed_shift_sums(field, cols, weights, shifts):
    """sum_k weights[k] chi(1 + g^(cols[k] + s)) for each s, one window of the
    doubled chi(1 + g^m) sequence per shift: the O(q^2) correlation."""
    N = field.q - 1
    chi = chi_one_plus(field)
    windows = sliding_window_view(np.concatenate([chi, chi]), N)
    bins = np.zeros(N, dtype=np.int64)
    np.add.at(bins, cols % N, weights)
    return np.array([windows[s % N] @ bins for s in shifts], dtype=np.int64)


@pytest.mark.parametrize("q", [7, 9, 101, 243, 2003, 2187])
def test_fft_shift_sums_match_the_windowed_correlation(q):
    f = _field_for(q)
    N = q - 1
    rng = np.random.default_rng(q)
    # 2N columns over N bins repeat some bins; signed weights can cancel in a bin
    cols = rng.integers(-3 * N, 3 * N, size=2 * N)
    weights = rng.choice([-1, 1], size=2 * N)
    shifts = np.concatenate([np.arange(N), rng.integers(-5 * N, 5 * N, size=50)])
    got = k3._chi_shift_sums(f, cols, weights, shifts)
    assert got.dtype == np.int64
    assert np.array_equal(got, windowed_shift_sums(f, cols, weights, shifts))


def test_fft_shift_sums_certify_their_rounding(monkeypatch):
    f = field_new(2003)
    N = f.q - 1
    cols = np.arange(N)
    # weights near 2^40: the a-priori error bound is far above 1/2
    with pytest.raises(IntegrityError, match="not below 1/2"):
        k3._chi_shift_sums(f, cols, np.full(N, 1 << 40), np.arange(N))
    # an inverse transform a quarter off every integer exceeds the bound it was given
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **kw: irfft(*a, **kw) + 0.25)
    with pytest.raises(IntegrityError, match="residual"):
        k3._chi_shift_sums(f, cols, np.ones(N, dtype=np.int64), np.arange(N))


# every t in F_q^x is passed as an element, so extension fields reach t outside F_p
@pytest.mark.parametrize("q", [7, 9, 25, 27, 31, 101])
def test_affine_count_matches_naive_at_every_t(q):
    f = _field_for(q)
    for code in range(1, q):
        t = f.from_code(code)
        assert count_affine(f, t) == count_affine(f, t, "naive"), (q, code)
    # one histogram of xyz(1-x-y-z) over (F_q^x)^3 per (p, n), shared by every field built for it
    hist = k3._naive_histogram(f)
    assert hist.sum() == (q - 1) ** 3
    assert k3._naive_histogram(_field_for(q)) is hist


# the affine grid's row x + y = 0, y = -x = g^(i + N/2): the row's gather of chi(1 + c),
# c = -4a/(xy) = g^(K - N/2 - 2i), K = dlog(-4a), against count_affine's closed form
@pytest.mark.parametrize("q", [7, 9, 25, 27, 31, 101])
def test_affine_row_x_plus_y_zero_is_minus_one_minus_chi_t(q):
    f = _field_for(q)
    N = q - 1
    chi = chi_one_plus(f)
    for code in range(1, q):
        t = f.from_code(code)
        K = dlog(f, -4 / (256 * t))
        row = chi[(K - N // 2 - 2 * np.arange(N)) % N].sum()
        assert row == -1 - quadratic_character(f, t), (q, code)


# above a built field with its zech table (read first, as the counts read it): the chi
# sequence, the bins and the length-L FFT arrays, with int32 exponents and no N-long
# weights for the affine bins
def test_counts_peak_per_element_at_q_1000003():
    f = field_new(1000003)
    f.zech
    for count, bound in [(count_affine, 64.0), (count_elliptic_surface, 84.0)]:
        tracemalloc.start()
        try:
            count(f, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / f.q <= bound, (count.__name__, peak / f.q)


# t -> a = 1/(256t) permutes F_q^x, so the counts over t add up every (x, y, z) in
# (F_q^x)^3 off the plane x + y + z = 1, which holds q^2 - 3q + 3 of them
@pytest.mark.parametrize("q,total", [(7, 185), (9, 455), (25, 13271), (27, 16925),
                                     (31, 26129), (101, 990099)])
def test_affine_counts_over_every_t_sum_to_the_closed_form(q, total):
    f = _field_for(q)
    ts = [f.from_code(code) for code in range(1, q)]
    assert (q - 1) ** 3 - (q * q - 3 * q + 3) == total
    for mode in ("naive", "solved-z"):
        assert sum(count_affine(f, t, mode) for t in ts) == total, mode


@pytest.mark.parametrize("q", [101, 243, 401])
def test_point_count_lemma_at_every_t(q):
    f = _field_for(q)
    for code in range(1, q):
        r = verify_point_count_lemma(f, f.from_code(code))
        assert r.skipped == (code == 1), (q, code, r)  # t = 1: bad reduction
        assert r.skipped or (r.passed and r.residual == 0.0), (q, code, r)


@pytest.mark.parametrize("q", [25, 27])
def test_bcm_and_trace_at_every_element_t(q):
    f = _field_for(q)
    for code in range(1, q):
        t = f.from_code(code)
        for r in (verify_bcm_identity(f, t), verify_trace_corollary(f, t)):
            assert r.passed, (q, code, r)
            assert not r.skipped or (r.check == "trace" and t == f.one()), (q, code, r)


@pytest.mark.parametrize("q", [7, 11, 13, 25, 27, 101])
def test_nodal_pair_matches_the_closed_form(q):
    # the nodal cubics at s = +-r (r^2 = t/(t-1)) have q + 1 - chi(-2) points each
    f = _field_for(q)
    closed_form = 2 * (q + 1 - quadratic_character(f, f.element(-2)))
    for code in range(2, q):  # t = 1 has no fibered count
        t = f.from_code(code)
        total, bd = count_elliptic_surface(f, t)
        if quadratic_character(f, t / (t - 1)) == 1:
            assert bd["nodal_pair"] == closed_form, (q, code)
            assert bd["n_smooth_fibers"] == q - 5, (q, code)  # s = 0, +-1, +-r excluded
        else:
            assert "nodal_pair" not in bd and bd["n_smooth_fibers"] == q - 3, (q, code)
        assert total == sum(v for k, v in bd.items() if k != "n_smooth_fibers"), (q, code)


SURFACE_FIELDS = [(5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (3, 3), (5, 2), (7, 2),
                  (101, 1), (103, 1), (3, 5), (401, 1), (2003, 1)]
# t/(t-1) is a square at 4/3, 9/8 and 25/24 (a nodal pair at every p); t = 1 has no
# fibered count, and 1/3 is a bad reduction at p = 3
SURFACE_T = ["2", "3", "4/3", "5/2", "-1", "7", "81/256", "-9/16", "10", "9/8", "25/24", "1", "1/3"]


def test_count_surface_records_are_pinned():
    # exit code and stdout of `count surface` at every cell, fibers breakdown included;
    # recorded when the nodal fibers were counted by their own closed form
    digest = hashlib.sha256()
    for p, n in SURFACE_FIELDS:
        for t in SURFACE_T:
            buf = io.StringIO()
            code = main(["count", "surface", "--p", str(p), "--n", str(n), f"--t={t}"], out=buf)
            digest.update(f"{code}\n{buf.getvalue()}".encode())
    assert digest.hexdigest() == "dc83635d2e5656504010f854de5547d0d0cf71afc7d0f67775388db64eabd510"


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
    for t in defined_t(f):
        assert count_affine(f, t) == count_affine(f, t, "naive"), (f.q, t)


def test_affine_bad_reduction_rejected():
    f5 = field_new(5)
    with pytest.raises(BadReductionError):
        count_affine(f5, 5)  # t = 0 mod 5
    with pytest.raises(BadReductionError):
        count_affine(f5, F(1, 5))
    with pytest.raises(ValueError, match="different fields"):
        count_affine(f5, field_new(7).element(2))


@pytest.mark.parametrize("t", [0.5, "1/2"])
def test_t_is_an_int_a_fraction_or_an_element(t):
    # the boundary of FieldSpec.element and hg_H3: a float or a string is no t
    f7 = field_new(7)
    with pytest.raises(TypeError):
        count_affine(f7, t)
    with pytest.raises(TypeError):
        hg_H3(f7, t)


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
    cs.gauss[5] += 0.5  # g(N - 1): the sum at q = 7 never reads g(1)
    with pytest.raises(PrecisionError):
        surface_count_report(f, F(2))


def test_bcm_gauss_expression_is_certified_by_the_rounding_rule():
    from hgmk3.charsum import PrecisionError, get_character_system

    # the check reads the field's cached system, so corrupting that one reaches it
    f = field_new(7)
    get_character_system(f).gauss[1] += 0.5
    with pytest.raises(PrecisionError, match="rounding residual"):
        verify_bcm_identity(f, F(2))


def test_surface_count_report_skips_naive_above_bound():
    from hgmk3.k3count import NAIVE_MAX_Q, surface_count_report

    f = field_new(2003)
    assert f.q > NAIVE_MAX_Q
    rep = surface_count_report(f, F(2))
    assert set(rep.affine) == {"solved-z", "hypergeometric"}
    assert rep.methods_agree and rep.surface is not None
    assert rep.surface - (22 * 2003 - 2) == rep.affine["solved-z"]


def test_bcm_and_lemma_at_q_1000003():
    f = field_new(1000003)
    bcm = verify_bcm_identity(f, F(2))
    assert bcm.passed and bcm.lhs == bcm.rhs == 1000003904084
    lemma = verify_point_count_lemma(f, F(2))
    assert lemma.passed and lemma.lhs == lemma.rhs == 1000025904148


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
        tm = f.element(t)
        s2 = (tm - f.one()) / tm
        S = sqrt(f, s2)
        if S is None:
            continue
        e1, _ = e1_e2(tm, S, f)
        assert trace_transcendental(f, t) == trace(e1) ** 2 - q, (q, t)
