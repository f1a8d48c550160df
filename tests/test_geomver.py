"""Map catalog, psi chain, parameter system, j-pair and fibration profiles."""

from fractions import Fraction as F

import pytest

from hgmk3.cmdata import verify_classification_consistency
from hgmk3.ffield import field_new, sqrt
from hgmk3.geomver import (
    CATALOG,
    CatalogError,
    FibrationError,
    j_invariants_pair,
    j_match_check,
    j_pair_coefficients,
    kodaira_profile,
    verify_Qt_on_curve,
    verify_chain_psi,
    verify_map,
    verify_si_parameters,
    x0_2_checks,
)

FAST_TRIALS = 8


def test_identity_sanity_entry():
    r = verify_map("identity_sanity", trials=FAST_TRIALS)
    assert r.passed and r.trials == FAST_TRIALS


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_each_catalog_entry(name):
    r = verify_map(name, trials=FAST_TRIALS)
    assert r.passed, (name, r.witness)
    assert r.per_trial_bound < 2.0**-40  # detection probability >= 1 - 2^-40 per run


def test_unknown_entry_raises():
    with pytest.raises(CatalogError):
        verify_map("no_such_map")


def test_trial_precondition():
    with pytest.raises(ValueError):
        verify_map("identity_sanity", trials=0)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_constraints_are_quadratic_polynomials_in_their_variable(name):
    # solve_step reads a constraint from its values at var = 0, 1, -1
    import sympy as sp

    for eq, var in CATALOG[name].solve_steps:
        num, den = sp.fraction(sp.together(eq))
        assert sp.degree(num, var) <= 2, (name, var)
        assert not den.has(var), (name, var)


def test_one_prime_per_trial(monkeypatch):
    from hgmk3.geomver import modeval, sz

    primes = []

    def recording(rng):
        primes.append(modeval.random_prime(rng))
        return primes[-1]

    monkeypatch.setattr(sz, "random_prime", recording)
    r = verify_map("psi8", trials=20)
    assert r.passed and r.resamples > 0  # psi8 redraws degenerate points
    assert len(primes) == r.trials == 20
    assert all(p % 4 == 3 and p.bit_length() == 62 for p in primes)


def test_degenerate_points_are_redrawn_up_to_the_cap(monkeypatch):
    from hgmk3.geomver import modeval, sz

    solved = []

    def degenerate_at_first(*args):
        solved.append(args)
        if len(solved) <= 50:  # more than a sound entry needs, fewer than MAX_DRAWS
            raise modeval.SampleDegenerateError("forced")
        return modeval.solve_step(*args)

    monkeypatch.setattr(sz, "solve_step", degenerate_at_first)
    r = verify_map("identity_sanity", trials=1)
    assert r.passed and r.attempts > 50

    primes = []

    def recording(rng):
        primes.append(modeval.random_prime(rng))
        return primes[-1]

    def never(*args):
        raise modeval.SampleDegenerateError("forced")

    monkeypatch.setattr(sz, "random_prime", recording)
    monkeypatch.setattr(sz, "solve_step", never)
    with pytest.raises(modeval.SampleDegenerateError, match=f"{sz.MAX_DRAWS} degenerate"):
        verify_map("identity_sanity", trials=3)
    assert len(primes) == 1


@pytest.mark.parametrize("p", [103, 107, 131])
def test_sqrt_mod_every_element(p):
    from hgmk3.geomver.modeval import sqrt_mod

    squares = {x * x % p for x in range(p)}
    for a in range(p):
        root = sqrt_mod(a, p)
        if a in squares:
            assert root * root % p == a
        else:
            assert root is None


def test_determinism_same_seed():
    a = verify_map("psi5", trials=4, seed=7)
    b = verify_map("psi5", trials=4, seed=7)
    assert (a.trials, a.attempts, a.failures) == (b.trials, b.attempts, b.failures)


def test_chain_psi():
    # only the composition is sampled: each link is its own catalog entry
    (report,) = verify_chain_psi(trials=FAST_TRIALS)
    assert report.name == "psi_chain" and report.passed and report.trials == FAST_TRIALS


def test_qt_section():
    for r in verify_Qt_on_curve(trials=FAST_TRIALS):
        assert r.passed


def test_wrong_map_is_detected(monkeypatch):
    import dataclasses

    from hgmk3.geomver import maps as m

    bad = dataclasses.replace(CATALOG["qt_section"], outputs=((m.X, m.QT_X + 1), (m.Y, m.QT_Y)))
    monkeypatch.setitem(CATALOG, "qt_section", bad)
    r = verify_map("qt_section", trials=4, seed=1)
    assert not r.passed and r.failures == 4 and r.witness is not None


def test_broken_chain_link_is_detected(monkeypatch):
    import dataclasses

    (sym, expr), *rest = CATALOG["psi4"].outputs
    broken = dataclasses.replace(CATALOG["psi4"], outputs=((sym, expr + 1), *rest))
    monkeypatch.setitem(CATALOG, "psi4", broken)
    chain = verify_chain_psi(trials=4)[-1]
    assert chain.name == "psi_chain" and not chain.passed
    assert chain.failures == chain.trials == 4
    # the witness carries psi8's sampled values as well as the prime
    assert {"u", "v", "t", "prime"} <= set(chain.witness)


def test_si_parameters_exact():
    r = verify_si_parameters()
    assert r.passed, r.detail
    assert r.detail["h=1"]["a"] == "-40/3"
    assert r.detail["h=1"]["b"] == "448/27"
    assert r.detail["h=1"]["c"] == "-10/3"
    assert r.detail["h=1"]["d"] == "-56/27"
    assert r.detail["h=1"]["t"] == "1"


def test_x0_2_checks():
    r = x0_2_checks()
    assert r.passed, r.detail
    assert list(r.detail) == [
        "j(u+) = j(E2 model)", "j(u-) = j(E1 model)", "j(u(a,b)) = j(curve)",
        "s(a,b)^2 = (t-1)/t", "exact (a,b)=(3,1)",
    ]


def test_si_parameters_detects_a_perturbed_parametrization(monkeypatch):
    from hgmk3.geomver import sz

    exact = sz._si_sym

    def perturbed():
        out = exact()
        a, param = out[2], out[7]
        param[a] = 2 * param[a]
        return out

    monkeypatch.setattr(sz, "_si_sym", perturbed)
    r = verify_si_parameters()
    assert not r.passed
    # a enters equations 1 and 4 of the system and the g-form of a
    assert r.detail["failed"] == ["system eq 1", "system eq 4", "a(g=h^2)"]


def test_x0_2_detects_a_perturbed_u_plus(monkeypatch):
    from hgmk3.geomver import sz

    exact = sz._x0_2_sym

    def perturbed():
        s, aa, bb, param = exact()
        param["u+"] = 2 * param["u+"]
        return s, aa, bb, param

    monkeypatch.setattr(sz, "_x0_2_sym", perturbed)
    r = x0_2_checks()
    assert not r.passed
    assert [name for name, ok in r.detail.items() if not ok] == ["j(u+) = j(E2 model)"]


@pytest.mark.parametrize("check", [
    verify_si_parameters, x0_2_checks, verify_classification_consistency,
])
def test_exact_checks_draw_nothing_at_random(check, monkeypatch):
    import inspect
    import random

    from hgmk3.geomver import sz

    def refuse(*args, **kwargs):
        raise AssertionError("exact checks must not sample")

    assert not inspect.signature(check).parameters
    state = random.getstate()
    monkeypatch.setattr(sz, "random_prime", refuse)
    monkeypatch.setattr(random.Random, "randrange", refuse)
    assert check().passed
    assert random.getstate() == state


def test_modular_j_spot_values():
    from fractions import Fraction

    j_of_u = lambda u: (u + 256) ** 3 / u**2
    assert j_of_u(Fraction(-256)) == 0
    assert j_of_u(Fraction(64)) == 8000  # s = 0: both specialisations collapse


# --- j-invariant pair ------------------------------------------------------

def test_j_pair_t1():
    pair = j_invariants_pair(1)
    assert pair.rational_values() == (8000, 8000)


def test_j_pair_coefficients_in_every_ring():
    import sympy as sp

    sym = sp.Symbol("t")
    symbolic = j_pair_coefficients(sym)
    poly = j_pair_coefficients(sp.Poly(sym))
    for t in (F(2), F(81, 256), F(-9, 16), F(1, 7)):
        exact = j_pair_coefficients(t)
        pair = j_invariants_pair(t)
        assert exact == (pair.rational_part, pair.radical_coeff)
        assert tuple(sp.Rational(c.numerator, c.denominator) for c in exact) \
            == tuple(e.subs(sym, sp.Rational(t.numerator, t.denominator)) for e in symbolic) \
            == tuple(c.eval(sp.Rational(t.numerator, t.denominator)) for c in poly)


def test_j_pair_cm_values():
    pair = j_invariants_pair(F(81, 256))
    assert pair.rational_values() == (-3375, -3375)
    pair = j_invariants_pair(F(-9, 16))
    assert set(pair.rational_values()) == {0, 54000}
    pair = j_invariants_pair(F(81, 32))
    assert set(pair.rational_values()) == {1728, 287496}


def test_j_pair_generic_is_quadratic():
    pair = j_invariants_pair(2)
    assert pair.rational_values() is None
    assert pair.radicand == 2


def test_j_pair_symmetric_under_radical_sign():
    # the pair {A + B r, A - B r} is stable under r -> -r by construction;
    # check numerically through the mod-q realisation at both roots S, -S
    f = field_new(7)
    S = f.from_int(2)
    t = F(2)
    assert j_match_check(f, t, S)
    assert j_match_check(f, t, -S)


def test_j_match_random_cells():
    import random

    rng = random.Random(3)
    checked = 0
    while checked < 40:
        q = rng.choice([5, 7, 11, 13, 17, 19, 23, 29, 31])
        f = field_new(q)
        tc = rng.randrange(2, q)
        t_mod = f.from_int(tc)
        s2 = (t_mod - f.one()) / t_mod
        S = sqrt(f, s2)
        if S is None or S.is_zero:
            continue
        # lift t to the rational with the same reduction
        assert j_match_check(f, tc, S)
        checked += 1


# --- fibration profiles ----------------------------------------------------

def profile_types(model, t):
    prof = kodaira_profile(model, t)
    assert prof.euler_total == 24, (model, t, prof)
    assert prof.passed, (model, t, prof)
    return sorted((p.place, p.kodaira, p.degree) for p in prof.places)


def test_family19_profiles():
    types = profile_types("family19", 2)
    assert ("s=0", "I4", 1) in types
    assert ("s=1", "III*", 1) in types and ("s=-1", "III*", 1) in types
    assert sum(d for _, k, d in types if k == "I1") == 2  # conjugate I1 pair
    types = profile_types("family19", 1)
    assert ("s=inf", "I2", 1) in types
    profile_types("family19", F(81, 256))
    profile_types("family19", F(-9, 16))


def test_family19alt_profiles():
    types = profile_types("family19alt", 2)
    assert ("s=0", "III*", 1) in types and ("s=inf", "III*", 1) in types
    assert ("s=1", "I4", 1) in types
    types = profile_types("family19alt", 1)
    assert ("s=-1", "I2", 1) in types


def test_weier1_profiles():
    types = profile_types("weier1", 2)
    assert ("s=0", "I2", 1) in types and ("s=1", "I2", 1) in types
    assert ("s=inf", "I16", 1) in types
    assert sum(d for _, k, d in types if k == "I1") == 4
    types = profile_types("weier1", 1)
    assert ("s=1/2", "I2", 1) in types
    assert sum(d for _, k, d in types if k == "I1") == 2


def test_inose_profiles():
    types = profile_types("inose", 2)
    assert ("s=0", "II*", 1) in types and ("s=inf", "II*", 1) in types
    assert sum(d for _, k, d in types if k == "I1") == 4
    types = profile_types("inose", 1)
    assert ("s=-1/8", "I2", 1) in types
    types = profile_types("inose", F(81, 256))
    assert ("s=2/9", "I2", 1) in types
    types = profile_types("inose", F(-9, 16))
    assert sum(d for _, k, d in types if k == "II") == 2  # quadratic place, two II fibres


def test_xslice_profile():
    types = profile_types("xslice", 2)
    assert ("s=0", "IV*", 1) in types
    assert ("s=inf", "I12", 1) in types
    assert sum(d for _, k, d in types if k == "I1") == 4


def test_profile_errors():
    with pytest.raises(FibrationError):
        kodaira_profile("nope", 2)
    with pytest.raises(FibrationError):
        kodaira_profile("family19", 0)
