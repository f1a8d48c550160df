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


def _exact_mod(expr, values, p):
    import sympy as sp

    r = sp.Rational(expr.xreplace({sym: sp.Integer(v) for sym, v in values.items()}))
    return int(r.p) * pow(int(r.q), -1, p) % p


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_compiled_eval_matches_exact_evaluation(name):
    import random

    from hgmk3.geomver.modeval import eval_mod, random_prime

    entry = CATALOG[name]
    exprs = [*(eq for eq, _ in entry.solve_steps),
             *(e for _, e in entry.outputs), *entry.target_eqs]
    rng = random.Random(f"compiled:{name}")
    for _ in range(3):
        p = random_prime(rng)
        for expr in exprs:
            values = {sym: rng.randrange(1, p) for sym in expr.free_symbols}
            assert eval_mod(expr, values, p) == _exact_mod(expr, values, p), (name, expr)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_degree_bound_is_the_together_numerator_degree(name):
    import sympy as sp

    nums = (sp.fraction(sp.together(eq))[0] for eq in CATALOG[name].target_eqs)
    oracle = max(int(sp.total_degree(sp.expand(num))) for num in nums)
    assert CATALOG[name].degree_bound == oracle


def test_eval_mod_errors():
    import sympy as sp

    from hgmk3.geomver.modeval import SampleDegenerateError, eval_mod

    x, y = sp.symbols("x y")
    assert eval_mod(x**2 / (x - y) + sp.Rational(1, 3), {x: 5, y: 3}, 103) == 30  # 77/6
    with pytest.raises(SampleDegenerateError):
        eval_mod(1 / x, {x: 0}, 103)
    with pytest.raises(SampleDegenerateError):
        eval_mod(x / (x - y), {x: 5, y: 108}, 103)
    with pytest.raises(SampleDegenerateError):
        eval_mod(sp.Rational(1, 206) * x, {x: 1}, 103)
    with pytest.raises(KeyError, match="unbound symbol y"):
        eval_mod(x + y, {x: 1}, 103)
    with pytest.raises(ValueError, match="non-integer exponent"):
        eval_mod(sp.sqrt(x), {x: 4}, 103)
    with pytest.raises(ValueError, match="unsupported expression node"):
        eval_mod(sp.sin(x), {x: 4}, 103)


def test_random_prime_stream_is_pinned():
    import hashlib
    import random

    from hgmk3.geomver.modeval import random_prime

    rng = random.Random(20259)
    primes = ",".join(str(random_prime(rng)) for _ in range(200))
    assert hashlib.sha256(primes.encode()).hexdigest() == (
        "8e4cb696b84cfbaa740e0215508d28ac3dc72cd510dba80dde1aef471fb63c88")


@pytest.mark.parametrize("seed,n_primes,attempts,digest", [
    (20259, 725, 1568, "68dbf7d35fce8b5fbc6b71496cc069a65c24d101c291511221e3929e47b17a85"),
    (7, 725, 1577, "e09449c6a7a47b3efa1c7830b031c03e46cebd96c988bc7c46851b3f5088b2c2"),
])
def test_sampler_trajectory_is_pinned(monkeypatch, seed, n_primes, attempts, digest):
    # the records carry only trials, failures and the miss figure; this pins every
    # prime drawn and every redraw, so a change to the rng draws or to which points
    # degenerate shows here
    import hashlib

    from hgmk3.geomver import modeval, sz, verify_all_maps

    primes = []

    def recording(rng):
        primes.append(modeval.random_prime(rng))
        return primes[-1]

    monkeypatch.setattr(sz, "random_prime", recording)
    reports = verify_all_maps(25, seed) + verify_chain_psi(25, seed) + verify_Qt_on_curve(100, seed)
    trajectory = (";".join(f"{r.name}:{r.attempts}:{r.failures}" for r in reports)
                  + "|" + ",".join(map(str, primes)))
    assert (len(primes), sum(r.attempts for r in reports)) == (n_primes, attempts)
    assert hashlib.sha256(trajectory.encode()).hexdigest() == digest


def test_linear_solve_step_draws_nothing():
    import random

    import sympy as sp

    from hgmk3.geomver.modeval import random_prime, solve_step

    t, rho = sp.symbols("t rho")
    rng = random.Random(3)
    p = random_prime(rng)
    state = rng.getstate()
    assert solve_step(t - rho**4, t, {rho: 5}, p, rng) == 625
    assert solve_step(t - 1, t, {}, p, rng) == 1
    assert rng.getstate() == state


def _reference_solve_step(eq, var, values, p, rng):
    # three evaluations of the whole constraint, then solve_step's quadratic formula
    from hgmk3.geomver.modeval import SampleDegenerateError, eval_mod, sqrt_mod

    c, plus, minus = (eval_mod(eq, values | {var: v}, p) for v in (0, 1, -1))
    half = (p + 1) // 2
    a = ((plus + minus) * half - c) % p
    b = (plus - minus) * half % p
    if a:
        root = sqrt_mod((b * b - 4 * a * c) % p, p)
        if root is None:
            raise SampleDegenerateError("nonresidue")
        if rng.random() < 0.5:
            root = (-root) % p
        return (-b + root) * pow(2 * a, -1, p) % p
    if b:
        return -c * pow(b, -1, p) % p
    raise SampleDegenerateError("constant")


def _solve_both(eq, var, values, p, seed):
    """[(root or "degenerate", rng state after)] of solve_step and of the reference."""
    import random

    from hgmk3.geomver.modeval import SampleDegenerateError, solve_step

    out = []
    for solve in (solve_step, _reference_solve_step):
        rng = random.Random(seed)
        try:
            root = solve(eq, var, dict(values), p, rng)
        except SampleDegenerateError:
            root = "degenerate"
        out.append((root, rng.getstate()))
    return out


@pytest.mark.parametrize("name", sorted(n for n, e in CATALOG.items() if e.solve_steps))
def test_solve_step_matches_three_evaluations(name):
    import random

    from hgmk3.geomver.modeval import random_prime

    entry = CATALOG[name]
    rng = random.Random(f"solve:{name}")
    for trial in range(40):
        p = random_prime(rng)
        values = {sym: rng.randrange(1, p) for sym in entry.free}
        for eq, var in entry.solve_steps:
            got, expected = _solve_both(eq, var, values, p, trial)
            assert got == expected, (name, var, trial)
            if got[0] == "degenerate":
                break
            values[var] = got[0]


def test_solve_step_degenerates_where_the_three_evaluations_do():
    import sympy as sp

    p = 103
    (eq, var), = CATALOG["family19_to_family19alt"].solve_steps
    s = sp.Symbol("s")
    # s = -1: (s + 1)^2, a denominator without Y, vanishes
    cases = [(eq, var, {sym: (p - 1 if sym == s else 5) for sym in eq.free_symbols - {var}})]
    x, y, z = sp.symbols("x y z")
    # 1/(z - y) divides by zero only at z = y: at z = 1, at z = -1, at z = 0, or nowhere
    cases += [(z**2 - x + 1 / (z - y), z, {x: 2, y: yv}) for yv in (1, p - 1, 0, 5)]
    outcomes = []
    for eq, var, values in cases:
        got, expected = _solve_both(eq, var, values, p, 0)
        assert got == expected, (eq, values)
        outcomes.append(got[0] == "degenerate")
    assert outcomes == [True, True, True, True, False]


def test_no_output_maps_a_symbol_to_itself():
    # the image starts as a copy of the sampled point, so such an output is a no-op
    for name, entry in CATALOG.items():
        assert all(sym != expr for sym, expr in entry.outputs), name


def test_fixed_coordinate_entries_sample_the_pinned_stream(monkeypatch):
    # t = rho^2, rho^4 or 1 is a linear constraint; pinning the (prime, point) stream
    # each trial pushes through the map checks the solved t and every draw after it
    # directly, not only through pass/fail
    import hashlib

    from hgmk3.geomver import sz

    pushed = []
    through = sz._through

    def recording(links):
        push = through(links)

        def wrapped(values, p):
            pushed.append((p, sorted((str(k), v) for k, v in values.items())))
            return push(values, p)

        return wrapped

    monkeypatch.setattr(sz, "_through", recording)
    for name in ("family19_to_si_quartic", "si_quartic_to_si_form", "si_normal_to_si_form",
                 "qt_section_t1"):
        assert verify_map(name, trials=5).passed
    assert len(pushed) == 20
    assert hashlib.sha256(repr(pushed).encode()).hexdigest() == (
        "8a255b7ef8a809a38b424f0cc75dff596337596788508df6b0d1619c068afceb")


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


def _cancels_to_zero(expr):
    import sympy as sp

    return sp.cancel(sp.together(expr)) == 0


def test_identities_cancel_to_zero_as_expressions():
    # the expression-tree cross-check: every identity, converted out of its field
    from hgmk3.geomver import sz

    identities = sz._si_identities(sz._si_sym()) | sz._x0_2_identities(sz._x0_2_sym())
    assert len(identities) == 15
    for name, value in identities.items():
        assert _cancels_to_zero(value.as_expr()), name


def test_perturbed_identities_do_not_cancel_as_expressions():
    from hgmk3.geomver import sz

    si = sz._si_sym()
    a, param = si[2], si[7]
    param[a] = 2 * param[a]
    nonzero = [name for name, value in sz._si_identities(si).items()
               if not _cancels_to_zero(value.as_expr())]
    assert nonzero == ["system eq 1", "system eq 4", "a(g=h^2)"]
    x0 = sz._x0_2_sym()
    x0[3]["u+"] = 2 * x0[3]["u+"]
    nonzero = [name for name, value in sz._x0_2_identities(x0).items()
               if not _cancels_to_zero(value.as_expr())]
    assert nonzero == ["j(u+) = j(E2 model)"]


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
    from sympy.polys.fields import field

    sym = sp.Symbol("t")
    symbolic = j_pair_coefficients(sym)
    poly = j_pair_coefficients(sp.Poly(sym))
    _, ft = field("t", sp.QQ)
    in_field = j_pair_coefficients(ft)
    for t in (F(2), F(81, 256), F(-9, 16), F(1, 7)):
        exact = j_pair_coefficients(t)
        pair = j_invariants_pair(t)
        assert exact == (pair.rational_part, pair.radical_coeff)
        r = sp.Rational(t.numerator, t.denominator)
        assert tuple(sp.Rational(c.numerator, c.denominator) for c in exact) \
            == tuple(e.subs(sym, r) for e in symbolic) \
            == tuple(c.eval(r) for c in poly) \
            == tuple(c.subs(ft, sp.QQ(t.numerator, t.denominator)).as_expr() for c in in_field)


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
    # a Weierstrass coefficient with a pole in s has no place in QQ[s]
    from hgmk3.geomver.kodaira import _polynomial, _s

    assert _polynomial((_s**2 - 1) / 4) == (_s.numer**2 - 1).quo_ground(4)
    with pytest.raises(FibrationError, match="not a polynomial"):
        _polynomial(8 / _s)


def test_expected_types_cover_every_model():
    # a model added to maps.FIBRATIONS needs its expected fibres here before any profile runs
    from hgmk3.geomver import kodaira

    assert kodaira.EXPECTED_TYPES.keys() == set(kodaira.MODELS)
