"""Probabilistic verification of the map catalog; exact proofs of the parameter
and modular-curve identities.

Every Schwartz-Zippel run goes through `_sample`.  Each trial draws one
62-bit prime p = 3 mod 4 and the source's free values, solves each
constraint from its own equation (a linear one by division, a quadratic one
with a modular square root), pushes the point through one map (a catalog
entry) or through several in turn (the psi chain), and requires every target
equation to vanish.  The psi chain samples only the composition
psi2 o ... o psi8: each link is a catalog entry with a run of its own.  A
degenerate point is redrawn under the trial's prime, so a run of n trials
draws exactly n primes; fewer than 1 trial is a DomainError.  MAX_DRAWS
degenerate points in a row raise SampleDegenerateError; a catalog point
degenerates with probability below 4/5, so a sound entry does that with
probability below 10^-19 per trial.

The reported `miss_probability_bound` is (D / 2^61)^trials, with D the
entry's `degree_bound` (the largest over the links for the psi chain).  D is
the total degree of the cleared target equation alone, not of what a trial
evaluates: the target pulled back through the map and the solved
constraints, of higher degree in general.  So the figure is a Schwartz-Zippel
estimate, not a proven bound on the chance that a wrong map passes.

The exact checks return a `k3count.CheckReport`: "si_parameters" and "x0_2".

The Shioda-Inose parameter system and the X_0(2) identities are closed forms
over Q, so `_is_zero` proves each one by cancelling it to 0 as a rational
function; nothing there is sampled.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import sympy as sp

from ..ecount import WeierstrassCurve
from ..ffield import DomainError
from ..k3count import CheckReport
from .kodaira import j_pair_coefficients
from .maps import CATALOG, PSI_CHAIN, RationalMap
from .modeval import PRIME_BITS, SampleDegenerateError, eval_mod, random_prime, solve_step

DEFAULT_TRIALS = 100
MAX_DRAWS = 200  # per trial
DEFAULT_SEED = 20259


class CatalogError(LookupError):
    """Unknown catalog entry."""


@dataclass
class MapReport:
    name: str
    trials: int
    passed: bool
    failures: int = 0
    resamples: int = 0
    attempts: int = 0
    per_trial_bound: float = 0.0
    miss_probability_bound: float = 0.0
    witness: dict = None  # sampled values and prime of the first failing trial


def _sample(name, source: RationalMap, push, targets, degree, trials, rng):
    """Schwartz-Zippel trials: sample `source`, push(values, p), test `targets`.

    A point whose denominators vanish or whose constraint has no root is redrawn
    under the trial's prime; MAX_DRAWS such points in a row raise
    SampleDegenerateError.
    """
    failures = 0
    attempts = 0
    witness = None
    for _ in range(trials):
        p = random_prime(rng)
        for _ in range(MAX_DRAWS):
            attempts += 1
            values = {sym: rng.randrange(1, p) for sym in source.free}
            try:
                for eq, var in source.solve_steps:
                    values[var] = solve_step(eq, var, values, p, rng)
                image = push(values, p)
                failed = any(eval_mod(eq, image, p) != 0 for eq in targets)
                break
            except SampleDegenerateError:
                pass
        else:
            raise SampleDegenerateError(f"{name}: {MAX_DRAWS} degenerate points in a row")
        if failed:
            failures += 1
            if witness is None:
                witness = {str(k): v for k, v in values.items()} | {"prime": p}
    per_trial = degree / 2.0 ** (PRIME_BITS - 1)
    return MapReport(
        name=name,
        trials=trials,
        passed=failures == 0,
        failures=failures,
        resamples=attempts - trials,
        attempts=attempts,
        per_trial_bound=per_trial,
        miss_probability_bound=min(1.0, per_trial) ** trials,
        witness=witness,
    )


def _through(links):
    """push(values, p) that applies each link's outputs in turn."""

    def push(values, p):
        for link in links:
            out = dict(values)
            for sym, expr in link.outputs:
                out[sym] = eval_mod(expr, values, p)
            values = out
        return values

    return push


def _rng(name, trials, seed):
    """The run's random stream, after checking the trial count."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    return random.Random(f"{seed}:{name}")


def verify_map(name, trials=DEFAULT_TRIALS, seed=DEFAULT_SEED):
    """Schwartz-Zippel check of one catalog entry."""
    entry = CATALOG.get(name)
    if entry is None:
        raise CatalogError(f"no catalog entry named {name!r}")
    return _sample(name, entry, _through([entry]), entry.target_eqs, entry.degree_bound,
                   trials, _rng(name, trials, seed))


def verify_all_maps(trials=DEFAULT_TRIALS, seed=DEFAULT_SEED, only=None):
    names = [only] if only else sorted(CATALOG)
    return [verify_map(n, trials, seed) for n in names]


def verify_chain_psi(trials=DEFAULT_TRIALS, seed=DEFAULT_SEED):
    """[report] for the composition psi2 o ... o psi8; `verify_map` samples each link."""
    from .maps import inose_eq, u1, x, y

    rng = _rng("psi_chain", trials, seed)
    links = [CATALOG[n] for n in PSI_CHAIN]
    return [_sample(
        "psi_chain", links[0], _through(links), (inose_eq(x, y, u1),),
        max(link.degree_bound for link in links), trials, rng,
    )]


def verify_Qt_on_curve(trials=DEFAULT_TRIALS, seed=DEFAULT_SEED):
    """The explicit section lies on the two-II* model, generically and at t = 1."""
    return [verify_map("qt_section", trials, seed), verify_map("qt_section_t1", trials, seed)]


# ---------------------------------------------------------------------------
# exact checks: the five-variable parameter system and the modular curve
# ---------------------------------------------------------------------------

def _si_sym():
    h, g, a, b, c, d, t = sp.symbols("h g a b c d t")
    param = {
        a: 8 * (3 * h**6 - 8) / (3 * h**14 * (h**6 - 2) ** 2),
        b: 64 * (9 * h**6 - 16) / (27 * h**21 * (h**6 - 2) ** 3),
        c: -2 * (3 * h**6 + 2) / (3 * h**10 * (h**6 - 2) ** 2),
        d: 8 * (9 * h**6 - 2) / (27 * h**15 * (h**6 - 2) ** 3),
        t: -1 / (h**6 * (h**6 - 2)),
    }
    system = (
        9 * a * c - 256 * t**4 - 144 * t**3,
        -729 * b * d + 16384 * t**6 - 41472 * t**5,
        -4 * c**3 - 27 * d**2 - 32 * t**4,
        -4 * a**3 - 27 * b**2 - 2048 * t**5,
    )
    gform = {
        a: 8 * (3 * g**3 - 8) / (3 * g**7 * (g**3 - 2) ** 2),
        c: -2 * (3 * g**3 + 2) / (3 * g**5 * (g**3 - 2) ** 2),
        t: -1 / (g**3 * (g**3 - 2)),
    }
    d2_g = 64 * (2 - 9 * g**3) ** 2 / (729 * g**15 * (g**3 - 2) ** 6)
    b_g = 512 * (81 * (g**3 - 2) * g**3 + 32) / (729 * d * g**18 * (g**3 - 2) ** 6)
    return h, g, a, b, c, d, t, param, system, gform, d2_g, b_g


def _is_zero(expr):
    """expr is identically zero as a rational function over Q."""
    return sp.cancel(sp.together(expr)) == 0


def verify_si_parameters():
    """The h-parametrization satisfies the four-equation system identically.

    Checked exactly at h = 1 and as rational-function identities in h, together
    with the g-form consistency (g = h^2) and the A, B <-> j-pair identities.
    detail["failed"] names every identity that does not vanish.
    """
    h, g, a, b, c, d, t, param, system, gform, d2_g, b_g = _si_sym()
    # exact h = 1 hand-verified quintuple
    at1 = {sym: sp.nsimplify(expr.subs(h, 1)) for sym, expr in param.items()}
    expected = {a: sp.Rational(-40, 3), b: sp.Rational(448, 27),
                c: sp.Rational(-10, 3), d: sp.Rational(-56, 27), t: 1}
    detail = {"h=1": {str(k): str(v) for k, v in at1.items()}}
    ok = at1 == expected
    ok &= all(eq.subs(at1) == 0 for eq in system)
    # A, B solve the j-pair system: A^3 = j1 j2 / 12^6, B^2 = (1-j1/12^3)(1-j2/12^3)
    A = (16 * t + 9) / 9
    B2 = sp.Rational(4, 729) * t * (81 - 32 * t) ** 2
    j_mid, j_rad = j_pair_coefficients(t)  # {j1, j2} = j_mid +- j_rad sqrt(t(t-1))
    j_sum = 2 * j_mid
    j_prod = j_mid**2 - j_rad**2 * t * (t - 1)
    identities = {f"system eq {i}": eq.subs(param) for i, eq in enumerate(system, 1)}
    identities |= {f"{sym}(g=h^2)": gform[sym].subs(g, h**2) - param[sym] for sym in (a, c, t)}
    identities["d^2(g=h^2)"] = d2_g.subs(g, h**2) - param[d] ** 2
    identities["b(g=h^2)"] = b_g.subs({g: h**2, d: param[d]}) - param[b]
    identities["A^3 = j1 j2/12^6"] = A**3 - j_prod / 12**6
    identities["B^2 = (1-j1/12^3)(1-j2/12^3)"] = B2 - (1 - j_sum / 12**3 + j_prod / 12**6)
    failed = [name for name, expr in identities.items() if not _is_zero(expr)]
    if failed:
        detail["failed"] = failed
    return CheckReport("si_parameters", passed=bool(ok) and not failed, detail=detail)


def _x0_2_sym():
    """u+-(s) on the two Legendre-type models, and u, s, t on y^2 = x^3 + a x^2 + b x."""
    s, aa, bb = sp.symbols("s aa bb")
    param = {
        "u+": -64 * (1 + s) / (-1 + s),
        "u-": -64 * (-1 + s) / (1 + s),
        "u(a,b)": 256 * bb / (aa**2 - 4 * bb),
        "s(a,b)": (-(aa**2) + 8 * bb) / aa**2,
        "t(a,b)": aa**4 / (16 * (aa**2 - 4 * bb) * bb),
    }
    return s, aa, bb, param


def x0_2_checks():
    """Modular-curve identities: j(u) = (u+256)^3/u^2 recovers both curve j's.

    u = -64(1+s)/(s-1) lands on the x^3+4x^2+2(1+s)x model and
    u = -64(s-1)/(s+1) on the x^3-2x^2+(1-s)x/2 model; on y^2 = x^3+ax^2+bx
    the parameter is u = 256b/(a^2-4b), with s = (8b-a^2)/a^2 and
    t = a^4/(16(a^2-4b)b) satisfying s^2 = (t-1)/t exactly.  Each identity is
    proved as a rational function, then spot-checked at (a, b) = (3, 1).
    """
    s, aa, bb, param = _x0_2_sym()
    j_model = lambda a2, a4: WeierstrassCurve(a2, a4, 0).j_invariant()
    j_of_u = lambda uu: (uu + 256) ** 3 / uu**2
    t_ab = param["t(a,b)"]
    detail = {
        "j(u+) = j(E2 model)": _is_zero(j_of_u(param["u+"]) - j_model(4, 2 * (1 + s))),
        "j(u-) = j(E1 model)": _is_zero(
            j_of_u(param["u-"]) - j_model(-2, sp.Rational(1, 2) * (1 - s))),
        "j(u(a,b)) = j(curve)": _is_zero(j_of_u(param["u(a,b)"]) - j_model(aa, bb)),
        "s(a,b)^2 = (t-1)/t": _is_zero(param["s(a,b)"] ** 2 - (t_ab - 1) / t_ab),
    }
    # exact rational spot check; (a, b) = (2, 1) degenerates (a^2 = 4b), use (3, 1)
    av, bv = 3, 1
    sv = Fraction(-av**2 + 8 * bv, av**2)
    tv = Fraction(av**4, 16 * (av**2 - 4 * bv) * bv)
    detail["exact (a,b)=(3,1)"] = sv * sv == (tv - 1) / tv
    return CheckReport("x0_2", passed=all(detail.values()), detail=detail)
