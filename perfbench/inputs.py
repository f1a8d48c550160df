"""Seeded inputs for the benchmark workloads.

Everything here is plain Python with no dependency on hgmk3: the program under
test only ever receives the operations built below.  The same seed always
yields the same list of operations.
"""

from __future__ import annotations

import random

WORKLOADS = ("sweep", "line", "counts", "geometry")

# The eight t values of the README sweep example.
SWEEP_T = "2,3,5/2,-1,7,81/256,-9/16,10"
CURVE_THEOREM_Q = (5, 7, 11, 13, 25, 49)

LINE_P = 1000003
LINE_MAIN_OPS = 10
LINE_CURVE_OPS = 10

# The tables op evaluates H3 and H2 once at this t, which builds the cached
# per-datum weight vectors; afterwards every main or curve op costs the same.
TABLES_T = 2

# Default-precision probe: a known defect (ROADMAP open item 2).  For q > 10^4,
# hg_H3 with default settings builds the 128-bit mpmath Gauss table, an O(q^2)
# double loop that does not return; with precision=53 the value is 6479.  The
# probe keeps that defect visible and must stay in the benchmark until fixed.
PROBE = {"p": 10007, "t": 2, "expect": 6479, "deadline_s": 5.0}
PROBE_DEFECT = "default-precision hg_H3 at q > 10^4 hangs in the O(q^2) mpmath table (ROADMAP item 2)"

COUNT_FIELDS = ((2003, 1), (3, 7))  # q = 2003 and q = 3^7 = 2187
COUNT_T = ("2", "-1")

# Schwartz-Zippel trials per map in `geometry`.  Trials cost alike, so 25 of
# them do the work of the CLI's default 100 in a quarter of the time.
MAPS_TRIALS = 25

FIBRATION_MODELS = ("family19", "family19alt", "weier1", "inose", "xslice")


def odd_prime_powers(hi):
    """Odd prime powers 3 <= q <= hi, by trial division."""
    out = []
    for q in range(3, hi + 1, 2):
        p = next(d for d in range(3, q + 1, 2) if q % d == 0)
        m = q
        while m % p == 0:
            m //= p
        if m == 1:
            out.append(q)
    return out


def _sweep(rng):
    ops = [{"id": f"all:q={q}", "kind": "cli",
            "argv": ["verify", "all", "--q", str(q), f"--t={SWEEP_T}"]}
           for q in odd_prime_powers(199)]
    ops += [{"id": f"curve-theorem:q={q}", "kind": "cli",
             "argv": ["verify", "curve-theorem", "--q", str(q)]}
            for q in CURVE_THEOREM_Q]
    rng.shuffle(ops)
    return ops


def _line_t(rng, p):
    """A rational t whose main-identity cell is live at p.

    Live means t != 0, 1 mod p, (t-1)/t a nonzero square mod p, and neither
    5 +- 3S nor 7 +- 9S vanishing (S^2 = (t-1)/t), so no sign cell degenerates.
    """
    bad = {25 * pow(9, -1, p) % p, 49 * pow(81, -1, p) % p}
    while True:
        num, den = rng.randrange(-999, 1000), rng.randrange(1, 1000)
        if num == 0 or num % p in (0, den % p):
            continue
        s2 = (num - den) * pow(num, -1, p) % p
        if pow(s2, (p - 1) // 2, p) == 1 and s2 not in bad:
            return f"{num}/{den}"


def _line_ab(rng, p):
    """Nonzero (a, b) with E: y^2 = x^3 - a x + b nonsingular (4a^3 != 27b^2)."""
    while True:
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        if (4 * a**3 - 27 * b * b) % p:
            return a, b


def _line(rng):
    p = LINE_P
    ops = []
    for _ in range(LINE_MAIN_OPS):
        t = _line_t(rng, p)
        ops.append({"id": f"main:t={t}", "kind": "main", "t": t})
    for _ in range(LINE_CURVE_OPS):
        a, b = _line_ab(rng, p)
        ops.append({"id": f"curve:a={a},b={b}", "kind": "curve", "a": a, "b": b})
    rng.shuffle(ops)
    # the field and table builds count in wall_s but are not latency samples
    head = [{"id": f"field:q={p}", "kind": "field", "p": p, "n": 1, "latency": False},
            {"id": f"tables:q={p}", "kind": "tables", "t": TABLES_T, "latency": False}]
    return head + ops


def _counts(rng):
    """One op per lemma cell; each builds its own field, as one CLI call does."""
    ops = [{"id": f"lemma:q={p**n},t={t}", "kind": "lemma", "p": p, "n": n, "t": t}
           for p, n in COUNT_FIELDS for t in COUNT_T]
    rng.shuffle(ops)
    return ops


def _geometry():
    """The CLI verbs in a fixed order at their default seed.

    The verbs share sympy's caches, so their order changes what each one
    costs; and the sampled primes follow the CLI seed.  Fixing both gives
    every benchmark seed the same work.  `maps` runs MAPS_TRIALS trials, not
    the CLI's 100, so that a run fits enough repetitions to be steady.
    """
    ops = [
        {"id": "maps", "argv": ["verify", "maps", "--trials", str(MAPS_TRIALS)]},
        {"id": "si-params", "argv": ["verify", "si-params"]},
        {"id": "qt", "argv": ["verify", "qt"]},
        {"id": "x0-2", "argv": ["verify", "x0-2"]},
        *({"id": f"fibration:{m}", "argv": ["fibration", "profile", "--model", m, "--t", "81/256"]}
          for m in FIBRATION_MODELS),
        {"id": "lattice:ns-generic", "argv": ["lattice", "ns-generic"]},
        {"id": "lattice:table5", "argv": ["lattice", "table5"]},
        {"id": "cm:verify", "argv": ["cm", "verify"]},
    ]
    for op in ops:
        op["kind"] = "cli"
    return ops


def probe_op():
    return {"id": "probe:default-precision", "kind": "probe", **PROBE}


def make_ops(workload, seed):
    """The operations of one repetition of `workload`, in run order."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    if workload == "sweep":
        return _sweep(rng)
    if workload == "line":
        return _line(rng)
    if workload == "counts":
        return _counts(rng)
    if workload == "geometry":
        return _geometry()
    raise ValueError(f"unknown workload {workload!r}")
