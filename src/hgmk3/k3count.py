"""Point counts for the affine surface xyz(1-x-y-z) = 1/(256t) and its elliptic
K3 model, plus the verifiers tying the counts to the hypergeometric sums.

The affine surface is counted two independent ways (a literal triple loop and a
solved-quadratic loop over (x, y)).  The projective elliptic surface is counted
fiber by fiber over P^1: smooth fibers by the quadratic-character loop, the two
8-component fibers as 8q+1, the 4-cycle fiber as 4q, nodal fibers as
q + 2 + delta(-2, -2), and the fiber at infinity on the scaled model
y^2 = x^3 + x^2/4 + x/(64t).

Two oracles are public API that only the tests call: `count_quadric` counts
1 = X^2 + t Y^2 by enumeration (against q - chi(-t)), and `delta_correction`
is the bookkeeping term tying the smooth-fiber sum to the affine count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .charsum import get_character_system
from .ffield import FqElem, ReductionError, dlog, quadratic_character, sqrt
from .hyperg import IntegrityError, hg_H2, hg_H3, round_certified

# Cells per block of rows in a counting grid: int64 temporaries stay near 8 MB.
BLOCK_CELLS = 1 << 20
# Largest q at which surface_count_report also runs the O(q^3) naive count
# (about 2 s per t at q = 401).
NAIVE_MAX_Q = 401


class BadReductionError(ReductionError):
    """Raised when t reduces to a configuration the counter does not support."""


def _t_mod(field, t):
    """t mod p as a field element; an error when p divides the denominator of t."""
    t = Fraction(t)
    if t.denominator % field.p == 0:
        raise BadReductionError(f"denominator of t = {t} divisible by p = {field.p}")
    return field.from_rational(t)


@dataclass
class CheckReport:
    """One verification record, suitable for JSON-lines output.

    Every check the package makes ends in one: the count identities here, the
    exact geometry proofs (geomver.sz), the CM table (cmdata) and each CLI
    record.  A skipped check passes and has no residual; q, t and name are None
    where the check has none.  `detail` is never printed.
    """

    check: str
    q: int = None
    t: Fraction = None
    name: str = None
    passed: bool = True
    skipped: bool = False
    reason: str = None
    lhs: object = None
    rhs: object = None
    residual: float = None
    time_ms: float = None
    detail: dict = dc_field(default_factory=dict)


def delta_if_square(value, tested):
    """The quadratic-residue indicator: value if `tested` is a nonzero square, else 0."""
    return value if quadratic_character(tested.field, tested) == 1 else 0


def _reduce_inverse_argument(field, t):
    """1/(256 t) as a field element; error when t = 0 mod p."""
    t = Fraction(t)
    if _t_mod(field, t).is_zero:
        raise BadReductionError(f"t = {t} reduces to 0 mod {field.p}")
    return field.from_rational(Fraction(1, 256) / t)


def count_affine(field, t, mode="solved-z"):
    """|V_t(F_q)| for xyz(1-(x+y+z)) = 1/(256t).

    mode "naive": literal triple loop (one python loop over z, vectorised (x,y)).
    mode "solved-z": for each (x, y) with xy != 0 the equation is quadratic in z;
    roots counted as 1 + chi(disc) with chi(0) = 0 adding the double root once.
    """
    a = _reduce_inverse_argument(field, t)
    q = field.q
    if mode == "naive":
        nz = np.arange(1, q, dtype=np.int32)  # nonzero codes
        total = 0
        x = nz[:, None]
        y = nz[None, :]
        xy = field.mul_codes(x, y)
        w_xy = field.sub_codes(np.int32(field.one().code), field.add_codes(x, y))
        for zc in range(1, q):
            z = np.int32(zc)
            lhs = field.mul_codes(field.mul_codes(xy, z), field.sub_codes(w_xy, z))
            total += int((lhs == a.code).sum())
        return total
    if mode != "solved-z":
        raise ValueError(f"unknown mode {mode!r}")
    # Exponent domain, Z the zech table: x = g^i, y = x g^d, x + y = g^(i + Z[d]),
    # w = 1 - x - y = 1 + g^j = g^Z[j] with j = i + Z[d] + N/2, which runs over
    # Z/N with i; c = -4a/(xy) = g^(K - 2i - d) and 2i = 2j - 2Z[d], so for d != N/2
    # chi(w^2 + c) = (-1)^(K+d) chi(1 + g^(2(j + Z[j]) + d - K - 2Z[d])), or (-1)^(K+d) at w = 0.
    N, H = q - 1, (q - 1) // 2
    Z = field.zech.astype(np.int64)
    K = dlog(field, field.from_int(-4) * a)
    j = d = np.delete(np.arange(N), H)  # both skip N/2
    sums = _chi_shift_sums(field, 2 * (j + Z[j]), np.ones_like(j), d - K - 2 * Z[d])
    total = int((1 - 2 * ((K + d) & 1)) @ (sums + 1))
    # the row d = N/2: x + y = 0, w = 1, chi(1 + c) with c = g^(K - 2i - N/2)
    i = np.arange(N)
    total += int(_chi_shift_sums(field, -2 * i, np.ones_like(i), np.array([K - H]))[0])
    return N * N + total


def _chi_shift_sums(field, cols, weights, shifts):
    """For each s in `shifts`: sum_k weights[k] chi(1 + g^(cols[k] + s)), exactly.

    A circular correlation: the columns are binned by exponent mod q-1, and the
    row for shift s is the window s .. s+q-2 of the doubled chi(1 + g^m) sequence
    applied to the bins, BLOCK_CELLS cells at a time.
    """
    N = field.q - 1
    z = field.zech.astype(np.int64)
    chi = np.where(z < 0, 0, 1 - 2 * (z & 1))  # chi(1 + g^m): 1 + g^(N/2) = 0
    windows = sliding_window_view(np.concatenate([chi, chi]), N)
    bins = np.zeros(N, dtype=np.int64)
    np.add.at(bins, cols % N, weights)
    out = np.empty(len(shifts), dtype=np.int64)
    step = max(1, BLOCK_CELLS // N)
    for s in range(0, len(shifts), step):
        out[s : s + step] = windows[shifts[s : s + step] % N] @ bins
    return out


def _smooth_fibers_sum(field, t, r):
    """Sum of |E_s(F_q)| over s in F_q away from 0, +-1 and +-r (r^2 = t/(t-1), or None)."""
    q = field.q
    N, H = q - 1, (q - 1) // 2
    Z = field.zech.astype(np.int64)
    excluded = {0, H} if r is None else {0, H, r.e, (r.e + H) % N}  # s = +-1, +-r
    sigma = np.setdiff1d(np.arange(N), sorted(excluded))  # s = g^sigma; s = 0 is excluded
    # s^2 - 1 = g^mu; a2(s) = (s^2-1)^2 / 4 = g^alpha, a4(s) = s^2 (s^2-1)^3 / (64t) = g^beta
    mu = H + Z[(2 * sigma + H) % N]
    alpha = 2 * mu - dlog(field, field.from_int(4))
    beta = 2 * sigma + 3 * mu - dlog(field, field.from_int(64) * t)
    # x = g^(alpha + k) (x = 0 adds chi(0) = 0): x + a2 = g^(alpha + Z[k]) and
    # x^2 + a2 x + a4 = g^beta (1 + g^(k + Z[k] + 2 alpha - beta)), or a4 at k = N/2;
    # with chi(x) = (-1)^(alpha + k), sum_x chi(x^3 + a2 x^2 + a4 x) is (-1)^(alpha + beta)
    # (sum_{k != N/2} (-1)^k chi(1 + g^(k + Z[k] + 2 alpha - beta)) + (-1)^(N/2)).
    k = np.delete(np.arange(N), H)
    sums = _chi_shift_sums(field, k + Z[k], 1 - 2 * (k & 1), 2 * alpha - beta)
    chi_total = int((1 - 2 * ((alpha + beta) & 1)) @ (sums + (1 - 2 * (H & 1))))
    return len(sigma) * (q + 1) + chi_total, len(sigma)


def count_elliptic_surface(field, t):
    """|E_t(F_q)| with its per-fiber breakdown; requires t(t-1) != 0 mod p."""
    t_mod = _t_mod(field, t)
    if t_mod.is_zero:
        raise BadReductionError(f"t = {t} reduces to 0 mod {field.p}")
    if t_mod == field.one():
        raise BadReductionError(
            f"t = {t} reduces to 1 mod {field.p}: fiber configuration unsupported"
        )
    q = field.q
    one = field.one()
    # nodal fibers at s = +-r, r^2 = t/(t-1) (nonzero since t != 0)
    r = sqrt(field, t_mod / (t_mod - one))
    smooth, n_smooth = _smooth_fibers_sum(field, t_mod, r)
    breakdown = {
        "smooth": smooth,
        "n_smooth_fibers": n_smooth,
        "s=1": 8 * q + 1,
        "s=-1": 8 * q + 1,
        "s=0": 4 * q,
    }
    total = smooth + 2 * (8 * q + 1) + 4 * q
    if r is not None:
        nodal = q + 2 + delta_if_square(-2, field.from_int(-2))
        breakdown["nodal_pair"] = 2 * nodal
        total += 2 * nodal
    # fiber at infinity: y^2 = x^3 + x^2/4 + x/(64 t)
    from .ecount import WeierstrassCurve, count_points

    inf_curve = WeierstrassCurve(
        one / field.from_int(4),
        one / (field.from_int(64) * t_mod),
        field.zero(),
        field,
    )
    inf_count = count_points(inf_curve)
    breakdown["s=inf"] = inf_count
    total += inf_count
    return total, breakdown


def trace_transcendental(field, t):
    """T = |E_t(F_q)| - 1 - q^2 - 19q; |T| <= 3q (Weil bound), or IntegrityError."""
    total, _ = count_elliptic_surface(field, t)
    T = total - 1 - field.q**2 - 19 * field.q
    if abs(T) > 3 * field.q:
        raise IntegrityError(f"|T| = {abs(T)} violates the 3q bound at (q,t)=({field.q},{t})")
    return T


def _gauss_expression(field, t, cs=None):
    """-1/q + 1/(q(q-1)) sum_m g(4m) g(-m)^4 omega(1/(256t))^m as (nearest, residual),
    certified by hyperg.round_certified."""
    if cs is None:
        cs = get_character_system(field)
    z = _reduce_inverse_argument(field, t)
    q = field.q
    N = q - 1
    ms = np.arange(N, dtype=np.int64)
    w = cs.gauss[(4 * ms) % N] * cs.gauss[(-ms) % N] ** 4
    total = complex(np.dot(w, cs.omega_vector(z, ms)))
    return round_certified(-1 / q + total / (q * (q - 1)), q)


def verify_bcm_identity(field, t, cs=None):
    """count_affine == (q-1)^3/q + Gauss expression, exactly after certified rounding."""
    t = Fraction(t)
    q = field.q
    try:
        lhs = count_affine(field, t)
    except BadReductionError as e:
        return CheckReport("bcm", q, t, skipped=True, reason=str(e))
    nearest, residual = _gauss_expression(field, t, cs)
    # ((q-1)^3 + 1)/q = q^2 - 3q + 3 exactly, absorbing the -1/q of the sum side
    rhs = (q * q - 3 * q + 3) + nearest
    return CheckReport(
        "bcm", q, t, passed=lhs == rhs,
        lhs=lhs, rhs=rhs, residual=residual,
    )


def verify_point_count_lemma(field, t):
    """|E_t(F_q)| == 22q - 2 + |V_t(F_q)| exactly."""
    t = Fraction(t)
    q = field.q
    try:
        total, breakdown = count_elliptic_surface(field, t)
    except BadReductionError as e:
        return CheckReport("lemma", q, t, skipped=True, reason=str(e))
    affine = count_affine(field, t)
    rhs = 22 * q - 2 + affine
    return CheckReport(
        "lemma", q, t, passed=total == rhs, lhs=total, rhs=rhs, residual=0.0,
        detail={"breakdown": breakdown, "affine": affine},
    )


def verify_trace_corollary(field, t, cs=None):
    """T == Gauss expression == H3(1/t), all exactly after certified rounding."""
    t = Fraction(t)
    q = field.q
    try:
        T = trace_transcendental(field, t)
    except BadReductionError as e:
        return CheckReport("trace", q, t, skipped=True, reason=str(e))
    nearest, residual = _gauss_expression(field, t, cs)
    h3 = hg_H3(field, 1 / t, cs=cs)
    return CheckReport(
        "trace", q, t,
        passed=T == nearest == h3,
        lhs=T, rhs=nearest, residual=residual, detail={"h3": h3},
    )


def verify_main_identity(field, t, cs=None):
    """q^2 H2(z+-)^2 - q == H3(1 - S^2) for both roots S and both signs."""
    t = Fraction(t)
    q = field.q
    if math.gcd(q, 6) != 1:
        return CheckReport("main", q, t, skipped=True, reason="gcd(q, 6) != 1")
    try:
        t_mod = _t_mod(field, t)
    except BadReductionError as e:
        return CheckReport("main", q, t, skipped=True, reason=str(e))
    if t_mod.is_zero:
        return CheckReport("main", q, t, skipped=True, reason="t = 0 mod p")
    if t_mod == field.one():
        # bad reduction of the projective surface; the trace identification fails here
        return CheckReport("main", q, t, skipped=True, reason="t = 1 mod p")
    one = field.one()
    s2 = (t_mod - one) / t_mod
    S0 = sqrt(field, s2)
    if S0 is None:
        return CheckReport("main", q, t, skipped=True, reason="(t-1)/t is not a square")
    roots = [S0, -S0]
    h3 = hg_H3(field, one / t_mod, cs=cs)  # 1 - S^2 = 1/t for both roots
    h2_at = {}  # z depends only on sign * S, so two cells share each z
    cells = []
    passed = True
    for S in roots:
        for sign in (+1, -1):
            num = field.from_int(7) + field.from_int(9 * sign) * S
            den = field.from_int(5) + field.from_int(3 * sign) * S
            if den.is_zero:
                cells.append({"S": S.code, "sign": sign, "skipped": "5+-3S = 0"})
                continue
            if num.is_zero:
                cells.append({"S": S.code, "sign": sign, "skipped": "z = 0"})
                continue
            z = field.from_int(2) * num * num / (den * den * den)
            if z.code not in h2_at:
                h2_at[z.code] = hg_H2(field, z, cs=cs)
            a = int(h2_at[z.code] * q)
            ok = a * a - q == h3
            passed &= ok
            cells.append({"S": S.code, "sign": sign, "qH2": a, "h3": h3, "pass": ok})
    if all("skipped" in c for c in cells):
        return CheckReport("main", q, t, skipped=True,
                           reason="all sign cells degenerate", detail={"cells": cells})
    live = [c for c in cells if "skipped" not in c]
    first_bad = next((c for c in live if not c["pass"]), live[0])
    return CheckReport(
        "main", q, t, passed=passed,
        lhs=first_bad["qH2"] ** 2 - q, rhs=h3, residual=0.0,
        detail={"cells": cells},
    )


@dataclass
class CountReport:
    """Counts of one (q, t) cell by every applicable method.

    affine counts carry method tags ("naive" only for q <= NAIVE_MAX_Q);
    methods must agree whenever several run.
    """

    q: int
    t: Fraction
    affine: dict  # method tag -> |V_t(F_q)|
    surface: int | None  # |E_t(F_q)| from the fibered counter, None at t = 1 cells
    transcendental: int | None  # T = t(n) + d(n)
    breakdown: dict | None
    methods_agree: bool


def surface_count_report(field, t):
    """Count the cell by solved-quadratic, fibered and sum-side methods, and by
    the naive triple loop when q <= NAIVE_MAX_Q.

    The sum side is q^2 - 3q + 3 + H3(1/t), certified by hg_H3.
    """
    t = Fraction(t)
    q = field.q
    affine = {}
    if q <= NAIVE_MAX_Q:
        affine["naive"] = count_affine(field, t, "naive")
    affine["solved-z"] = count_affine(field, t, "solved-z")
    affine["hypergeometric"] = (q * q - 3 * q + 3) + hg_H3(field, 1 / t)
    surface = breakdown = None
    trans = affine["solved-z"] + 3 * q - 3 - q * q
    agree = len(set(affine.values())) == 1
    try:
        surface, breakdown = count_elliptic_surface(field, t)
        agree &= surface - (22 * q - 2) == affine["solved-z"]
        trans = surface - 1 - q * q - 19 * q
    except BadReductionError:
        pass
    return CountReport(q, t, affine, surface, trans, breakdown, agree)


def delta_correction(field, t):
    """Bookkeeping term tying the smooth-fiber sum to the affine count:

    sum over smooth fibers (P^1 included) = affine count - (-2q + 4 + delta(2q+4+delta(-4,-2), t/(t-1))).
    """
    t_mod = _t_mod(field, t)
    q = field.q
    inner = delta_if_square(-4, field.from_int(-2))
    ratio = t_mod / (t_mod - field.one())
    return -2 * q + 4 + delta_if_square(2 * q + 4 + inner, ratio)


def count_quadric(field, t):
    """N(1 = X^2 + t Y^2) by direct enumeration (oracle for q - chi(-t))."""
    if not isinstance(t, FqElem):
        t = field.from_rational(Fraction(t))
    if t.is_zero:
        return 2 * field.q  # X = +-1, Y free
    N = field.q - 1
    i = np.arange(N)
    # X = g^i, Y = X g^d: X^2 + t Y^2 = g^(2i) (1 + g^(e + 2d)) = g^(2i + Z[e + 2d])
    zs = field.zech.astype(np.int64)[(t.e + 2 * i) % N]
    count = 3 + quadratic_character(field, t)  # axes: (+-1, 0), and (0, Y) with Y^2 = 1/t
    step = max(1, BLOCK_CELLS // N)
    for s in range(0, N, step):
        z = zs[s : s + step, None]
        count += int(((z >= 0) & ((2 * i + z) % N == 0)).sum())
    return count
