"""Point counts for the affine surface xyz(1-x-y-z) = 1/(256t) and its elliptic
K3 model, plus the verifiers tying the counts to the hypergeometric sums.

The affine surface is counted two independent ways (a literal triple loop,
tallied once per field over every t, and a solved-quadratic character sum over
(x, y)).  The projective elliptic surface is counted fiber by fiber over P^1:
every fiber at s != 0, +-1, smooth or nodal, by one quadratic-character sum,
the two 8-component fibers as 8q+1, the 4-cycle fiber as 4q, and the fiber at
infinity on the scaled model y^2 = x^3 + x^2/4 + x/(64t).  Both character sums
are q x q grids that reduce to one circular correlation (`_chi_shift_sums`),
taken by a real FFT in O(q log q) with its rounding proven exact before use, so
every count reaches the q <= 2^24 bound.  The affine row x + y = 0 is summed in
closed form, -1 - chi(t); exponents stay int32, below 2^28 for q <= 2^24.

Counts and checks take t as an int, a Fraction or an element of F_q, as
`FieldSpec.element` does; `_t_mod` takes it through that method.  `delta_correction` is public API that only
the tests call: the bookkeeping term tying the smooth-fiber sum to the affine
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .charsum import get_character_system
from .ffield import ReductionError, dlog, quadratic_character, sqrt
from .hyperg import IntegrityError, hg_H2, hg_H3, round_certified

# Largest q at which surface_count_report also runs the O(q^3) naive count
# (about 1.4 s at q = 401, once per (p, n): its histogram serves every t).
NAIVE_MAX_Q = 401


class BadReductionError(ReductionError):
    """Raised when t reduces to a configuration the counter does not support."""


def _t_mod(field, t):
    """field.element(t) of an int, a Fraction or an element (anything else is a
    TypeError), with a BadReductionError when p divides the denominator of a
    Fraction t."""
    if isinstance(t, Fraction) and t.denominator % field.p == 0:
        raise BadReductionError(f"denominator of t = {t} divisible by p = {field.p}")
    return field.element(t)


def _t_nonzero(field, t):
    """_t_mod(field, t); an error when t reduces to 0."""
    t_mod = _t_mod(field, t)
    if t_mod.is_zero:
        raise BadReductionError(f"t = {t} reduces to 0 mod {field.p}")
    return t_mod


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
    detail: dict = dc_field(default_factory=dict)


def delta_if_square(value, tested):
    """The quadratic-residue indicator: value if `tested` is a nonzero square, else 0."""
    return value if quadratic_character(tested.field, tested) == 1 else 0


def count_affine(field, t, mode="solved-z"):
    """|V_t(F_q)| for xyz(1-(x+y+z)) = 1/(256t).

    mode "naive", set by surface_count_report: literal evaluation, `_naive_histogram` at a.
    mode "solved-z": for each (x, y) with xy != 0 the equation is quadratic in z;
    roots counted as 1 + chi(disc) with chi(0) = 0 adding the double root once.
    """
    a = 1 / (256 * _t_nonzero(field, t))
    q = field.q
    if mode == "naive":
        return int(_naive_histogram(field)[a.code])
    if mode != "solved-z":
        raise ValueError(f"unknown mode {mode!r}")
    # Exponent domain, Z the zech table: x = g^i, y = x g^d, x + y = g^(i + Z[d]),
    # w = 1 - x - y = 1 + g^j = g^Z[j] with j = i + Z[d] + N/2, which runs over
    # Z/N with i; c = -4a/(xy) = g^(K - 2i - d) and 2i = 2j - 2Z[d], so for d != N/2
    # chi(w^2 + c) = (-1)^(K+d) chi(1 + g^(2(j + Z[j]) + d - K - 2Z[d])), or (-1)^(K+d) at w = 0.
    N, H = q - 1, (q - 1) // 2
    Z = field.zech  # int32: every column and shift is below 2^28 in absolute value for q <= 2^24
    K = dlog(field, -4 * a)
    j = d = np.delete(np.arange(N, dtype=np.int32), H)  # both skip N/2
    sums = _chi_shift_sums(field, 2 * (j + Z[j]), None, d - K - 2 * Z[d])
    total = int((1 - 2 * ((K + d) & 1)) @ (sums + 1))
    # the row d = N/2: x + y = 0, w = 1, and z^2 - z - a/x^2 has 1 + chi(1 + 4a/x^2) roots;
    # sum_{x != 0} chi(1 + 4a x^-2) = chi(4a) sum_{u != 0} chi(u^2 + 1/(4a)) = -1 - chi(a), as
    # sum_{u in F_q} chi(u^2 + b) = -1 for b != 0, and chi(a) = chi(1/(256t)) = chi(t)
    return N * N + total - 1 - quadratic_character(field, a)


# (p, n) -> `_naive_histogram`.  field_new is deterministic, so the codes of F_{p^n}
# do not depend on the FieldSpec that made them, and one histogram serves every
# field built for (p, n); it holds q integers.
_NAIVE_HISTOGRAMS = {}


def _naive_histogram(field):
    """hist[c] = #{(x, y, z) in (F_q^*)^3 : xyz(1-x-y-z) has code c}: the naive count
    at every t at once, a = 1/(256t) having |V_t| = hist[a.code].

    A literal triple loop: one python loop over z, vectorised (x, y), each pass
    adding the bincount of its q-1 by q-1 grid.
    """
    key = field.p, field.n
    if key not in _NAIVE_HISTOGRAMS:
        q = field.q
        nz = np.arange(1, q, dtype=np.int32)  # nonzero codes
        x = nz[:, None]
        y = nz[None, :]
        xy = field.mul_codes(x, y)
        w_xy = field.sub_codes(np.int32(1), field.add_codes(x, y))
        hist = np.zeros(q, dtype=np.int64)
        for zc in range(1, q):
            z = np.int32(zc)
            lhs = field.mul_codes(field.mul_codes(xy, z), field.sub_codes(w_xy, z))
            hist += np.bincount(lhs.ravel(), minlength=q)
        _NAIVE_HISTOGRAMS[key] = hist
    return _NAIVE_HISTOGRAMS[key]


def _fft_error_bound(norm_a, norm_b, L):
    """Bound on every entry's error in a floating-point FFT correlation of real
    vectors with Euclidean norms norm_a, norm_b, at power-of-two length L.

    Percival, Math. Comp. 72 (2003), Thm 5.1, with k = log2 L, eps = 2^-53 and the
    twiddle-factor error beta taken as eps:
    norm_a norm_b ((1 + eps)^3k (1 + eps sqrt 5)^(3k+1) (1 + beta)^3k - 1).
    """
    eps = 2.0**-53
    k = L.bit_length() - 1
    log_growth = 6 * k * math.log1p(eps) + (3 * k + 1) * math.log1p(eps * math.sqrt(5))
    return norm_a * norm_b * math.expm1(log_growth)


def _chi_shift_sums(field, cols, weights, shifts):
    """For each s in `shifts`: sum_k weights[k] chi(1 + g^(cols[k] + s)), exactly;
    weights None weighs every column 1, as in np.bincount.

    A circular correlation: the columns are binned by exponent mod N = q-1, and
    every shift's sum is one entry of the correlation of the doubled sequence
    chi(1 + g^m) = (-1)^zech[m] (0 at m = N/2, where zech is -1) with the bins,
    taken by one real-FFT product at a power-of-two length L >= 2N (no wrap-around).
    The entries are integers; the rounding is certified before use: IntegrityError
    unless the a-priori error bound (_fft_error_bound) is below 1/2 and no entry
    lies farther than that bound from an integer.
    """
    N = field.q - 1
    chi = np.where(field.zech < 0, 0, 1 - 2 * (field.zech & 1))
    bins = np.bincount(cols % N, weights=weights, minlength=N)
    L = 1 << (2 * N - 1).bit_length()
    bound = _fft_error_bound(math.sqrt(2 * np.count_nonzero(chi)), float(np.linalg.norm(bins)), L)
    if not bound < 0.5:
        raise IntegrityError(f"FFT rounding bound {bound:.3g} at q = {field.q} is not below 1/2")
    # in place where it can be: at q near 2^24 each length-L array is 268 MB
    doubled = np.empty(2 * N)
    doubled[:N] = doubled[N:] = chi
    del chi
    spec = np.fft.rfft(doubled, L)
    del doubled
    b = np.fft.rfft(bins, L)
    spec *= np.conjugate(b, out=b)
    del b
    corr = np.fft.irfft(spec, L)[:N]
    del spec
    out = np.rint(corr)
    residual = float(np.abs(corr - out).max())
    if residual > bound:
        raise IntegrityError(
            f"FFT correlation residual {residual:.3g} exceeds its bound {bound:.3g} at q = {field.q}"
        )
    return out[shifts % N].astype(np.int64)


def _fiber_counts(field, t):
    """|E_s(F_q)| at every s = g^sigma != 0, +-1 as (sigma, counts), sigma increasing:
    a2(s) and a4(s) are nonzero there, so one correlation counts smooth and nodal fibers."""
    q = field.q
    N, H = q - 1, (q - 1) // 2
    Z = field.zech  # int32: every column, shift, alpha and beta is below 2^28 in absolute value for q <= 2^24
    sigma = np.delete(np.arange(N, dtype=np.int32), [0, H])  # s = g^sigma != 0; s = 1 = g^0, s = -1 = g^H
    # s^2 - 1 = g^mu; a2(s) = (s^2-1)^2 / 4 = g^alpha, a4(s) = s^2 (s^2-1)^3 / (64t) = g^beta
    mu = H + Z[(2 * sigma + H) % N]
    alpha = 2 * mu - dlog(field, 4)
    beta = 2 * sigma + 3 * mu - dlog(field, 64 * t)
    # x = g^(alpha + k) (x = 0 adds chi(0) = 0): x + a2 = g^(alpha + Z[k]) and
    # x^2 + a2 x + a4 = g^beta (1 + g^(k + Z[k] + 2 alpha - beta)), or a4 at k = N/2;
    # with chi(x) = (-1)^(alpha + k), sum_x chi(x^3 + a2 x^2 + a4 x) is (-1)^(alpha + beta)
    # (sum_{k != N/2} (-1)^k chi(1 + g^(k + Z[k] + 2 alpha - beta)) + (-1)^(N/2)).
    k = np.delete(np.arange(N, dtype=np.int32), H)
    counts = _chi_shift_sums(field, k + Z[k], 1 - 2 * (k & 1), 2 * alpha - beta)
    counts += 1 - 2 * (H & 1)
    counts *= 1 - 2 * ((alpha + beta) & 1)
    counts += q + 1
    return sigma, counts


def count_elliptic_surface(field, t):
    """|E_t(F_q)| with its per-fiber breakdown; requires t(t-1) != 0 mod p."""
    t_mod = _t_nonzero(field, t)
    if t_mod == 1:
        raise BadReductionError(
            f"t = {t} reduces to 1 mod {field.p}: fiber configuration unsupported"
        )
    q = field.q
    sigma, fibers = _fiber_counts(field, t_mod)
    breakdown = {
        "smooth": int(fibers.sum()),
        "n_smooth_fibers": len(sigma),
        "s=1": 8 * q + 1,
        "s=-1": 8 * q + 1,
        "s=0": 4 * q,
    }
    total = breakdown["smooth"] + 2 * (8 * q + 1) + 4 * q
    # nodal fibers at s = +-r, r^2 = t/(t-1), so r != 0, +-1 and both are in sigma
    r = sqrt(field, t_mod / (t_mod - 1))
    if r is not None:
        nodal = int(fibers[np.searchsorted(sigma, [r.e, (-r).e])].sum())
        breakdown["smooth"] -= nodal
        breakdown["n_smooth_fibers"] -= 2
        breakdown["nodal_pair"] = nodal
    # fiber at infinity: y^2 = x^3 + x^2/4 + x/(64 t)
    from .ecount import WeierstrassCurve, count_points

    inf_curve = WeierstrassCurve(1 / field.element(4), 1 / (64 * t_mod), field.zero(), field)
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


def _gauss_expression(field, t):
    """-1/q + 1/(q(q-1)) sum_m g(4m) g(-m)^4 omega(1/(256t))^m as (nearest, residual),
    certified by hyperg.round_certified.  The weights g(4m) g(-m)^4 over the whole
    line are cached on the field's CharacterSystem beside hyperg's weight arrays."""
    cs = get_character_system(field)
    z = 1 / (256 * _t_nonzero(field, t))
    q = field.q
    N = q - 1
    ms = np.arange(N, dtype=np.int64)
    w = cs._hg_cache.get("gauss_expression")
    if w is None:
        w = cs._hg_cache["gauss_expression"] = cs.gauss[(4 * ms) % N] * cs.gauss[(-ms) % N] ** 4
    total = complex(np.dot(w, cs.omega_vector(z, ms)))
    return round_certified(-1 / q + total / (q * (q - 1)), q)


def verify_bcm_identity(field, t):
    """count_affine == (q-1)^3/q + Gauss expression, exactly after certified rounding."""
    q = field.q
    try:
        lhs = count_affine(field, t)
    except BadReductionError as e:
        return CheckReport("bcm", q, t, skipped=True, reason=str(e))
    nearest, residual = _gauss_expression(field, t)
    # ((q-1)^3 + 1)/q = q^2 - 3q + 3 exactly, absorbing the -1/q of the sum side
    rhs = (q * q - 3 * q + 3) + nearest
    return CheckReport(
        "bcm", q, t, passed=lhs == rhs,
        lhs=lhs, rhs=rhs, residual=residual,
    )


def verify_point_count_lemma(field, t):
    """|E_t(F_q)| == 22q - 2 + |V_t(F_q)| exactly."""
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


def verify_trace_corollary(field, t):
    """T == Gauss expression == H3(1/t), all exactly after certified rounding."""
    q = field.q
    try:
        T = trace_transcendental(field, t)
    except BadReductionError as e:
        return CheckReport("trace", q, t, skipped=True, reason=str(e))
    nearest, residual = _gauss_expression(field, t)
    h3 = hg_H3(field, 1 / _t_mod(field, t))
    return CheckReport(
        "trace", q, t,
        passed=T == nearest == h3,
        lhs=T, rhs=nearest, residual=residual, detail={"h3": h3},
    )


def verify_main_identity(field, t, cs=None):
    """q^2 H2(z+-)^2 - q == H3(1 - S^2) for both roots S and both signs."""
    q = field.q
    if math.gcd(q, 6) != 1:
        return CheckReport("main", q, t, skipped=True, reason="gcd(q, 6) != 1")
    try:
        t_mod = _t_mod(field, t)
    except BadReductionError as e:
        return CheckReport("main", q, t, skipped=True, reason=str(e))
    if t_mod.is_zero:
        return CheckReport("main", q, t, skipped=True, reason="t = 0 mod p")
    if t_mod == 1:
        # bad reduction of the projective surface; the trace identification fails here
        return CheckReport("main", q, t, skipped=True, reason="t = 1 mod p")
    s2 = (t_mod - 1) / t_mod
    S0 = sqrt(field, s2)
    if S0 is None:
        return CheckReport("main", q, t, skipped=True, reason="(t-1)/t is not a square")
    roots = [S0, -S0]
    h3 = hg_H3(field, 1 / t_mod, cs=cs)  # 1 - S^2 = 1/t for both roots
    h2_at = {}  # z depends only on sign * S, so two cells share each z
    cells = []
    passed = True
    for S in roots:
        for sign in (+1, -1):
            num = 7 + 9 * sign * S
            den = 5 + 3 * sign * S
            if den.is_zero:
                cells.append({"S": S.code, "sign": sign, "skipped": "5+-3S = 0"})
                continue
            if num.is_zero:
                cells.append({"S": S.code, "sign": sign, "skipped": "z = 0"})
                continue
            z = 2 * num * num / (den * den * den)
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
    q = field.q
    affine = {}
    if q <= NAIVE_MAX_Q:
        affine["naive"] = count_affine(field, t, "naive")
    affine["solved-z"] = count_affine(field, t, "solved-z")
    affine["hypergeometric"] = (q * q - 3 * q + 3) + hg_H3(field, 1 / _t_mod(field, t))
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
    inner = delta_if_square(-4, field.element(-2))
    ratio = t_mod / (t_mod - 1)
    return -2 * q + 4 + delta_if_square(2 * q + 4 + inner, ratio)
