"""Command-line frontend: sweeps over (q, t) grids, map verification, lattice
and CM table checks, with JSON-lines or CSV reports.

Each record is a `k3count.CheckReport`, the type the library verifiers
return, printed in RECORD_FIELDS order by `emit_records` (CSV fields that hold
a comma are quoted).  Records are sorted by (check, q, t, name) and carry
first-class skip reasons, so grid coverage is auditable and reruns of the same
command are byte-identical (only `verify maps|qt` sample, from --seed, and no
record holds a wall-clock value).  Every number is read in ASCII digits: an integer
(an option, a q, a coefficient) by `parse_int`, a rational as an integer or
`integer/digits`.  A grid holds each q and each t once and may not be empty.  The grid verbs
(`verify bcm|lemma|trace|main|all` and `verify curve-theorem`) share one loop,
`_run_grid`, which builds each field of the grid once, in this process.  The
single-field verbs take the prime `--p` and the degree `--n` and build F_{p^n}
as given.  The verifiers fetch the Gauss table cached on their field, and only
`gauss-check` asks for one itself.  Exit codes: 0 all pass, 1 any failure (a
failed certification prints one `certification failed: ...` line), 2 usage
error (a malformed or out-of-domain argument, such as `--t 1e3` or `--p 1_3`).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from contextlib import suppress
from fractions import Fraction
from functools import cache

from .ffield import Q_MAX, factor, field_new, prime_power
from .k3count import CheckReport

SCHEMA_VERSION = "hgmk3/2"

RECORD_FIELDS = (
    "check", "q", "t", "name", "pass", "skipped", "reason",
    "lhs", "rhs", "residual",
)

CHECK_CHOICES = ("bcm", "lemma", "trace", "main")

_INT = r"[+-]?[0-9]+"  # ASCII digits only: no `_`, no other script's digits


class UsageError(ValueError):
    pass


def report_schema():
    """Stable record schema (`hgmk3/2`: `hgmk3/1` without its wall-clock field); the
    CSV header is the JSON field order."""
    return {
        "schema": SCHEMA_VERSION,
        "fields": list(RECORD_FIELDS),
        "csv_header": ",".join(RECORD_FIELDS),
        "encodings": {
            "t": "num/den string",
            "field elements": "int for prime fields, [c0,c1,...] for extensions",
        },
    }


def odd_prime_powers(lo, hi):
    """The odd prime powers in [lo, hi]; a hi above the field bound is a UsageError."""
    if hi > Q_MAX:
        raise UsageError(f"pmax = {hi} exceeds the table-resident bound 2^24")
    return tuple(q for q in range(max(3, lo), hi + 1) if q % 2 and len(factor(q)) == 1)


def parse_int(text):
    """`[+-]digits` in ASCII digits, whitespace around it allowed; `1_3` is a UsageError.
    In a comma-separated list of integers or rationals, empty items are dropped."""
    with suppress(ValueError):  # int() also refuses more digits than its limit
        if re.fullmatch(rf"\s*{_INT}\s*", text):
            return int(text)
    raise UsageError(f"bad integer {text!r}")


def parse_q_list(text):
    """Integers, each an odd prime power up to the field bound, repeats kept once."""
    q_list = tuple(dict.fromkeys(parse_int(item) for item in text.split(",") if item.strip()))
    for q in q_list:
        prime_power(q)
    return q_list


def parse_rational_list(text):
    """Integers or `integer/digits`; `1e3` or `0.5` is a UsageError, so no exponent is expanded."""
    parts = [part for part in text.split(",") if part.strip()]
    try:
        if not all(re.fullmatch(rf"\s*{_INT}(/[0-9]+)?\s*", part) for part in parts):
            raise ValueError("each item must be num or num/den")
        return tuple(Fraction(part) for part in parts)
    except (ValueError, ZeroDivisionError) as e:
        raise UsageError(f"bad rational list {text!r}: {e}") from None


def parse_rational(text):
    """One rational, read as a list that must hold exactly one."""
    values = parse_rational_list(text)
    if len(values) != 1:
        raise UsageError(f"expected one rational, got {text!r}")
    return values[0]


def parse_field_element(field, text):
    """An integer, or one bracketed list `[c0,c1,...]` of at least one, as an element."""
    listed = re.fullmatch(r"\s*\[(.*)\]\s*", text)
    items = [item for item in listed[1].split(",") if item.strip()] if listed else []
    return field.from_coeffs([parse_int(item) for item in items or [text]])  # "[]" is no int


def _field_for(q):
    """The field of order q, after checking that q is an odd prime power."""
    return field_new(*prime_power(q))


def _run_grid(q_list, cells, fmt, out):
    """Emit the records that `cells(field)` yields for each field of the grid,
    sorted; returns the exit code.  Each field is built once, in increasing q,
    and dropped after its cells."""
    if not q_list:
        raise UsageError("empty q grid")
    records = [r for q in sorted(q_list) for r in cells(_field_for(q))]
    return _emit_sorted(records, fmt, out)


def _sort_key(r):
    return (r.check, r.q or 0, Fraction(0) if r.t is None else r.t, r.name or "")


def _emit_sorted(records, fmt, out):
    """Emit the records sorted by (check, q, t, name); returns the exit code."""
    records.sort(key=_sort_key)
    emit_records(records, fmt, out)
    return 0 if all(r.passed for r in records) else 1


def _as_dict(r):
    """A CheckReport as one record: RECORD_FIELDS in order, Fractions as "num/den"
    (or "num" at den 1)."""
    d = {k: getattr(r, "passed" if k == "pass" else k) for k in RECORD_FIELDS}
    return {k: str(v) if isinstance(v, Fraction) else v for k, v in d.items()}


def emit_records(records, fmt, out):
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(RECORD_FIELDS)
        writer.writerows(_as_dict(r).values() for r in records)
    else:
        for r in records:
            print(json.dumps(_as_dict(r), separators=(", ", ": ")), file=out)


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _jdump(obj, out):
    print(json.dumps(obj, separators=(", ", ": ")), file=out)


def cmd_field_info(args, out):
    f = field_new(args.p, args.n)
    _jdump({
        "p": f.p, "n": f.n, "q": f.q,
        "modulus": f.modulus,
        "generator": f.format_element(f.from_code(f.generator)),
    }, out)
    return 0


def cmd_gauss_check(args, out):
    from .charsum import get_character_system

    f = field_new(args.p, args.n)
    cs = get_character_system(f)
    _jdump({
        "q": f.q,
        "precision": cs.precision,
        "residual": cs.residual,
        "max_relative_deviation": cs.residual / f.q,
    }, out)
    return 0


def cmd_hgsum(args, out):
    from .hyperg import datum_from_parameters, hg_sum

    datum = datum_from_parameters(parse_rational_list(args.alpha), parse_rational_list(args.beta))
    f = field_new(args.p, args.n)
    got = hg_sum(datum, f, parse_field_element(f, args.t))
    _jdump({
        "q": f.q,
        "t": args.t,
        "complex": [got.value.real, got.value.imag],
        "rounded": f"{got.rounded.numerator}/{got.rounded.denominator}",
        "residual": got.residual,
    }, out)
    return 0


def cmd_curve_count(args, out):
    from .ecount import WeierstrassCurve, count_points

    f = field_new(args.p, args.n)
    curve = WeierstrassCurve(*(parse_field_element(f, a) for a in (args.a2, args.a4, args.a6)), f)
    n = count_points(curve)
    _jdump({"q": f.q, "count": n, "trace": f.q + 1 - n}, out)
    return 0


def cmd_count_surface(args, out):
    from .k3count import surface_count_report

    f = field_new(args.p, args.n)
    rep = surface_count_report(f, parse_rational(args.t))
    _jdump({
        "q": rep.q,
        "t": args.t,
        "affine": rep.affine["solved-z"],
        "affine_by_method": rep.affine,
        "elliptic_surface": rep.surface,
        "transcendental_trace": rep.transcendental,
        "fibers": rep.breakdown,
        "methods_agree": rep.methods_agree,
    }, out)
    return 0 if rep.methods_agree else 1


def cmd_verify_counts(args, out):
    checks = CHECK_CHOICES if args.which == "all" else (args.which,)
    q_list = parse_q_list(args.q) if args.q else odd_prime_powers(args.pmin, args.pmax)
    t_list = tuple(dict.fromkeys(parse_rational_list(args.t)))  # each t once
    if not t_list:
        raise UsageError("empty t list")
    if 0 in t_list:
        raise UsageError("t = 0 is not allowed")
    from .k3count import (
        verify_bcm_identity,
        verify_main_identity,
        verify_point_count_lemma,
        verify_trace_corollary,
    )

    runners = {
        "bcm": verify_bcm_identity,
        "lemma": verify_point_count_lemma,
        "trace": verify_trace_corollary,
        "main": verify_main_identity,
    }

    def cells(field):
        for check in checks:
            for t in t_list:
                yield runners[check](field, t)

    return _run_grid(q_list, cells, args.format, out)


def cmd_verify_curve_theorem(args, out):
    from .ecount import verify_curve_trace_theorem

    q_list = parse_q_list(args.q)
    for q in q_list:
        if q % 3 == 0:
            raise UsageError(f"q = {q}: the theorem needs gcd(q, 6) = 1")

    def cells(field):
        for a in range(1, field.q):
            for b in range(1, field.q):
                rep = verify_curve_trace_theorem(field, field.from_code(a), field.from_code(b))
                yield CheckReport(
                    "curve-theorem", field.q, name=f"a={a},b={b}",
                    passed=rep.passed, skipped=rep.skipped, reason=rep.reason,
                    lhs=rep.count, rhs=rep.rhs,
                )

    return _run_grid(q_list, cells, args.format, out)


def cmd_verify_maps(args, out):
    from .geomver import verify_all_maps, verify_chain_psi

    only = args.only
    reports = [] if only == "psi_chain" else verify_all_maps(args.trials, args.seed, only=only)
    if not only or only == "psi_chain":
        reports += verify_chain_psi(args.trials, args.seed)
    records = [
        CheckReport("maps", name=r.name, passed=r.passed,
                    lhs=r.trials, rhs=r.failures, residual=r.miss_probability_bound)
        for r in reports
    ]
    return _emit_sorted(records, args.format, out)


def cmd_verify_si_params(args, out):
    from .geomver import verify_si_parameters

    rep = verify_si_parameters()
    _jdump({"check": rep.check, "pass": rep.passed, "h=1": rep.detail.get("h=1")}, out)
    return 0 if rep.passed else 1


def cmd_verify_qt(args, out):
    from .geomver import verify_Qt_on_curve

    reports = verify_Qt_on_curve(args.trials, args.seed)
    for r in reports:
        _jdump({"check": "qt", "name": r.name, "pass": r.passed, "trials": r.trials}, out)
    return 0 if all(r.passed for r in reports) else 1


def cmd_verify_x0_2(args, out):
    from .geomver import x0_2_checks

    rep = x0_2_checks()
    _jdump({"check": rep.check, "pass": rep.passed,
            "identities": {k: bool(v) for k, v in rep.detail.items()}}, out)
    return 0 if rep.passed else 1


def cmd_fibration_profile(args, out):
    from .geomver import kodaira_profile

    prof = kodaira_profile(args.model, parse_rational(args.t))
    for place in prof.places:
        _jdump({
            "model": prof.model, "t": args.t, "place": place.place,
            "degree": place.degree,
            "ord_c4": place.ord_c4, "ord_c6": place.ord_c6, "ord_delta": place.ord_delta,
            "kodaira": place.kodaira, "expected": place.expected,
            "pass": place.matches,
        }, out)
    _jdump({"model": prof.model, "t": args.t, "euler_total": prof.euler_total,
            "pass": prof.passed}, out)
    return 0 if prof.passed else 1


def cmd_lattice(args, out):
    from .nslat import SectionProfile, ns_cm_gram, ns_gram_generic, verify_table5

    if args.which == "ns-generic":
        lat = ns_gram_generic()
        _jdump({
            "rank": lat.rank, "det": lat.det(), "signature": list(lat.signature()),
            "gram": [list(r) for r in lat.entries],
        }, out)
        return 0
    if args.which == "cm":
        lat = ns_cm_gram(SectionProfile(
            p_O=args.po, p_e7=args.pe7, p_g2=args.pg2, p_g3=args.pg3,
        ))
        _jdump({
            "rank": lat.rank, "det": lat.det(), "signature": list(lat.signature()),
            "tail_block": [list(r)[18:] for r in lat.entries[18:]],
        }, out)
        return 0
    rows = verify_table5()
    ok = True
    for row in rows:
        ok &= row.passed
        _jdump({
            "t": str(row.t),
            "abc": [row.a, row.b, row.c],
            "class": row.class_name, "P.O": row.p_O,
            "pass": row.passed, "reason": row.reason,
        }, out)
    return 0 if ok else 1


def cmd_cm(args, out):
    from .cmdata import (
        classify_t,
        cm_trace_survey,
        verify_classification_consistency,
        verify_quadratic_cm,
        verify_rational_cm,
    )

    if args.which == "classify":
        _jdump({"t": args.t, "class": classify_t(parse_rational(args.t))}, out)
        return 0
    if args.which == "verify":
        checks = verify_rational_cm() + verify_quadratic_cm()
        for check in checks:
            _jdump({"check": check.check, "t": str(check.t), "pass": check.passed}, out)
        consistency = verify_classification_consistency()
        _jdump({"check": consistency.check, "pass": consistency.passed}, out)
        return 0 if consistency.passed and all(c.passed for c in checks) else 1
    rows = cm_trace_survey(parse_rational(args.t), args.pmax)
    for row in rows:
        _jdump({"t": args.t, "p": row.p, "T": row.T, "a_squared": row.a_sq,
                "kronecker_D": row.kronecker_D}, out)
    return 0


def cmd_report_schema(args, out):
    _jdump(report_schema(), out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_field_args(p):
    p.add_argument("--p", type=parse_int, required=True, help="the prime")
    p.add_argument("--n", type=parse_int, default=1, help="the extension degree")


def _add_sweep_args(p):
    p.add_argument("--pmin", type=parse_int, default=3)
    p.add_argument("--pmax", type=parse_int, default=50)
    p.add_argument("--q", type=str, default=None, help="explicit comma-separated q list")
    p.add_argument("--t", type=str, required=True, help="comma-separated rationals")
    p.add_argument("--format", choices=("json-lines", "csv"), default="json-lines")


def _add_sampler_args(p):
    """The settings of `verify maps|qt`, with geomver.sz's defaults."""
    from .geomver.sz import DEFAULT_SEED, DEFAULT_TRIALS

    p.add_argument("--trials", type=parse_int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=parse_int, default=DEFAULT_SEED)


@cache
def build_parser():
    """The argument parser, built on the first call and shared by every later one."""
    from .geomver.kodaira import MODELS

    top = argparse.ArgumentParser(prog="hgmk3", description=__doc__)
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("field-info")
    _add_field_args(p)
    p.set_defaults(func=cmd_field_info)

    p = sub.add_parser("gauss-check")
    _add_field_args(p)
    p.set_defaults(func=cmd_gauss_check)

    p = sub.add_parser("hgsum")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    _add_field_args(p)
    p.add_argument("--t", required=True)
    p.set_defaults(func=cmd_hgsum)

    p = sub.add_parser("curve")
    csub = p.add_subparsers(dest="which", required=True)
    c = csub.add_parser("count")
    _add_field_args(c)
    c.add_argument("--a2", required=True)
    c.add_argument("--a4", required=True)
    c.add_argument("--a6", required=True)
    c.set_defaults(func=cmd_curve_count)

    p = sub.add_parser("count")
    csub = p.add_subparsers(dest="which", required=True)
    c = csub.add_parser("surface")
    _add_field_args(c)
    c.add_argument("--t", required=True)
    c.set_defaults(func=cmd_count_surface)

    p = sub.add_parser("verify")
    vsub = p.add_subparsers(dest="which", required=True)
    for which in CHECK_CHOICES + ("all",):
        v = vsub.add_parser(which)
        _add_sweep_args(v)
        v.set_defaults(func=cmd_verify_counts)
    v = vsub.add_parser("curve-theorem")
    v.add_argument("--q", required=True, help="comma-separated q list, exhaustive (a,b)")
    v.add_argument("--format", choices=("json-lines", "csv"), default="json-lines")
    v.set_defaults(func=cmd_verify_curve_theorem)
    v = vsub.add_parser("maps")
    v.add_argument("--only", default=None)
    _add_sampler_args(v)
    v.add_argument("--format", choices=("json-lines", "csv"), default="json-lines")
    v.set_defaults(func=cmd_verify_maps)
    v = vsub.add_parser("si-params")
    v.set_defaults(func=cmd_verify_si_params)
    v = vsub.add_parser("qt")
    _add_sampler_args(v)
    v.set_defaults(func=cmd_verify_qt)
    v = vsub.add_parser("x0-2")
    v.set_defaults(func=cmd_verify_x0_2)

    p = sub.add_parser("fibration")
    fsub = p.add_subparsers(dest="which", required=True)
    f = fsub.add_parser("profile")
    f.add_argument("--model", required=True, choices=MODELS)
    f.add_argument("--t", required=True)
    f.set_defaults(func=cmd_fibration_profile)

    p = sub.add_parser("lattice")
    lsub = p.add_subparsers(dest="which", required=True)
    l = lsub.add_parser("ns-generic")
    l.set_defaults(func=cmd_lattice)
    l = lsub.add_parser("cm")
    l.add_argument("--pe7", type=parse_int, default=0)
    l.add_argument("--pg2", type=parse_int, default=0)
    l.add_argument("--pg3", type=parse_int, default=0)
    l.add_argument("--po", type=parse_int, default=0)
    l.set_defaults(func=cmd_lattice)
    l = lsub.add_parser("table5")
    l.set_defaults(func=cmd_lattice)

    p = sub.add_parser("cm")
    msub = p.add_subparsers(dest="which", required=True)
    m = msub.add_parser("classify")
    m.add_argument("--t", required=True)
    m.set_defaults(func=cmd_cm)
    m = msub.add_parser("verify")
    m.set_defaults(func=cmd_cm)
    m = msub.add_parser("survey")
    m.add_argument("--t", required=True)
    m.add_argument("--pmax", type=parse_int, default=50)
    m.set_defaults(func=cmd_cm)

    p = sub.add_parser("report-schema")
    p.set_defaults(func=cmd_report_schema)
    return top


def _input_errors():
    """The library's errors for arguments outside its domain, imported only once one
    is raised."""
    from .ecount import SingularCurveError
    from .ffield import DomainError, FieldConstructionError, ReductionError
    from .geomver import CatalogError, FibrationError
    from .hyperg import DatumError
    from .nslat import LatticeError

    return (UsageError, FieldConstructionError, DomainError, ReductionError, DatumError,
            LatticeError, FibrationError, SingularCurveError, CatalogError)


def _certification_errors():
    """A value that missed its certification, or a sampler that gave up: a failed
    check, not a usage error."""
    from .charsum import PrecisionError
    from .geomver.modeval import SampleDegenerateError
    from .hyperg import IntegrityError

    return PrecisionError, IntegrityError, SampleDegenerateError


def main(argv=None, out=None):
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args, out)
        out.flush()
        return code
    except BrokenPipeError:
        if out is not sys.stdout:
            raise
        # stdout was closed early (`| head`): silence the interpreter's last flush too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _input_errors() as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except _certification_errors() as e:
        print(f"certification failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
