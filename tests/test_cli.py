"""CLI verbs, record schema, determinism, skip records, exit codes."""

import argparse
import csv
import hashlib
import io
import json

import pytest

from hgmk3.charsum import PrecisionError
from hgmk3.cli import (
    RECORD_FIELDS,
    UsageError,
    build_parser,
    main,
    odd_prime_powers,
    parse_rational_list,
    report_schema,
)
from hgmk3.hyperg import IntegrityError


# a 51-digit semiprime: factoring it would not finish
SEMIPRIME = "300000000000000000000001060000000000000000000000871"


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def test_report_schema():
    schema = report_schema()
    assert schema["schema"] == "hgmk3/1"
    assert "residual" in schema["fields"]
    assert schema["csv_header"] == ",".join(RECORD_FIELDS)
    code, out = run(["report-schema"])
    assert code == 0 and "hgmk3/1" in out


def test_odd_prime_powers():
    assert odd_prime_powers(3, 30) == (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29)


def test_parse_rational_list():
    from fractions import Fraction

    assert parse_rational_list("2,3,5/2") == (Fraction(2), Fraction(3), Fraction(5, 2))
    with pytest.raises(UsageError):
        parse_rational_list("1/0")


def test_empty_t_list_is_usage_error(capsys):
    code, out = run(["verify", "bcm", "--q", "5", "--t", ""])
    assert code == 2 and out == ""
    assert capsys.readouterr().err.startswith("usage error: ")


def test_field_info_verb():
    code, out = run(["field-info", "--p", "3", "--n", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["q"] == 9 and data["modulus"] == [1, 0, 1]
    assert data["generator"] == "[1,1]"


def test_gauss_check_verb():
    code, out = run(["gauss-check", "--p", "7"])
    assert code == 0
    data = json.loads(out)
    assert data["residual"] < 1e-9
    assert data["max_relative_deviation"] < 1e-9


def test_hgsum_verb():
    code, out = run([
        "hgsum", "--alpha", "1/4,1/2,3/4", "--beta", "0,0,0",
        "--p", "7", "--n", "1", "--t", "4",
    ])
    assert code == 0
    data = json.loads(out)
    assert data["q"] == 7 and data["rounded"] == "-3/1"
    assert abs(data["complex"][0] + 3) < 1e-9
    assert data["residual"] < 1e-9


def test_curve_count_verb():
    code, out = run(["curve", "count", "--p", "7", "--n", "1",
                     "--a2", "5", "--a4", "3", "--a6", "0"])
    assert code == 0
    data = json.loads(out)
    assert data == {"q": 7, "count": 10, "trace": -2}


def test_count_surface_verb():
    code, out = run(["count", "surface", "--p", "7", "--n", "1", "--t", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["affine"] == 28 and data["elliptic_surface"] == 180
    assert data["transcendental_trace"] == -3


def test_verify_sweep_passes_and_skips():
    code, out = run(["verify", "main", "--pmax", "13", "--t", "2,3,5/2"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert all(r["pass"] for r in records)
    assert any(r["skipped"] for r in records)  # q = 3, 9 cells and nonsquare cells
    assert all(r["time_ms"] is None for r in records)


def test_verify_extension_field_cell():
    code, out = run(["verify", "bcm", "--q", "9", "--t", "2"])
    assert code == 0
    (rec,) = [json.loads(line) for line in out.splitlines()]
    assert rec["q"] == 9 and rec["pass"] and not rec["skipped"]


def test_sweep_determinism():
    argv = ["verify", "all", "--pmax", "11", "--t", "2,81/256"]
    code1, out1 = run(argv)
    code2, out2 = run(argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_timings_change_only_time_ms():
    argv = ["verify", "all", "--q", "7,9", "--t", "2,81/256"]
    code, plain = run(argv)
    timed_code, timed = run(argv + ["--timings"])
    assert code == timed_code == 0
    plain = [json.loads(line) for line in plain.splitlines()]
    timed = [json.loads(line) for line in timed.splitlines()]
    assert len(timed) == len(plain) == 4 * 2 * 2  # checks x q x t
    for untimed, rec in zip(plain, timed):
        assert isinstance(rec["time_ms"], float) and rec["time_ms"] >= 0
        assert {**rec, "time_ms": None} == untimed


def test_csv_output_matches_field_order():
    code, out = run(["verify", "bcm", "--q", "7", "--t", "2", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(RECORD_FIELDS)
    assert lines[1].startswith("bcm,7,2,")
    # a field holding a comma is quoted: the reason "gcd(q, 6) != 1", the names "a=1,b=1"
    for argv in (["verify", "main", "--q", "9", "--t", "2"], ["verify", "curve-theorem", "--q", "5"]):
        code, out = run(argv + ["--format", "csv"])
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        assert header == list(RECORD_FIELDS)
        code, out = run(argv)
        records = [json.loads(line) for line in out.splitlines()]
        assert rows and len(rows) == len(records)
        for row, rec in zip(rows, records):
            assert len(row) == len(RECORD_FIELDS)
            assert row == ["" if v is None else str(v) for v in rec.values()]


def test_verify_maps_stdout_is_pinned():
    # each record's residual is D / 2^61, so a change to any entry's degree
    # bound D, as well as to the prime stream or a verdict, shows here
    code, out = run(["verify", "maps", "--trials", "1"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "cdc16c1852044c9aaf0d8fd6ef37619fd27595aba479298e991709f4b558230b")


def test_verify_maps_single_entry():
    code, out = run(["verify", "maps", "--only", "identity_sanity", "--trials", "4"])
    assert code == 0
    (rec,) = [json.loads(line) for line in out.splitlines()]
    assert rec["name"] == "identity_sanity" and rec["pass"]


def test_verify_si_params_and_x0_2():
    code, out = run(["verify", "si-params"])
    assert code == 0
    code, out = run(["verify", "x0-2"])
    assert code == 0


def test_verify_qt():
    code, out = run(["verify", "qt", "--trials", "4"])
    assert code == 0


def test_fibration_profile_verb():
    code, out = run(["fibration", "profile", "--model", "inose", "--t", "81/256"])
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[-1]["euler_total"] == 24 and lines[-1]["pass"]
    assert any(l.get("kodaira") == "II*" for l in lines)


def test_lattice_verbs():
    code, out = run(["lattice", "ns-generic"])
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 19 and abs(data["det"]) == 4
    assert data["signature"] == [1, 18]
    code, out = run(["lattice", "cm", "--pg3", "1", "--po", "0"])
    assert code == 0
    data = json.loads(out)
    assert data["tail_block"] == [[-4, 2], [2, -4]]
    code, out = run(["lattice", "table5"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 15 and all(r["pass"] for r in rows)


def test_cm_verbs():
    code, out = run(["cm", "classify", "--t", "81/256"])
    assert code == 0
    assert json.loads(out)["class"] == "cm_rational_j"
    code, out = run(["cm", "verify"])
    assert code == 0
    code, out = run(["cm", "survey", "--t", "1", "--pmax", "11"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert any(r["p"] == 7 for r in rows)


def test_curve_theorem_verb():
    code, out = run(["verify", "curve-theorem", "--q", "5"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 16  # (q-1)^2 cells
    spot = {r["name"]: r for r in records}
    assert spot["a=1,b=1"]["lhs"] == 8
    assert spot["a=1,b=2"]["lhs"] == 3


def test_usage_exit_codes():
    with pytest.raises(SystemExit) as exc:
        main(["verify"])  # missing subverb
    assert exc.value.code == 2
    code, _ = run(["verify", "bcm", "--q", "7", "--t", ""])
    assert code == 2


def test_seed_selects_the_primes(monkeypatch):
    from hgmk3.geomver import sz

    random_prime = sz.random_prime

    def primes_for(seed):
        drawn = []

        def recording(rng):
            drawn.append(random_prime(rng))
            return drawn[-1]

        monkeypatch.setattr(sz, "random_prime", recording)
        code, _ = run(["verify", "maps", "--only", "identity_sanity", "--trials", "3",
                       "--seed", str(seed)])
        assert code == 0 and len(drawn) == 3
        return drawn

    assert primes_for(11) != primes_for(12)
    assert primes_for(11) == primes_for(11)


def test_sampler_defaults_are_the_library_defaults():
    from hgmk3.geomver.sz import DEFAULT_SEED, DEFAULT_TRIALS

    for verb in ("maps", "qt"):
        args = build_parser().parse_args(["verify", verb])
        assert (args.trials, args.seed) == (DEFAULT_TRIALS, DEFAULT_SEED)


def test_precision_is_fixed_at_53_bits():
    # no verb takes a --precision option
    code, out = run(["gauss-check", "--p", "5"])
    assert code == 0 and json.loads(out)["precision"] == 53
    with pytest.raises(SystemExit) as exc:
        main(["gauss-check", "--p", "5", "--precision", "53"])
    assert exc.value.code == 2
    for verb in _all_subparsers(build_parser()):
        assert "--precision" not in verb._option_string_actions, verb.prog


def test_sweep_verbs_take_no_seed():
    # sweeps draw nothing at random; only the sampling verbs take --seed
    for which in ("bcm", "lemma", "trace", "main", "all"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", which, "--q", "7", "--t", "2", "--seed", "3"])
        assert exc.value.code == 2
    # a sweep runs in this process; there is no --jobs
    with pytest.raises(SystemExit) as exc:
        main(["verify", "all", "--q", "7", "--t", "2", "--jobs", "2"])
    assert exc.value.code == 2
    # si-params, x0-2 and the CM classification are exact proofs, so they take no seed either
    for argv in (["verify", "si-params"], ["verify", "x0-2"], ["cm", "verify"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "1"])
        assert exc.value.code == 2
    code, _ = run(["verify", "qt", "--trials", "2", "--seed", "3"])
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["verify", "curve-theorem", "--q", "35"],  # not a prime power
    ["verify", "curve-theorem", "--q", "1"],
    ["verify", "curve-theorem", "--q", "9"],  # gcd(q, 6) != 1
    ["verify", "curve-theorem", "--q", "15"],
    ["verify", "bcm", "--q", "7,abc", "--t", "2"],
    ["verify", "bcm", "--q=-7", "--t", "2"],
    ["field-info", "--p", "15"],  # was F_3, silently
    ["hgsum", "--alpha", "1/2", "--beta", "0", "--p", "35", "--t", "2"],  # was F_5
    ["gauss-check", "--p", "3", "--n", "0"],
])
def test_bad_q_is_a_usage_error(argv):
    code, out = run(argv)
    assert code == 2 and out == ""


@pytest.mark.parametrize("argv", [
    ["lattice", "cm", "--pe7", "1", "--po", "1"],  # LatticeError
    ["cm", "survey", "--t", "0"],  # DomainError
    ["cm", "survey", "--t", "2"],
    ["cm", "classify", "--t", "0"],
    ["count", "surface", "--p", "7", "--t", "0"],  # ReductionError
    ["count", "surface", "--p", "7", "--t", "1/7"],
    ["verify", "bcm", "--q", "16777259", "--t", "2"],  # FieldConstructionError
    ["field-info", "--p", "3", "--n", "30"],
    ["hgsum", "--alpha", "1/3", "--beta", "0,0", "--p", "7", "--t", "2"],  # DatumError
    ["hgsum", "--alpha", "1/2", "--beta", "0", "--p", "7", "--t", "0"],  # DomainError
    ["curve", "count", "--p", "7", "--a2", "0", "--a4", "0", "--a6", "0"],  # SingularCurveError
    ["fibration", "profile", "--model", "inose", "--t", "0"],  # FibrationError
    ["verify", "maps", "--only", "nosuch"],  # CatalogError
    ["verify", "maps", "--trials", "0"],  # sampler bounds
    ["verify", "maps", "--only", "psi4", "--trials", "0"],
    ["verify", "maps", "--only", "psi_chain", "--trials", "0"],
    ["verify", "qt", "--trials", "0"],
    ["verify", "all", "--pmin", "60", "--pmax", "50", "--t", "2"],  # empty q grid
    ["verify", "bcm", "--pmax", "2", "--t", "2"],
    ["verify", "bcm", "--q", "5", "--t", "0"],
    ["field-info", "--p", "9", "--n", "2"],  # FieldConstructionError: p = 9 is not prime
    ["count", "surface", "--p", "7", "--t", "abc"],  # a malformed single rational
    ["fibration", "profile", "--model", "inose", "--t", "1/0"],
    ["cm", "classify", "--t", "1/0"],
    ["cm", "survey", "--t", "x"],
    ["hgsum", "--alpha", "1/2", "--beta", "0", "--p", "7", "--t", "1/2"],  # not an element
    ["curve", "count", "--p", "7", "--a2", "x", "--a4", "1", "--a6", "1"],
    # the 2^24 bound comes before any enumeration or factoring
    ["verify", "bcm", "--pmax", "1000000000000", "--t", "2"],
    ["cm", "survey", "--t", "1", "--pmax", "1000000000000"],
    ["verify", "bcm", "--q", SEMIPRIME, "--t", "2"],
    ["field-info", "--p", SEMIPRIME],
])
def test_domain_error_is_a_usage_error(argv, capsys):
    code, out = run(argv)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


def test_repeated_q_is_verified_once():
    code, out = run(["verify", "bcm", "--q", "7,7", "--t", "2"])
    assert code == 0 and len(out.splitlines()) == 1
    code, out = run(["verify", "curve-theorem", "--q", "5,5"])
    assert code == 0 and len(out.splitlines()) == 16


def test_repeated_t_is_verified_once():
    code, out = run(["verify", "bcm", "--q", "7", "--t", "2,4/2"])
    assert code == 0 and out == run(["verify", "bcm", "--q", "7", "--t", "2"])[1]
    assert len(out.splitlines()) == 1


def test_only_selects_the_psi_chain(capsys):
    code, out = run(["verify", "maps", "--only", "psi_chain", "--trials", "3"])
    assert code == 0 and capsys.readouterr().err == ""
    (rec,) = [json.loads(line) for line in out.splitlines()]
    assert rec["name"] == "psi_chain" and rec["pass"] and rec["lhs"] == 3
    code, full = run(["verify", "maps", "--trials", "3"])
    assert code == 0 and out in full.splitlines(keepends=True)
    # a CatalogError prints its message bare, without KeyError's quotes
    code, out = run(["verify", "maps", "--only", "nosuch"])
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "usage error: no catalog entry named 'nosuch'\n"


def test_sampler_that_gives_up_exits_1_without_traceback(monkeypatch, capsys):
    from hgmk3.geomver import sz

    monkeypatch.setattr(sz, "MAX_DRAWS", 0)
    code, out = run(["verify", "maps", "--only", "psi5", "--trials", "1"])
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("certification failed: ") and err.count("\n") == 1


@pytest.mark.parametrize("error", [PrecisionError, IntegrityError], ids=lambda e: e.__name__)
def test_certification_failure_exits_1_without_traceback(error, monkeypatch, capsys):
    import hgmk3.hyperg as hyperg

    def failing_sum(*args, **kwargs):
        raise error("rounding residual 2.12e+05 above 0.001 at q = 1009")

    monkeypatch.setattr(hyperg, "hg_sum", failing_sum)
    code, out = run(["hgsum", "--alpha", "1/2,1/2,1/2,1/2", "--beta", "1/6,5/6,1/6,5/6",
                     "--p", "1009", "--t", "2"])
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err == "certification failed: rounding residual 2.12e+05 above 0.001 at q = 1009\n"


def test_noisy_bcm_gauss_expression_exits_1_without_traceback(monkeypatch, capsys):
    from hgmk3 import k3count

    build = k3count.get_character_system

    def noisy(field):  # the one cell asks once, for the field the CLI just built
        cs = build(field)
        cs.gauss[1] += 0.5
        return cs

    monkeypatch.setattr(k3count, "get_character_system", noisy)
    code, out = run(["verify", "bcm", "--q", "7", "--t", "2"])
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("certification failed: rounding residual ") and err.count("\n") == 1


def test_trace_bound_miss_exits_1_without_traceback(monkeypatch, capsys):
    # the 3q bound's miss is an IntegrityError, a certification failure
    from hgmk3 import k3count

    monkeypatch.setattr(k3count, "count_elliptic_surface", lambda field, t: (10**6, {}))
    code, out = run(["verify", "trace", "--q", "7", "--t", "2"])
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("certification failed: |T| = ") and err.count("\n") == 1


def test_lemma_sweep_builds_no_gauss_table(monkeypatch):
    from hgmk3.charsum import CharacterSystem

    built = []
    init = CharacterSystem.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CharacterSystem, "__init__", counted)
    code, _ = run(["verify", "lemma", "--q", "7", "--t", "2"])
    assert code == 0 and built == []
    code, _ = run(["verify", "bcm", "--q", "7", "--t", "2"])
    assert code == 0 and len(built) == 1  # the count sees a table when one is built


def test_maps_draw_one_prime_per_printed_trial(monkeypatch):
    from hgmk3.geomver import CATALOG, sz

    drawn = []
    random_prime = sz.random_prime

    def counted(*args):
        drawn.append(random_prime(*args))
        return drawn[-1]

    monkeypatch.setattr(sz, "random_prime", counted)
    code, out = run(["verify", "maps", "--trials", "3"])
    assert code == 0 and len(out.splitlines()) == len(CATALOG) + 1
    assert len(drawn) == 3 * (len(CATALOG) + 1)  # the psi links are not sampled twice


def test_sweep_keeps_no_field_alive(monkeypatch):
    import gc
    import weakref

    from hgmk3.ffield import FieldSpec

    built = []
    init = FieldSpec.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(weakref.ref(self))

    monkeypatch.setattr(FieldSpec, "__init__", recorded)
    code, _ = run(["verify", "all", "--q", "5,7", "--t", "2"])
    assert code == 0 and built
    gc.collect()
    assert [ref() for ref in built] == [None] * len(built)


def _all_subparsers(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield sub
                yield from _all_subparsers(sub)
