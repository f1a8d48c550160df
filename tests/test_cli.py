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
    parse_field_element,
    parse_int,
    parse_q_list,
    parse_rational_list,
    report_schema,
)
from hgmk3.ffield import field_new
from hgmk3.hyperg import IntegrityError


# a 51-digit semiprime: factoring it would not finish
SEMIPRIME = "300000000000000000000001060000000000000000000000871"


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def test_report_schema():
    schema = report_schema()
    assert schema["schema"] == "hgmk3/2"
    assert "residual" in schema["fields"] and "time_ms" not in schema["fields"]
    assert len(schema["fields"]) == len(RECORD_FIELDS) == 10
    assert schema["csv_header"] == ",".join(RECORD_FIELDS)
    code, out = run(["report-schema"])
    assert code == 0 and json.loads(out) == schema
    assert '"hgmk3/2"' in out


def test_odd_prime_powers():
    assert odd_prime_powers(3, 30) == (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29)


def test_parse_rational_list():
    from fractions import Fraction

    assert parse_rational_list("2,3,5/2") == (Fraction(2), Fraction(3), Fraction(5, 2))
    assert parse_rational_list("-9/16,4/2,+3") == (Fraction(-9, 16), Fraction(2), Fraction(3))
    assert parse_rational_list(" 2 , -1/3 ,") == (Fraction(2), Fraction(-1, 3))
    with pytest.raises(UsageError):
        parse_rational_list("1/0")
    # only [+-]digits or [+-]digits/digits in ASCII digits: no decimal point, exponent,
    # underscore, inner space or non-ASCII digit, so "1eN" is never expanded to 10^N
    for text in ("1e3", "0.25", ".5", "5.", "1_000", "2.5", "1/2e1", "1E9", "2 / 3",
                 "0x10", "inf", "nan", "\u0661", "2,1e3", "--1"):
        with pytest.raises(UsageError, match="each item must be num or num/den"):
            parse_rational_list(text)


def test_integer_and_q_list_grammar(capsys):
    assert [parse_int(text) for text in ("13", "+13", " 13 ", "-3", "007")] == [13, 13, 13, -3, 7]
    # ASCII digits only: no underscore, decimal point, exponent, inner space or other
    # script's digits, and no more digits than int() reads
    for text in ("1_3", "\u0661\u0663", "13.0", "1e3", "", " ", "+-1", "- 3", "0x10",
                 "[1]", "1" * 5000):
        with pytest.raises(UsageError, match="bad integer"):
            parse_int(text)
    # empty items are dropped, as in a rational list; repeats are kept once
    assert parse_q_list("7,,9") == parse_q_list(" 7 , 9 ,") == parse_q_list("7,9,7") == (7, 9)
    # a q list of no items is an empty grid on both grid verbs
    for text in (",", " , "):
        for argv in (["verify", "curve-theorem", "--q", text],
                     ["verify", "bcm", "--q", text, "--t", "2"]):
            code, out = run(argv)
            assert code == 2 and out == ""
            assert capsys.readouterr().err == "usage error: empty q grid\n"


def test_element_text_encoding():
    # an integer, or one bracketed list of at least one integer (empty items dropped)
    f7 = field_new(7)
    assert parse_field_element(f7, "5") == f7.element(5)
    assert parse_field_element(f7, " -2 ") == parse_field_element(f7, "[5]") == f7.element(5)
    f9 = field_new(3, 2)
    x = f9.from_coeffs([2, 1])
    assert parse_field_element(f9, "[2,1]") == x
    assert parse_field_element(f9, " [ 2 , 1 ] ") == parse_field_element(f9, "[2,,1]") == x
    for text in ("[1,2", "1,2]", "[[1,2]]", "[1,2]]", "[1_0,2]", "[]", "[,]", "2,1", "x"):
        with pytest.raises(UsageError):
            parse_field_element(f9, text)


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
    assert not any("time_ms" in r for r in records)


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
        "fc66c99dc260a663352b99dd532f6bad84769b5af9a60768dcb61c8145fc6d77")


@pytest.mark.parametrize("argv, digest", [
    (["verify", "x0-2"], "59576b0a28c1c5cfe5afe230b636d07e05a34d46ac03ce6727d4e302169b9e1d"),
    (["verify", "si-params"], "74fb4bf881bd46dd5e41a38db6f5d1f7e3bf6679a46ef42bb7d1ddb7106b975e"),
    (["cm", "verify"], "4cdd72cb14c109f859b09502df41d9dd3eaabd3523f03800264e6cc8f20b52d5"),
    (["lattice", "table5"], "831a8957f5922d1e765c9a946b1c98ee7531187be30fbe48f9552cebec1eb6c5"),
])
def test_exact_check_stdout_is_pinned(argv, digest):
    code, out = run(argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_closed_stdout_exits_1_without_traceback():
    import os
    import subprocess
    import sys

    import hgmk3

    src = os.path.dirname(os.path.dirname(hgmk3.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "hgmk3.cli", "verify", "curve-theorem", "--q", "49"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert json.loads(proc.stdout.readline())["check"] == "curve-theorem"
    proc.stdout.close()  # as `| head -n 1` does
    err = proc.stderr.read()
    assert proc.wait() == 1
    assert err == b""


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


def test_one_parser_serves_every_call():
    # the parser is built once per process; a verb run after another prints what it printed first
    first = run(["fibration", "profile", "--model", "xslice", "--t", "2"])
    second = run(["lattice", "ns-generic"])
    assert first[0] == second[0] == 0
    assert run(["fibration", "profile", "--model", "xslice", "--t", "2"]) == first
    assert run(["lattice", "ns-generic"]) == second
    assert build_parser() is build_parser()


def test_verify_qt():
    code, out = run(["verify", "qt", "--trials", "4"])
    assert code == 0


def test_fibration_profile_verb():
    code, out = run(["fibration", "profile", "--model", "inose", "--t", "81/256"])
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[-1]["euler_total"] == 24 and lines[-1]["pass"]
    assert any(l.get("kodaira") == "II*" for l in lines)


def test_fibration_models_come_from_the_model_table():
    from hgmk3.geomver.kodaira import MODELS
    from hgmk3.geomver.maps import FIBRATIONS

    assert MODELS == (*FIBRATIONS, "xslice")
    assert MODELS == ("family19", "family19alt", "weier1", "inose", "xslice")
    (profile,) = [v for v in _all_subparsers(build_parser()) if v.prog.endswith("fibration profile")]
    assert profile._option_string_actions["--model"].choices == MODELS


FIBRATION_T = ("81/256", "2", "1", "-9/16", "3/7", "-1", "10")


@pytest.mark.parametrize("model, digest", [
    ("family19", "164d43a14744c0c7b6a2d2a40e66867216fdfe8194ed2a7068abc23503eea628"),
    ("family19alt", "7ced8e709beccd1250fb1f8a9b58cb302c84323b338adf7ff8cba6d02fcdef7b"),
    ("weier1", "bcee99a61358409a5e9d3b30e2baf7b3c6f2ed5f432f4a969413814c5027d9de"),
    ("inose", "b7200dc8bbec994b2216d4aacaf9f09e19a5e5b4a39402e969f09c49b4fb1b27"),
    ("xslice", "b75c19b116bd2b211f6319338bfb380ad1e2f7d5589a47e62f71102e7bd26132"),
])
def test_fibration_profile_output_is_pinned(model, digest):
    # SHA-256 of the stdout of the seven runs in turn: place labels, their order,
    # orders and types, byte for byte
    outs = []
    for t in FIBRATION_T:
        code, out = run(["fibration", "profile", "--model", model, f"--t={t}"])
        assert code == 0, (model, t)
        outs.append(out)
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == digest


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


def test_lattice_cm_stdout_is_pinned():
    # every profile meeting one 4-cycle component, at p_O = 0, 1, 2: the exit code and
    # stdout of each (an inadmissible profile exits 2 with nothing on stdout)
    outs = []
    for po in ("0", "1", "2"):
        for pe7 in ("0", "1"):
            for pg2, pg3 in (("0", "0"), ("1", "0"), ("0", "1")):
                code, out = run(["lattice", "cm", "--po", po, "--pe7", pe7,
                                 "--pg2", pg2, "--pg3", pg3])
                outs.append(f"{code}:{out}")
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == (
        "bce3a6e37bdccc0e40d837f11a9a4b7d2be609bd589ccff9d760d744fa88571b")


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
    # a sweep runs in this process; there is no --jobs, and no --timings: a record
    # holds no wall-clock value
    for option in (["--jobs", "2"], ["--timings"]):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "all", "--q", "7", "--t", "2"] + option)
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
    ["hgsum", "--alpha", "", "--beta", "", "--p", "7", "--t", "2"],  # the empty datum
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
    # a rational is num or num/den: no decimal point, exponent or underscore
    ["verify", "main", "--q", "7", "--t", "1e3"],
    ["verify", "bcm", "--q", "7", "--t", "1_000"],
    ["verify", "all", "--q", "7", "--t", "2,0.5"],
    ["hgsum", "--alpha", "0.25,0.5,0.75", "--beta", "0,0,0", "--p", "7", "--t", "2"],
    ["hgsum", "--alpha", "1/4,1/2,3/4", "--beta", "0,0,0e0", "--p", "7", "--t", "2"],
    ["count", "surface", "--p", "7", "--t", "2.5"],
    ["fibration", "profile", "--model", "inose", "--t", "0.3164"],
    ["cm", "classify", "--t", "1e2"],
    ["cm", "survey", "--t", "1.0", "--pmax", "11"],
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


def test_every_integer_option_reads_ascii_digits():
    actions = [a for sub in _all_subparsers(build_parser()) for a in sub._actions]
    assert [a.dest for a in actions if a.type is int] == []
    assert {a.option_strings[0] for a in actions if a.type is parse_int} == {
        "--p", "--n", "--pmin", "--pmax", "--trials", "--seed", "--pe7", "--pg2", "--pg3", "--po"}


def run_to_exit(argv):
    """(exit code, stdout) of a command, whether argparse or the verb ends it."""
    buf = io.StringIO()
    try:
        code = main(argv, out=buf)
    except SystemExit as exc:
        code = exc.code
    return code, buf.getvalue()


HGSUM = ["hgsum", "--alpha", "1/4,1/2,3/4", "--beta", "0,0,0"]


# each text in a slot that reads an integer, a q list or a field element; the fields
# are F_{3^2} and F_{7^2}, where the parent read "[1,2", "[[1,2]]" and "[]" as elements
@pytest.mark.parametrize("text", ["1_3", "\u0661\u0663", "13.0", "1e3", "[1,2", "[[1,2]]", "[]"])
@pytest.mark.parametrize("argv", [
    ["field-info", "--p", "{}"],
    ["verify", "bcm", "--q", "{}", "--t", "2"],
    ["verify", "bcm", "--pmax", "{}", "--t", "2"],
    ["verify", "maps", "--only", "psi2", "--trials", "{}"],
    ["lattice", "cm", "--po", "{}"],
    HGSUM + ["--p", "3", "--n", "2", "--t", "{}"],
    ["curve", "count", "--p", "7", "--n", "2", "--a2", "{}", "--a4", "1", "--a6", "0"],
], ids=["p", "q", "pmax", "trials", "po", "hgsum-t", "curve-a2"])
def test_number_outside_the_grammar_exits_2(argv, text, capsys):
    code, out = run_to_exit([text if arg == "{}" else arg for arg in argv])
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert sum("error: " in line for line in err.splitlines()) == 1


# the digest of each plain command's stdout at the parent of the one-grammar change
# (field-info --p 13, verify bcm --q 7,9, ...); every other form reads the same numbers
@pytest.mark.parametrize("argv, digest", [
    (["field-info", "--p", text],
     "f862a665d1b639c12eac8bd1861498ed61603009b58d4133a03280385c895ba7")
    for text in ("13", "+13", " 13 ")
] + [
    (["verify", "bcm", "--q", text, "--t", "2"],
     "95ef254c8dc6fdaf48e4a1551605fc0ab4b07c581fe8fbdb640e3f533d22f99b")
    for text in ("7,9", "7,,9", " 7 , 9 ,")
] + [
    (["curve", "count", "--p", "7", "--a2", text, "--a4", "3", "--a6", "0"],
     "78295fa5db7a69c9a336316b56f36350094353da08d75d143d5d639dcfca2aa0")
    for text in ("-3", " -3 ", "4", "[-3]")
] + [
    (["curve", "count", "--p", "7", "--n", "2", "--a2", text, "--a4", "-3", "--a6", "0"],
     "6040c9fca5886d4d98190b9d6f5f603e17a6afaf026427d8781117c74a287884")
    for text in ("[2,1]", " [ 2 , +1 ] ", "[2,,1]", "[-5,8]")
] + [
    (["lattice", "cm", "--pg3", "+1", "--po", " 2 "],
     "968dce654b035ae57102d4fc51846e938f581d49d092e98938dd57bdc7f12c5d"),
    (["cm", "survey", "--t", "1", "--pmax", "+13"],
     "3d2bf68b1d2782998d4ab2497d0abc1bb98d61175fb77061831a5603585b4265"),
    (["verify", "maps", "--only", "psi2", "--trials", " 3", "--seed", "-3"],
     "fd0f649a7f8304c41e35add1a638450c325d5dc7f232e76f2cfc0a5af70a0b96"),
    (["verify", "main", "--pmin", "+5", "--pmax", "13 ", "--t", "2"],
     "8016b33252a5164a0a3eaa419c778621638e72880010a88cfc8e8c27008ac502"),
])
def test_accepted_number_forms_are_pinned(argv, digest):
    code, out = run(argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
