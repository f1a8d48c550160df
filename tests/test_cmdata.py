"""CM fixtures: classification, table rows, squarefree parts, trace survey."""

from fractions import Fraction as F

import pytest

from hgmk3.cmdata import (
    _data,
    chi_discriminant,
    classify_t,
    cm_trace_survey,
    quadratic_cm_rows,
    rational_cm_j_list,
    rational_cm_rows,
    s1_values,
    s2_values,
    squarefree_part,
    verify_classification_consistency,
    verify_quadratic_cm,
    verify_rational_cm,
)


def test_fixture_shape():
    assert _data()["version"] == 1
    assert len(s1_values()) == 5
    assert len(s2_values()) == 10
    assert len(rational_cm_j_list()) == 13
    assert set(rational_cm_rows()) == set(s1_values())
    assert set(quadratic_cm_rows()) == set(s2_values())


def test_classify_examples():
    assert classify_t(1) == "cm_rational_j"
    assert classify_t(F(9)) == "cm_quadratic_j"
    assert classify_t(2) == "generic"
    assert classify_t(F(81, 256)) == "cm_rational_j"
    with pytest.raises(ValueError):
        classify_t(0)


def test_squarefree_part():
    assert squarefree_part(F(72)) == 2
    assert squarefree_part(F(20)) == 5
    assert squarefree_part(F(2401) * 2400) == 6
    assert squarefree_part(F(-9, 16)) == -1
    assert squarefree_part(F(5, 3)) == 15


def test_verify_rational_cm_rows():
    checks = verify_rational_cm()
    assert len(checks) == 5
    for c in checks:
        assert c.passed, (c.t, c.detail)
    by_t = {c.t: c for c in checks}
    assert set(by_t[F(1)].detail["pair"]) == {8000}
    assert -3375 in by_t[F(81, 256)].detail["pair"]
    assert set(by_t[F(-9, 16)].detail["pair"]) == {0, 54000}
    assert 1728 in by_t[F(81, 32)].detail["pair"]


def test_verify_quadratic_cm_rows():
    checks = verify_quadratic_cm()
    assert len(checks) == 10
    for c in checks:
        assert c.passed, (c.t, c.detail)
    by_t = {c.t: c for c in checks}
    assert by_t[F(9)].detail["squarefree_t(t-1)"] == 2
    assert by_t[F(-4)].detail["squarefree_t(t-1)"] == 5
    assert by_t[F(2401)].detail["squarefree_t(t-1)"] == 6


def test_classification_consistency_spot_check():
    check = verify_classification_consistency()
    assert check.passed, (check.t, check.detail)


def test_classification_consistency_names_a_missing_s1_value(monkeypatch):
    from hgmk3 import cmdata

    full = cmdata.s1_values()
    monkeypatch.setattr(cmdata, "s1_values", lambda: tuple(t for t in full if t != F(81, 32)))
    check = verify_classification_consistency()
    assert not check.passed
    assert check.t == F(81, 32) and check.detail["j"] in (1728, 287496)


def test_chi_discriminant():
    assert chi_discriminant(F(1)) == 1
    assert chi_discriminant(F(-9, 16)) == -3
    assert chi_discriminant(F(9)) == -3
    with pytest.raises(KeyError):
        chi_discriminant(F(2))


def test_cm_trace_survey_emits_rows():
    rows = cm_trace_survey(F(81, 256), 40)
    assert rows, "expected at least one good prime with S rational"
    for row in rows:
        assert abs(row.T) <= 3 * row.p
        assert row.kronecker_D in (-1, 0, 1)
    rows_t1 = cm_trace_survey(F(1), 20)
    assert any(r.p == 7 for r in rows_t1)
    with pytest.raises(ValueError):
        cm_trace_survey(F(2), 20)


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


def test_survey_spot_row_against_counting_oracle():
    # no assertion on the d(n) split (empirical data product); but the T column
    # must agree with the independent triple-loop count
    rows = {r.p: r for r in cm_trace_survey(F(81, 256), 12)}
    assert 11 in rows
    assert rows[11].T == brute_affine(11, F(81, 256)) + 3 * 11 - 3 - 121
