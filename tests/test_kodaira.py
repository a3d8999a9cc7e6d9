"""Canonical decomposition, rigidity reports, and the check harness."""

import json
from fractions import Fraction

import pytest

from spincalc import checks
from spincalc.curves import BadGenusError
from spincalc.kodaira import (NonPositiveCoefficientError,
                              ResidualNonzeroError,
                              canonical_decomposition_g8,
                              rigidity_report_g8, theta_rigidity_report)
from spincalc.picard import (ALPHA0, LAMBDA, alpha, beta, divisor_class,
                             spin_plus, theta_null)


# --- the decomposition ------------------------------------------------------

def test_decomposition_coefficients():
    r = canonical_decomposition_g8()
    assert r.a == {1: 4, 2: 10, 3: 13, 4: 14}
    assert r.b == {1: 8, 2: 14, 3: 17, 4: 18}
    assert r.residual.is_zero()


def test_decomposition_linear_equations():
    # independent route: the canonical coefficient equals the sum of the
    # pullback-half coefficient, the theta part and the boundary unknown:
    #   alpha_i: -2 (or -3 at i=1) = (bn8 delta_i)/2 + a_i
    #   beta_i:  -2 (or -3 at i=1) = (bn8 delta_i)/2 - 4 + b_i
    r = canonical_decomposition_g8()
    half_bn = {1: Fraction(-7), 2: Fraction(-12),
               3: Fraction(-15), 4: Fraction(-16)}
    for i in range(1, 5):
        canonical = Fraction(-3 if i == 1 else -2)
        assert r.a[i] == canonical - half_bn[i]
        assert r.b[i] == canonical - (half_bn[i] - 4)
        assert r.a[i] > 0 and r.b[i] > 0


def test_decomposition_detects_broken_theta():
    broken = theta_null(8) + divisor_class(spin_plus(8), [(LAMBDA, 1)])
    with pytest.raises(ResidualNonzeroError):
        canonical_decomposition_g8(theta=broken)


def test_decomposition_detects_sign_flip():
    # flipping every boundary coefficient of theta makes some b_i cross 0
    t = theta_null(8)
    flipped = t + divisor_class(
        spin_plus(8), [(beta(i), 5) for i in range(1, 5)])
    with pytest.raises(NonPositiveCoefficientError):
        canonical_decomposition_g8(theta=flipped)


# --- rigidity reports -------------------------------------------------------

def test_rigidity_report_g8():
    report = rigidity_report_g8()
    assert report.verdict
    by_component = {row.component: row for row in report.rows}
    assert by_component["theta_null"].self_pairing == -1
    assert by_component["pullback of bn8"].self_pairing == -32896
    assert all(v == 0 for _, v in by_component["theta_null"].cross_pairings)
    assert any("cited" in note for note in report.notes)


@pytest.mark.parametrize("g", range(4, 10))
def test_theta_rigidity_reports(g):
    report = theta_rigidity_report(g)
    assert report.verdict
    row = report.rows[0]
    assert row.self_pairing == (-1 if g == 4 else -2)
    assert all(v == 0 for _, v in row.cross_pairings)


def test_theta_rigidity_bad_genus():
    with pytest.raises(BadGenusError):
        theta_rigidity_report(10)


def test_theta_rigidity_flags_wrong_value():
    bad = theta_null(8) + divisor_class(spin_plus(8), [(ALPHA0, 1)])
    assert not theta_rigidity_report(8, theta=bad).verdict


# --- the harness ------------------------------------------------------------

def test_verify_all_quick_passes():
    report = checks.verify_all(quick=True)
    assert report.all_passed
    assert report.failed == 0
    assert report.cited == 3
    assert len(report.checks) >= 25
    assert len({c.id for c in report.checks}) == len(report.checks)


def test_verify_all_is_deterministic():
    a = checks.render_json(checks.verify_all(quick=True, seed=5))
    b = checks.render_json(checks.verify_all(quick=True, seed=5))
    assert a == b


def test_json_round_trip_is_byte_identical():
    rendered = checks.render_json(checks.verify_all(quick=True))
    assert json.dumps(json.loads(rendered), indent=2) == rendered
    doc = json.loads(rendered)
    assert set(doc) == {"checks", "passed", "failed", "cited"}
    assert doc["failed"] == 0


def test_injected_theta_sign_error_fails_exactly_theta_checks():
    # flip the leading theta-null coefficient 1/4 -> -1/4
    report = checks.verify_all(
        quick=True, perturb=("theta_null", LAMBDA, Fraction(-1, 2)))
    failing = {c.id for c in report.checks if c.status == "fail"}
    expected = {f"theta-rigidity-g{g}" for g in range(4, 10)}
    expected |= {"r-curve-theta", "canonical-decomposition-g8"}
    assert failing == expected


def test_perturbing_bn8_breaks_slope_and_septic():
    report = checks.verify_all(
        quick=True, perturb=("bn8", "delta_0", Fraction(1)))
    failing = {c.id for c in report.checks if c.status == "fail"}
    assert "slope-bn8" in failing
    assert "septic-pencil" in failing
    assert "canonical-decomposition-g8" in failing
    assert "xi-battery-g8" not in failing


def test_perturbing_bn8_delta_0_fails_exactly_the_bn8_checks():
    report = checks.verify_all(
        quick=True, perturb=("bn8", "delta_0", Fraction(1)))
    failing = {c.id for c in report.checks if c.status == "fail"}
    assert failing == {"btilde-covering", "canonical-decomposition-g8",
                       "r-curve-disjointness", "septic-pencil", "slope-bn8"}


@pytest.mark.parametrize("delta", [0.1, True])
def test_inexact_perturbation_fails_the_checks_that_read_it(delta):
    report = checks.verify_all(quick=True, perturb=("bn8", "delta_0", delta))
    slope = {c.id: c for c in report.checks}["slope-bn8"]
    assert slope.status == "fail"
    assert slope.computed.startswith("error: TypeError:")


def test_one_wrong_sample_shows_in_the_tally(monkeypatch):
    from spincalc import linecomplex
    real, calls = linecomplex.tangency, []

    def wrong_on_the_third(q, u, v):
        calls.append(None)
        return real(q, u, v) != (len(calls) == 3)
    monkeypatch.setattr(linecomplex, "tangency", wrong_on_the_third)
    by_id = {c.id: c for c in checks.verify_all(quick=True).checks}
    tan = by_id["complex-tangency-oracle"]
    assert (tan.computed, tan.expected, tan.status) == ("24/25", "25/25",
                                                        "fail")


def test_check_raising_any_exception_is_recorded_as_fail(monkeypatch):
    build = checks._build_registry

    def boom(ctx):
        raise ZeroDivisionError("division by zero")

    def with_failing_check():
        reg = build()
        reg[0] = (reg[0][0], reg[0][1], boom)
        return reg

    expected_ids = [c.id for c in checks.verify_all(quick=True).checks]
    monkeypatch.setattr(checks, "_build_registry", with_failing_check)
    report = checks.verify_all(quick=True)
    assert report.failed == 1
    assert [c.id for c in report.checks] == expected_ids
    first = report.checks[0]
    assert first.status == "fail"
    assert first.computed == "error: ZeroDivisionError: division by zero"


def test_value_error_keeps_plain_message(monkeypatch):
    def bad(ctx):
        raise ValueError("bad input")

    monkeypatch.setattr(checks, "_build_registry",
                        lambda: [("only", "c", bad)])
    report = checks.verify_all(quick=True)
    assert report.failed == 1
    assert report.checks[0].computed == "error: bad input"


def test_report_counts():
    report = checks.verify_all(quick=True)
    assert report.passed + report.failed + report.cited \
        == len(report.checks)
