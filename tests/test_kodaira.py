"""Canonical decomposition, rigidity rows, and the check harness."""

import json
from fractions import Fraction

import pytest

from spincalc import checks, curves, picard
from spincalc.kodaira import canonical_decomposition_g8
from spincalc.picard import (ALPHA0, BETA0, LAMBDA, alpha, beta,
                             divisor_class, higher_boundary, named_divisor,
                             spin_plus, theta_null)


def _reader(name, broken):
    """A divisor reader, called as `named_divisor` is, that returns
    `broken` for `name` and the pinned class for every other name."""
    return lambda n, *args, **kw: broken if n == name else named_divisor(
        n, *args, **kw)


def _boundary(d):
    """The a_i and b_i of a decomposition `d`, as i -> coefficient."""
    return ({i: d.coeff(alpha(i)) for i in range(1, 5)},
            {i: d.coeff(beta(i)) for i in range(1, 5)})


def _residual(d):
    """`d` minus its alpha_i / beta_i part."""
    return d - divisor_class(d.space, [(sym, d.coeff(sym))
                                       for sym in higher_boundary(d.space)])


# --- the decomposition ------------------------------------------------------

def test_decomposition_coefficients():
    d = canonical_decomposition_g8()
    a, b = _boundary(d)
    assert a == {1: 4, 2: 10, 3: 13, 4: 14}
    assert b == {1: 8, 2: 14, 3: 17, 4: 18}
    assert _residual(d).is_zero()


def test_decomposition_has_no_lambda_alpha_0_or_beta_0_part():
    d = canonical_decomposition_g8()
    assert d.space == spin_plus(8) and not d.opaque
    assert [d.coeff(sym) for sym in (LAMBDA, ALPHA0, BETA0)] == [0, 0, 0]
    assert set(d.coeffs) == set(higher_boundary(d.space))


def test_decomposition_linear_equations():
    # independent route: the canonical coefficient equals the sum of the
    # pullback-half coefficient, the theta part and the boundary unknown:
    #   alpha_i: -2 (or -3 at i=1) = (bn8 delta_i)/2 + a_i
    #   beta_i:  -2 (or -3 at i=1) = (bn8 delta_i)/2 - 4 + b_i
    a, b = _boundary(canonical_decomposition_g8())
    half_bn = {1: Fraction(-7), 2: Fraction(-12),
               3: Fraction(-15), 4: Fraction(-16)}
    for i in range(1, 5):
        canonical = Fraction(-3 if i == 1 else -2)
        assert a[i] == canonical - half_bn[i]
        assert b[i] == canonical - (half_bn[i] - 4)
        assert a[i] > 0 and b[i] > 0


def test_decomposition_detects_broken_theta():
    broken = theta_null(8) + divisor_class(spin_plus(8), [(LAMBDA, 1)])
    d = canonical_decomposition_g8(_reader("theta_null", broken))
    assert not _residual(d).is_zero()


def test_decomposition_detects_sign_flip():
    # flipping every boundary coefficient of theta makes some b_i cross 0
    t = theta_null(8)
    flipped = t + divisor_class(
        spin_plus(8), [(beta(i), 5) for i in range(1, 5)])
    d = canonical_decomposition_g8(_reader("theta_null", flipped))
    assert min(_boundary(d)[1].values()) <= 0


@pytest.mark.parametrize("perturb,computed", [
    (("theta_null", LAMBDA, Fraction(-1, 2)),
     "residual=4*lambda a=(4,10,13,14) b=(8,14,17,18) positive=yes"),
    (("bn8", "delta_1", 20),
     "residual=0 a=(-6,10,13,14) b=(-2,14,17,18) positive=no"),
], ids=["residual", "positivity"])
def test_decomposition_row_prints_what_was_computed(perturb, computed):
    report = checks.verify_all(quick=True, perturb=perturb)
    row = {c.id: c for c in report.checks}["canonical-decomposition-g8"]
    assert (row.computed, row.status) == (computed, "fail")


# --- rigidity rows ---------------------------------------------------------

def _rows(**kwargs):
    return {c.id: c for c in checks.verify_all(quick=True, **kwargs).checks}


def _with_pairing(build, sym, value):
    """`build`, with the curve it returns also pairing `value` with `sym`."""
    def bent(*args):
        c = build(*args)
        return curves.CurveClass(c.space, {**c.pairings, sym: value})
    return bent


def test_zero_self_pairing_is_not_rigid():
    row = _rows(perturb=("theta_null", LAMBDA, Fraction(2, 15)))[
        "theta-rigidity-g8"]
    assert row.computed == ("theta=0 lambda=15 alpha_0=92 beta_0=8 "
                            "higher=0 verdict=no")
    assert row.status == "fail"


def test_nonzero_cross_on_a_gamma_pencil_is_not_rigid(monkeypatch):
    monkeypatch.setattr(curves, "gamma_curve", _with_pairing(
        curves.gamma_curve, "alpha_1", Fraction(1, 2)))
    rows = _rows()
    for g in range(4, 10):
        row = rows[f"theta-rigidity-g{g}"]
        assert row.computed == row.expected.replace(
            "higher=0 verdict=yes", "higher=nonzero verdict=no")
        assert row.status == "fail"


def test_nonzero_cross_on_the_r_curve_shows_in_its_rows(monkeypatch):
    monkeypatch.setattr(curves, "r_curve_g8", _with_pairing(
        curves.r_curve_g8, "beta_2", 1))
    rows = _rows()
    assert rows["r-curve-disjointness"].computed \
        == "bn8-pullback=-24 higher=nonzero"
    assert rows["r-curve-theta"].computed == "-3/2"
    assert {i for i, c in rows.items() if c.status == "fail"} \
        == {"r-curve-disjointness", "r-curve-theta"}


def test_each_pencil_row_reads_only_the_class_it_pairs(monkeypatch):
    # the names `picard.named_divisor` serves while each row runs
    reads, running, resolve = {}, [None], picard.named_divisor

    def recording(name, *args, **kw):
        reads.setdefault(running[0], set()).add(name)
        return resolve(name, *args, **kw)

    def tracked(check):
        def run(ctx):
            running[0] = check.id
            return check.run(ctx)
        return checks.Check(check.id, check.citation, run, check.note)
    monkeypatch.setattr(picard, "named_divisor", recording)
    monkeypatch.setattr(checks, "REGISTRY", tuple(
        tracked(c) if c.run else c for c in checks.REGISTRY))
    assert checks.verify_all(quick=True).all_passed
    expected = {"r-curve-theta": {"theta_null"},
                "r-curve-disjointness": {"bn8"},
                "btilde-covering": {"bn8"}}
    expected |= {f"theta-rigidity-g{g}": {"theta_null"} for g in range(4, 10)}
    assert {i: reads.get(i, set()) for i in expected} == expected


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


@pytest.mark.parametrize("perturb", [("nonexistent", LAMBDA, 1),
                                     ("bn8", ALPHA0, 1),
                                     ("prym_green", "delta_0''", 1)])
def test_perturbation_that_reaches_no_pinned_coefficient_raises(perturb):
    # an unknown class, a symbol outside the class's basis, an opaque one
    with pytest.raises(ValueError, match="no class the checks read pins"):
        checks.verify_all(quick=True, perturb=perturb)


#: (class, symbol) perturbations that break no check, with the reason
SURVIVORS = {
    ("canonical", "delta_0''"): "the only checks reading the Prym canonical "
        "class pair it with the Nikulin pencil xi, which pairs 0 with "
        "delta_0''",
    ("nikulin_N6", "delta_0''"): "read only against the Nikulin pencil, "
        "which pairs 0 with delta_0''",
}


def test_fault_injection_matrix(monkeypatch):
    # every pinned coefficient of every class a quick run reads, +1 each
    read, resolve = {}, picard.named_divisor

    def recording(name, *args, **kw):
        d = resolve(name, *args, **kw)
        read.setdefault(name, set()).update(
            s for s in picard.basis_symbols(d.space) if s not in d.opaque)
        return d
    monkeypatch.setattr(picard, "named_divisor", recording)
    checks.verify_all(quick=True)
    monkeypatch.undo()
    assert set(read) == {"canonical", "theta_null", "bn8", "prym_green",
                         "nikulin_N6", "hodge_c1", "d2_nonveryample"}
    cases = [(name, s) for name, symbols in read.items() for s in symbols]
    assert len(cases) == 46
    failing = {case: {c.id for c in checks.verify_all(
        quick=True, perturb=(*case, 1)).checks if c.status == "fail"}
        for case in cases}
    assert {case for case, ids in failing.items() if not ids} \
        == set(SURVIVORS)


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


@pytest.mark.parametrize("change, computed", [
    (lambda draws: [*draws, draws[0]], "31/31"),
    (lambda draws: draws[:-1], "29/29"),
    (lambda draws: [], "0/0")], ids=["one-more", "one-fewer", "none"])
def test_a_sampler_that_miscounts_fails_its_row(monkeypatch, change,
                                                computed):
    # the row is judged against the 6 * 5 draws the quick run asks for
    from spincalc import linecomplex
    real = linecomplex.compound_rank_samples
    monkeypatch.setattr(linecomplex, "compound_rank_samples",
                        lambda rng, count: change(list(real(rng, count))))
    row = {c.id: c for c in checks.verify_all(quick=True).checks}[
        "complex-compound-rank-law"]
    assert (row.computed, row.expected, row.status) == (computed, "30/30",
                                                        "fail")


def test_check_raising_any_exception_is_recorded_as_fail(monkeypatch):
    def boom(ctx):
        raise ZeroDivisionError("division by zero")

    first, *rest = checks.REGISTRY
    expected_ids = [c.id for c in checks.verify_all(quick=True).checks]
    monkeypatch.setattr(checks, "REGISTRY",
                        (checks.Check(first.id, first.citation, boom), *rest))
    report = checks.verify_all(quick=True)
    assert report.failed == 1
    assert [c.id for c in report.checks] == expected_ids
    first = report.checks[0]
    assert first.status == "fail"
    assert first.computed == "error: ZeroDivisionError: division by zero"


def test_value_error_keeps_plain_message(monkeypatch):
    def bad(ctx):
        raise ValueError("bad input")

    monkeypatch.setattr(checks, "REGISTRY", (checks.Check("only", "c", bad),))
    report = checks.verify_all(quick=True)
    assert report.failed == 1
    assert report.checks[0].computed == "error: bad input"


def test_registry_is_one_table_of_checks():
    assert all(type(c) is checks.Check for c in checks.REGISTRY)
    ids = [c.id for c in checks.REGISTRY]
    assert len(ids) == len(set(ids)) == 50
    cited = ["clifford-index", "vq-class-input", "kodaira-dimension-bridge"]
    assert [c.id for c in checks.REGISTRY if c.run is None] == cited
    assert ids[-3:] == cited
    assert [c.id for c in checks.verify_all(quick=True).checks] == ids


def test_report_counts():
    report = checks.verify_all(quick=True)
    assert report.passed + report.failed + report.cited \
        == len(report.checks)
