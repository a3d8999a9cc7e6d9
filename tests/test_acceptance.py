"""Acceptance battery: every headline criterion at zero tolerance.

Each test prints one line, `ACCEPTANCE nn <name>: PASS/FAIL` (visible
under `pytest -s` or in the failure report).  All arithmetic is exact;
"tolerance" everywhere is equality of rationals.
"""

import hashlib
from contextlib import contextmanager
from fractions import Fraction
from math import comb

import pytest

from spincalc import checks
from spincalc.curves import (btilde_curve, covering_degree, gamma_curve,
                             pair, r_curve_g8, septic_pencil_curve, xi_curve)
from spincalc.kodaira import canonical_decomposition_g8
from spincalc.lattices import (cs_obstruction, doubly_elliptic_identities,
                               lambda_identities, nikulin_derived_root,
                               nikulin_lattice)
from spincalc.picard import (ALPHA0, BETA0, D0P, D0PP, D0RAM, DELTA0, LAMBDA,
                             alpha, beta, brill_noether_g8, canonical_class,
                             delta, divisor_class, higher_boundary,
                             prym_green, prym_nikulin_g6, pullback,
                             rbar, slope, spin_plus, sym_power_c1, theta_null,
                             twisted_hodge_c1, non_very_ample_g5)
from spincalc.schubert import (catalan_degree, degree, grassmannian_degree,
                               sigma)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


#: sha256 of `spincalc verify-all --json --seed 1729`: the behaviour
#: contract that every refactor must reproduce byte for byte
CONTRACT_SHA256 = \
    "bee80b2b0d7ecfebdb6134d293ed31fe598f76b9f747352e0412c21504b58e29"


@pytest.fixture(scope="module")
def full_report():
    return checks.verify_all()


def test_criterion_01_xi_battery():
    with criterion(1, "xi-curve battery"):
        for g in range(2, 13):
            c = xi_curve(g)
            assert c.pairing(LAMBDA) == g + 1
            assert c.pairing(D0P) == 6 * g + 2
            assert c.pairing(D0PP) == 0
            assert c.pairing(D0RAM) == 8
            assert pair(c, canonical_class(rbar(g))) == g - 15


def test_criterion_02_prym_green_pairings():
    with criterion(2, "Prym-Green pairings"):
        expected = [-1, -5, -21, -84, -330, -1287, -5005]
        for i in range(7):
            value = pair(xi_curve(2 * i + 6), prym_green(i))
            assert value == expected[i] == -comb(2 * i + 3, i)


def test_criterion_03_nikulin_divisor():
    with criterion(3, "genus-6 Nikulin divisor pairing"):
        assert pair(xi_curve(6), prym_nikulin_g6()) == -1


def test_criterion_04_d1_minus_d2():
    with criterion(4, "cubic-locus difference class"):
        cube = sym_power_c1(twisted_hodge_c1(1), rank=4, power=3)
        assert cube == 15 * twisted_hodge_c1(1)
        diff = twisted_hodge_c1(3) - cube - non_very_ample_g5()
        assert diff.coeff(LAMBDA) == 8
        assert diff.coeff(D0P) == -1
        assert diff.coeff(D0PP) == -1
        assert diff.coeff(D0RAM) == -2


def test_criterion_05_theta_null_rigidity():
    with criterion(5, "theta-null covering pencils"):
        table = {4: (4, 32, 1), 5: (10, 72, 4), 6: (12, 80, 6)}
        for g in range(4, 10):
            lam, a0, b0 = table.get(g, (g + 7, 4 * g + 60, 8))
            c = gamma_curve(g)
            assert c.pairing(LAMBDA) == lam
            assert c.pairing(ALPHA0) == a0
            assert c.pairing(BETA0) == b0
            assert pair(c, theta_null(g)) == (-1 if g == 4 else -2)


def test_criterion_06_septic_pencil():
    with criterion(6, "plane-septic pencil"):
        m = septic_pencil_curve()
        assert m.pairing(LAMBDA) == 8
        assert m.pairing(DELTA0) == 59
        assert pair(m, brill_noether_g8()) == -1


def test_criterion_07_canonical_decomposition():
    with criterion(7, "genus-8 canonical decomposition"):
        d = canonical_decomposition_g8()
        residual = d - divisor_class(d.space, [
            (sym, d.coeff(sym)) for sym in higher_boundary(d.space)])
        assert residual.is_zero()
        assert residual.coeff(LAMBDA) == 0
        assert residual.coeff(ALPHA0) == 0
        assert residual.coeff(BETA0) == 0
        pairs = [(d.coeff(alpha(i)), d.coeff(beta(i))) for i in range(1, 5)]
        assert pairs == [(4, 8), (10, 14), (13, 17), (14, 18)]
        assert all(v > 0 for ab in pairs for v in ab)


def test_criterion_08_r_curve_battery():
    with criterion(8, "doubly-elliptic pencil battery"):
        r = r_curve_g8()
        assert r.pairing(LAMBDA) == 9
        assert r.pairing(ALPHA0) + 2 * r.pairing(BETA0) == 66
        assert r.pairing(BETA0) == Fraction(7, 2) + Fraction(7, 2) == 7
        assert r.pairing(ALPHA0) == 52
        assert pair(r, theta_null(8)) == -1
        assert pair(r, pullback(brill_noether_g8(), spin_plus(8))) == 0
        for i in range(1, 5):
            assert r.pairing(alpha(i)) == 0
            assert r.pairing(beta(i)) == 0


def test_criterion_09_btilde_lift():
    with criterion(9, "spin lift of the septic pencil"):
        assert covering_degree(8) == 2 ** 7 * (2 ** 8 + 1) == 32896
        lift = btilde_curve(septic_pencil_curve())
        value = pair(lift, pullback(brill_noether_g8(), spin_plus(8)))
        assert value == -32896 < 0


def test_criterion_10_lattice_battery():
    with criterion(10, "lattice battery"):
        nik = nikulin_lattice()
        assert nik.is_even()
        assert nik.determinant() == 64
        assert nik.norm(nikulin_derived_root()) == -2
        for name, got, want in lambda_identities(7):
            assert got == want, name
        for g in range(7, 13):
            entries = cs_obstruction(g, a_bound=5)
            assert len(entries) == 5
            assert all(e.cs_gap > 0 and not e.solution_found
                       for e in entries)
        square, _, pencils = doubly_elliptic_identities()
        assert square == pencils == 14


def test_criterion_11_schubert_battery():
    with criterion(11, "Grassmannian degree battery"):
        assert degree(sigma(5, 2, 1, 4)) == 8
        assert grassmannian_degree(5) == catalan_degree(5) == 5
        assert grassmannian_degree(6) == catalan_degree(6) == 14
        assert 2 * grassmannian_degree(5) == 10


def test_criterion_12_quadratic_complex_suite(full_report):
    with criterion(12, "quadratic-complex property suite"):
        by_id = {c.id: c for c in full_report.checks}
        law = by_id["complex-compound-rank-law"]
        assert law.status == "pass" and law.computed == "600/600"
        tan = by_id["complex-tangency-oracle"]
        assert tan.status == "pass" and tan.computed == "1000/1000"
        sing = by_id["complex-singularity-criterion"]
        assert sing.status == "pass" and sing.computed == "1000/1000"
        tri = by_id["complex-plucker-trichotomy"]
        assert tri.status == "pass"
        assert tri.computed == "6,10,15 conjugates=100/100"
        solve = by_id["complex-exceptional-class-solve"]
        assert solve.status == "pass" and solve.computed == "2,-2"


def test_criterion_13_slope():
    with criterion(13, "Brill-Noether slope"):
        assert slope(brill_noether_g8()) == Fraction(22, 3) \
            == 6 + Fraction(12, 8 + 1)


def test_criterion_14_fault_injection():
    with criterion(14, "fault injection sensitivity"):
        theta_symbols = [LAMBDA, ALPHA0] + [beta(i) for i in range(1, 5)]
        bn_symbols = [LAMBDA, DELTA0] + [delta(i) for i in range(1, 5)]
        cases = [("theta_null", s) for s in theta_symbols]
        cases += [("bn8", s) for s in bn_symbols]
        for target, symbol in cases:
            report = checks.verify_all(
                quick=True, perturb=(target, symbol, Fraction(1)))
            assert report.failed >= 1, (target, symbol)


def test_full_registry_all_green(full_report):
    assert full_report.all_passed
    assert full_report.failed == 0
    assert len(full_report.checks) >= 25


def test_full_report_matches_behaviour_contract(full_report):
    assert full_report.seed == 1729
    doc = checks.render_json(full_report) + "\n"
    assert hashlib.sha256(doc.encode()).hexdigest() == CONTRACT_SHA256
