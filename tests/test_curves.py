"""Test-curve constructions and intersection pairings."""

import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spincalc.curves import (BadGenusError, CurveClass, NegativeBudgetError,
                             NonzeroHigherBoundaryError, OpaquePairingError,
                             UndefinedSplitError,
                             btilde_curve, covering_degree, curve_class,
                             gamma_curve, noether_c2, pair, pencil_curve,
                             r_curve_g8, septic_pencil_curve, xi_curve)
from spincalc.picard import (ALPHA0, BETA0, D0P, D0PP, D0RAM, DELTA0, LAMBDA,
                             MBAR, DuplicateSymbolError, SpaceMismatchError,
                             alpha, basis_symbols, beta, brill_noether_g8,
                             canonical_class, covering_images, delta,
                             divisor_class, mbar, pi_delta, prym_green,
                             prym_nikulin_g6, pullback, rbar, spin_plus,
                             theta_null)


def fr(a, b=1):
    return Fraction(a, b)


def pushforward_to_mbar(c: CurveClass) -> CurveClass:
    """The projection formula's reference: push a curve class down to the
    stable-curve space as the transpose of the covering pullback, so each
    stable-curve symbol receives the pairings of its images
    (`picard.covering_images`) with multiplicity."""
    if c.space.kind == MBAR:
        return c
    entries = [(sym, sum(mult * c.pairing(img) for img, mult in images))
               for sym, images in covering_images(c.space)]
    return curve_class(mbar(c.space.genus), entries,
                       label=f"pushforward of {c.label}")


# --- Noether bookkeeping ----------------------------------------------------

def test_noether_c2_examples():
    assert noether_c2(8, 16) == 80
    assert noether_c2(2, -14) == 38
    assert noether_c2(1, 9) == 3


def test_pencil_curve_canonical_surface_g7():
    c = pencil_curve(spin_plus(7), chi=8, k_squared=16, nodes_resolved=8)
    assert c.pairing(LAMBDA) == 14
    assert c.pairing(ALPHA0) == 88
    assert c.pairing(BETA0) == 8


def test_pencil_curve_septic_invariants():
    c = pencil_curve(mbar(8), chi=1, k_squared=-19)
    assert c.pairing(LAMBDA) == 8
    assert c.pairing(DELTA0) == 59


def test_pencil_curve_doubly_elliptic():
    c = pencil_curve(spin_plus(8), chi=2, k_squared=-14,
                     reducible_fibres=(7, 7))
    assert c.pairing(LAMBDA) == 9
    assert c.pairing(BETA0) == 7
    assert c.pairing(ALPHA0) == 52


def test_pencil_curve_half_integer_single_fibre():
    c = pencil_curve(spin_plus(8), chi=2, k_squared=-14,
                     reducible_fibres=(7,))
    assert c.pairing(BETA0) == fr(7, 2)


def test_pencil_curve_negative_budget():
    with pytest.raises(NegativeBudgetError):
        pencil_curve(spin_plus(2), chi=1, k_squared=9,
                     reducible_fibres=(100,))


def test_pencil_curve_rejects_prym_target():
    with pytest.raises(SpaceMismatchError):
        pencil_curve(rbar(4), chi=1, k_squared=9)


def test_pencil_spec_stores_reducible_fibres_as_a_tuple():
    given = pencil_curve(spin_plus(8), chi=2, k_squared=-14,
                         reducible_fibres=[7, 7])
    as_tuple = pencil_curve(spin_plus(8), chi=2, k_squared=-14,
                            reducible_fibres=(7, 7))
    as_iterator = pencil_curve(spin_plus(8), chi=2, k_squared=-14,
                               reducible_fibres=iter([7, 7]))
    assert given.pairing(BETA0) == 7
    assert given == as_tuple == as_iterator
    assert hash(given) == hash(as_tuple)


# --- the Nikulin pencil -----------------------------------------------------

def test_xi_curve_tabulated():
    c7 = xi_curve(7)
    assert (c7.pairing(LAMBDA), c7.pairing(D0P)) == (8, 44)
    assert c7.pairing(D0RAM) == 8
    c6 = xi_curve(6)
    assert (c6.pairing(LAMBDA), c6.pairing(D0P), c6.pairing(D0PP),
            c6.pairing(D0RAM)) == (7, 38, 0, 8)


@pytest.mark.parametrize("g", range(2, 13))
def test_xi_pushforward_boundary_budget(g):
    c = xi_curve(g)
    assert c.pairing(D0P) + c.pairing(D0PP) + 2 * c.pairing(D0RAM) \
        == 6 * g + 18
    assert pushforward_to_mbar(c).pairing(DELTA0) == 6 * g + 18


def test_xi_bad_genus():
    with pytest.raises(BadGenusError):
        xi_curve(1)


# --- theta-null covering pencils --------------------------------------------

@pytest.mark.parametrize("g,lam,a0,b0", [
    (4, 4, 32, 1), (5, 10, 72, 4), (6, 12, 80, 6),
    (7, 14, 88, 8), (8, 15, 92, 8), (9, 16, 96, 8)])
def test_gamma_curve_table(g, lam, a0, b0):
    c = gamma_curve(g)
    assert c.pairing(LAMBDA) == lam
    assert c.pairing(ALPHA0) == a0
    assert c.pairing(BETA0) == b0
    assert all(c.pairing(alpha(i)) == 0 and c.pairing(beta(i)) == 0
               for i in range(1, g // 2 + 1))


def test_gamma_curve_bad_genus():
    for g in (3, 10):
        with pytest.raises(BadGenusError):
            gamma_curve(g)


@pytest.mark.parametrize("g,expected", [(4, -1), (5, -2), (6, -2), (7, -2),
                                        (8, -2), (9, -2)])
def test_gamma_theta_pairing(g, expected):
    assert pair(gamma_curve(g), theta_null(g)) == expected


# --- genus-8 special curves -------------------------------------------------

def test_r_curve_pairings():
    r = r_curve_g8()
    assert pair(r, theta_null(8)) == fr(9, 4) - fr(52, 16) == -1
    assert r.pairing(ALPHA0) + 2 * r.pairing(BETA0) == 66
    assert pair(r, pullback(brill_noether_g8(), spin_plus(8))) == 0


def test_septic_pencil_pairings():
    m = septic_pencil_curve()
    assert pair(m, brill_noether_g8()) == 8 * 22 - 3 * 59 == -1
    assert m.pairing(LAMBDA) == 8
    assert all(m.pairing(delta(i)) == 0 for i in range(1, 5))


def _count_even_quadratic_zeros(g):
    """Independent count of even theta-characteristics: zeros of the
    standard split quadratic form sum x_{2i} x_{2i+1} on F_2^{2g}."""
    count = 0
    for v in range(1 << (2 * g)):
        q = 0
        for i in range(g):
            q ^= (v >> (2 * i)) & (v >> (2 * i + 1)) & 1
        count += q == 0
    return count


def test_covering_degree_against_arf_count():
    assert covering_degree(8) == 32896
    assert _count_even_quadratic_zeros(8) == 32896
    assert _count_even_quadratic_zeros(3) == covering_degree(3) == 36


def test_btilde_pairing_with_pullback():
    lift = btilde_curve(septic_pencil_curve())
    assert lift.degree == 32896
    value = pair(lift, pullback(brill_noether_g8(), spin_plus(8)))
    assert value == -32896
    assert value < 0


def test_btilde_zero_base():
    lift = btilde_curve(curve_class(mbar(8)))
    assert pair(lift, pullback(brill_noether_g8(), spin_plus(8))) == 0


def test_btilde_rejects_higher_boundary():
    base = curve_class(mbar(8), [(delta(1), 1)])
    with pytest.raises(NonzeroHigherBoundaryError):
        btilde_curve(base)


def test_btilde_refuses_undefined_split():
    lift = btilde_curve(septic_pencil_curve())
    with pytest.raises(UndefinedSplitError):
        pair(lift, theta_null(8))  # beta_0 coeff is not twice alpha_0's


def test_btilde_starts_from_the_stable_curve_space():
    with pytest.raises(SpaceMismatchError):
        btilde_curve(xi_curve(8))


def test_btilde_pairs_only_with_pinned_classes_on_its_space():
    lift = btilde_curve(septic_pencil_curve())
    with pytest.raises(SpaceMismatchError):
        pair(lift, brill_noether_g8())
    with pytest.raises(OpaquePairingError):
        pair(lift, divisor_class(spin_plus(8), [(LAMBDA, 1)], [alpha(1)]))


def test_pushforward_keeps_a_stable_curve_class():
    c = septic_pencil_curve()
    assert pushforward_to_mbar(c) is c


# --- the pairing itself -----------------------------------------------------

@pytest.mark.parametrize("g", range(2, 13))
def test_xi_against_canonical(g):
    assert pair(xi_curve(g), canonical_class(rbar(g))) == g - 15


@pytest.mark.parametrize("i,expected", list(enumerate(
    [-1, -5, -21, -84, -330, -1287, -5005])))
def test_xi_against_prym_green(i, expected):
    assert pair(xi_curve(2 * i + 6), prym_green(i)) == expected


def test_xi6_against_nikulin_divisor():
    assert pair(xi_curve(6), prym_nikulin_g6()) == -1


def test_pair_space_mismatch():
    with pytest.raises(SpaceMismatchError):
        pair(xi_curve(6), theta_null(6))


def test_opaque_pairing_raises_never_zero():
    k = canonical_class(rbar(7))
    meets_higher = curve_class(rbar(7), [(pi_delta(1), 1)])
    with pytest.raises(OpaquePairingError):
        pair(meets_higher, k)
    # the same class is fine against a curve avoiding the opaque symbols
    assert pair(xi_curve(7), k) == -8


# --- normalization ----------------------------------------------------------

def test_curve_class_drops_explicit_zeros():
    c = CurveClass(mbar(4), {LAMBDA: 0}, "")
    assert c.pairings == {}
    assert c == curve_class(mbar(4))
    assert CurveClass(mbar(4), {LAMBDA: 2, DELTA0: fr(0, 3)}) == \
        curve_class(mbar(4), [(LAMBDA, 2)])


def test_curve_pairings_are_stored_as_fractions():
    c = CurveClass(mbar(4), {LAMBDA: 3, DELTA0: fr(1, 2)})
    assert all(type(v) is Fraction for v in c.pairings.values())
    assert c.pairings == {LAMBDA: 3, DELTA0: fr(1, 2)}


@pytest.mark.parametrize("value", [0.1, 0.5, 0.0, True, False])
def test_float_and_bool_pairings_raise(value):
    with pytest.raises(TypeError):
        CurveClass(mbar(4), {LAMBDA: value})
    with pytest.raises(TypeError):
        curve_class(mbar(4), [(LAMBDA, value)])


def test_curve_class_refuses_a_symbol_listed_twice():
    # as `divisor_class` does: the second value must not silently win
    with pytest.raises(DuplicateSymbolError):
        curve_class(mbar(4), [(LAMBDA, 1), (LAMBDA, 2)])
    with pytest.raises(DuplicateSymbolError):
        curve_class(mbar(4), [(LAMBDA, 1), (DELTA0, 3), (LAMBDA, 1)])


def test_curve_rendering():
    assert str(xi_curve(6)) == ("<curve on Rbar_6: lambda=7, delta_0'=38, "
                                "delta_0^ram=8>")
    assert str(curve_class(mbar(4))) == "<curve on Mbar_4: 0>"


# --- projection formula -----------------------------------------------------

@st.composite
def mbar_classes(draw, g=8):
    syms = list(basis_symbols(mbar(g)))
    entries = draw(st.dictionaries(
        st.sampled_from(syms),
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
        max_size=len(syms)))
    return divisor_class(mbar(g), list(entries.items()))


@st.composite
def curves_on(draw, space):
    syms = list(basis_symbols(space))
    entries = draw(st.dictionaries(
        st.sampled_from(syms),
        st.fractions(min_value=-9, max_value=9, max_denominator=2),
        max_size=len(syms)))
    return CurveClass(space, entries)


@given(curves_on(rbar(8)), mbar_classes())
def test_projection_formula_prym(c, d):
    assert pair(c, pullback(d, rbar(8))) == pair(pushforward_to_mbar(c), d)


@given(curves_on(spin_plus(8)), mbar_classes())
def test_projection_formula_spin(c, d):
    assert (pair(c, pullback(d, spin_plus(8)))
            == pair(pushforward_to_mbar(c), d))


def test_projection_formula_xi_concrete():
    d0 = divisor_class(mbar(9), [(DELTA0, 1)])
    assert pair(xi_curve(9), pullback(d0, rbar(9))) == 6 * 9 + 18


def test_pair_is_linear_in_the_genus():
    # basis membership is a set lookup, so a genus-100000 pairing with
    # its 50000 opaque boundary symbols stays far below a second
    start = time.perf_counter()
    value = pair(xi_curve(100000), canonical_class(rbar(100000)))
    assert time.perf_counter() - start < 1
    assert value == 100000 - 15


def test_pencil_curve_attaches_the_label():
    c = pencil_curve(mbar(8), 1, -19, label="septics")
    assert c.label == "septics" and c == pencil_curve(mbar(8), 1, -19)
    assert septic_pencil_curve().label == (
        "Lefschetz pencil of 7-nodal plane septics")
