"""Divisor-class arithmetic, pullbacks, named classes and slope."""

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spincalc.picard import (ALPHA0, BETA0, D0P, D0PP, D0RAM, DELTA0, LAMBDA,
                             BadParamError, DivisorClass, DuplicateSymbolError,
                             ModuliSpace,
                             OpaqueCoefficientError, SpaceMismatchError,
                             UnknownSymbolError, ZeroDenominatorError, alpha,
                             basis_symbols, beta, brill_noether_g8,
                             boundary, canonical_class, delta,
                             divisor_class, format_class, higher_boundary,
                             mbar, named_divisor,
                             non_very_ample_g5, pi_delta, prym_green,
                             prym_nikulin_g6, pullback, pullback_to_spin,
                             rbar, slope, spin_plus, sym_power_c1,
                             theta_null, twisted_hodge_c1)


def fr(a, b=1):
    return Fraction(a, b)


# --- construction -----------------------------------------------------------

def test_bn8_entries():
    d = brill_noether_g8()
    assert d.coeff(LAMBDA) == 22
    assert d.coeff(DELTA0) == -3
    assert [d.coeff(delta(i)) for i in range(1, 5)] == [-14, -24, -30, -32]
    assert not d.opaque


def test_zero_class_from_empty_entries():
    assert divisor_class(rbar(6)).is_zero()


def test_constructor_echo_with_opaque():
    d = divisor_class(spin_plus(8), [(LAMBDA, 1)], {ALPHA0})
    assert d.coeff(LAMBDA) == 1
    assert d.is_opaque(ALPHA0)
    with pytest.raises(OpaqueCoefficientError):
        d.coeff(ALPHA0)


def test_zero_coefficients_dropped():
    d = divisor_class(mbar(8), [(LAMBDA, 0), (DELTA0, 1)])
    assert LAMBDA not in d.coeffs


def test_explicit_zero_is_not_stored():
    d = DivisorClass(mbar(4), {LAMBDA: 0})
    assert d.coeffs == {}
    assert d.is_zero()
    assert d == divisor_class(mbar(4))
    assert DivisorClass(mbar(4), {LAMBDA: 2, DELTA0: fr(0, 3)}) == \
        divisor_class(mbar(4), [(LAMBDA, 2)])


def test_coefficients_are_stored_as_fractions():
    d = DivisorClass(mbar(4), {LAMBDA: 3})
    assert type(d.coeffs[LAMBDA]) is Fraction
    assert type((2 * d).coeffs[LAMBDA]) is Fraction


@pytest.mark.parametrize("value", [0.5, 0.0, True, False])
def test_float_and_bool_coefficients_raise(value):
    with pytest.raises(TypeError):
        DivisorClass(mbar(4), {LAMBDA: value})
    with pytest.raises(TypeError):
        divisor_class(mbar(4), [(LAMBDA, value)])


@pytest.mark.parametrize("scalar", [0.1, 2.0, True])
def test_float_and_bool_scalars_raise(scalar):
    with pytest.raises(TypeError):
        scalar * theta_null(8)
    with pytest.raises(TypeError):
        theta_null(8) * scalar


def test_unknown_and_duplicate_symbols():
    with pytest.raises(UnknownSymbolError):
        divisor_class(mbar(8), [(D0RAM, 1)])
    with pytest.raises(UnknownSymbolError):
        divisor_class(mbar(4), [(delta(3), 1)])  # delta_3 needs genus >= 6
    with pytest.raises(DuplicateSymbolError):
        divisor_class(mbar(8), [(LAMBDA, 1), (LAMBDA, 2)])
    with pytest.raises(DuplicateSymbolError):
        divisor_class(mbar(8), [(LAMBDA, 1)], {LAMBDA})


def test_basis_sizes():
    assert len(basis_symbols(mbar(8))) == 6
    assert len(basis_symbols(rbar(8))) == 8
    assert len(basis_symbols(spin_plus(8))) == 11


def test_boundary_symbols_by_index():
    assert boundary(rbar(7), 0) == (D0P, D0PP, D0RAM)
    assert boundary(rbar(7), 2) == (pi_delta(2),)
    assert boundary(spin_plus(7), 0) == (ALPHA0, BETA0)
    assert higher_boundary(mbar(7)) == (delta(1), delta(2), delta(3))
    assert higher_boundary(spin_plus(5)) == (alpha(1), beta(1), alpha(2),
                                             beta(2))
    for space in (mbar(9), rbar(9), spin_plus(9)):
        assert basis_symbols(space) == (LAMBDA, *boundary(space, 0),
                                        *higher_boundary(space))


def test_a_float_genus_is_refused():
    # mbar(8.0) used to print as Mbar_8.0 and compare equal to mbar(8)
    with pytest.raises(TypeError, match="genus must be int, not float"):
        mbar(8.0)
    with pytest.raises(TypeError, match="genus must be int, not float"):
        ModuliSpace("mbar", 2.5)


@pytest.mark.parametrize("warm", [False, True])
def test_a_float_genus_is_refused_whatever_the_cache_holds(warm):
    # basis_symbols(mbar(9.0)) used to raise on a cold cache and to return
    # the basis of mbar(9) once that was cached
    if warm:
        basis_symbols(mbar(9))
    else:
        basis_symbols.cache_clear()
    with pytest.raises(TypeError, match="genus must be int"):
        basis_symbols(mbar(9.0))


# --- add / scale ------------------------------------------------------------

def test_add_linearity():
    two = divisor_class(mbar(8), [(LAMBDA, 2)])
    three = divisor_class(mbar(8), [(LAMBDA, 3)])
    assert (two + three).coeff(LAMBDA) == 5


def test_scale_theta_null_by_8():
    d = 8 * theta_null(9)
    assert d.coeff(LAMBDA) == 2
    assert d.coeff(ALPHA0) == fr(-1, 2)
    assert all(d.coeff(beta(i)) == -4 for i in range(1, 5))
    assert all(d.coeff(alpha(i)) == 0 for i in range(1, 5))


def test_opacity_absorbs_under_add():
    a = divisor_class(rbar(6), [], {D0PP})
    b = divisor_class(rbar(6), [(D0PP, 1)])
    assert (a + b).is_opaque(D0PP)
    assert (b + a).is_opaque(D0PP)


def test_scale_by_zero_clears_opacity():
    a = divisor_class(rbar(6), [(LAMBDA, 3)], {D0PP})
    assert (0 * a).is_zero()


def test_add_space_mismatch():
    with pytest.raises(SpaceMismatchError):
        divisor_class(mbar(8), [(LAMBDA, 1)]) + \
            divisor_class(mbar(7), [(LAMBDA, 1)])


def test_negation_and_sums_with_non_classes():
    d = brill_noether_g8()
    assert -d == (-1) * d and (-d).coeff(LAMBDA) == -22
    assert (d + -d).is_zero()
    with pytest.raises(TypeError):
        d + 1


# --- pullbacks --------------------------------------------------------------

def test_pullback_to_prym_delta0():
    d = pullback(divisor_class(mbar(8), [(DELTA0, 1)]), rbar(8))
    assert (d.coeff(D0P), d.coeff(D0PP), d.coeff(D0RAM)) == (1, 1, 2)


def test_pullback_to_prym_lambda_and_linearity():
    d = pullback(divisor_class(mbar(8), [(LAMBDA, 22), (DELTA0, -3)]),
                 rbar(8))
    assert d.coeff(LAMBDA) == 22
    assert d.coeff(D0P) == -3
    assert d.coeff(D0PP) == -3
    assert d.coeff(D0RAM) == -6


def test_pullback_to_spin_delta0():
    d = pullback_to_spin(divisor_class(mbar(8), [(DELTA0, 1)]))
    assert (d.coeff(ALPHA0), d.coeff(BETA0)) == (1, 2)


def test_pullback_to_spin_half_bn8():
    d = pullback_to_spin(fr(1, 2) * brill_noether_g8())
    assert d.coeff(LAMBDA) == 11
    assert d.coeff(ALPHA0) == fr(-3, 2)
    assert d.coeff(BETA0) == -3
    expected = {1: -7, 2: -12, 3: -15, 4: -16}
    for i, v in expected.items():
        assert d.coeff(alpha(i)) == v
        assert d.coeff(beta(i)) == v


def test_pullback_of_zero_is_zero():
    assert pullback_to_spin(divisor_class(mbar(8))).is_zero()


def test_pullback_maps_opaque_to_opaque():
    d = pullback(divisor_class(mbar(8), [], {DELTA0, delta(1)}), rbar(8))
    assert d.is_opaque(D0P) and d.is_opaque(D0PP) and d.is_opaque(D0RAM)
    assert d.is_opaque(pi_delta(1))
    s = pullback_to_spin(divisor_class(mbar(8), [], {delta(2)}))
    assert s.is_opaque(alpha(2)) and s.is_opaque(beta(2))


def test_pullback_space_mismatch():
    with pytest.raises(SpaceMismatchError):
        pullback(theta_null(8), rbar(8))


def test_pullback_to_a_target_space_matches_the_named_pullbacks():
    bn = brill_noether_g8()
    assert pullback(bn, spin_plus(8)) == pullback_to_spin(bn)
    with pytest.raises(SpaceMismatchError):
        pullback(bn, mbar(8))


@st.composite
def mbar_pinned_classes(draw, g=8):
    syms = list(basis_symbols(mbar(g)))
    entries = draw(st.dictionaries(
        st.sampled_from(syms),
        st.fractions(min_value=-10, max_value=10, max_denominator=8),
        max_size=len(syms)))
    return divisor_class(mbar(g), list(entries.items()))


@given(mbar_pinned_classes(), mbar_pinned_classes(),
       st.fractions(min_value=-5, max_value=5, max_denominator=4))
def test_pullbacks_commute_with_linear_combinations(a, b, c):
    for target in (rbar(8), spin_plus(8)):
        assert pullback(a + c * b, target) == \
            pullback(a, target) + c * pullback(b, target)


# --- canonical classes ------------------------------------------------------

def test_canonical_spin_g8():
    k = canonical_class(spin_plus(8))
    assert k.coeff(LAMBDA) == 13
    assert k.coeff(ALPHA0) == -2
    assert k.coeff(BETA0) == -3
    assert k.coeff(alpha(1)) == k.coeff(beta(1)) == -3
    for i in (2, 3, 4):
        assert k.coeff(alpha(i)) == k.coeff(beta(i)) == -2
    assert not k.opaque


def test_canonical_rbar():
    k = canonical_class(rbar(7))
    assert k.coeff(LAMBDA) == 13
    assert k.coeff(D0P) == k.coeff(D0PP) == -2
    assert k.coeff(D0RAM) == -3
    assert all(k.is_opaque(pi_delta(i)) for i in range(1, 4))


def test_canonical_mbar():
    k = canonical_class(mbar(8))
    assert k.coeff(LAMBDA) == 13
    assert k.coeff(DELTA0) == -2
    assert all(k.is_opaque(delta(i)) for i in range(1, 5))


# --- named divisors ---------------------------------------------------------

def test_theta_null_coefficients():
    t = theta_null(8)
    assert t.coeff(LAMBDA) == fr(1, 4)
    assert t.coeff(ALPHA0) == fr(-1, 16)
    assert all(t.coeff(beta(i)) == fr(-1, 2) for i in range(1, 5))
    assert t.coeff(BETA0) == 0
    assert not t.opaque


def test_prym_green_formula():
    u = prym_green(1)  # genus 8, factor C(4,1) = 4
    assert u.space == rbar(8)
    assert u.coeff(LAMBDA) == 4 * fr(27, 4)
    assert u.coeff(D0RAM) == 4 * fr(-3, 2)
    assert u.coeff(D0P) == -4
    assert u.is_opaque(D0PP)
    assert all(u.is_opaque(pi_delta(j)) for j in range(1, 5))


def test_prym_green_0_matches_nikulin_on_shared_pins():
    u = prym_green(0)
    n = prym_nikulin_g6()
    for sym in basis_symbols(rbar(6)):
        if not u.is_opaque(sym) and not n.is_opaque(sym):
            assert u.coeff(sym) == n.coeff(sym)
    assert u.coeff(LAMBDA) == 7
    assert u.coeff(D0RAM) == fr(-3, 2)
    assert u.coeff(D0P) == -1


def test_hodge_c1_small_index():
    e1 = twisted_hodge_c1(1)
    assert e1.coeff(LAMBDA) == 1
    assert e1.coeff(D0RAM) == fr(-1, 4)
    assert e1.coeff(D0P) == e1.coeff(D0PP) == 0


def test_hodge_c1_third():
    e3 = twisted_hodge_c1(3)
    assert e3.coeff(LAMBDA) == 37
    assert e3.coeff(D0P) == e3.coeff(D0PP) == -3
    assert e3.coeff(D0RAM) == fr(-33, 4)


def test_non_very_ample_class():
    d2 = non_very_ample_g5()
    assert d2.coeff(LAMBDA) == 14
    assert d2.coeff(D0P) == d2.coeff(D0PP) == -2
    assert d2.coeff(D0RAM) == fr(-5, 2)


# --- symmetric powers -------------------------------------------------------

def _sym_power_factor_oracle(rank, power):
    """Brute force with formal Chern roots: the Sym^power of a split
    bundle has one root per multiset, and c1 collects each root as often
    as it appears across all multisets."""
    counts = [0] * rank
    for multiset in combinations_with_replacement(range(rank), power):
        for i in multiset:
            counts[i] += 1
    assert len(set(counts)) == 1
    return Fraction(counts[0])


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("power", [1, 2, 3, 4])
def test_sym_power_factor_against_root_enumeration(rank, power):
    formula = Fraction(power * comb(rank + power - 1, power), rank)
    assert formula == _sym_power_factor_oracle(rank, power)


def test_sym_power_c1_examples():
    c1 = twisted_hodge_c1(1)
    assert sym_power_c1(c1, rank=4, power=3) == 15 * c1
    assert sym_power_c1(c1, rank=7, power=1) == c1


def test_d1_minus_d2_pinned_part():
    d1 = twisted_hodge_c1(3) - sym_power_c1(twisted_hodge_c1(1), 4, 3)
    diff = d1 - non_very_ample_g5()
    assert diff.coeff(LAMBDA) == 8
    assert diff.coeff(D0P) == diff.coeff(D0PP) == -1
    assert diff.coeff(D0RAM) == -2
    assert all(diff.is_opaque(pi_delta(j)) for j in (1, 2))


# --- slope ------------------------------------------------------------------

def test_slope_examples():
    assert slope(brill_noether_g8()) == fr(22, 3)
    assert slope(divisor_class(mbar(10),
                               [(LAMBDA, 7), (DELTA0, -1)])) == 7
    assert slope(canonical_class(mbar(8))) == fr(13, 2)


def test_slope_errors():
    with pytest.raises(ZeroDenominatorError):
        slope(divisor_class(mbar(8), [(LAMBDA, 1)]))
    with pytest.raises(OpaqueCoefficientError):
        slope(divisor_class(mbar(8), [(LAMBDA, 1)], {DELTA0}))
    with pytest.raises(SpaceMismatchError):
        slope(prym_nikulin_g6())


# --- named dispatch and rendering -------------------------------------------

def test_named_divisor_dispatch():
    assert named_divisor("bn8", mbar(8)) == brill_noether_g8()
    assert named_divisor("theta_null", spin_plus(6)) == theta_null(6)
    assert named_divisor("prym_green", rbar(10), param=2) == prym_green(2)
    assert named_divisor("prym_green", rbar(10)) == prym_green(2)
    assert named_divisor("canonical", rbar(7)) == canonical_class(rbar(7))


def test_named_divisor_bad_params():
    with pytest.raises(BadParamError):
        named_divisor("prym_green", rbar(3))
    with pytest.raises(BadParamError):
        named_divisor("prym_green", rbar(8), param=3)
    with pytest.raises(BadParamError):
        named_divisor("bn8", mbar(7))
    with pytest.raises(BadParamError):
        named_divisor("nikulin_N6", mbar(6))
    with pytest.raises(BadParamError):
        named_divisor("no_such_class", mbar(8))


@pytest.mark.parametrize("name, where", [
    ("bn8", {"space": mbar(8)}), ("nikulin_N6", {"space": rbar(6)}),
    ("canonical", {"space": mbar(8)}), ("theta_null", {"space": spin_plus(8)}),
    ("no_such_class", {"space": mbar(8)})])
def test_named_divisor_refuses_a_param_the_name_does_not_take(name, where):
    with pytest.raises(BadParamError, match="takes no index parameter"):
        named_divisor(name, param=3, **where)


def test_named_divisor_hodge_c1_defaults_to_genus_five():
    # the default genus of `twisted_hodge_c1`; `named_divisor` names it
    assert named_divisor("hodge_c1", rbar(5), param=3) == twisted_hodge_c1(3)
    assert twisted_hodge_c1(3).space == rbar(5)
    assert named_divisor("hodge_c1", rbar(7), param=3) == \
        twisted_hodge_c1(3, 7)


def test_named_divisor_needs_a_consistent_home():
    with pytest.raises(TypeError):
        named_divisor("theta_null")
    with pytest.raises(TypeError):
        named_divisor("canonical")
    with pytest.raises(BadParamError, match="bn8 lives on Mbar_8, not Mbar_7"):
        named_divisor("bn8", mbar(7))
    with pytest.raises(BadParamError, match=r"lives on Sbar\+_8, not Mbar_8"):
        named_divisor("theta_null", mbar(8))


def test_named_divisor_prym_green_param_must_be_the_genus_index():
    assert named_divisor("prym_green", rbar(6), param=0) == prym_green(0)
    for space, param in ((rbar(8), 2), (rbar(8), 0), (rbar(7), 0)):
        with pytest.raises(BadParamError, match=r"needs genus = 2i\+6"):
            named_divisor("prym_green", space, param=param)
    with pytest.raises(BadParamError, match=r"needs genus 2i\+6"):
        named_divisor("prym_green", rbar(4), param=-1)
    with pytest.raises(TypeError, match="must be int, not bool"):
        named_divisor("prym_green", rbar(8), param=True)


def test_bad_spaces_and_parameters_raise():
    with pytest.raises(ValueError, match="unknown moduli-space kind"):
        ModuliSpace("x", 3)
    with pytest.raises(BadParamError):
        prym_green(-1)
    with pytest.raises(BadParamError):
        sym_power_c1(twisted_hodge_c1(1), 0, 1)


def test_format_class_signs_magnitudes_and_opaque_terms():
    assert format_class(divisor_class(mbar(4), [(LAMBDA, -1), (DELTA0, 2)])) \
        == "-lambda + 2*delta_0"
    assert format_class(divisor_class(mbar(4), [(DELTA0, fr(-3, 2))])) \
        == "-3/2*delta_0"
    assert format_class(divisor_class(mbar(4), [(LAMBDA, 0)])) == "0"
    assert format_class(divisor_class(mbar(4), [(DELTA0, fr(-1, 2))],
                                      {LAMBDA})) == "?*lambda - 1/2*delta_0"


def test_format_class():
    assert format_class(brill_noether_g8()) == \
        "22*lambda - 3*delta_0 - 14*delta_1 - 24*delta_2 - 30*delta_3 " \
        "- 32*delta_4"
    assert format_class(divisor_class(mbar(8))) == "0"
    assert format_class(prym_nikulin_g6()) == \
        "7*lambda - delta_0' - delta_0'' - 3/2*delta_0^ram " \
        "+ ?*pi_delta_1 + ?*pi_delta_2 + ?*pi_delta_3"
