"""Two-row Schubert calculus on G(2, n)."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spincalc.schubert import (AmbientMismatchError, MixedCodimensionError,
                               SchubertCycle, catalan_degree, degree,
                               grassmannian_degree, multiply, pieri, sigma,
                               vq_dimension)


# --- Pieri ------------------------------------------------------------------

def test_pieri_on_unit():
    assert pieri(sigma(5, 0, 0)) == sigma(5, 1)


def test_pieri_middle_class():
    assert pieri(sigma(5, 2, 1)) == sigma(5, 3, 1) + sigma(5, 2, 2)


def test_pieri_kills_top_class():
    assert pieri(sigma(5, 3, 3)).is_zero()


# --- multiplication ---------------------------------------------------------

def test_square_of_sigma1():
    assert multiply(sigma(5, 1), sigma(5, 1)) == sigma(5, 2) + sigma(5, 1, 1)


def test_cycle_operators():
    assert sigma(5, 1) * sigma(5, 1) == multiply(sigma(5, 1), sigma(5, 1))
    with pytest.raises(TypeError):
        sigma(5, 1) + 1
    with pytest.raises(AmbientMismatchError):
        sigma(5, 1) + sigma(6, 1)


def test_square_of_sigma11():
    prod = multiply(sigma(5, 1, 1), sigma(5, 1, 1))
    assert prod == sigma(5, 2, 2)
    # dual-pairing oracle: the product must integrate to 1 against the
    # complementary power of the hyperplane class
    assert degree(prod) == 1


def test_unit_is_neutral():
    c = sigma(6, 3, 1, 5) + sigma(6, 2, 2, -2)
    assert multiply(c, sigma(6, 0, 0)) == c


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatchError):
        multiply(sigma(5, 1), sigma(6, 1))


@pytest.mark.parametrize("n", [5, 6, 7])
def test_giambelli_recursion(n):
    # sigma_{a,b} = sigma_a * sigma_b - sigma_{a+1} * sigma_{b-1}
    for a in range(1, n - 1):
        for b in range(1, a + 1):
            lhs = sigma(n, a, b)
            rhs = multiply(sigma(n, a), sigma(n, b))
            if a + 1 <= n - 2:
                rhs = rhs + (-1) * multiply(sigma(n, a + 1), sigma(n, b - 1))
            assert lhs == rhs, (n, a, b)


@st.composite
def cycles(draw, n=None):
    n = n if n is not None else draw(st.integers(4, 8))
    parts = [(a, b) for a in range(n - 1) for b in range(a + 1)]
    terms = draw(st.dictionaries(st.sampled_from(parts),
                                 st.integers(-3, 3), max_size=4))
    return SchubertCycle(n, {p: c for p, c in terms.items() if c})


@st.composite
def cycle_triples(draw):
    n = draw(st.integers(4, 8))
    return (draw(cycles(n)), draw(cycles(n)), draw(cycles(n)))


@given(cycle_triples())
def test_commutative_and_associative(triple):
    a, b, c = triple
    assert multiply(a, b) == multiply(b, a)
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@given(cycles(), st.integers(0, 4))
def test_iterated_pieri_is_sigma1_power(c, k):
    by_pieri = c
    for _ in range(k):
        by_pieri = pieri(by_pieri)
    power = sigma(c.n, 0, 0)
    for _ in range(k):
        power = multiply(power, sigma(c.n, 1))
    assert by_pieri == multiply(c, power)


# --- degrees ----------------------------------------------------------------

def test_quadric_line_locus_degree():
    assert degree(sigma(5, 2, 1, 4)) == 8


@pytest.mark.parametrize("n,expected", [(4, 2), (5, 5), (6, 14), (7, 42),
                                        (8, 132)])
def test_grassmannian_degree_closed_form(n, expected):
    assert grassmannian_degree(n) == expected
    assert catalan_degree(n) == expected


def test_degree_of_zero_cycle():
    assert degree(SchubertCycle(5, {})) == 0


def test_degree_rejects_mixed_codimension():
    with pytest.raises(MixedCodimensionError):
        degree(sigma(5, 1) + sigma(5, 2))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_poincare_duality(n):
    # pairing sigma_{a,b} with the dual of an equal-codimension partition
    # extracts the coefficient: 1 on the partition itself, 0 otherwise
    top = n - 2
    for a in range(top + 1):
        for b in range(a + 1):
            c = sigma(n, a, b)
            for c2 in range(top + 1):
                for d2 in range(c2 + 1):
                    if c2 + d2 != a + b:
                        continue
                    dual = sigma(n, top - d2, top - c2)
                    got = degree(multiply(c, dual))
                    want = int((a, b) == (c2, d2))
                    assert got == want, (n, a, b, c2, d2)


# --- dimension bookkeeping --------------------------------------------------

def test_vq_dimension():
    assert vq_dimension(4) == 3
    assert vq_dimension(5) == 5
    # codimension of the line locus inside G(2,5) is 3: one for the
    # complex hypersurface, two for its singular locus
    assert 2 * (5 - 2) - vq_dimension(4) == 3
    with pytest.raises(ValueError):
        vq_dimension(3)


def test_cycle_validation():
    with pytest.raises(ValueError):
        SchubertCycle(5, {(4, 0): 1})  # outside the box
    with pytest.raises(ValueError):
        SchubertCycle(5, {(1, 2): 1})  # not a partition


def test_explicit_zero_coefficient_is_not_stored():
    zero = SchubertCycle(5, {(1, 0): 0})
    assert zero.is_zero()
    assert zero.terms == {}
    assert zero == sigma(5, 1, 0, coefficient=0) == SchubertCycle(5, {})
    assert hash(zero) == hash(SchubertCycle(5, {}))
    assert SchubertCycle(5, {(1, 0): 2, (2, 0): 0}) == sigma(5, 1, 0, 2)


@pytest.mark.parametrize("value", [True, False, 1.0, 0.5, Fraction(1)])
def test_non_int_coefficients_raise(value):
    with pytest.raises(TypeError):
        SchubertCycle(5, {(1, 0): value})
    with pytest.raises(TypeError):
        sigma(5, 1, 0, coefficient=value)


@pytest.mark.parametrize("scalar", [0.5, 2.0, True, False])
def test_non_int_scalars_raise(scalar):
    with pytest.raises(TypeError):
        scalar * sigma(5, 1, 0)
    with pytest.raises(TypeError):
        sigma(5, 1, 0) * scalar


def test_cycle_rendering():
    assert str(SchubertCycle(5, {(1, 0): -1, (2, 0): 3})) \
        == "-s(1,0) + 3*s(2,0)"
    assert str(sigma(5, 2, 1, coefficient=-4)) == "-4*s(2,1)"
    assert str(SchubertCycle(5, {(1, 1): 2, (2, 0): -1})) \
        == "2*s(1,1) - s(2,0)"
    assert str(SchubertCycle(5, {})) == "0"
    assert str(sigma(5, 1) * 0) == "0"


def test_int_scalars_scale():
    assert 3 * sigma(5, 2, 1) == sigma(5, 2, 1, coefficient=3)
    assert sigma(5, 2, 1) * -2 == sigma(5, 2, 1, coefficient=-2)
    assert (0 * sigma(5, 2, 1)).is_zero()
