"""One exactness rule at every boundary that takes a rational number: an
int or a Fraction, by exact type, passes, and anything else raises
``TypeError``; and one int rule at every boundary that takes a genus, a
count, an index, a rank or power, a lattice Gram entry, a scale or an
argument of the sum-of-squares search: a plain int passes, and anything
else raises ``TypeError``."""

from decimal import Decimal
from enum import IntEnum
from fractions import Fraction

import pytest

from spincalc._linalg import bilinear, scaled
from spincalc._record import exact
from spincalc.curves import covering_degree, pencil_curve
from spincalc.lattices import (IntegerLattice, cs_obstruction, e8,
                               hyperbolic_u, sum_square_solution_exists)
from spincalc.linecomplex import plucker_quadric_rank, symmetric_form
from spincalc.picard import (BETA0, LAMBDA, brill_noether_g8, divisor_class,
                             mbar, prym_green, spin_plus, sym_power_c1,
                             twisted_hodge_c1)
from spincalc.schubert import SchubertCycle, sigma, vq_dimension


class Small(IntEnum):
    TWO = 2


#: each boundary as a function of the one number it is given
BOUNDARIES = {
    "exact": exact,
    "scaled": lambda x: scaled([[x]]),
    "symmetric_form": lambda x: symmetric_form([[x]]),
    "divisor_class": lambda x: divisor_class(mbar(2), [(LAMBDA, x)]),
    "class_times": lambda x: brill_noether_g8() * x,
    "plucker_quadric_rank": lambda x: plucker_quadric_rank({(0, 1): x}),
    "cycle_times": lambda x: sigma(5, 1) * x,
}

#: each int-only boundary as a function of the one value it is given;
#: each takes the plain int 3, except vq_dimension, which takes 4 (a
#: projective dimension below 4 raises ``ValueError``)
INT_BOUNDARIES = {
    "schubert_n": lambda x: SchubertCycle(x, {(1, 0): 1}),
    "partition_index": lambda x: sigma(5, x),
    "cycle_coefficient": lambda x: sigma(5, 1, coefficient=x),
    "cycle_scalar": lambda x: sigma(5, 1) * x,
    "pencil_count": lambda x: pencil_curve(spin_plus(8), chi=x,
                                           k_squared=-14),
    "gram_entry": lambda x: IntegerLattice([[2, x], [x, 2]], ["a", "b"]),
    "coordinate": lambda x: hyperbolic_u().norm((1, x)),
    "scale": e8,
    "genus": mbar,
    "index_pair": lambda x: plucker_quadric_rank({(0, x): 1}),
    "slot_count": lambda x: sum_square_solution_exists(x, 3, 3),
    "search_sum": lambda x: sum_square_solution_exists(3, x, 3),
    "search_norm": lambda x: sum_square_solution_exists(3, 3, x),
    "multiple_bound": lambda x: cs_obstruction(7, x),
    "syzygy_index": prym_green,
    "twist_index": twisted_hodge_c1,
    "symmetric_rank": lambda x: sym_power_c1(brill_noether_g8(), x, 1),
    "symmetric_power": lambda x: sym_power_c1(brill_noether_g8(), 1, x),
    "covering_genus": covering_degree,
    "vq_dimension": vq_dimension,
}


@pytest.mark.parametrize("boundary", BOUNDARIES)
@pytest.mark.parametrize("x", ["1/2", Decimal("0.5"), 0.5, True, Small.TWO],
                         ids=["str", "Decimal", "float", "bool", "IntEnum"])
def test_anything_but_int_and_fraction_raises(boundary, x):
    with pytest.raises(TypeError):
        BOUNDARIES[boundary](x)


@pytest.mark.parametrize("x", [2, Fraction(1, 2)])
def test_ints_and_fractions_pass_every_boundary(x):
    value = Fraction(x)
    assert exact(x) == x and type(exact(x)) is type(x)
    assert scaled([[x]]) == ([[value.numerator]], value.denominator)
    assert symmetric_form([[x]]).gram == ((x,),)
    assert divisor_class(mbar(2), [(LAMBDA, x)]).coeff(LAMBDA) == x
    assert (brill_noether_g8() * x).coeff(LAMBDA) == 22 * x
    assert plucker_quadric_rank({(0, 1): x}) == 6


def test_cycles_take_plain_ints_only():
    # Schubert coefficients are integers, so even a Fraction is refused
    assert sigma(5, 1) * 2 == 2 * sigma(5, 1) == sigma(5, 1, coefficient=2)
    with pytest.raises(TypeError):
        sigma(5, 1) * Fraction(2)


#: each integer count or index as a function of the one value it is given;
#: these take plain ints only, so a Fraction is refused as well
COUNTS = {
    "pencil_chi": lambda x: pencil_curve(spin_plus(8), chi=x, k_squared=-14),
    "pencil_k_squared": lambda x: pencil_curve(spin_plus(8), chi=2,
                                               k_squared=x),
    "pencil_nodes_resolved": lambda x: pencil_curve(
        spin_plus(8), chi=2, k_squared=-14, nodes_resolved=x),
    "pencil_base_points": lambda x: pencil_curve(
        spin_plus(8), chi=2, k_squared=-14, base_points=x),
    "pencil_reducible_fibre": lambda x: pencil_curve(
        spin_plus(8), chi=2, k_squared=-14, reducible_fibres=(7, x)),
    "cycle_n": lambda x: SchubertCycle(x, {(1, 0): 1}),
    "cycle_first_index": lambda x: sigma(5, x),
    "cycle_second_index": lambda x: sigma(5, 2, x),
}


@pytest.mark.parametrize("boundary", COUNTS)
@pytest.mark.parametrize("x", ["1", Decimal(1), 1.0, True, Small.TWO,
                               Fraction(1)],
                         ids=["str", "Decimal", "float", "bool", "IntEnum",
                              "Fraction"])
def test_counts_and_indices_take_plain_ints_only(boundary, x):
    with pytest.raises(TypeError):
        COUNTS[boundary](x)


def test_counts_and_indices_pass_as_ints():
    for name, build in COUNTS.items():
        build(5 if name == "cycle_n" else 1)
    c = pencil_curve(spin_plus(8), chi=2, k_squared=-14, nodes_resolved=1,
                     reducible_fibres=[7, 7])
    assert c == pencil_curve(spin_plus(8), chi=2, k_squared=-14,
                             nodes_resolved=1, reducible_fibres=(7, 7))
    assert c.pairing(BETA0) == 8
    assert str(sigma(5, 1)) == "s(1,0)"
    assert SchubertCycle(5, {(1, 0): 1}) == sigma(5, 1)


@pytest.mark.parametrize("boundary", INT_BOUNDARIES)
@pytest.mark.parametrize("x", ["3", Decimal(3), 3.0, True, Small.TWO,
                               Fraction(3)],
                         ids=["str", "Decimal", "float", "bool", "IntEnum",
                              "Fraction"])
def test_int_boundaries_raise_the_int_rule(boundary, x):
    with pytest.raises(TypeError, match="must be int, not "):
        INT_BOUNDARIES[boundary](x)


def test_int_boundaries_pass_a_plain_int():
    for name, build in INT_BOUNDARIES.items():
        build(4 if name == "vq_dimension" else 3)


@pytest.mark.parametrize("x", ["7", Decimal(7), 7.0, True, Small.TWO,
                               Fraction(7)],
                         ids=["str", "Decimal", "float", "bool", "IntEnum",
                              "Fraction"])
def test_the_obstruction_genus_raises_the_int_rule(x):
    # apart from INT_BOUNDARIES, whose plain int 3 is below the genera
    # the obstruction takes
    with pytest.raises(TypeError, match="^a genus or bound must be int, "):
        cs_obstruction(x, 1)


@pytest.mark.parametrize("x", ["1/2", Decimal("0.5"), 0.5, True, Small.TWO],
                         ids=["str", "Decimal", "float", "bool", "IntEnum"])
def test_the_kernel_raises_the_text_of_exact(x):
    with pytest.raises(TypeError, match=f"^{type(x).__name__} is inexact; "
                                        f"use int or Fraction$"):
        scaled([[1, Fraction(1, 2)], [x, 2]])


@pytest.mark.parametrize("x", [Decimal("0.5"), 0.5])
def test_bilinear_raises_the_text_of_exact(x):
    # only a total that is not exact is seen: a bool times an int is an int
    with pytest.raises(TypeError, match=f"^{type(x).__name__} is inexact; "
                                        f"use int or Fraction$"):
        bilinear([[1, 0], [0, 1]], [x, 1], [1, 1])
