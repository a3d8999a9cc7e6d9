"""One exactness rule at every boundary that takes a rational number: an
int or a Fraction, by exact type, passes, and anything else raises
``TypeError``."""

from decimal import Decimal
from enum import IntEnum
from fractions import Fraction

import pytest

from spincalc._linalg import scaled
from spincalc._record import exact
from spincalc.linecomplex import plucker_quadric_rank, symmetric_form
from spincalc.picard import LAMBDA, brill_noether_g8, divisor_class, mbar
from spincalc.schubert import sigma


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
