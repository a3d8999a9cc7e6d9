"""The value types: slotted, read-only, compared and hashed by value."""

import copy
import pickle
from fractions import Fraction

import pytest

from spincalc import checks, curves, kodaira, lattices, linecomplex, picard
from spincalc.schubert import SchubertCycle, sigma

#: one instance of every value type, built twice by the same call
BUILDERS = {
    "ModuliSpace": lambda: picard.mbar(8),
    "DivisorClass": lambda: picard.theta_null(8),
    "CurveClass": lambda: curves.xi_curve(6),
    "LiftedSpinCurve": lambda: curves.btilde_curve(
        curves.septic_pencil_curve()),
    "IntegerLattice": lambda: lattices.lambda_lattice(7),
    "CsEntry": lambda: lattices.cs_obstruction(7, 2)[0],
    "SchubertCycle": lambda: sigma(5, 2, 1, 4),
    "SymmetricForm": lambda: linecomplex.symmetric_form([[1, 2], [2, 0]]),
    "CheckRecord": lambda: checks.CheckRecord("id", "claim", "1", "1",
                                              "pass", note="n"),
    "Report": lambda: checks.Report((), 1729),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_value_type_is_slotted_read_only_and_hashable(name):
    value, twin = BUILDERS[name](), BUILDERS[name]()
    assert type(value).__name__ == name
    assert not hasattr(value, "__dict__")
    field = type(value).__slots__[0]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) is before
    assert value == twin and not value != twin
    assert hash(value) == hash(twin)
    assert len({value, twin}) == 1
    assert value != object()
    assert repr(value).startswith(f"{name}(")
    for copied in (copy.copy(value), copy.deepcopy(value),
                   pickle.loads(pickle.dumps(value))):
        assert type(copied) is type(value) and copied == value


def test_equality_needs_the_same_class():
    assert picard.mbar(8) != picard.spin_plus(8)
    assert picard.mbar(8) != ("mbar", 8)
    assert picard.divisor_class(picard.mbar(4)) != curves.curve_class(
        picard.mbar(4))


def test_constructors_keep_keywords_and_defaults():
    check = checks.Check(id="i", citation="c")
    assert (check.run, check.note) == (None, None)
    assert checks.CheckRecord("i", "c", "1", "1", "pass").note is None
    assert picard.DivisorClass(picard.mbar(4), {}).opaque == frozenset()
    with pytest.raises(TypeError):
        picard.ModuliSpace("mbar")


def test_mappings_are_read_only():
    d = picard.theta_null(8)
    with pytest.raises(TypeError):
        d.coeffs["lambda"] = 99
    with pytest.raises(TypeError):
        del d.coeffs["lambda"]
    assert d.coeffs["lambda"] == Fraction(1, 4)
    assert d.coeffs.get("delta_0") is None
    assert dict(d.coeffs.items())["alpha_0"] == Fraction(-1, 16)
    with pytest.raises(TypeError):
        curves.xi_curve(6).pairings["lambda"] = 0
    with pytest.raises(TypeError):
        sigma(5, 1).terms[(1, 0)] = 2
    with pytest.raises(TypeError):
        kodaira.canonical_decomposition_g8().coeffs["alpha_1"] = 0


def test_stored_mappings_are_copies():
    given = {picard.LAMBDA: 1}
    d = picard.DivisorClass(picard.mbar(4), given)
    terms = {(1, 0): 1}
    c = SchubertCycle(5, terms)
    given[picard.LAMBDA] = 2
    terms[(1, 0)] = 5
    assert d.coeff(picard.LAMBDA) == 1
    assert c == sigma(5, 1)


def test_equal_classes_built_differently_hash_equal():
    theta = picard.theta_null(8)
    rebuilt = (theta + theta) - theta
    assert rebuilt == theta and hash(rebuilt) == hash(theta)
    assert {theta, rebuilt, 2 * theta} == {theta, 2 * theta}
    k = picard.canonical_class(picard.spin_plus(8))
    assert {k: "K"}[picard.named_divisor("canonical",
                                         picard.spin_plus(8))] == "K"


def test_curve_equality_and_hash_ignore_the_label():
    a = curves.curve_class(picard.mbar(4), [("lambda", 1)], label="a")
    b = curves.curve_class(picard.mbar(4), [("lambda", 1)], label="b")
    assert a == b and hash(a) == hash(b)
    lift_a, lift_b = (curves.LiftedSpinCurve(curves.septic_pencil_curve(),
                                             label=x) for x in "ab")
    assert lift_a == lift_b and hash(lift_a) == hash(lift_b)
