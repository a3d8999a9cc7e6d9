"""One exactness rule at every boundary that takes a rational number: an
int or a Fraction, by exact type, passes, and anything else raises
``TypeError``; and one int rule at every boundary that takes a genus, a
count, an index, a rank or power, a lattice Gram entry, a scale, a seed
or an argument of the sum-of-squares search: a plain int passes, and
anything else raises ``TypeError``."""

import importlib
import inspect
import random
import re
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction

import pytest

from spincalc._linalg import scaled
from spincalc._record import exact
from spincalc.checks import verify_all
from spincalc.curves import (covering_degree, gamma_curve, noether_c2,
                             pencil_curve, xi_curve)
from spincalc.lattices import (IntegerLattice, cs_obstruction, e8,
                               hyperbolic_u, lambda_lattice,
                               sum_square_solution_exists)
from spincalc.linecomplex import (complex_point_samples,
                                  compound_rank_samples,
                                  discriminant_tangency, is_singular_point,
                                  plucker_quadric_rank,
                                  random_invertible_matrix,
                                  random_symmetric_form_of_rank,
                                  symmetric_form, tangency, tangency_samples,
                                  wedge_pairs)
from spincalc.picard import (BETA0, LAMBDA, alpha, beta, brill_noether_g8,
                             delta, divisor_class, mbar, pi_delta, prym_green,
                             rbar, spin_plus, sym_power_c1, theta_null,
                             twisted_hodge_c1)
from spincalc.schubert import (SchubertCycle, catalan_degree, sigma,
                               vq_dimension)


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
#: each takes the plain int 3, except vq_dimension and gamma_genus, which
#: take 4 (a projective dimension below 4 raises ``ValueError``, and the
#: theta-null covering pencils start at genus 4)
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
    "lattice_genus": lambda_lattice,
    "delta_index": delta,
    "pi_delta_index": pi_delta,
    "alpha_index": alpha,
    "beta_index": beta,
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
    "theta_null_genus": theta_null,
    "catalan_n": catalan_degree,
    "xi_genus": xi_curve,
    "gamma_genus": gamma_curve,
    "noether_chi": lambda x: noether_c2(x, 9),
    "noether_k_squared": lambda x: noether_c2(1, x),
    "invertible_dim": lambda x: random_invertible_matrix(random.Random(0), x),
    "form_dim": lambda x: random_symmetric_form_of_rank(random.Random(0), x,
                                                        1),
    "form_rank": lambda x: random_symmetric_form_of_rank(random.Random(0), 5,
                                                         x),
    # a sampler is a generator, so it may raise at its first draw
    "tangency_count": lambda x: next(tangency_samples(random.Random(0), x)),
    "complex_point_count": lambda x: next(
        complex_point_samples(random.Random(0), x)),
    "compound_count": lambda x: next(
        compound_rank_samples(random.Random(0), x)),
    "seed": lambda x: verify_all(x, quick=True),
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
        build(4 if name in ("vq_dimension", "gamma_genus") else 3)


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


# --- the entry points of the products ----------------------------------------

GRAM = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
FORM, LATTICE = symmetric_form(GRAM), IntegerLattice(GRAM, "abc")
U, V = (1, 0, 0), (0, 0, 1)  # [U] is on the quadric, and U ^ V is tangent

FORM_LENGTH = "u, the rows of G and v differ in length"
EXACT = "{kind} is inexact; use int or Fraction"

#: every public entry point whose vectors reach `dot`, `mat_vec`,
#: `bilinear` or `_wedge`: the call on (U, V), the operand it is given a
#: fault in, the text of a wrong length (n) and the text of an inexact
#: entry (kind).  `second_compound` wedges the rows of a built form, and
#: `transform_bivector` the columns of a matrix it checks itself (see
#: tests/test_linecomplex.py)
ENTRY_POINTS = {
    "evaluate-u": (FORM.evaluate, 0, FORM_LENGTH, EXACT),
    "evaluate-v": (FORM.evaluate, 1, FORM_LENGTH, EXACT),
    "quadratic": (lambda u, v: FORM.quadratic(u), 0, FORM_LENGTH, EXACT),
    **{f"{p.__name__}-{name}": (
        lambda u, v, p=p: p(FORM, u, v), slot,
        ("vector length must match the form dimension",
         "the two vectors must have the same length")[slot], EXACT)
       for p in (tangency, discriminant_tangency, is_singular_point)
       for slot, name in enumerate("uv")},
    **{name: (call, slot, "vector of length {n} in a rank-3 lattice",
              "a lattice coordinate must be int, not {kind}")
       for name, call, slot in (("inner-v", LATTICE.inner, 0),
                                ("inner-w", LATTICE.inner, 1),
                                ("norm", lambda v, w: LATTICE.norm(v), 0))},
}


@pytest.mark.parametrize("fault", ["short", "long", 0.5, Decimal("0.5")],
                         ids=["short", "long", "float", "Decimal"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_of_a_product_checks_its_operands(entry, fault):
    call, slot, wrong_length, inexact = ENTRY_POINTS[entry]
    call(U, V)  # the fault below is all that is wrong
    args = [U, V]
    x = args[slot]
    if fault == "short":
        args[slot] = x[:-1]
    elif fault == "long":
        args[slot] = x + (0,)
    else:
        args[slot] = x[:-1] + (fault,)
    if isinstance(fault, str):
        error, text = ValueError, wrong_length.format(n=len(args[slot]))
    else:
        error, text = TypeError, inexact.format(kind=type(fault).__name__)
    with pytest.raises(error, match=f"^{re.escape(text)}$"):
        call(*args)


@pytest.mark.parametrize("build", [symmetric_form,
                                   lambda g: IntegerLattice(g, "abc")],
                         ids=["SymmetricForm", "IntegerLattice"])
def test_a_ragged_gram_is_refused_where_it_enters(build):
    with pytest.raises(ValueError, match="^Gram matrix must be square$"):
        build(((0, 1, 0), (1, 0), (0, 0, 1)))


# --- every int parameter, found by signature ---------------------------------

#: the modules whose public callables the int rule covers
RULED = ("_linalg", "checks", "curves", "kodaira", "lattices", "linecomplex",
         "picard", "schubert")

#: valid arguments of each public callable with an int parameter, in
#: signature order (a method's first is its instance)
VALID = {
    "curves.noether_c2": (1, 9),
    "curves.pencil_curve": (spin_plus(8), 2, -14, 0, 0),
    "curves.xi_curve": (6,),
    "curves.gamma_curve": (4,),
    "curves.covering_degree": (3,),
    "lattices.IntegerLattice.scaled": (hyperbolic_u(), 2),
    "lattices.lambda_lattice": (3,),
    "lattices.e8": (2,),
    "lattices.sum_square_solution_exists": (3, 3, 3),
    "lattices.cs_obstruction": (7, 1),
    "lattices.lambda_identities": (3,),
    "linecomplex.random_invertible_matrix": (random.Random(0), 3),
    "linecomplex.random_symmetric_form_of_rank": (random.Random(0), 5, 2),
    "linecomplex.tangency_samples": (random.Random(0), 1),
    "linecomplex.complex_point_samples": (random.Random(0), 1),
    "linecomplex.compound_rank_samples": (random.Random(0), 1),
    "linecomplex.wedge_pairs": (2,),
    "picard.delta": (3,),
    "picard.pi_delta": (3,),
    "picard.alpha": (3,),
    "picard.beta": (3,),
    "picard.ModuliSpace": ("mbar", 3),
    "picard.mbar": (3,),
    "picard.rbar": (3,),
    "picard.spin_plus": (3,),
    "picard.boundary": (mbar(8), 3),
    "picard.theta_null": (3,),
    "picard.prym_green": (1,),
    "picard.twisted_hodge_c1": (3, 5),
    "picard.sym_power_c1": (brill_noether_g8(), 1, 1),
    "picard.named_divisor": ("hodge_c1", rbar(5), 3),
    "schubert.SchubertCycle": (5, {(1, 0): 1}),
    "schubert.SchubertCycle.coefficient": (sigma(5, 1), 1, 0),
    "schubert.sigma": (5, 1, 0, 1),
    "schubert.grassmannian_degree": (3,),
    "schubert.catalan_degree": (3,),
    "schubert.vq_dimension": (4,),
    "checks.verify_all": (3, None, True),
}


def _int_parameters(f):
    """The names of the parameters of `f` annotated with int."""
    return [p.name for p in inspect.signature(f).parameters.values()
            if "int" in re.findall(r"\w+", str(p.annotation))]


def _public_callables():
    """(module.name, callable) of every public function, class and public
    method defined in the RULED modules, each object once; exceptions
    are left out."""
    seen, out = set(), []
    for mod in map(importlib.import_module,
                   (f"spincalc.{m}" for m in RULED)):
        for name, obj in sorted(vars(mod).items()):
            if (name.startswith("_") or not callable(obj) or id(obj) in seen
                    or getattr(obj, "__module__", None) != mod.__name__
                    or isinstance(obj, type) and issubclass(obj, Exception)):
                continue
            seen.add(id(obj))
            short = mod.__name__.split(".")[-1]
            out.append((f"{short}.{name}", obj))
            if inspect.isclass(obj):
                out += [(f"{short}.{name}.{m}", f)
                        for m, f in sorted(vars(obj).items())
                        if not m.startswith("_") and inspect.isfunction(f)]
    return out


def _call(f, args):
    out = f(*args)
    return next(out) if inspect.isgenerator(out) else out


def _ungated(callables, valid):
    """(name, parameter, value) for each int parameter of `callables` that
    does not raise the int rule's ``TypeError`` for True and for 2.0; a
    callable with no row in `valid` is reported as (name, None, None)."""
    out = []
    for name, f in callables:
        params = _int_parameters(f)
        if not params:
            continue
        if name not in valid:
            out.append((name, None, None))
            continue
        args = valid[name]
        _call(f, args)
        names = list(inspect.signature(f).parameters)
        for p in params:
            for bad in (True, 2.0):
                bent = list(args)
                bent[names.index(p)] = bad
                try:
                    _call(f, bent)
                except TypeError as e:
                    if f"must be int, not {type(bad).__name__}" in str(e):
                        continue
                out.append((name, p, bad))
    return out


def test_every_int_parameter_takes_plain_ints_only():
    assert _ungated(_public_callables(), VALID) == []
    assert set(VALID) <= {n for n, _ in _public_callables()}


def test_an_ungated_int_parameter_is_reported():
    def scratch(n: int):
        return [0] * n

    walk = [*_public_callables(), ("scratch", scratch)]
    assert _ungated(walk, {**VALID, "scratch": (3,)}) == [
        ("scratch", "n", True), ("scratch", "n", 2.0)]
    assert _ungated([("scratch", scratch)], VALID) == [("scratch", None, None)]


@pytest.mark.parametrize("x", [True, 2.0], ids=["bool", "float"])
def test_a_cached_dimension_still_takes_plain_ints_only(x):
    # a cache that keyed True as 1 would answer from the int entry
    assert wedge_pairs(1) == () and wedge_pairs(2) == ((0, 1),)
    with pytest.raises(TypeError, match=f"^a dimension must be int, not "
                                        f"{type(x).__name__}$"):
        wedge_pairs(x)
