"""Lattice Gram arithmetic, the obstruction search and E8/U standards."""

import random
from fractions import Fraction
from itertools import product
from math import isqrt

import pytest

from spincalc._linalg import mat_det
from spincalc.lattices import (CsEntry, DimensionMismatchError,
                               IntegerLattice, cs_obstruction,
                               doubly_elliptic_identities, e8, hyperbolic_u,
                               lambda_identities, lambda_lattice,
                               nikulin_derived_root, nikulin_lattice,
                               sum_square_solution_exists)


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(2), 0.5, True])
def test_lattice_refuses_gram_entries_that_are_not_int(entry):
    # a half used to be truncated: the determinant of ((1/2,),) read 0
    with pytest.raises(TypeError):
        IntegerLattice(((entry,),), ("a",))
    with pytest.raises(TypeError):
        IntegerLattice(((2, entry), (entry, 2)), ("a", "b"))


@pytest.mark.parametrize("coordinate", [True, Fraction(1, 2), 0.5])
def test_lattice_refuses_coordinates_that_are_not_int(coordinate):
    # a bool used to pass as 1: n_1.n_1 read -2
    lat = nikulin_lattice()
    v = (coordinate,) + (0,) * 7
    with pytest.raises(TypeError):
        lat.inner(v, lat.basis_vector("n1"))
    with pytest.raises(TypeError):
        lat.norm(v)


def test_basis_vector_takes_a_basis_name_only():
    lat = nikulin_lattice()
    assert lat.basis_vector("n1") == (1,) + (0,) * 7
    assert lat.basis_vector("e") == (0,) * 7 + (1,)
    # an int names no basis vector, even one in range(rank), and neither
    # does a name outside the basis
    for key in (0, 7, "n8", "N1"):
        with pytest.raises(ValueError):
            lat.basis_vector(key)


@pytest.mark.parametrize("index", [8, 99, -1, -8])
def test_basis_vector_refuses_an_index_out_of_range(index):
    # an index past either end names no basis vector, not the zero vector
    with pytest.raises(ValueError):
        nikulin_lattice().basis_vector(index)


@pytest.mark.parametrize("index", [True, False])
def test_basis_vector_refuses_a_bool_index(index):
    # True is the int 1 to Python, but not a basis index
    with pytest.raises(ValueError):
        nikulin_lattice().basis_vector(index)


def test_lattice_is_canonical_whatever_sequences_it_is_given():
    lists = IntegerLattice([[2, 1], [1, 2]], ["a", "b"])
    tuples = IntegerLattice(((2, 1), (1, 2)), ("a", "b"))
    assert lists == tuples and hash(lists) == hash(tuples)
    assert lists.gram == ((2, 1), (1, 2)) and lists.basis_names == ("a", "b")


# --- Nikulin lattice --------------------------------------------------------

def test_nikulin_is_even_with_determinant_64():
    lat = nikulin_lattice()
    assert lat.rank == 8
    assert lat.is_even()
    assert lat.determinant() == 64
    # block-determinant oracle: det = (-2)^7 * (e^2 - sum of (-1)^2/(-2))
    oracle = Fraction((-2) ** 7) * (Fraction(-4) - 7 * Fraction(1, -2))
    assert oracle == 64


def test_nikulin_derived_root_is_a_root():
    lat = nikulin_lattice()
    n8 = nikulin_derived_root()
    assert lat.norm(n8) == -2
    for j in range(1, 8):
        assert lat.inner(n8, lat.basis_vector(f"n{j}")) == 0


def test_inner_symmetry_and_dimension_check():
    lat = nikulin_lattice()
    rng = random.Random(7)
    for _ in range(20):
        v = [rng.randint(-5, 5) for _ in range(8)]
        w = [rng.randint(-5, 5) for _ in range(8)]
        assert lat.inner(v, w) == lat.inner(w, v)
    with pytest.raises(DimensionMismatchError):
        lat.norm((1, 2, 3))


# --- polarized lattice ------------------------------------------------------

def test_lambda7_identity_battery():
    for name, got, want in lambda_identities(7):
        assert got == want, name


def test_lambda7_named_values():
    lat = lambda_lattice(7)
    c = lat.basis_vector("c")
    e = lat.basis_vector("e")
    h = tuple(a - b for a, b in zip(c, e))
    n = tuple(2 * x for x in e)
    assert lat.norm(c) == 12
    assert lat.norm(h) == 8
    assert lat.inner(h, c) == 12
    assert lat.norm(n) == -16
    assert lat.inner(n, h) == 8
    assert lat.inner(n, c) == 0
    assert lat.norm(e) == -4


@pytest.mark.parametrize("g", range(2, 13))
def test_lambda_determinant_multiplicative(g):
    assert lambda_lattice(g).determinant() == (2 * g - 2) * 64


@pytest.mark.parametrize("g", [2, 5, 7, 11])
def test_polarization_pairing_congruence(g):
    lat = lambda_lattice(g)
    c = lat.basis_vector("c")
    rng = random.Random(g)
    for _ in range(50):
        v = [rng.randint(-9, 9) for _ in range(9)]
        assert lat.inner(c, v) % (2 * g - 2) == 0


# --- standard lattices ------------------------------------------------------

def test_hyperbolic_plane():
    u = hyperbolic_u()
    assert u.is_even()
    assert u.determinant() == -1


def _leading_minors(gram):
    return [mat_det([row[:k] for row in gram[:k]])
            for k in range(1, len(gram) + 1)]


def test_e8_unimodular_and_definite():
    plus = e8(1)
    assert plus.is_even()
    assert plus.determinant() == 1
    assert all(m > 0 for m in _leading_minors(plus.gram))
    minus = e8(-1)
    assert minus.is_even()
    assert minus.determinant() == 1
    assert all((-1) ** (k + 1) * m > 0
               for k, m in enumerate(_leading_minors(minus.gram)))


def test_e8_scaled_by_two():
    lat = e8(-2)
    assert abs(lat.determinant()) == 2 ** 8
    rng = random.Random(3)
    for _ in range(50):
        v = [rng.randint(-4, 4) for _ in range(8)]
        assert lat.norm(v) % 4 == 0


def test_scaling_by_zero_or_by_a_bool_is_refused():
    # a zero form is no lattice, and True used to be read as the scale 1
    with pytest.raises(ValueError, match="nonzero"):
        e8(0)
    with pytest.raises(ValueError, match="nonzero"):
        hyperbolic_u().scaled(0)
    with pytest.raises(TypeError, match="scale must be int, not bool"):
        e8(True)


def test_evenness_preserved_by_sum_and_scaling():
    s = hyperbolic_u().direct_sum(e8(-1))
    assert s.is_even()
    assert s.rank == 10
    assert s.determinant() == -1
    assert s.scaled(3).is_even()


# --- the exhaustive search --------------------------------------------------

def test_search_against_literal_enumeration():
    # |b_i| <= 4 covers every norm up to 16, the perfect squares 0, 1, 4,
    # 9 and 16 included, and |b_i| <= 2 every norm up to 4; 6 and 7 slots
    # split into equal and unequal halves
    cases = [(slots, 4, 16) for slots in range(6)] + [(6, 2, 4), (7, 2, 4)]
    for slots, b, top in cases:
        reachable = set()
        for tup in product(range(-b, b + 1), repeat=slots):
            reachable.add((sum(tup), sum(x * x for x in tup)))
        for m in range(-1, top + 1):
            for s in range(-b * slots - 2, b * slots + 3):
                assert sum_square_solution_exists(slots, s, m) == \
                    ((s, m) in reachable), (slots, s, m)


def test_search_finds_known_solutions():
    rng = random.Random(11)
    for _ in range(25):
        tup = [rng.randint(-6, 6) for _ in range(8)]
        assert sum_square_solution_exists(
            8, sum(tup), sum(x * x for x in tup))


def test_search_rejects_parity_impossible():
    # sum of 8 integers with all squares summing to 4 cannot reach 9
    assert not sum_square_solution_exists(8, 9, 4)


def test_search_decides_the_witness_targets():
    # 1^6 0^2 and 1^8, the Cauchy-Schwarz equality case, are found; at
    # (13, 24) the gap 13^2 - 8 * 24 = -23 is negative, yet no 8 integers
    # reach it
    assert sum_square_solution_exists(8, 6, 6)
    assert sum_square_solution_exists(8, 8, 8)
    assert not sum_square_solution_exists(8, 13, 24)


def dict_table_search(slots, target_sum, target_norm):
    """The meet-in-the-middle search with one dict a table, mapping each
    norm m <= target_norm reached by j integers to the bitmask of their
    sums (bit s + ceil(slots/2) * bound): an oracle for the bit-grid
    search, with the same pruning and join."""
    if target_norm < 0:
        return False
    bound = isqrt(target_norm)
    if abs(target_sum) > slots * bound:
        return False
    half = slots // 2
    left = right = {0: 1 << (slots - half) * bound}
    for j in range(1, slots - half + 1):
        nxt = {}
        for m, mask in right.items():
            for v in range(isqrt(target_norm - m) + 1):
                m2 = m + v * v
                nxt[m2] = nxt.get(m2, 0) | (mask << v) | (mask >> v)
        right = nxt
        if j == half:
            left = right
    return any(mask & (right.get(target_norm - m, 0) << abs(target_sum))
               for m, mask in left.items())


def test_search_agrees_with_the_dict_table_search():
    # every slot count 0-9, norm -1..40 and sum up to two past the cap
    # slots * isqrt(norm): both early exits, odd and even splits and
    # both sides of every parity and Cauchy-Schwarz boundary
    for slots in range(10):
        for norm in range(-1, 41):
            top = slots * isqrt(max(norm, 0)) + 2
            for s in range(-top, top + 1):
                assert sum_square_solution_exists(slots, s, norm) == \
                    dict_table_search(slots, s, norm), (slots, s, norm)


@pytest.mark.parametrize("g", range(7, 18))
def test_search_and_dict_table_search_find_nothing_at_the_cs_targets(g):
    # genus 17 is the last at which every multiple a = 1..5 builds a
    # table; at 18 only a = 1 does, and from 19 on the cap
    # |s| <= 8 * isqrt(m) rules out all five before any table is built
    for a in range(1, 6):
        s, m = 2 * a * g - 2 * a - 3, a * a * (g - 1)
        assert not sum_square_solution_exists(8, s, m), (a, s, m)
        assert not dict_table_search(8, s, m), (a, s, m)


def test_search_refuses_a_negative_slot_count():
    with pytest.raises(ValueError, match="slot count must be at least 0"):
        sum_square_solution_exists(-1, 0, 0)


# --- obstruction certificate ------------------------------------------------

def test_cs_obstruction_g7_values():
    entries = cs_obstruction(7, a_bound=2)
    assert type(entries) is tuple
    assert all(type(e) is CsEntry for e in entries)
    first, second = entries
    assert (first.target_sum, first.target_norm) == (9, 6)
    assert first.target_sum ** 2 == 81 > 8 * 6 == 48
    assert first.cs_gap == 81 - 48
    assert (second.target_sum ** 2, 8 * second.target_norm) == (441, 192)
    assert not first.solution_found and not second.solution_found
    assert first.cs_gap > 0 and second.cs_gap > 0


@pytest.mark.parametrize("g", range(7, 13))
def test_cs_obstruction_holds_through_genus_12(g):
    assert all(e.cs_gap > 0 and not e.solution_found
               for e in cs_obstruction(g, a_bound=5))


def test_cs_obstruction_rejects_low_genus():
    with pytest.raises(ValueError):
        cs_obstruction(6, a_bound=1)


def test_cs_obstruction_needs_a_multiple():
    with pytest.raises(ValueError, match="at least one multiple"):
        cs_obstruction(8, a_bound=0)


# --- doubly-elliptic identities ---------------------------------------------

def test_doubly_elliptic_identities():
    assert doubly_elliptic_identities() == (2 * 8 - 2, (0,) * 7, 14)


def test_lattice_validation():
    with pytest.raises(ValueError):
        IntegerLattice(((0, 1), (2, 0)), ("a", "b"))  # not symmetric
    with pytest.raises(ValueError):
        IntegerLattice(((0, 1), (1, 0)), ("a",))  # name count
