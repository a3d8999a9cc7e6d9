"""Second compound forms, tangency, singular points and Pluecker ranks."""

import random
from fractions import Fraction
from math import comb

import pytest

from spincalc._linalg import SingularMatrixError, mat_rank
from spincalc.linecomplex import (BasePointNotOnQuadricError,
                                  DependentVectorsError, NotInComplexError,
                                  ZeroInputError, complex_point_samples,
                                  compound_rank_samples,
                                  discriminant_tangency, is_singular_point,
                                  plucker_quadric_rank,
                                  random_invertible_matrix,
                                  random_symmetric_form_of_rank,
                                  random_unimodular_pair, second_compound,
                                  solve_in_basis, symmetric_form, tangency,
                                  tangency_samples, transform_bivector,
                                  wedge_coordinates, wedge_pairs,
                                  _volume_signs)
from spincalc.schubert import grassmannian_degree


def diag(*entries):
    n = len(entries)
    return symmetric_form([[entries[i] * (i == j) for j in range(n)]
                           for i in range(n)])


# --- compound forms ---------------------------------------------------------

def test_second_compound_of_identity():
    c = second_compound(diag(1, 1, 1, 1, 1))
    assert c.dim == 10
    assert all(c.gram[i][j] == (i == j) for i in range(10) for j in range(10))


def test_second_compound_rank_three_example():
    c = second_compound(diag(1, 1, 1, 0, 0))
    assert c.rank() == 3 == comb(3, 2)


def test_compound_rank_law_sampled():
    rng = random.Random(5)
    for q, rank in compound_rank_samples(rng, count=20):
        assert second_compound(q).rank() == comb(rank, 2)


def test_random_form_rank_is_exact():
    rng = random.Random(9)
    for rank in range(6):
        for _ in range(5):
            assert random_symmetric_form_of_rank(rng, 5, rank).rank() == rank


# --- tangency ---------------------------------------------------------------

def test_tangency_example():
    q = diag(1, 1, -1, 0, 0)
    u = [1, 0, 1, 0, 0]  # isotropic
    assert q.quadratic(u) == 0
    v = [0, 1, 0, 0, 0]
    assert tangency(q, u, v) is True
    assert discriminant_tangency(q, u, v) is True


def test_tangency_negative_case():
    q = diag(1, 1, -1, 0, 0)
    u = [1, 0, 1, 0, 0]
    v = [1, 0, 0, 0, 0]  # pairs to 1 with u
    assert tangency(q, u, v) is False
    assert discriminant_tangency(q, u, v) is False


def test_tangency_invariant_under_shifting_by_base_point():
    q = diag(1, 1, -1, 0, 0)
    u = [1, 0, 1, 0, 0]
    for v in ([0, 1, 0, 0, 0], [1, 2, 3, 4, 5], [0, 0, 0, 1, 0]):
        shifted = [a + b for a, b in zip(u, v)]
        assert tangency(q, u, v) == tangency(q, u, shifted)


def test_tangency_preconditions():
    q = diag(1, 1, -1, 0, 0)
    with pytest.raises(BasePointNotOnQuadricError):
        tangency(q, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0])
    with pytest.raises(DependentVectorsError):
        tangency(q, [1, 0, 1, 0, 0], [2, 0, 2, 0, 0])


@pytest.mark.parametrize("v", [[0, 1, 7], [0]])
def test_vector_lengths_must_match(v):
    q = diag(1, -1)
    u = [1, 1]
    for fn in (tangency, discriminant_tangency, is_singular_point):
        with pytest.raises(ValueError, match="same length"):
            fn(q, u, v)


def test_tangency_agrees_with_discriminant_oracle():
    rng = random.Random(42)
    seen = {True: 0, False: 0}
    for q, u, v in tangency_samples(rng, count=150):
        got = tangency(q, u, v)
        assert got == discriminant_tangency(q, u, v)
        seen[got] += 1
    assert seen[True] > 0 and seen[False] > 0  # both branches exercised


# --- singular points --------------------------------------------------------

def test_singular_point_examples():
    q = diag(1, -1, 1, -1, 1)
    u = [1, 1, 0, 0, 0]
    inside = [0, 0, 1, 1, 0]   # isotropic, pairs zero with u
    smooth = [0, 0, 0, 0, 1]   # pairs zero with u but not isotropic
    assert is_singular_point(q, u, inside) is True
    assert is_singular_point(q, u, smooth) is False


def test_singular_point_preconditions():
    q = diag(1, -1, 1, -1, 1)
    with pytest.raises(NotInComplexError):
        is_singular_point(q, [0, 0, 1, 0, 0], [1, 0, 0, 0, 0])
    with pytest.raises(NotInComplexError):
        # pairs to 1 with u, so the line is not tangent
        is_singular_point(q, [1, 1, 0, 0, 0], [1, 0, 0, 0, 0])
    with pytest.raises(DependentVectorsError):
        is_singular_point(q, [1, 1, 0, 0, 0], [2, 2, 0, 0, 0])


def test_singularity_gradient_matches_isotropy():
    rng = random.Random(24)
    for q, u, v, inside in complex_point_samples(rng, count=120):
        assert q.quadratic(u) == 0
        assert (q.quadratic(v) == 0) == inside
        assert is_singular_point(q, u, v) == inside


# --- the class solve --------------------------------------------------------

def test_solve_exceptional_class():
    assert solve_in_basis([[1, 0], [0, 1]], [2, -2]) == [2, -2]


def test_solve_zero_targets():
    assert solve_in_basis([[1, 0], [0, 1]], [0, 0]) == [0, 0]


def test_solve_round_trip():
    rng = random.Random(12)
    for _ in range(10):
        rows = random_invertible_matrix(rng, 3)
        targets = [Fraction(rng.randint(-9, 9)) for _ in range(3)]
        x = solve_in_basis(rows, targets)
        for row, t in zip(rows, targets):
            assert sum(a * b for a, b in zip(row, x)) == t


def test_solve_singular_matrix():
    with pytest.raises(SingularMatrixError):
        solve_in_basis([[1, 1], [2, 2]], [1, 1])


# --- Pluecker rank trichotomy -----------------------------------------------

def test_plucker_canonical_ranks():
    assert plucker_quadric_rank({(0, 1): 1}) == 6
    assert plucker_quadric_rank({(0, 1): 1, (2, 3): 1}) == 10
    assert plucker_quadric_rank({(0, 1): 1, (2, 3): 1, (4, 5): 1}) == 15


def test_plucker_rank_basis_invariant():
    rng = random.Random(8)
    cases = [({(0, 1): 1}, 6),
             ({(0, 1): 1, (2, 3): 1}, 10),
             ({(0, 1): 1, (2, 3): 1, (4, 5): 1}, 15)]
    for _ in range(8):
        m = random_invertible_matrix(rng, 6)
        for psi, want in cases:
            assert plucker_quadric_rank(transform_bivector(m, psi)) == want


def inversion_sign(seq):
    inversions = sum(seq[i] > seq[j] for i in range(len(seq))
                     for j in range(i + 1, len(seq)))
    return -1 if inversions % 2 else 1


def brute_force_plucker_matrix(psi):
    """vol(x ^ y ^ psi) on the wedge-square basis, summed term by term."""
    pairs = wedge_pairs(6)
    return [[sum((p * inversion_sign((a, b, c, d, i, j))
                  for (i, j), p in psi.items()
                  if len({a, b, c, d, i, j}) == 6), Fraction(0))
             for c, d in pairs] for a, b in pairs]


def random_bivector(rng, terms, rational):
    pairs = wedge_pairs(6)
    psi = {}
    for pair in rng.sample(pairs, terms):
        c = rng.randint(-9, 9)
        psi[pair] = Fraction(c, rng.randint(1, 50)) if rational else c
    return psi


def test_plucker_rank_matches_brute_force_volume_matrix():
    rng = random.Random(41)
    for rational in (False, True):
        for terms in (1, 2, 3, 4, 8, 15):
            for _ in range(3):
                psi = random_bivector(rng, terms, rational)
                if not any(psi.values()):
                    continue
                want = mat_rank(brute_force_plucker_matrix(psi))
                assert plucker_quadric_rank(psi) == want
                m = random_invertible_matrix(rng, 6)
                image = transform_bivector(m, psi)
                want = mat_rank(brute_force_plucker_matrix(image))
                assert plucker_quadric_rank(image) == want


def test_volume_sign_table_matches_permutation_signs():
    pairs = wedge_pairs(6)
    table = {(row, col): (rest, sign)
             for row, col, rest, sign in _volume_signs()}
    assert len(table) == 90
    for row, (a, b) in enumerate(pairs):
        for col, (c, d) in enumerate(pairs):
            for i, j in pairs:
                support = (a, b, c, d, i, j)
                want = inversion_sign(support) if len(set(support)) == 6 \
                    else 0
                rest, sign = table.get((row, col), (None, 0))
                assert (sign if rest == (i, j) else 0) == want


def test_plucker_rank_errors():
    with pytest.raises(ZeroInputError):
        plucker_quadric_rank({})
    with pytest.raises(ZeroInputError):
        plucker_quadric_rank({(0, 1): 0})
    with pytest.raises(ValueError):
        plucker_quadric_rank({(1, 0): 1})
    with pytest.raises(ValueError):
        plucker_quadric_rank({(0, 1): 1}, dim_v=5)


# --- exact types ------------------------------------------------------------

def test_symmetric_form_stores_integral_entries_as_ints():
    q = symmetric_form([[Fraction(3, 1)]])
    assert q.gram == ((3,),) and type(q.gram[0][0]) is int
    q = symmetric_form([[Fraction(1, 2), 2], [2, "4/2"]])
    assert [[type(x) for x in row] for row in q.gram] == [[Fraction, int],
                                                          [int, int]]


def test_symmetric_form_rejects_floats():
    with pytest.raises(TypeError):
        symmetric_form([[0.1]])
    with pytest.raises(TypeError):
        symmetric_form([[1, 0], [0, 2.0]])


def test_integer_input_stays_integer():
    rng = random.Random(77)
    for rank in range(6):
        q = random_symmetric_form_of_rank(rng, 5, rank)
        assert all(type(x) is int for row in q.gram for x in row)
        c = second_compound(q)
        assert all(type(x) is int for row in c.gram for x in row)
    for q, u, v in tangency_samples(rng, 5):
        w = wedge_coordinates(u, v)
        assert all(type(x) is int for x in w)
        assert type(second_compound(q).evaluate(w, w)) is int
    m = random_invertible_matrix(rng, 6)
    image = transform_bivector(m, {(0, 1): 1, (2, 3): -2})
    assert all(type(x) is int for x in image.values())


# --- wedge bookkeeping ------------------------------------------------------

def test_wedge_pairs_lexicographic():
    assert wedge_pairs(4) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def test_wedge_coordinates_antisymmetric():
    u, v = [1, 2, 3], [4, 5, 6]
    assert wedge_coordinates(u, v) == \
        [-x for x in wedge_coordinates(v, u)]
    assert all(x == 0 for x in wedge_coordinates(u, u))


def test_unimodular_pair_inverts():
    rng = random.Random(31)
    for _ in range(10):
        m, inv = random_unimodular_pair(rng, 5)
        prod = [[sum(m[i][k] * inv[k][j] for k in range(5))
                 for j in range(5)] for i in range(5)]
        assert prod == [[int(i == j) for j in range(5)] for i in range(5)]


def test_complex_is_quadric_section_of_grassmannian():
    # the tangent complex is cut on G(2,5) by one quadric: degree 2 * 5
    assert 2 * grassmannian_degree(5) == 10
