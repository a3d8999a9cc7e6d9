"""Second compound forms, tangency, singular points and Pluecker ranks."""

import copy
import hashlib
import pickle
import random
from fractions import Fraction
from itertools import islice
from math import comb

import pytest

from spincalc import linecomplex
from spincalc._linalg import SingularMatrixError, mat_rank, scaled
from spincalc.linecomplex import (BasePointNotOnQuadricError,
                                  DependentVectorsError, NotInComplexError,
                                  SymmetricForm, ZeroInputError,
                                  complex_point_samples,
                                  compound_rank_samples,
                                  discriminant_tangency, is_singular_point,
                                  plucker_quadric_rank,
                                  random_invertible_matrix,
                                  random_symmetric_form_of_rank,
                                  second_compound, solve_in_basis,
                                  symmetric_form, tangency,
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


def test_random_form_rank_out_of_range():
    with pytest.raises(ValueError, match="rank out of range"):
        random_symmetric_form_of_rank(random.Random(0), 5, 6)


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


Q_SPLIT = [[1, 0, 0], [0, 1, 0], [0, 0, -1]]
ON_QUADRIC, OFF_QUADRIC, GENERIC = [1, 0, 1], [1, 0, 0], [0, 1, 0]


@pytest.mark.parametrize("u,v", [
    ([1, 0], GENERIC),
    (ON_QUADRIC, [0, 1]),
    ([1.0, 0, 1], GENERIC),
    (ON_QUADRIC, [0, 1.0, 0]),
    (OFF_QUADRIC, GENERIC),
    (ON_QUADRIC, [2, 0, 2]),
    (OFF_QUADRIC, [0, 1.0, 0]),
], ids=["short-u", "short-v", "float-u", "float-v", "off-quadric",
        "dependent", "off-quadric-and-float-v"])
def test_both_tangency_routes_raise_the_same_error(u, v):
    q = symmetric_form(Q_SPLIT)
    errors = []
    for fn in (tangency, discriminant_tangency):
        with pytest.raises((ValueError, TypeError)) as info:
            fn(q, u, v)
        errors.append(info.type)
    assert errors[0] is errors[1]


@pytest.mark.parametrize("gram,u,v", [
    (Q_SPLIT, [1, 0], [0, 1, 0]), (Q_SPLIT, [1, 0, 1], [0, 1]),
    (Q_SPLIT, [1], [1]), ([], [], [1]),
])
def test_evaluate_refuses_vectors_of_the_wrong_length(gram, u, v):
    with pytest.raises(ValueError):
        symmetric_form(gram).evaluate(u, v)


def test_discriminant_oracle_forms_no_compound(monkeypatch):
    # the oracle must stay independent of the compound route it checks
    samples = list(tangency_samples(random.Random(13), 50))
    want = [tangency(q, u, v) for q, u, v in samples]

    def fail(*args):
        pytest.fail("the oracle formed a compound")
    monkeypatch.setattr(linecomplex, "_compound_rows", fail)
    monkeypatch.setattr(linecomplex, "second_compound", fail)
    assert [discriminant_tangency(q, u, v) for q, u, v in samples] == want


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


def _refusal(pair):
    # (False, True) is equal to (0, 1) as a key, but it is no index pair:
    # a bool index is a type error, any other bad pair a value error
    if any(isinstance(i, bool) for i in pair):
        return pytest.raises(TypeError, match="pair index must be int, not bool")
    return pytest.raises(ValueError, match="bad index pair")


@pytest.mark.parametrize("pair", [(1, 0), (0, 0), (0, 6), (-1, 2),
                                  (False, True), (0, True)])
def test_plucker_rank_refuses_bad_index_pairs(pair):
    with _refusal(pair):
        plucker_quadric_rank({pair: 1})
    # a zero coefficient does not excuse its key
    with _refusal(pair):
        plucker_quadric_rank({(2, 3): 1, pair: 0})


@pytest.mark.parametrize("pair", [(0, 5), (1, 0), (1, 1), (-1, 1),
                                  (False, True), (0, True)])
def test_transform_bivector_refuses_bad_index_pairs(pair):
    # (0, 5) is out of range for a 2x2 matrix, and (1, 0) is not -(0, 1)
    with _refusal(pair):
        transform_bivector([[1, 0], [0, 1]], {pair: 1})


def test_transform_bivector_reads_source_pairs_in_the_columns():
    # e_2 of a map from 3-space to the plane goes to 0, and a pair past
    # the two columns of a map from the plane has no source vectors
    assert transform_bivector([[1, 0, 0], [0, 1, 0]], {(0, 2): 1}) == {}
    with pytest.raises(ValueError, match="bad index pair"):
        transform_bivector([[1, 0], [0, 1], [1, 1]], {(0, 2): 1})
    with pytest.raises(ValueError, match="equal length"):
        transform_bivector([[1, 0], [0]], {(0, 1): 1})


# --- exact types ------------------------------------------------------------

def test_symmetric_form_stores_integral_entries_as_ints():
    q = symmetric_form([[Fraction(3, 1)]])
    assert q.gram == ((3,),) and type(q.gram[0][0]) is int
    q = symmetric_form([[Fraction(1, 2), 2], [2, Fraction(4, 2)]])
    assert [[type(x) for x in row] for row in q.gram] == [[Fraction, int],
                                                          [int, int]]


def test_symmetric_form_is_canonical_whatever_sequences_it_is_given():
    lists = SymmetricForm([[1, 2], [2, Fraction(1)]])
    tuples = SymmetricForm(((1, 2), (2, 1)))
    assert lists == tuples == symmetric_form([[1, 2], [2, 1]])
    assert hash(lists) == hash(tuples) and lists.gram == ((1, 2), (2, 1))


def test_symmetric_form_reads_iterators_of_rows_once():
    rows = [[1, 2], [2, Fraction(1, 2)]]
    assert SymmetricForm(iter(map(iter, rows))) == SymmetricForm(rows)


def test_the_integer_view_is_the_only_state():
    assert SymmetricForm.__slots__ == ("_ints", "_den")
    assert "__getattr__" not in vars(SymmetricForm)
    assert isinstance(vars(SymmetricForm)["gram"], property)
    q = second_compound(symmetric_form([[Fraction(1, 2), 0], [0, 3]]))
    assert (q._ints, q._den, q.gram) == ([[3]], 2, ((Fraction(3, 2),),))


def test_symmetric_form_rejects_floats():
    with pytest.raises(TypeError):
        symmetric_form([[0.1]])
    with pytest.raises(TypeError):
        symmetric_form([[1, 0], [0, 2.0]])
    with pytest.raises(TypeError):
        symmetric_form([[True, 0], [0, 1]])
    # the bivector transform checks its output coefficients
    with pytest.raises(TypeError):
        transform_bivector([[1, 0], [0, 1]], {(0, 1): 0.5})
    with pytest.raises(TypeError):
        transform_bivector([[1, 0], [0, 1.5]], {(0, 1): 1})
    # bools too, in a matrix or a vector that is cleared of denominators
    with pytest.raises(TypeError):
        transform_bivector([[True, 0], [0, 1]], {(0, 1): 1})
    with pytest.raises(TypeError):
        symmetric_form([[1, 0], [0, 1]]).evaluate([True, 0], [1, 0])
    with pytest.raises(TypeError):
        symmetric_form([[1, 0], [0, 1]]).quadratic([0, False])


def test_transform_bivector_refuses_a_float_it_never_multiplies():
    # column 0 of the matrix and the coefficient of a vanishing minor take
    # no part in the image, yet the input is still inexact
    identity = [[int(i == j) for j in range(6)] for i in range(6)]
    identity[0][0] = 1.0
    with pytest.raises(TypeError):
        transform_bivector(identity, {(2, 3): 1})
    with pytest.raises(TypeError):
        transform_bivector([[1, 1], [1, 1]], {(0, 1): 0.5})


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
    # rational vectors on an integral form still evaluate exactly
    assert symmetric_form([[1, 0], [0, 1]]).evaluate(
        [Fraction(1, 2), 0], [Fraction(2, 3), 5]) == Fraction(1, 3)
    m = random_invertible_matrix(rng, 6)
    image = transform_bivector(m, {(0, 1): 1, (2, 3): -2})
    assert all(type(x) is int for x in image.values())


# --- rational input ---------------------------------------------------------
# Forms pushed through a rational change of basis, with every reference
# computed here in plain Fraction arithmetic, apart from the package.

def rational_change_of_basis(rng, dim):
    """(P, P^-1) with P = M diag(n_k / d_k): M a product of integer
    shears, 0 < |n_k| <= 9 and 0 < d_k <= 100."""
    m = [[int(i == j) for j in range(dim)] for i in range(dim)]
    inv = [row[:] for row in m]
    for _ in range(8):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice([-2, -1, 1, 2])
        # m <- (I + c E_ij) m and inv <- inv (I - c E_ij)
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        for row in inv:
            row[j] -= c * row[i]
    diag = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                     rng.randint(1, 100)) for _ in range(dim)]
    p = [[m[i][k] * diag[k] for k in range(dim)] for i in range(dim)]
    pinv = [[inv[k][j] / diag[k] for j in range(dim)] for k in range(dim)]
    return p, pinv


def double_sum(g, x, y):
    return sum((Fraction(x[i]) * g[i][j] * y[j] for i in range(len(x))
                for j in range(len(y))), Fraction(0))


def plain_minors(g):
    n = len(g)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [[Fraction(g[i][k]) * g[j][l] - Fraction(g[j][k]) * g[i][l]
             for k, l in pairs] for i, j in pairs]


def rational_sample(rng, dim, singular):
    """(gram, u, v, answer) in a split model U + diag(tail) pushed through
    a rational change of basis.  u = e_0 is isotropic.  For tangency the
    answer is whether v has no e_1 component; for a singular point v has
    none, and the answer is whether v is isotropic (v = (a, 0, t, t, 0..)
    on the tail (s, -s, ..))."""
    answer = rng.random() < 0.5
    tail = [rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(dim - 2)]
    while True:
        v0 = [rng.randint(-9, 9) for _ in range(dim)]
        if singular:
            tail[1] = -tail[0]
            v0[1] = 0
            if answer:
                v0[3:] = [v0[2]] + [0] * (dim - 4)
        else:
            v0[1] = 0 if answer else rng.choice([-1, 1])
        g0 = [[0] * dim for _ in range(dim)]
        g0[0][1] = g0[1][0] = 1
        for i, d in enumerate(tail):
            g0[2 + i][2 + i] = d
        if any(v0[2:]) and (not singular
                            or answer == (double_sum(g0, v0, v0) == 0)):
            break
    p, pinv = rational_change_of_basis(rng, dim)
    gram = [[double_sum(g0, [r[i] for r in p], [r[j] for r in p])
             for j in range(dim)] for i in range(dim)]
    u = [row[0] for row in pinv]
    v = [sum(row[k] * v0[k] for k in range(dim)) for row in pinv]
    return gram, u, v, answer


@pytest.mark.parametrize("dim", [5, 6, 7])
def test_rational_forms_match_plain_fraction_references(dim):
    rng = random.Random(700 + dim)
    seen = {True: 0, False: 0}
    for singular in (False, True) * 6:
        gram, u, v, answer = rational_sample(rng, dim, singular)
        q = symmetric_form(gram)
        assert any(x.denominator > 1 for row in q.gram for x in row)
        c = second_compound(q)
        assert [list(row) for row in c.gram] == plain_minors(gram)
        assert all(type(x) is (int if x.denominator == 1 else Fraction)
                   for row in c.gram for x in row)
        for x, y in ((u, v), (v, u), (v, v), (gram[0], v)):
            assert q.evaluate(x, y) == double_sum(gram, x, y)
        assert double_sum(gram, u, u) == 0
        if singular:
            assert double_sum(gram, u, v) == 0
            assert is_singular_point(q, u, v) == answer
            assert answer == (double_sum(gram, v, v) == 0)
        else:
            assert tangency(q, u, v) == answer
            assert discriminant_tangency(q, u, v) == answer
        seen[answer] += 1
    assert seen[True] and seen[False]


def test_the_integer_view_is_not_part_of_the_value():
    rng = random.Random(710)
    gram, _, _, _ = rational_sample(rng, 5, False)
    q = symmetric_form(gram)
    twin = SymmetricForm(q.gram)
    assert q == twin and hash(q) == hash(twin) == hash((q.gram,))
    assert repr(q) == f"SymmetricForm({q.gram!r})"
    assert q != symmetric_form([[2 * x for x in row] for row in gram])
    for copied in (copy.copy(q), copy.deepcopy(q),
                   pickle.loads(pickle.dumps(q))):
        assert copied == q and hash(copied) == hash(q)
        assert [[type(x) for x in row] for row in copied.gram] == \
            [[type(x) for x in row] for row in q.gram]
        assert second_compound(copied) == second_compound(q)
    assert all(type(x) is (int if Fraction(g).denominator == 1
                           else Fraction)
               for row, grow in zip(q.gram, gram) for x, g in zip(row, grow))


# --- derived forms ----------------------------------------------------------
# A compound is built from its integer view; its Gram is built on first read.

@pytest.mark.parametrize("dim", [5, 6, 7])
def test_compounds_of_rational_forms_equal_their_public_twins(dim):
    rng = random.Random(720 + dim)
    for singular in (False, True):
        gram, _, _, _ = rational_sample(rng, dim, singular)
        c = second_compound(symmetric_form(gram))
        view = (c._ints, c._den)
        assert view == scaled(c.gram)
        reference = plain_minors(gram)
        assert [list(row) for row in c.gram] == reference
        assert [[type(x) for x in row] for row in c.gram] == \
            [[int if x.denominator == 1 else Fraction for x in row]
             for row in reference]
        twin = symmetric_form(c.gram)
        assert (twin._ints, twin._den) == view
        assert c == twin and twin == c and hash(c) == hash(twin)
        assert repr(c) == repr(twin)
        for copied in (copy.copy(c), copy.deepcopy(c),
                       pickle.loads(pickle.dumps(c))):
            assert copied == twin and hash(copied) == hash(twin)
            assert (copied._ints, copied._den) == view


def test_sampled_forms_equal_their_public_twins():
    rng = random.Random(730)
    for q, rank in compound_rank_samples(rng, count=3):
        twin = symmetric_form(q.gram)
        assert q == twin and hash(q) == hash(twin) and q.rank() == rank
        assert all(type(x) is int for row in q.gram for x in row)
    for q, _, _ in tangency_samples(rng, 3):
        assert q == symmetric_form(q.gram) and q.rank() == 5


@pytest.mark.parametrize("dim", [5, 6, 7])
def test_rational_compound_rank_and_plucker_rank_build_no_fraction(
        dim, monkeypatch):
    rng = random.Random(740 + dim)
    gram, _, _, _ = rational_sample(rng, dim, False)
    q = symmetric_form(gram)
    m, _ = rational_change_of_basis(rng, 6)
    images = [transform_bivector(m, psi) for psi in
              ({(0, 1): Fraction(1, 3)},
               {(0, 1): 1, (2, 3): Fraction(-2, 7)},
               {(0, 1): Fraction(5, 2), (2, 3): 1, (4, 5): -3})]
    assert all(any(type(c) is Fraction for c in image.values())
               for image in images)

    def no_fraction(*args):
        raise AssertionError("a Fraction was built")

    def int_rank(rows):
        assert all(type(x) is int for row in rows for x in row)
        return mat_rank(rows)
    monkeypatch.setattr(linecomplex, "Fraction", no_fraction)
    monkeypatch.setattr(linecomplex, "mat_rank", int_rank)
    assert second_compound(q).rank() == comb(dim, 2)
    assert [plucker_quadric_rank(image) for image in images] == [6, 10, 15]


# --- sampler draws ----------------------------------------------------------

def random_unimodular_pair(rng, dim):
    """A random integer change of basis P, drawn by the samplers' own
    `_draw_steps` (determinant +-1), together with the transpose of its
    inverse, whose row k is P^-1 e_k pulled back along the steps."""
    steps = linecomplex._draw_steps(rng, dim)
    identity = [[int(i == k) for i in range(dim)] for k in range(dim)]
    return (row_ops(steps, identity),
            [linecomplex._pull_back(steps, e) for e in identity])


def row_ops(steps, rows):
    """A copy of the rows after the steps as row operations, in order:
    (i, j, None) swaps rows i and j, and (i, j, c) adds c times row j to
    row i."""
    rows = [list(row) for row in rows]
    for i, j, c in steps:
        if c is None:
            rows[i], rows[j] = rows[j], rows[i]
        elif c:
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


def sha256_of(samples):
    return hashlib.sha256(repr(list(samples)).encode()).hexdigest()


def test_samplers_keep_their_draws():
    # the first 50 samples of each sampler at seed 1729, as drawn before
    # the samplers built their forms from integer views, and the next
    # value of the generator after them: a sampler that yields the same
    # samples from a different number of draws would shift every suite
    # that runs after it
    def drawn(sample):
        rng = random.Random(1729)
        return sha256_of(sample(rng)), rng.random()
    assert {
        "compound": drawn(lambda rng: islice(compound_rank_samples(rng, 10),
                                             50)),
        "tangency": drawn(lambda rng: tangency_samples(rng, 50)),
        "complex": drawn(lambda rng: complex_point_samples(rng, 50)),
        "invertible": drawn(lambda rng: (random_invertible_matrix(rng, 6)
                                         for _ in range(50))),
        "unimodular": drawn(lambda rng: (random_unimodular_pair(rng, 5)
                                         for _ in range(50))),
    } == {
        "compound": ("28eef2ece53e2d5be81a2f097276ef9f"
                     "02edd32aad0edfbdac72322ff692c25f", 0.9059525383118969),
        "tangency": ("760a141e53930fbe6c391394c05281ee"
                     "dcbbb81ee8b83ec1c4a4af3019249599", 0.2247345478685101),
        "complex": ("6f0c68144743a33523c7f9c14a872a95"
                    "415bdce34963bfa519c7aa5a1de86b91", 0.4343962256869083),
        "invertible": ("b5b08bc547b2591c3ae63b6a6f78704c"
                       "3d8b9a50e8e98e79d35df648cd393a6b", 0.9391613413033183),
        "unimodular": ("a7d0b6103ca1ff18b0729b9233fb2375"
                       "28d4162f2ff711a6d7033e255222acac", 0.5584852691888934),
    }


def test_bounded_draws_are_those_of_randrange_and_randint():
    # the pinned draws above rest on this: `_below` is the loop of
    # CPython's `Random._randbelow_with_getrandbits`, behind `randrange`
    # and `randint`, and it takes as many bits from the generator
    for seed in range(50):
        ours, ref = random.Random(seed), random.Random(seed)
        for n in range(1, 41):
            assert linecomplex._below(ours.getrandbits, n) == ref.randrange(n)
        for a, b in ((-9, 9), (-3, 3)):
            for _ in range(10):
                assert (a + linecomplex._below(ours.getrandbits, b - a + 1)
                        == ref.randint(a, b))
        assert ours.random() == ref.random()


# --- wedge bookkeeping ------------------------------------------------------

def test_wedge_pairs_lexicographic():
    assert wedge_pairs(4) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def test_wedge_coordinates_antisymmetric():
    u, v = [1, 2, 3], [4, 5, 6]
    assert wedge_coordinates(u, v) == \
        [-x for x in wedge_coordinates(v, u)]
    assert all(x == 0 for x in wedge_coordinates(u, u))


def test_wedge_coordinates_refuse_vectors_of_unequal_length():
    with pytest.raises(ValueError, match="same length"):
        wedge_coordinates([1, 2, 3], [1, 2, 3, 4])
    with pytest.raises(ValueError, match="same length"):
        wedge_coordinates([1, 2, 3, 4], [1, 2, 3])


def sample_grams(rng, dim):
    """A diagonal, a split (hyperbolic plane plus diagonal, from dim 2)
    and a dense symmetric integer Gram of the given size."""
    grams = [[[rng.randint(-9, 9) * (i == j) for j in range(dim)]
              for i in range(dim)]]
    if dim >= 2:
        split = [row[:] for row in grams[0]]
        split[0][0] = split[1][1] = 0
        split[0][1] = split[1][0] = 1
        grams.append(split)
    dense = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1):
            dense[i][j] = dense[j][i] = rng.randint(-9, 9)
    grams.append(dense)
    return grams


def test_conjugated_forms_are_the_definition():
    # the step-by-step conjugation against the double sum over the pair's
    # own P, from the same seed: same form, the pair's P^-1 e_k pulled
    # back along the returned steps, same draws
    for seed in range(200):
        dim = 1 + seed % 7
        for g0 in sample_grams(random.Random(-seed), dim):
            before = [row[:] for row in g0]
            rng, ref = random.Random(seed), random.Random(seed)
            form, steps = linecomplex._conjugated(rng, g0)
            p, inv_t = random_unimodular_pair(ref, dim)
            assert g0 == before
            assert form.gram == tuple(
                tuple(sum(p[k][i] * g0[k][l] * p[l][j]
                          for k in range(dim) for l in range(dim))
                      for j in range(dim)) for i in range(dim))
            assert [linecomplex._pull_back(steps, [int(i == k)
                                                   for i in range(dim)])
                    for k in range(dim)] == inv_t
            assert rng.random() == ref.random()


def test_unimodular_pair_inverts():
    # the second matrix is the transpose of the inverse: row j is P^-1 e_j
    rng = random.Random(31)
    for _ in range(10):
        m, inv_t = random_unimodular_pair(rng, 5)
        prod = [[sum(m[i][k] * inv_t[j][k] for k in range(5))
                 for j in range(5)] for i in range(5)]
        assert prod == [[int(i == j) for j in range(5)] for i in range(5)]


def test_complex_is_quadric_section_of_grassmannian():
    # the tangent complex is cut on G(2,5) by one quadric: degree 2 * 5
    assert 2 * grassmannian_degree(5) == 10
