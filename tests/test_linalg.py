"""The exact kernel against independent oracles: Leibniz determinants,
ranks fixed by construction, round trips and explicit double sums."""

import random
from fractions import Fraction
from itertools import permutations
from math import prod

import pytest

from spincalc._linalg import (SingularMatrixError, _eliminate, bilinear,
                              mat_det, mat_rank, mat_vec, scaled, solve)
from spincalc.linecomplex import second_compound, symmetric_form


def leibniz_det(m):
    n = len(m)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        sign = -1 if inversions % 2 else 1
        total += sign * prod((Fraction(m[i][perm[i]]) for i in range(n)),
                             start=Fraction(1))
    return total


def product(a, b):
    return [[sum((Fraction(a[i][k]) * b[k][j] for k in range(len(b))),
                 Fraction(0)) for j in range(len(b[0]))]
            for i in range(len(a))]


def transpose(m):
    return [list(col) for col in zip(*m)]


def entry(rng, rational):
    if rational:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return rng.randint(-5, 5)


def random_matrix(rng, rows, cols, rational=False):
    return [[entry(rng, rational) for _ in range(cols)] for _ in range(rows)]


def rank_r_matrix(rng, rows, cols, r, rational=False):
    """B C with an identity block on top of B (rows x r) and on the left
    of C (r x cols), so both factors, and hence B C, have rank r; rows
    and columns are then shuffled."""
    if r == 0:
        return [[0] * cols for _ in range(rows)]
    b = [[int(i == j) for j in range(r)] for i in range(r)]
    b += random_matrix(rng, rows - r, r, rational)
    c = [[int(i == j) for j in range(r)]
         + [entry(rng, rational) for _ in range(cols - r)] for i in range(r)]
    m = product(b, c)
    rng.shuffle(m)
    order = list(range(cols))
    rng.shuffle(order)
    return [[row[j] for j in order] for row in m]


# --- determinant ------------------------------------------------------------

@pytest.mark.parametrize("rational", [False, True])
def test_det_matches_leibniz(rational):
    rng = random.Random(101 + rational)
    for n in range(1, 6):
        for _ in range(20):
            m = random_matrix(rng, n, n, rational)
            assert mat_det(m) == leibniz_det(m)


@pytest.mark.parametrize("rational", [False, True])
def test_det_of_singular_matrices(rational):
    rng = random.Random(202 + rational)
    for n in range(2, 6):
        for r in range(n):
            m = rank_r_matrix(rng, n, n, r, rational)
            assert leibniz_det(m) == 0
            assert mat_det(m) == 0
        m = random_matrix(rng, n, n, rational)
        m[-1] = list(m[0])
        assert mat_det(m) == leibniz_det(m) == 0


def test_det_sign_of_row_swaps():
    assert mat_det([[0, 1], [1, 0]]) == -1
    assert mat_det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert mat_det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
    assert mat_det([]) == 1


def test_det_needs_square_matrix():
    with pytest.raises(ValueError):
        mat_det([[1, 2, 3], [4, 5, 6]])


# --- rank -------------------------------------------------------------------

@pytest.mark.parametrize("rational", [False, True])
def test_rank_of_products_with_known_rank(rational):
    rng = random.Random(303 + rational)
    for rows, cols in ((3, 5), (5, 3), (4, 4), (6, 6), (7, 4)):
        for r in range(min(rows, cols) + 1):
            m = rank_r_matrix(rng, rows, cols, r, rational)
            assert mat_rank(m) == r
            assert mat_rank(transpose(m)) == r


def test_rank_of_empty_inputs():
    assert mat_rank([]) == 0
    assert mat_rank([[]]) == 0
    assert mat_rank([[], []]) == 0
    assert mat_rank([[0, 0, 0]]) == 0
    assert mat_rank([[0], [0], [5]]) == 1


def big_factor(rng):
    """A nonzero int of 10 to 30 digits, of either sign."""
    digits = rng.randint(10, 30)
    return rng.choice((-1, 1)) * rng.randint(10 ** (digits - 1),
                                             10 ** digits - 1)


def scale_rows_and_columns(m, rows, cols):
    return [[r * x * c for x, c in zip(row, cols)]
            for r, row in zip(rows, m)]


@pytest.mark.parametrize("rational", [False, True])
def test_rank_of_rows_and_columns_with_large_contents(rational):
    # scaling a row or a column by a nonzero number keeps the rank, and the
    # rank routine divides those factors out again before eliminating
    rng = random.Random(313 + rational)
    for n in (4, 6, 8):
        for r in (n, n - 1, n - 3):
            m = rank_r_matrix(rng, n, n + 1, r, rational)
            m = scale_rows_and_columns(
                m, [big_factor(rng) for _ in range(n)],
                [big_factor(rng) for _ in range(n + 1)])
            assert gauss(m)[0] == r
            assert mat_rank(m) == mat_rank(transpose(m)) == r
            assert mat_rank([tuple(row) for row in m]) == r


def test_form_rank_with_large_contents_leaves_its_view_alone():
    # D G D for a diagonal D of large factors is symmetric with the rank
    # of G; a rational D gives the view d D G D rows with large contents
    rng = random.Random(323)
    for n in (5, 7):
        for r in (n, n - 1, n - 3):
            b = rank_r_matrix(rng, n, n, r)
            g = product(transpose(b), b)
            for den in (1, big_factor(rng)):
                f = [Fraction(big_factor(rng), rng.choice((1, den)))
                     for _ in range(n)]
                m = scale_rows_and_columns(g, f, f)
                before = [list(row) for row in m]
                q = symmetric_form(m)
                view = [list(row) for row in q._ints]
                assert q.rank() == gauss(m)[0] == r
                assert [list(row) for row in q._ints] == view
                assert m == before


def test_rank_with_zero_rows_and_columns():
    rng = random.Random(333)
    for _ in range(20):
        m = rank_r_matrix(rng, 5, 5, rng.randint(1, 5), rational=True)
        for row in m:
            row.insert(rng.randint(0, len(row)), 0)
        m.insert(rng.randint(0, len(m)), [0] * len(m[0]))
        m.insert(rng.randint(0, len(m)), [0] * len(m[0]))
        assert mat_rank(m) == mat_rank(transpose(m)) == gauss(m)[0]
    assert mat_rank([[0, 0], [0, 0], [0, 0]]) == 0
    assert mat_rank([(0, 6, 0), (0, 0, 0), (0, 10, 0)]) == 1
    assert symmetric_form([[0, 0], [0, 0]]).rank() == 0


def test_rank_of_empty_shapes_and_tuple_rows():
    for m in ([], [[]], [()], [[]] * 4, [()] * 3):
        assert mat_rank(m) == 0
    assert symmetric_form([]).rank() == 0
    m = ((4, 6, 2), (6, 9, 3), (Fraction(1, 2), 0, 1))
    assert mat_rank(m) == gauss(m)[0] == 2


def test_rank_leaves_its_input_alone():
    m = [[6, 4, 2], [9, 6, 3], [0, 0, 0], [Fraction(1, 3), 5, 7]]
    before = [list(row) for row in m]
    assert mat_rank(m) == 2
    assert m == before


def test_rank_refuses_ragged_rows():
    with pytest.raises(ValueError):
        mat_rank([[1, 2], [3]])
    with pytest.raises(ValueError):
        mat_rank([[0], [1, 2]])


# --- solve ------------------------------------------------------------------

@pytest.mark.parametrize("rational", [False, True])
def test_solve_round_trip(rational):
    rng = random.Random(404 + rational)
    for n in range(1, 6):
        for _ in range(10):
            a = random_matrix(rng, n, n, rational)
            if leibniz_det(a) == 0:
                continue
            b = [entry(rng, rational) for _ in range(n)]
            x = solve(a, b)
            assert all(isinstance(xi, Fraction) for xi in x)
            assert [row[0] for row in product(a, [[xi] for xi in x])] == b


def test_solve_singular_systems():
    rng = random.Random(505)
    for n in range(1, 6):
        a = rank_r_matrix(rng, n, n, n - 1)
        with pytest.raises(SingularMatrixError):
            solve(a, [1] * n)
    with pytest.raises(SingularMatrixError):
        solve([[1, 2, 3], [4, 5, 6]], [1, 2])
    with pytest.raises(SingularMatrixError):
        solve([[1, 0], [0, 1]], [1, 2, 3])


def test_solve_empty_system():
    assert solve([], []) == []


# --- products ---------------------------------------------------------------

@pytest.mark.parametrize("rational", [False, True])
def test_bilinear_and_mat_vec_match_double_sums(rational):
    rng = random.Random(606 + rational)
    for n in range(1, 6):
        g = random_matrix(rng, n, n, rational)
        u = [entry(rng, rational) for _ in range(n)]
        v = [entry(rng, rational) for _ in range(n)]
        assert bilinear(g, u, v) == sum(u[i] * g[i][j] * v[j]
                                        for i in range(n) for j in range(n))
        assert mat_vec(g, v) == [sum(g[i][j] * v[j] for j in range(n))
                                 for i in range(n)]


def test_integer_inputs_stay_integers():
    assert type(bilinear([[1, 2], [2, 3]], [1, 1], [1, -1])) is int


def test_kernel_rejects_floats():
    with pytest.raises(TypeError):
        mat_rank([[0.1]])
    with pytest.raises(TypeError):
        mat_det([[1, 0], [0, 0.5]])
    with pytest.raises(TypeError):
        solve([[0.1]], [1])
    with pytest.raises(TypeError):
        solve([[1]], [0.1])
    # bools are ints to Python, but not exact input to the kernel
    with pytest.raises(TypeError):
        mat_rank([[True, False]])
    with pytest.raises(TypeError):
        solve([[1]], [True])
    with pytest.raises(TypeError):
        scaled([[Fraction(1, 2), False]])


def test_scaled_clears_every_denominator_with_their_lcm():
    rows, d = scaled([[Fraction(1, 2), 1], [Fraction(-2, 3), 0]])
    assert (rows, d) == ([[3, 6], [-4, 0]], 6)
    assert all(type(x) is int for row in rows for x in row)
    assert scaled([[1, -2], [Fraction(4, 2), 0]]) == ([[1, -2], [2, 0]], 1)
    assert scaled([]) == ([], 1)
    with pytest.raises(TypeError):
        scaled([[1, Fraction(1, 2)], [0.5, 1]])


# --- the Bareiss kernel against a plain Fraction elimination ---------------

def gauss(m):
    """Rank and determinant by textbook Gaussian elimination in Fractions,
    independent of the kernel (the determinant is None for non-square
    input)."""
    rows = [[Fraction(x) for x in row] for row in m]
    n_cols = len(rows[0]) if rows else 0
    rank, det = 0, Fraction(1)
    for col in range(n_cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]),
                     None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            det = -det
        det *= rows[rank][col]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank, (det if len(rows) == n_cols else None)


def gauss_jordan_solve(a, b):
    """The solution of a x = b by Gauss-Jordan elimination in Fractions."""
    n = len(a)
    rows = [[Fraction(x) for x in row] + [Fraction(y)]
            for row, y in zip(a, b)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[n] for row in rows]


def rational(rng, den_bound=100, zero_share=0.0):
    if rng.random() < zero_share:
        return 0
    return Fraction(rng.randint(-9, 9), rng.randint(1, den_bound))


def assert_kernel_matches_gauss(m):
    rank, det = gauss(m)
    assert mat_rank(m) == rank
    if det is not None:
        assert mat_det(m) == det


def test_kernel_matches_gauss_on_rationals_up_to_denominator_100():
    rng = random.Random(707)
    for rows, cols in ((1, 1), (3, 3), (4, 6), (6, 4), (7, 7), (9, 9)):
        for zero_share in (0.0, 0.5, 0.8):
            for _ in range(4):
                m = [[rational(rng, zero_share=zero_share)
                      for _ in range(cols)] for _ in range(rows)]
                assert_kernel_matches_gauss(m)


def compound(g):
    """The 2x2-minor matrix of g, built here rather than in linecomplex."""
    n = len(g)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [[g[i][k] * g[j][l] - g[j][k] * g[i][l] for k, l in pairs]
            for i, j in pairs]


@pytest.mark.parametrize("rational", [False, True])
@pytest.mark.parametrize("dim", range(2, 8))
def test_second_compound_is_the_explicit_minor_matrix(dim, rational):
    # the package computes each minor off the diagonal once and mirrors
    # it; the reference here computes all of them
    rng = random.Random(1111 + 2 * dim + rational)
    for _ in range(3):
        b = random_matrix(rng, dim, dim, rational)
        d = [entry(rng, rational) for _ in range(dim)]
        g = [[sum(b[k][i] * d[k] * b[k][j] for k in range(dim))
              for j in range(dim)] for i in range(dim)]
        c = second_compound(symmetric_form(g))
        assert c.gram == tuple(map(tuple, compound(g)))
        assert c == symmetric_form(compound(g))


@pytest.mark.parametrize("dim", [6, 7])
def test_kernel_matches_gauss_on_second_compounds_of_rational_forms(dim):
    rng = random.Random(808 + dim)
    for rank in (dim, dim - 1, dim - 3):
        b = [[rational(rng) for _ in range(dim)] for _ in range(dim)]
        d = [rational(rng) or 1 if i < rank else 0 for i in range(dim)]
        g = [[sum(b[k][i] * d[k] * b[k][j] for k in range(dim))
              for j in range(dim)] for i in range(dim)]
        c = compound(g)
        assert len(c) == dim * (dim - 1) // 2
        assert_kernel_matches_gauss(c)


def test_kernel_matches_gauss_when_pivot_columns_are_skipped():
    rng = random.Random(909)
    for _ in range(20):
        m = rank_r_matrix(rng, 6, 5, rng.randint(1, 4), rational=True)
        for row in m:
            # a zero column, and a column that vanishes below the first
            # pivot row once the first column has been eliminated
            row.insert(rng.randint(0, len(row)), 0)
            row.insert(1, 3 * row[0])
        assert_kernel_matches_gauss(m)
        assert_kernel_matches_gauss(transpose(m))
    m = [[0, 2, 4, 1], [0, 1, 2, 5], [0, 3, 6, 0]]
    assert mat_rank(m) == gauss(m)[0] == 2


def test_rows_with_zero_in_pivot_column_are_rescaled():
    # after the first step the middle row has a 0 under the pivot 2, so it
    # is left as it is with at[r] = 1; its next update divides by at[r] (here
    # it becomes the pivot row and is brought up to date by 2 / 1), and a
    # kernel that divided it by the last pivot 2 instead would truncate
    m = [[2, 1, 0], [0, 3, 1], [1, 0, 5]]
    assert mat_det(m) == gauss(m)[1] == 31
    assert solve(m, [1, 2, 3]) == gauss_jordan_solve(m, [1, 2, 3])
    m = [[Fraction(2, 3), 1, 0, 0], [0, 0, 3, 1], [0, 5, 0, 0],
         [1, 0, 5, Fraction(1, 7)]]
    assert mat_det(m) == gauss(m)[1]


def full_rescale_bareiss(rows):
    """Textbook Bareiss elimination in place, the reference for
    `_eliminate`: every row below the pivot is updated at every step, so
    a row with a 0 under the pivot p is multiplied by p / prev at once."""
    pivots, sign, prev = [], 1, 1
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        if top == len(rows):
            break
        pivot = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        if pivot != top:
            rows[top], rows[pivot] = rows[pivot], rows[top]
            sign = -sign
        head = rows[top][col:]
        p = head[0]
        for r in range(top + 1, len(rows)):
            row = rows[r]
            f = row[col]
            row[col:] = [(p * a - f * b) // prev
                         for a, b in zip(row[col:], head)]
        prev = p
        pivots.append(col)
    return pivots, sign


def test_eliminate_matches_the_full_rescale_bareiss():
    # every shape up to 9 x 10; the n x (n + 1) ones are the augmented
    # square systems that `solve` eliminates.  Rows below the last pivot
    # are zero on both sides, so the whole matrices agree
    rng = random.Random(1212)
    for n_rows in range(1, 10):
        for n_cols in range(1, 11):
            for density in (0.2, 0.5, 0.9):
                for _ in range(4):
                    m = [[rng.randint(-9, 9) if rng.random() < density else 0
                          for _ in range(n_cols)] for _ in range(n_rows)]
                    got, want = [row[:] for row in m], [row[:] for row in m]
                    assert _eliminate(got) == full_rescale_bareiss(want)
                    assert got == want


def test_rows_that_skip_steps_are_updated_and_chosen_as_pivots():
    # rows 1 and 2 are updated at step 0 and then skip steps 1 and 2, in
    # which rows 3 and 4 are swapped up past them as pivot rows; at step 3
    # row 1 is the pivot row and row 2 is updated
    m = [[2, 0, 0, 1, 0], [-1, 0, 0, 2, 0], [2, 0, 0, 0, -1],
         [0, 3, 0, 0, -2], [0, -1, 3, 0, 1]]
    got, want = [row[:] for row in m], [row[:] for row in m]
    assert _eliminate(got) == full_rescale_bareiss(want) == ([0, 1, 2, 3, 4],
                                                             1)
    assert got == want
    assert mat_det(m) == gauss(m)[1] == -45
    b = [1, -2, 3, 0, 5]
    assert solve(m, b) == gauss_jordan_solve(m, b)


def test_solve_matches_gauss_jordan():
    rng = random.Random(1010)
    for n in range(1, 9):
        for zero_share in (0.0, 0.6):
            a = [[rational(rng, zero_share=zero_share) for _ in range(n)]
                 for _ in range(n)]
            if gauss(a)[1] == 0:
                continue
            b = [rational(rng) for _ in range(n)]
            x = solve(a, b)
            assert all(type(xi) is Fraction for xi in x)
            assert x == gauss_jordan_solve(a, b)
