"""Exact linear algebra over the rationals: one integer kernel.

Denominators are cleared in one place, `scaled`, which multiplies a
matrix by the lcm d of all its denominators and returns Python int rows
together with d; any entry but an int or a Fraction raises ``TypeError``
through `_record.exact`.  The package's two exact-number rules, `exact`
and `require_int`, live in `_record` alone.  Every elimination in the
package runs through `_eliminate`, a single fraction-free Bareiss
elimination of such int rows (Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 22,
1968): every pivot row holds integer minors of the cleared matrix, a
row below the pivots holds its Bareiss row times at / prev, where `at`
is the pivot it was last updated with and `prev` the last pivot, and
every division is exact.  A rank is taken on content-free rows and
columns: `int_rank` divides each row, then each column, by the gcd of its
entries (its content), drops those that vanish, and counts the pivots;
scaling by a nonzero int keeps the rank and shrinks every minor the
elimination builds.  The determinant is the signed last pivot divided by
d ** n, and a square solve eliminates the augmented matrix and
back-substitutes, so every vanishing or rank statement made elsewhere in
the package is decided with zero tolerance by the same code.  Only the
answers of `mat_det` and `solve` are built as ``fractions.Fraction``.

The products `dot`, `mat_vec` and `bilinear` (u^T G v) are sums of
products of the entries, so they keep the exact type of their inputs
(ints stay ints, rationals stay rationals).  Each checks its lengths,
and that its result holds only ints and Fractions, once for the whole
matrix rather than row by row: a scan of the set of entry types is the
fast path, and `exact` is called only to raise once that scan fails.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from ._record import exact


class SingularMatrixError(ValueError):
    """A square system with no unique solution."""


#: the entry types `scaled` takes (a bool is an int to Python, not here)
_INTS = frozenset((int,))
_RATIONALS = frozenset((int, Fraction))


def scaled(mat) -> tuple[list, int]:
    """The matrix times the lcm d of all its denominators, as lists of
    ints, and d.  An entry that is not an int or a Fraction, such as a
    float or a bool, raises ``TypeError`` through `exact`."""
    kinds = {type(x) for row in mat for x in row}
    if kinds <= _INTS:
        return [list(row) for row in mat], 1
    if not kinds <= _RATIONALS:
        for row in mat:
            _require_exact(row)
    d = lcm(*{x.denominator for row in mat for x in row})
    return [[x.numerator * (d // x.denominator) for x in row]
            for row in mat], d


def _eliminate(rows):
    """Bring the int rows to row echelon form in place, by Bareiss
    elimination.

    Returns (pivots, sign): the pivot column of each leading row and
    (-1) ** (number of row swaps).  Entry (i, j) of pivot row i, once
    chosen at the k-th step, is the minor of the input on the first k
    pivot rows and columns plus row i and column j; in particular the
    last pivot of a square nonsingular input is its determinant up to
    `sign`.  A row with a 0 under the pivot is left as it is, not scaled
    by pivot / prev: row r holds its minors times at[r] / prev, at[r]
    being the pivot it was last updated with (1 at the start), so its
    next update divides by at[r], and a pivot row is brought up to date.
    """
    pivots = []
    sign = 1
    prev = 1
    at = [1] * len(rows)
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        if top == len(rows):
            break
        pivot = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        if pivot != top:
            rows[top], rows[pivot] = rows[pivot], rows[top]
            at[top], at[pivot] = at[pivot], at[top]
            sign = -sign
        s = at[top]
        if s != prev:
            rows[top][col:] = [a * prev // s for a in rows[top][col:]]
        head = rows[top][col:]
        p = head[0]
        for r in range(top + 1, len(rows)):
            row = rows[r]
            f = row[col]
            if f:
                s = at[r]
                row[col:] = [(p * a - f * b) // s
                             for a, b in zip(row[col:], head)]
                at[r] = p
        prev = p
        pivots.append(col)
    return pivots, sign


def require_symmetric(gram) -> None:
    """Raise ``ValueError`` unless `gram` is square and symmetric.  The
    loops stay plain: a certificate builds thousands of forms, and plain
    loops beat a generator expression there."""
    n = len(gram)
    for row in gram:
        if len(row) != n:
            raise ValueError("Gram matrix must be square")
    for i in range(n):
        for j in range(i):
            if gram[i][j] != gram[j][i]:
                raise ValueError("Gram matrix must be symmetric")


def _primitive(vectors) -> list:
    """The int vectors that are not zero, each divided by its content."""
    out = []
    for v in vectors:
        g = gcd(*v)
        if g == 1:
            out.append(v)
        elif g:
            out.append([x // g for x in v])
    return out


def int_rank(rows) -> int:
    """Rank of a rectangular matrix of ints, given as rows (lists or
    tuples), which it leaves as they are: the pivot count of `_eliminate`
    on the rows and then the columns cleared of their contents."""
    if len(set(map(len, rows))) > 1:
        raise ValueError("rank needs rows of equal length")
    cols = _primitive(zip(*_primitive(rows)))
    return len(_eliminate([list(row) for row in zip(*cols)])[0])


def mat_rank(mat) -> int:
    """Rank of a rectangular matrix of rationals."""
    return int_rank(scaled(mat)[0])


def mat_det(mat) -> Fraction:
    """Determinant of a square matrix of rationals."""
    n = len(mat)
    if any(len(r) != n for r in mat):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return Fraction(1)
    rows, d = scaled(mat)
    pivots, sign = _eliminate(rows)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * rows[-1][-1], d ** n)


def solve(mat, rhs) -> list[Fraction]:
    """Solve a square system ``mat * x = rhs`` exactly.

    Raises ``SingularMatrixError`` when the matrix is not invertible.
    """
    n = len(mat)
    if any(len(r) != n for r in mat) or len(rhs) != n:
        raise SingularMatrixError("system is not square")
    rows, _ = scaled([list(row) + [b] for row, b in zip(mat, rhs)])
    pivots, _ = _eliminate(rows)
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    if n == 0:
        return []
    # with d the last pivot, d * x is integral (Cramer's rule), so the
    # back-substitution for y = d * x divides exactly
    d = rows[-1][n - 1]
    y = [0] * n
    for i in reversed(range(n)):
        row = rows[i]
        y[i] = (d * row[n] - dot(row[i + 1:n], y[i + 1:])) // row[i]
    return [Fraction(yi, d) for yi in y]


def _require_exact(values) -> None:
    """Raise ``TypeError``, through `exact`, unless each of `values` is
    an int or a Fraction; a float anywhere in a product makes its sum a
    float."""
    if not _RATIONALS.issuperset(map(type, values)):
        for x in values:
            exact(x)


def dot(u, v):
    """Exact dot product of two equally long vectors."""
    if len(u) != len(v):
        raise ValueError("dot product of vectors of unequal length")
    total = sum(map(mul, u, v))
    _require_exact((total,))
    return total


def mat_vec(mat, vec) -> list:
    """The column vector mat * vec."""
    if set(map(len, mat)) - {len(vec)}:
        raise ValueError("matrix rows and vector differ in length")
    out = [sum(map(mul, row, vec)) for row in mat]
    _require_exact(out)
    return out


def bilinear(gram, u, v):
    """The bilinear value u^T G v of the square Gram matrix G; a float
    anywhere in G, u or v makes the total a float."""
    n = len(gram)
    if len(u) != n or len(v) != n or set(map(len, gram)) - {n}:
        raise ValueError("u, the rows of G and v differ in length")
    total = sum(map(mul, u, [sum(map(mul, row, v)) for row in gram]))
    _require_exact((total,))
    return total

