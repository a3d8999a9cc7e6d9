"""Exact linear algebra over the rationals: one integer kernel.

Denominators are cleared in one place, `scaled`, which multiplies a
matrix by the lcm d of all its denominators and returns Python int rows
together with d; it also refuses any entry but an int or a Fraction.  Every elimination in the package runs through
`_eliminate`, a single fraction-free Bareiss elimination of such int rows
(Bareiss, "Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22, 1968): every entry is an integer minor of
the cleared matrix and every division is exact.  Rank is the pivot count,
the determinant is the signed last pivot divided by d ** n, and a square
solve eliminates the augmented matrix and back-substitutes, so every
vanishing or rank statement made elsewhere in the package is decided
with zero tolerance by the same code.  Only the answers of `mat_det` and
`solve` are built as ``fractions.Fraction``.

The products `dot`, `mat_vec`, `bilinear` (u^T G v) and `congruence`
(P^T G P) are sums of products of the entries, so they keep the exact
type of their inputs (ints stay ints, rationals stay rationals).  Each
checks its lengths, and that its result holds only ints and Fractions,
once for the whole matrix rather than row by row; `congruence`, which
forms G P from the nonzero entries of G alone, checks its inputs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from operator import mul


class SingularMatrixError(ValueError):
    """A square system with no unique solution."""


#: the entry types `scaled` takes (a bool is an int to Python, not here)
_INTS = frozenset((int,))
_RATIONALS = frozenset((int, Fraction))


def scaled(mat) -> tuple[list, int]:
    """The matrix times the lcm d of all its denominators, as lists of
    ints, and d.  This is the one exactness check of the kernel: an entry
    that is not an int or a Fraction, such as a float or a bool, raises
    ``TypeError``."""
    kinds = {type(x) for row in mat for x in row}
    if kinds <= _INTS:
        return [list(row) for row in mat], 1
    if not kinds <= _RATIONALS:
        raise TypeError("matrix entries must be int or Fraction; floats "
                        "and bools are not exact rationals")
    d = lcm(*{x.denominator for row in mat for x in row})
    return [[x.numerator * (d // x.denominator) for x in row]
            for row in mat], d


def _eliminate(rows):
    """Bring the int rows to row echelon form in place, by Bareiss
    elimination.

    Returns (pivots, sign): the pivot column of each leading row and
    (-1) ** (number of row swaps).  Entry (i, j) of row i below the k-th
    step is the minor of the input on the first k pivot rows and columns
    plus row i and column j; in particular the last pivot of a square
    nonsingular input is its determinant up to `sign`.
    """
    pivots = []
    sign = 1
    prev = 1
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
            if f:
                row[col:] = [(p * a - f * b) // prev
                             for a, b in zip(row[col:], head)]
            else:
                # the row still takes the factor p / prev, or later
                # divisions by the pivot would not be exact
                row[col:] = [p * a // prev for a in row[col:]]
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


def mat_rank(mat) -> int:
    """Rank of a rectangular matrix of rationals."""
    return len(_eliminate(scaled(mat)[0])[0])


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
    """Raise ``TypeError`` unless each of `values` is an int or a Fraction;
    a float anywhere in a product makes its sum a float."""
    if not _RATIONALS.issuperset(map(type, values)):
        raise TypeError("float entries are not exact; use int or Fraction")


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


def congruence(p, gram) -> list:
    """The congruent Gram matrix P^T G P.  Row k of G P sums g P[l] over
    the nonzero entries g = G[k][l] alone (a sampled Gram is diagonal, or
    diagonal plus a hyperbolic plane), so both inputs are checked first:
    a skipped 0.0 would otherwise pass unseen."""
    n = len(gram)
    if len(p) != n or set(map(len, gram)) - {n} or len(set(map(len, p))) > 1:
        raise ValueError("congruence needs a square G and n equal rows of P")
    _require_exact(chain(*gram, *p))
    gp = []
    for row in gram:
        acc = [0] * len(p[0])
        for g, pl in zip(row, p):
            if g:
                acc = [a + g * x for a, x in zip(acc, pl)]
        gp.append(acc)
    gp_cols = list(zip(*gp))
    return [[sum(map(mul, ci, gj)) for gj in gp_cols] for ci in zip(*p)]
