"""Exact linear algebra over the rationals: one kernel.

Every elimination in the package runs through `_eliminate`, forward
Gaussian elimination on ``fractions.Fraction`` entries that returns the
echelon rows, the pivot columns and the sign of the row swaps.  Rank is
the pivot count, the determinant is the signed product of the pivots, and
a square solve eliminates the augmented matrix and back-substitutes, so
every vanishing or rank statement made elsewhere in the package is
decided with zero tolerance by the same code.

Products go through `dot`, from which `mat_vec`, `bilinear` (u^T G v)
and `congruence` (P^T G P) are built.  They keep the exact type of their
inputs (ints stay ints, rationals stay rationals) and reject floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod


class SingularMatrixError(ValueError):
    """A square system with no unique solution."""


def _eliminate(mat):
    """Row echelon form of `mat` by forward elimination.

    Returns (rows, pivots, sign): the echelon rows as Fractions, the pivot
    column of each leading row, and (-1) ** (number of row swaps).
    """
    rows = [[Fraction(x) for x in row] for row in mat]
    pivots = []
    sign = 1
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
        inv = 1 / head[0]
        for r in range(top + 1, len(rows)):
            row = rows[r]
            if row[col]:
                f = row[col] * inv
                row[col:] = [a - f * b for a, b in zip(row[col:], head)]
        pivots.append(col)
    return rows, pivots, sign


def mat_rank(mat) -> int:
    """Rank of a rectangular matrix of rationals."""
    return len(_eliminate(mat)[1])


def mat_det(mat) -> Fraction:
    """Determinant of a square matrix of rationals."""
    n = len(mat)
    if any(len(r) != n for r in mat):
        raise ValueError("determinant needs a square matrix")
    rows, pivots, sign = _eliminate(mat)
    if len(pivots) < n:
        return Fraction(0)
    return prod((rows[i][i] for i in range(n)), start=Fraction(sign))


def solve(mat, rhs) -> list[Fraction]:
    """Solve a square system ``mat * x = rhs`` exactly.

    Raises ``SingularMatrixError`` when the matrix is not invertible.
    """
    n = len(mat)
    if any(len(r) != n for r in mat) or len(rhs) != n:
        raise SingularMatrixError("system is not square")
    rows, pivots, _ = _eliminate(
        [list(row) + [b] for row, b in zip(mat, rhs)])
    if pivots != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        x[i] = (rows[i][n] - dot(rows[i][i + 1:n], x[i + 1:])) / rows[i][i]
    return x


def dot(u, v):
    """Exact dot product of two equally long vectors."""
    total = sum(a * b for a, b in zip(u, v, strict=True))
    if isinstance(total, float):
        raise TypeError("float entries are not exact; use int or Fraction")
    return total


def mat_vec(mat, vec) -> list:
    """The column vector mat * vec."""
    return [dot(row, vec) for row in mat]


def bilinear(gram, u, v):
    """The bilinear value u^T G v of the Gram matrix G."""
    return dot(u, mat_vec(gram, v))


def congruence(p, gram) -> list:
    """The congruent Gram matrix P^T G P."""
    cols = list(zip(*p))
    gp = [mat_vec(gram, c) for c in cols]
    return [[dot(ci, gpj) for gpj in gp] for ci in cols]
