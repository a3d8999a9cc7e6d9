"""Exact linear algebra of quadratic line complexes.

For a quadratic form Q on V with bilinear form Qt, the second compound
form on the wedge square is

    nu2(Qt)(u^v, s^t) = Qt(u,s) Qt(v,t) - Qt(v,s) Qt(u,t),

whose Gram matrix consists of the 2x2 minors of the Gram of Qt; its rank
is C(rank Q, 2).  The tangent lines to the quadric {Q = 0} through a
point [u] on it are cut out by the vanishing of nu2 on u^v, and the
singular points of that complex are exactly the lines contained in the
quadric (both vectors isotropic).

The module also decides the rank trichotomy {6, 10, 15} of quadrics
through G(2, 6): a bivector psi defines the symmetric form
B(x, y) = vol(x ^ y ^ psi) on the wedge square of a 6-space, and the
rank of B is 6, 10 or 15 according to the wedge-rank of psi.

Everything is exact rational arithmetic, done in Python ints.  A form
clears its denominators once, when it is built: it keeps its Gram G as
given and an integer view (d G, d) with d the lcm of the denominators of
G.  Compounds, evaluations and gradients run on that view, and
`Fraction` appears only in an answer that has a denominator: an entry of
the compound of a rational form, or a value of `evaluate`.  Tangency and
singularity ask only whether something vanishes, which scaling q, u or v
by a positive number does not change, so they never build a `Fraction`.
Integral entries are stored as ints, so compounds, wedge coordinates and
bivector transforms of integer input are integer.  Floats are refused.
The random samplers draw integer entries in [-9, 9] from a
caller-supplied seeded generator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from ._linalg import (SingularMatrixError, _eliminate, bilinear, congruence,
                      dot, mat_det, mat_rank, mat_vec, require_symmetric,
                      scaled, solve)
from ._record import Record, _set, exact


class BasePointNotOnQuadricError(ValueError):
    """Tangency asked at a base point off the quadric."""


class DependentVectorsError(ValueError):
    """The two vectors do not span a line."""


class NotInComplexError(ValueError):
    """Singularity asked at a line outside the complex."""


class ZeroInputError(ValueError):
    """The zero bivector defines no quadric."""


class SymmetricForm(Record):
    """Dense exact-rational symmetric bilinear form.

    Besides `gram` it keeps the integer view `_ints` = d G, as int rows,
    and `_den` = d, the lcm of the denominators of G.  The view is a
    cache: equality, hashing and `repr` read `gram` alone, and copying
    and pickling rebuild the form from `gram`.
    """

    __slots__ = ("gram", "_ints", "_den")

    def __init__(self, gram: tuple):
        require_symmetric(gram)
        _set(self, "gram", gram)
        ints, den = scaled(gram)
        _set(self, "_ints", ints)
        _set(self, "_den", den)

    def _key(self) -> tuple:
        return (self.gram,)

    def __reduce__(self):
        return SymmetricForm, (self.gram,)

    @property
    def dim(self) -> int:
        return len(self.gram)

    def evaluate(self, u, v):
        """Bilinear value u^T G v."""
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError("vector length must match the form dimension")
        if self._den == 1:
            return bilinear(self.gram, u, v)
        (iu,), du = scaled((u,))
        (iv,), dv = scaled((v,))
        return _ratio(bilinear(self._ints, iu, iv), self._den * du * dv)

    def quadratic(self, u):
        return self.evaluate(u, u)

    def rank(self) -> int:
        return len(_eliminate([list(row) for row in self._ints])[0])


def _ratio(n: int, d: int):
    """n / d for ints n and d > 0, as an int when d divides n."""
    return n // d if n % d == 0 else Fraction(n, d)


def symmetric_form(rows) -> SymmetricForm:
    """Build a form from any square symmetric array of rationals."""
    return SymmetricForm(tuple(tuple(exact(x) for x in row)
                               for row in rows))


@cache
def wedge_pairs(n: int) -> tuple:
    """Lexicographic index pairs (i, j), i < j, of the wedge-square basis."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def wedge_coordinates(u, v) -> list:
    """Pluecker coordinates of u ^ v in the lexicographic pair basis."""
    return [u[i] * v[j] - u[j] * v[i] for i, j in wedge_pairs(len(u))]


def _compound_rows(g) -> list:
    """The 2x2 minors of the int matrix g, row by row in the wedge-pair
    basis: the compound of the form with Gram g / d is this over d^2."""
    pairs = wedge_pairs(len(g))
    rows = []
    for i, j in pairs:
        gi, gj = g[i], g[j]
        rows.append([gi[k] * gj[l] - gj[k] * gi[l] for k, l in pairs])
    return rows


def second_compound(q: SymmetricForm) -> SymmetricForm:
    """Second compound form on the wedge square: the 2x2-minor matrix of
    the Gram of q.  Its rank is C(rank q, 2).
    """
    rows = _compound_rows(q._ints)
    if q._den == 1:
        return SymmetricForm(tuple(map(tuple, rows)))
    d2 = q._den ** 2
    return SymmetricForm(tuple(tuple(_ratio(c, d2) for c in row)
                               for row in rows))


def _require_line(u, v) -> list:
    """Wedge coordinates of u ^ v, which must be a line."""
    if len(u) != len(v):
        raise ValueError("the two vectors must have the same length")
    w = wedge_coordinates(u, v)
    if not any(w):
        raise DependentVectorsError("vectors do not span a line")
    return w


def _integer_line(q: SymmetricForm, u, v, off_quadric) -> tuple:
    """(c, iu, iv, w): the integer compound of q, u and v scaled to ints,
    and the wedge coordinates of iu ^ iv.  Raises `off_quadric` unless
    [u] lies on the quadric, and `DependentVectorsError` unless u and v
    span a line."""
    if len(u) != q.dim:
        raise ValueError("vector length must match the form dimension")
    (iu, iv), _ = scaled((u, v))
    if bilinear(q._ints, iu, iu) != 0:
        raise off_quadric("base point is not on the quadric")
    w = _require_line(iu, iv)
    return _compound_rows(q._ints), iu, iv, w


def tangency(q: SymmetricForm, u, v) -> bool:
    """Is the line through [u] (on the quadric) and [v] tangent to it?

    Decided by the vanishing of the second compound form on u ^ v.  The
    independent route is `discriminant_tangency`.
    """
    c, _, _, w = _integer_line(q, u, v, BasePointNotOnQuadricError)
    return bilinear(c, w, w) == 0


def discriminant_tangency(q: SymmetricForm, u, v) -> bool:
    """Oracle for `tangency`: the restriction of q to the line su + tv is
    a binary quadratic with discriminant Qt(u,v)^2 - Q(u) Q(v); the line
    is tangent exactly when the discriminant vanishes."""
    if q.quadratic(u) != 0:
        raise BasePointNotOnQuadricError("base point is not on the quadric")
    _require_line(u, v)
    return q.evaluate(u, v) ** 2 - q.quadratic(u) * q.quadratic(v) == 0


def is_singular_point(q: SymmetricForm, u, v) -> bool:
    """Is [u ^ v] a singular point of the tangent-line complex of q?

    The gradient of the complex at u ^ v is the linear form
    nu2(Qt)(u ^ v, -), computed once as the vector G2 w; it is tested
    against every tangent direction u ^ e_k and v ^ e_k.  For a line in
    the complex this vanishing is equivalent to the second vector being
    isotropic as well, i.e. to the line lying inside the quadric.

    The coordinate of x ^ e_k at the pair (i, j) is x_i [j = k] - x_j
    [i = k], so with m the antisymmetric matrix m[j][i] = -m[i][j] = the
    gradient at (i, j), m x lists grad . (x ^ e_k) for every k at once.
    """
    c, iu, iv, w = _integer_line(q, u, v, NotInComplexError)
    grad = mat_vec(c, w)
    if dot(grad, w) != 0:
        raise NotInComplexError("line is not in the tangent complex")
    m = [[0] * q.dim for _ in range(q.dim)]
    for g, (i, j) in zip(grad, wedge_pairs(q.dim)):
        m[i][j], m[j][i] = -g, g
    return not any(mat_vec(m, iu)) and not any(mat_vec(m, iv))


def solve_in_basis(pairing_rows, targets) -> list:
    """Express a class in a divisor basis from its test-curve pairings.

    Row r of `pairing_rows` lists the pairings of curve r with each basis
    divisor; `targets` lists the pairings of the sought class with each
    curve.  Returns the exact coefficient vector.
    """
    return solve(pairing_rows, targets)


def _perm_sign(seq) -> int:
    inversions = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
                     if seq[i] > seq[j])
    return -1 if inversions % 2 else 1


@cache
def _volume_signs() -> tuple:
    """The nonzero entries of vol(e_a ^ e_b ^ e_c ^ e_d ^ e_i ^ e_j) in
    dimension 6, as (row of (a, b), column of (c, d), (i, j), sign).

    The volume is nonzero only when {a, b} and {c, d} are disjoint and
    (i, j) is the complement of their union, so there are 15 * 6 = 90
    entries, each the sign of the permutation (a, b, c, d, i, j).
    """
    pairs = wedge_pairs(6)
    table = []
    for row, (a, b) in enumerate(pairs):
        for col, (c, d) in enumerate(pairs):
            rest = tuple(k for k in range(6) if k not in (a, b, c, d))
            if len(rest) == 2:
                table.append((row, col, rest, _perm_sign((a, b, c, d) + rest)))
    return tuple(table)


def plucker_quadric_rank(psi, dim_v: int = 6) -> int:
    """Rank of the quadric B(x, y) = vol(x ^ y ^ psi) on the wedge square.

    `psi` maps index pairs (i, j), i < j < dim_v, to rational
    coefficients.  For dim_v = 6 the rank is 6 for decomposable psi (a
    Pluecker quadric), 10 for wedge-rank two, 15 for wedge-rank three.

    >>> plucker_quadric_rank({(0, 1): 1})
    6
    """
    if dim_v != 6:
        raise ValueError("the volume pairing needs a 6-dimensional space")
    psi = {p: c for p, v in psi.items() if (c := exact(v))}
    if not psi:
        raise ZeroInputError("zero bivector")
    for (i, j) in psi:
        if not 0 <= i < j < dim_v:
            raise ValueError(f"bad index pair {(i, j)}")
    size = len(wedge_pairs(dim_v))
    rows = [[0] * size for _ in range(size)]
    for row, col, rest, sign in _volume_signs():
        coef = psi.get(rest)
        if coef:
            rows[row][col] = sign * coef
    return mat_rank(rows)


def transform_bivector(matrix, psi) -> dict:
    """Image of a bivector under the wedge square of a linear map
    (e_i -> sum_k matrix[k][i] e_k)."""
    n = len(matrix)
    out: dict = {}
    for (i, j), p in psi.items():
        for k, l in wedge_pairs(n):
            c = matrix[k][i] * matrix[l][j] - matrix[k][j] * matrix[l][i]
            if c:
                out[(k, l)] = out.get((k, l), 0) + p * c
    return {p: c for p, v in out.items() if (c := exact(v))}


# ---------------------------------------------------------------------------
# seeded samplers for the property suites

_ENTRY_RANGE = (-9, 9)


def random_invertible_matrix(rng, dim: int) -> list:
    """Random integer matrix with nonzero determinant."""
    while True:
        m = [[rng.randint(*_ENTRY_RANGE) for _ in range(dim)]
             for _ in range(dim)]
        if mat_det(m) != 0:
            return m


def random_unimodular_pair(rng, dim: int, steps: int = 10):
    """Random integer change of basis together with its integer inverse.

    Built as a product of row shears and swaps (determinant +-1), so the
    inverse stays integral and entries stay small in the sampling loops.
    """
    m = [[int(i == j) for j in range(dim)] for i in range(dim)]
    inv = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(steps):
        i = rng.randrange(dim)
        j = rng.randrange(dim)
        if i == j:
            m[i], m[j] = m[j], m[i]
            continue
        if rng.random() < 0.2:
            # swap: self-inverse, applied on the left of m and the
            # right of inv
            m[i], m[j] = m[j], m[i]
            for row in inv:
                row[i], row[j] = row[j], row[i]
            continue
        c = rng.randint(-3, 3)
        # m <- S m with S = I + c E_ij; inv <- inv S^{-1}
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        for row in inv:
            row[j] -= c * row[i]
    return m, inv


def random_symmetric_form_of_rank(rng, dim: int, rank: int) -> SymmetricForm:
    """Random symmetric form of exact rank: a nonzero diagonal of the
    requested length conjugated by a random change of basis."""
    if not 0 <= rank <= dim:
        raise ValueError("rank out of range")
    g0 = [[0] * dim for _ in range(dim)]
    for i in range(rank):
        g0[i][i] = _nonzero(rng)
    p, _ = random_unimodular_pair(rng, dim)
    return symmetric_form(congruence(p, g0))


def _nonzero(rng):
    d = 0
    while d == 0:
        d = rng.randint(*_ENTRY_RANGE)
    return d


def _conjugated_split_sample(rng, diag_tail):
    """Split form (hyperbolic plane + diagonal tail) pushed through a
    random change of basis; returns (form, image of each basis vector)."""
    dim = 2 + len(diag_tail)
    g0 = [[0] * dim for _ in range(dim)]
    g0[0][1] = g0[1][0] = 1
    for i, d in enumerate(diag_tail):
        g0[2 + i][2 + i] = d
    p, pinv = random_unimodular_pair(rng, dim)
    gram = congruence(p, g0)
    # in the new coordinates the old basis vector e_k is P^{-1} e_k
    images = [[pinv[r][k] for r in range(dim)] for k in range(dim)]
    return symmetric_form(gram), images


def tangency_samples(rng, count: int, dim: int = 5):
    """Yield (q, u, v) with q of full rank, [u] on the quadric, v generic."""
    for _ in range(count):
        tail = [_nonzero(rng) for _ in range(dim - 2)]
        q, images = _conjugated_split_sample(rng, tail)
        u = images[0]
        while True:
            v = [rng.randint(*_ENTRY_RANGE) for _ in range(dim)]
            if any(wedge_coordinates(u, v)):
                break
        yield q, u, v


def complex_point_samples(rng, count: int, dim: int = 5):
    """Yield (q, u, v, inside) with [u ^ v] in the tangent complex of the
    full-rank form q; `inside` marks the constructed lines that lie in
    the quadric (both vectors isotropic).

    Construction on the split model U + diag(d, -d, d'): u0 = e_1 is
    isotropic and everything orthogonal to e_2 pairs to zero with it;
    v0 = (a, 0, t, t, 0) is isotropic, v0 = (a, 0, b, c, f) generic.
    """
    if dim != 5:
        raise ValueError("the split construction is tuned to dimension 5")
    made = 0
    while made < count:
        d = _nonzero(rng)
        tail = [d, -d, _nonzero(rng)]
        q, images = _conjugated_split_sample(rng, tail)
        inside = made % 2 == 0
        if inside:
            t = _nonzero(rng)
            coeffs = [rng.randint(*_ENTRY_RANGE), 0, t, t, 0]
        else:
            coeffs = [rng.randint(*_ENTRY_RANGE), 0,
                      rng.randint(*_ENTRY_RANGE),
                      rng.randint(*_ENTRY_RANGE),
                      rng.randint(*_ENTRY_RANGE)]
        v = [sum(c * img[r] for c, img in zip(coeffs, images))
             for r in range(dim)]
        u = images[0]
        if not any(wedge_coordinates(u, v)):
            continue
        if not inside and q.quadratic(v) == 0:
            continue
        yield q, u, v, inside
        made += 1


def compound_rank_samples(rng, count: int, dim: int = 5):
    """Yield (q, rank q) over all ranks 0..dim, `count` samples each."""
    for rank in range(dim + 1):
        for _ in range(count):
            yield random_symmetric_form_of_rank(rng, dim, rank), rank
