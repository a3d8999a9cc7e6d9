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
G.  Compounds, evaluations and gradients run on that view.  A compound
is built as the symmetric matrix it is: each 2x2 minor on or above the
diagonal is computed once and read again below it.  A derived
form (a compound, a sampled form) is built from its own view, and its
Gram is built from the view the first time it is read, so the rank of a
compound never builds a `Fraction`.  A bivector transform clears the
denominators of the matrix and of the bivector once and divides each
image coefficient once, and the Pluecker rank eliminates int rows.
`Fraction` appears only in an answer that has a denominator: an entry of
the Gram of a rational compound, a value of `evaluate`, or an image
coefficient.  Tangency and singularity ask only whether something
vanishes, which scaling q, u or v by a positive number does not change,
so they never build a `Fraction`.  Both, and the tangency oracle
`discriminant_tangency`, check u and v in one gate, which scales them to
ints once; the oracle then reads Qt(u, v) on the view of q and forms no
compound.  Integral entries are stored as ints, so compounds, wedge
coordinates and bivector transforms of integer input are integer.
Floats are refused.
The random samplers draw integer entries in [-9, 9] from a
caller-supplied seeded generator.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain
from math import gcd
from operator import itemgetter, mul

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
    """Dense exact-rational symmetric bilinear form, built from any square
    symmetric array of rationals: `gram` is its rows as `exact` tuples.

    Besides `gram` it keeps the integer view `_ints` = d G, as int rows,
    and `_den` = d, the lcm of the denominators of G.  The view is a
    cache: equality, hashing and `repr` read `gram` alone, and copying
    and pickling rebuild the form from `gram`.  A form derived inside
    this module (a compound, a sampled form) is built from its view by
    `_from_view`, and its `gram` is built from the view the first time it
    is read; `dim`, `evaluate` and `rank` read the view alone.
    """

    __slots__ = ("gram", "_ints", "_den")

    def __init__(self, gram):
        gram = tuple(tuple(exact(x) for x in row) for row in gram)
        require_symmetric(gram)
        _set(self, "gram", gram)
        ints, den = scaled(gram)
        _set(self, "_ints", ints)
        _set(self, "_den", den)

    @classmethod
    def _from_view(cls, ints: list, den: int) -> SymmetricForm:
        """The form with Gram ints / den, for symmetric int rows `ints`
        and den > 0 that have no common factor."""
        form = object.__new__(cls)
        _set(form, "_ints", ints)
        _set(form, "_den", den)
        return form

    def __getattr__(self, name):
        # reached only while a slot is empty: `gram` of a form built by
        # `_from_view`, until it is first read
        if name != "gram":
            raise AttributeError(f"SymmetricForm has no attribute {name!r}")
        d = self._den
        _set(self, "gram", tuple(tuple(_ratio(x, d) for x in row)
                                 for row in self._ints))
        return self.gram

    def _key(self) -> tuple:
        return (self.gram,)

    def __reduce__(self):
        return SymmetricForm, (self.gram,)

    @property
    def dim(self) -> int:
        return len(self._ints)

    def evaluate(self, u, v):
        """Bilinear value u^T G v; `bilinear` checks the lengths."""
        (iu, iv), d = scaled((u, v))
        return _ratio(bilinear(self._ints, iu, iv), self._den * d * d)

    def quadratic(self, u):
        return self.evaluate(u, u)

    def rank(self) -> int:
        return len(_eliminate([list(row) for row in self._ints])[0])


def _ratio(n: int, d: int):
    """n / d for ints n and d > 0, as an int when d divides n."""
    return n // d if n % d == 0 else Fraction(n, d)


#: the constructor under the name of a builder function
symmetric_form = SymmetricForm


@cache
def wedge_pairs(n: int) -> tuple:
    """Lexicographic index pairs (i, j), i < j, of the wedge-square basis."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


def wedge_coordinates(u, v) -> list:
    """Pluecker coordinates of u ^ v in the lexicographic pair basis."""
    return [u[i] * v[j] - u[j] * v[i] for i, j in wedge_pairs(len(u))]


@cache
def _compound_layout(n: int) -> tuple:
    """The index quadruples (i, j, k, l) of the minors on and right of the
    diagonal of the compound of an n x n matrix, row by row, and one
    getter per row that picks the row out of the list of those minors.
    For a symmetric matrix the compound is symmetric, so entry (b, a) is
    read where entry (a, b) was put."""
    pairs = wedge_pairs(n)
    upper = [(a, b) for a in range(len(pairs)) for b in range(a, len(pairs))]
    at = {ab: t for t, ab in enumerate(upper)}
    rows = [[at[min(a, b), max(a, b)] for b in range(len(pairs))]
            for a in range(len(pairs))]
    # a one-index itemgetter returns the item, not a 1-tuple
    getters = [itemgetter(*row) if len(row) > 1 else tuple for row in rows]
    return tuple(pairs[a] + pairs[b] for a, b in upper), tuple(getters)


def _compound_rows(g) -> list:
    """The 2x2 minors of the symmetric int matrix g, as row tuples in the
    wedge-pair basis: the compound of the form with Gram g / d is this
    over d^2.  Each minor off the diagonal is computed once."""
    quads, getters = _compound_layout(len(g))
    minors = [g[i][k] * g[j][l] - g[j][k] * g[i][l] for i, j, k, l in quads]
    return [get(minors) for get in getters]


def second_compound(q: SymmetricForm) -> SymmetricForm:
    """Second compound form on the wedge square: the 2x2-minor matrix of
    the Gram of q.  Its rank is C(rank q, 2).

    The minors of the view d G are the compound times d^2, so its own
    view is the minors and d^2, both divided by their gcd.
    """
    rows = _compound_rows(q._ints)
    d2 = q._den ** 2
    g = gcd(d2, *chain.from_iterable(rows))
    if g > 1:
        rows = [[c // g for c in row] for row in rows]
    return SymmetricForm._from_view(rows, d2 // g)


def _line(q: SymmetricForm, u, v, off_quadric) -> tuple:
    """(iu, iv, w): u and v scaled to ints together, and the wedge
    coordinates of iu ^ iv.  Raises ``ValueError`` on a length mismatch,
    ``TypeError`` on an inexact entry, `off_quadric` unless [u] lies on
    the quadric, and `DependentVectorsError` unless u and v span a line."""
    if len(u) != q.dim:
        raise ValueError("vector length must match the form dimension")
    if len(v) != len(u):
        raise ValueError("the two vectors must have the same length")
    (iu, iv), _ = scaled((u, v))
    if bilinear(q._ints, iu, iu) != 0:
        raise off_quadric("base point is not on the quadric")
    w = wedge_coordinates(iu, iv)
    if not any(w):
        raise DependentVectorsError("vectors do not span a line")
    return iu, iv, w


def tangency(q: SymmetricForm, u, v) -> bool:
    """Is the line through [u] (on the quadric) and [v] tangent to it?

    Decided by the vanishing of the second compound form on u ^ v.  The
    independent route is `discriminant_tangency`.
    """
    _, _, w = _line(q, u, v, BasePointNotOnQuadricError)
    return bilinear(_compound_rows(q._ints), w, w) == 0


def discriminant_tangency(q: SymmetricForm, u, v) -> bool:
    """Oracle for `tangency`, with no compound: q restricted to the line
    su + tv is a binary quadratic of discriminant Qt(u,v)^2 - Q(u) Q(v),
    which vanishes exactly on a tangent line.  As Q(u) = 0 on the
    quadric, that is Qt(u, v) = 0, read on the integer view."""
    iu, iv, _ = _line(q, u, v, BasePointNotOnQuadricError)
    return bilinear(q._ints, iu, iv) == 0


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
    iu, iv, w = _line(q, u, v, NotInComplexError)
    grad = mat_vec(_compound_rows(q._ints), w)
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


def _require_pairs(psi, n: int) -> None:
    """Raise ``ValueError`` unless each key of `psi` is a pair (i, j) of
    ints, not bools, with 0 <= i < j < n."""
    for i, j in psi:
        if type(i) is not int or type(j) is not int or not 0 <= i < j < n:
            raise ValueError(f"bad index pair {(i, j)}")


def plucker_quadric_rank(psi) -> int:
    """Rank of the quadric B(x, y) = vol(x ^ y ^ psi) on the wedge square
    of a 6-space, for psi mapping index pairs (i, j), i < j < 6, to
    rational coefficients: 6 for decomposable psi (a Pluecker quadric),
    10 for wedge-rank two, 15 for wedge-rank three.  The coefficients are
    cleared of denominators first: a positive scale does not change the
    rank.

    >>> plucker_quadric_rank({(0, 1): 1})
    6
    """
    _require_pairs(psi, 6)
    psi = {p: c for p, v in psi.items() if (c := exact(v))}
    if not psi:
        raise ZeroInputError("zero bivector")
    (coefs,), _ = scaled((psi.values(),))
    psi = dict(zip(psi, coefs))
    rows = [[0] * 15 for _ in range(15)]
    for row, col, rest, sign in _volume_signs():
        coef = psi.get(rest)
        if coef:
            rows[row][col] = sign * coef
    return mat_rank(rows)


def transform_bivector(matrix, psi) -> dict:
    """Image of a bivector under the wedge square of a linear map
    (e_i -> sum_k matrix[k][i] e_k), accumulated in ints from the matrix
    m / d and the coefficients p / e, then divided by d^2 e once.  The
    keys of `psi` are index pairs (i, j), i < j < the number of columns."""
    m, d = scaled(matrix)
    (coefs,), e = scaled((psi.values(),))
    if len(set(map(len, m))) > 1:
        raise ValueError("matrix rows must have equal length")
    _require_pairs(psi, len(m[0]) if m else 0)
    n = len(m)
    out: dict = {}
    for (i, j), p in zip(psi, coefs):
        for k, l in wedge_pairs(n):
            c = m[k][i] * m[l][j] - m[k][j] * m[l][i]
            if c:
                out[(k, l)] = out.get((k, l), 0) + p * c
    den = d * d * e
    return {p: _ratio(c, den) for p, c in out.items() if c}


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
    """Random integer change of basis P together with the transpose of
    its integer inverse, whose row k is P^-1 e_k.

    Built as a product of row shears and swaps (determinant +-1), so the
    inverse stays integral and entries stay small in the sampling loops.
    """
    randrange, random, randint = rng.randrange, rng.random, rng.randint
    m = [[0] * i + [1] + [0] * (dim - 1 - i) for i in range(dim)]
    inv_t = [row[:] for row in m]
    for _ in range(steps):
        i = randrange(dim)
        j = randrange(dim)
        if i == j:
            m[i], m[j] = m[j], m[i]
            continue
        if random() < 0.2:
            # swap: self-inverse, applied on the left of m and the
            # right of the inverse, i.e. to the rows of its transpose
            m[i], m[j] = m[j], m[i]
            inv_t[i], inv_t[j] = inv_t[j], inv_t[i]
            continue
        c = randint(-3, 3)
        # m <- S m with S = I + c E_ij; inverse <- inverse S^{-1}, whose
        # column j loses c times column i
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        inv_t[j] = [a - c * b for a, b in zip(inv_t[j], inv_t[i])]
    return m, inv_t


def random_symmetric_form_of_rank(rng, dim: int, rank: int) -> SymmetricForm:
    """Random symmetric form of exact rank: a nonzero diagonal of the
    requested length conjugated by a random change of basis."""
    if not 0 <= rank <= dim:
        raise ValueError("rank out of range")
    g0 = [[0] * dim for _ in range(dim)]
    for i in range(rank):
        g0[i][i] = _nonzero(rng)
    p, _ = random_unimodular_pair(rng, dim)
    return SymmetricForm._from_view(congruence(p, g0), 1)


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
    p, images = random_unimodular_pair(rng, dim)
    return SymmetricForm._from_view(congruence(p, g0), 1), images


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


def complex_point_samples(rng, count: int):
    """Yield (q, u, v, inside) with [u ^ v] in the tangent complex of the
    full-rank form q on a 5-space; `inside` marks the constructed lines
    that lie in the quadric (both vectors isotropic).

    Construction on the split model U + diag(d, -d, d'): u0 = e_1 is
    isotropic and everything orthogonal to e_2 pairs to zero with it;
    v0 = (a, 0, t, t, 0) is isotropic, v0 = (a, 0, b, c, f) generic.
    """
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
        v = [sum(map(mul, coeffs, col)) for col in zip(*images)]
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
