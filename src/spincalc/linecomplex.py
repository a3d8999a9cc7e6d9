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
keeps only its integer view (d G, d), d the lcm of the denominators of
its Gram G, and reads G back from it.  Compounds, evaluations, gradients
and ranks run on that view, and a derived form (a compound, a sampled
form) is built from its own view.  Every rank is taken on content-free
rows and columns (`_linalg.int_rank`): row i of the view of a rational
form carries the factor d / d_i, d_i the lcm of the denominators of its
row, which would grow every minor of the elimination.  `Fraction`
appears only in an answer that has a denominator: an entry of the Gram
of a rational compound, a value of `evaluate`, or an image coefficient.
Tangency and singularity ask only whether something vanishes, which
scaling q, u or v by a positive number does not change, so they never
build a `Fraction`.  Integer input stays integer.  One exactness rule
holds throughout, that of `_linalg.scaled`: a number is an int or a
Fraction, and anything else raises ``TypeError``.  The random samplers
draw integer entries in [-9, 9] from a caller-supplied seeded generator
by `_below`, conjugate a form along its drawn shears and swaps and pull
its vectors back along them, with no dense P^T G P and no images matrix.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain
from math import gcd
from operator import itemgetter

from ._linalg import (bilinear, dot, int_rank, mat_det, mat_rank, mat_vec,
                      require_symmetric, scaled, solve)
from ._record import Record, _set, require_int


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
    symmetric array of ints and Fractions.

    Its one stored state is the integer view: `_ints` = d G, as int rows,
    and `_den` = d, the lcm of the denominators of the Gram G.  `gram`
    reads G back from the view, an entry as an int where it is integral,
    so equality, hashing and `repr` compare Grams, and copying and
    pickling rebuild the form from its Gram.  A form derived inside this
    module (a compound, a sampled form) is built from its view by
    `_from_view`; `dim`, `evaluate` and `rank` read the view alone.
    """

    __slots__ = ("_ints", "_den")

    def __init__(self, gram):
        # rows read once, as `scaled` (the one type check) walks them twice
        ints, den = scaled([tuple(row) for row in gram])
        require_symmetric(ints)
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

    @property
    def gram(self) -> tuple:
        """The Gram matrix as row tuples, an integral entry as an int."""
        d = self._den
        return tuple(tuple(_ratio(x, d) for x in row) for row in self._ints)

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
        return int_rank(self._ints)


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
    if len(u) != len(v):
        raise ValueError("the two vectors must have the same length")
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
    """Raise ``TypeError`` unless each key of `psi` is a pair (i, j) of
    plain ints, and ``ValueError`` unless 0 <= i < j < n."""
    for i, j in psi:
        require_int("a pair index", i, j)
        if not 0 <= i < j < n:
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
    (coefs,), _ = scaled((psi.values(),))
    psi = {p: c for p, c in zip(psi, coefs) if c}
    if not psi:
        raise ZeroInputError("zero bivector")
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

_ENTRY_MIN, _ENTRY_WIDTH = -9, 19  #: a sampled entry is in [-9, 9]


def _below(bits, n: int) -> int:
    """`randrange(n)`, n > 0, drawn from the generator's `getrandbits` by
    the loop of CPython's `Random._randbelow_with_getrandbits`."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def random_invertible_matrix(rng, dim: int) -> list:
    """Random integer matrix with nonzero determinant."""
    bits = rng.getrandbits
    while True:
        m = [[_ENTRY_MIN + _below(bits, _ENTRY_WIDTH) for _ in range(dim)]
             for _ in range(dim)]
        if mat_det(m) != 0:
            return m


def _draw_steps(rng, dim: int) -> list:
    """The ten steps of a random change of basis P = S_10 ... S_1 in draw
    order: (i, j, c) is the shear I + c E_ij and (i, j, None) the swap of
    e_i and e_j; a drawn i == j is a swap that draws nothing more."""
    bits, random = rng.getrandbits, rng.random
    steps = []
    for _ in range(10):
        i, j = _below(bits, dim), _below(bits, dim)
        steps.append((i, j, None if i == j or random() < 0.2
                      else _below(bits, 7) - 3))
    return steps


def _pull_back(steps, x) -> list:
    """P^-1 x for the P of `steps`: their inverses act on a copy of x,
    the last drawn first; I - c E_ij undoes a shear, a swap itself."""
    x = list(x)
    for i, j, c in reversed(steps):
        if c is None:
            x[i], x[j] = x[j], x[i]
        else:
            x[i] -= c * x[j]
    return x


def random_symmetric_form_of_rank(rng, dim: int, rank: int) -> SymmetricForm:
    """Random symmetric form of exact rank: a nonzero diagonal of the
    requested length conjugated by a random change of basis."""
    if not 0 <= rank <= dim:
        raise ValueError("rank out of range")
    g0 = [[0] * dim for _ in range(dim)]
    for i in range(rank):
        g0[i][i] = _nonzero(rng.getrandbits)
    return _conjugated(rng, g0)[0]


def _conjugated(rng, g0) -> tuple:
    """(the form P^T g0 P, the drawn steps of P) for the integer Gram g0
    and a random unimodular P, whose steps S act on a copy of g0 as
    S^T g S, the last drawn first: a swap exchanges two rows and the same
    two columns; the shear I + c E_ij adds c times column i to column j,
    then c times row i to row j.  A sampler pulls its vectors back along
    the steps (`_pull_back`), so no images matrix is built."""
    steps = _draw_steps(rng, len(g0))
    g = [list(row) for row in g0]
    for i, j, c in reversed(steps):
        if c is None:
            g[i], g[j] = g[j], g[i]
            for row in g:
                row[i], row[j] = row[j], row[i]
        elif c:
            for row in g:
                row[j] += c * row[i]
            g[j] = [a + c * b for a, b in zip(g[j], g[i])]
    return SymmetricForm._from_view(g, 1), steps


def _nonzero(bits):
    d = 0
    while d == 0:
        d = _ENTRY_MIN + _below(bits, _ENTRY_WIDTH)
    return d


def _conjugated_split_sample(rng, diag_tail):
    """Split form (hyperbolic plane + diagonal tail) pushed through a
    random change of basis; returns (form, the drawn steps)."""
    dim = 2 + len(diag_tail)
    g0 = [[0] * dim for _ in range(dim)]
    g0[0][1] = g0[1][0] = 1
    for i, d in enumerate(diag_tail):
        g0[2 + i][2 + i] = d
    return _conjugated(rng, g0)


def tangency_samples(rng, count: int):
    """Yield (q, u, v) with q of full rank on a 5-space, [u] on the
    quadric, v generic."""
    bits = rng.getrandbits
    for _ in range(count):
        q, steps = _conjugated_split_sample(
            rng, [_nonzero(bits) for _ in range(3)])
        u = _pull_back(steps, (1, 0, 0, 0, 0))
        while True:
            v = [_ENTRY_MIN + _below(bits, _ENTRY_WIDTH) for _ in range(5)]
            if any(wedge_coordinates(u, v)):
                break
        yield q, u, v


def complex_point_samples(rng, count: int):
    """Yield (q, u, v, inside) with [u ^ v] in the tangent complex of the
    full-rank form q on a 5-space; `inside` marks the constructed lines
    that lie in the quadric (both vectors isotropic).

    Construction on the split model U + diag(d, -d, d'): u0 = e_1 is
    isotropic and everything orthogonal to e_2 pairs to zero with it;
    v0 = (a, 0, t, t, 0) is isotropic, v0 = (a, 0, b, c, f) generic; the
    sample is u = P^-1 u0, v = P^-1 v0.
    """
    bits = rng.getrandbits
    made = 0
    while made < count:
        d = _nonzero(bits)
        tail = [d, -d, _nonzero(bits)]
        q, steps = _conjugated_split_sample(rng, tail)
        inside = made % 2 == 0
        if inside:
            t = _nonzero(bits)
            coeffs = (_ENTRY_MIN + _below(bits, _ENTRY_WIDTH), 0, t, t, 0)
        else:
            a, b, c, f = (_ENTRY_MIN + _below(bits, _ENTRY_WIDTH)
                          for _ in range(4))
            coeffs = (a, 0, b, c, f)
        v = _pull_back(steps, coeffs)
        u = _pull_back(steps, (1, 0, 0, 0, 0))
        if not any(wedge_coordinates(u, v)):
            continue
        if not inside and q.quadratic(v) == 0:
            continue
        yield q, u, v, inside
        made += 1


def compound_rank_samples(rng, count: int):
    """Yield (q, rank q) for forms on a 5-space, `count` of each rank."""
    for rank in range(6):
        for _ in range(count):
            yield random_symmetric_form_of_rank(rng, 5, rank), rank
