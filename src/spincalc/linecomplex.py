"""Exact linear algebra of quadratic line complexes: the second compound
form of a quadric, the tangency and singular points of its complex of
tangent lines, and the rank trichotomy of quadrics through G(2, 6).

All arithmetic is in Python ints, on the integer view of a
`SymmetricForm`; ``Fraction`` appears only in an answer that has a
denominator.  The seeded samplers of the property suites come last (see
`build_sample`).
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
        """The rank of the view, content-free (`int_rank`): row i of the
        view carries the factor d / d_i, d_i the lcm of the denominators
        of row i of G, which would grow every minor of the elimination."""
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
    """Second compound form on the wedge square, nu2(Qt)(u^v, s^t) =
    Qt(u,s) Qt(v,t) - Qt(v,s) Qt(u,t): the 2x2-minor matrix of the Gram
    of q.  Its rank is C(rank q, 2).

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
    coordinates of iu ^ iv.  A positive scale of q, u or v keeps every
    vanishing the predicates ask about, so none of them builds a
    Fraction.  Raises ``ValueError`` on a length mismatch, ``TypeError``
    on an inexact entry, `off_quadric` unless [u] lies on the quadric,
    and `DependentVectorsError` unless u and v span a line."""
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
    [i = k], so the gradient g at (i, j) adds g x_i to grad . (x ^ e_j)
    and -g x_j to grad . (x ^ e_i), summed over the pairs for u and v.
    """
    iu, iv, w = _line(q, u, v, NotInComplexError)
    grad = mat_vec(_compound_rows(q._ints), w)
    if dot(grad, w) != 0:
        raise NotInComplexError("line is not in the tangent complex")
    ru, rv = [0] * q.dim, [0] * q.dim
    for g, (i, j) in zip(grad, wedge_pairs(q.dim)):
        ru[j] += g * iu[i]
        ru[i] -= g * iu[j]
        rv[j] += g * iv[i]
        rv[i] -= g * iv[j]
    return not any(ru) and not any(rv)


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


def _entries(bits, n: int) -> list:
    """n entries in [-9, 9], each `randrange(19) - 9` by the loop of
    `Random._randbelow_with_getrandbits` on `getrandbits` = `bits`."""
    out = []
    for _ in range(n):
        r = bits(5)
        while r >= _ENTRY_WIDTH:
            r = bits(5)
        out.append(r + _ENTRY_MIN)
    return out


def _nonzeros(bits, n: int) -> list:
    """n entries drawn as by `_entries`, each drawn again while it is 0."""
    out = []
    for _ in range(n):
        r = bits(5)
        while r >= _ENTRY_WIDTH or r == -_ENTRY_MIN:
            r = bits(5)
        out.append(r + _ENTRY_MIN)
    return out


def random_invertible_matrix(rng, dim: int) -> list:
    """Random integer matrix with nonzero determinant."""
    require_int("a dimension", dim)
    if dim < 0:
        raise ValueError("dimension must be at least 0")
    while True:
        m = [_entries(rng.getrandbits, dim) for _ in range(dim)]
        if mat_det(m) != 0:
            return m


def _draw_steps(rng, dim: int) -> list:
    """The ten steps of a random change of basis P = S_10 ... S_1 in draw
    order: (i, j, c) is the shear I + c E_ij and (i, j, None) the swap of
    e_i and e_j; a drawn i == j is a swap that draws nothing more.  Each
    bounded draw (i, j, c + 3) runs the loop of `_entries`."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    bits, random = rng.getrandbits, rng.random
    k = dim.bit_length()
    steps = []
    for _ in range(10):
        i = bits(k)
        while i >= dim:
            i = bits(k)
        j = bits(k)
        while j >= dim:
            j = bits(k)
        if i == j or random() < 0.2:
            steps.append((i, j, None))
        else:
            c = bits(3)
            while c >= 7:
                c = bits(3)
            steps.append((i, j, c - 3))
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
    require_int("a dimension or rank", dim, rank)
    if not 0 <= rank <= dim:
        raise ValueError("rank out of range")
    diag = _nonzeros(rng.getrandbits, rank) + [0] * (dim - rank)
    return build_sample((diag, False, _draw_steps(rng, dim), (), ()))[0]


def _conjugate(g0, steps) -> SymmetricForm:
    """The form P^T g0 P for the integer Gram g0 and the unimodular P of
    `steps`, which act on a copy of g0 as S^T g S, the last drawn first:
    a swap exchanges two rows and the same two columns; the shear
    I + c E_ij adds c times column i to column j, then c times row i to
    row j.  No dense P is formed."""
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
    return SymmetricForm._from_view(g, 1)


def build_sample(draw) -> tuple:
    """The sample of a draw (diag, split, steps, pulled, rest) of the
    samplers below: the form P^T g0 P, for g0 the diagonal `diag` plus,
    when `split`, a hyperbolic plane on e_1, e_2, then P^-1 x for each x
    of `pulled`, then the items of `rest`.  It draws nothing, so a caller
    may build (and make a dense Gram for) only the draws it judges."""
    diag, split, steps, pulled, rest = draw
    g0 = [[0] * len(diag) for _ in diag]
    for i, d in enumerate(diag):
        g0[i][i] = d
    if split:
        g0[0][1] = g0[1][0] = 1
    return (_conjugate(g0, steps),
            *(_pull_back(steps, x) for x in pulled), *rest)


def _spans_line(u, p: int, v) -> bool:
    """Is u ^ v nonzero, for u_p != 0?  It is 0 exactly when v = (v_p /
    u_p) u, i.e. when each minor u_p v_i - v_p u_i through p vanishes."""
    up, vp = u[p], v[p]
    for x, y in zip(u, v):
        if up * y != vp * x:
            return True
    return False


def tangency_samples(rng, count: int):
    """Yield the draws of (q, u, v) with q of full rank on a 5-space, [u]
    on the quadric, v generic.  The rejection of v needs u = P^-1 e_1, so
    u is pulled back here and the draw carries u and v as they are; v is
    redrawn while u ^ v = 0, read off the minors through u's pivot."""
    require_int("a sample count", count)
    bits = rng.getrandbits
    for _ in range(count):
        diag = [0, 0, *_nonzeros(bits, 3)]
        steps = _draw_steps(rng, 5)
        u = _pull_back(steps, (1, 0, 0, 0, 0))
        p = u.index(next(filter(None, u)))  # its first nonzero coordinate
        v = _entries(bits, 5)
        while not _spans_line(u, p, v):
            v = _entries(bits, 5)
        yield diag, True, steps, (), (u, v)


def complex_point_samples(rng, count: int):
    """Yield the draws of (q, u, v, inside) with [u ^ v] in the tangent
    complex of the full-rank form q on a 5-space; `inside` marks the
    constructed lines that lie in the quadric (both vectors isotropic).

    Construction on the split model U + diag(d, -d, d'): u0 = e_1 is
    isotropic and everything orthogonal to e_2 pairs to zero with it;
    v0 = (a, 0, t, t, 0) is isotropic, v0 = (a, 0, b, c, f) generic; the
    sample is u = P^-1 u0, v = P^-1 v0.  A generic v0 is redrawn when v
    is isotropic, decided on the model, as q(v) = g0(v0) = d (b^2 - c^2)
    + d' f^2; that also covers u ^ v = 0, which holds exactly when v0 is
    a multiple of e_1, i.e. b = c = f = 0.
    """
    require_int("a sample count", count)
    bits = rng.getrandbits
    made = 0
    while made < count:
        d, d1 = _nonzeros(bits, 2)
        steps = _draw_steps(rng, 5)
        inside = made % 2 == 0
        if inside:
            (t,), (a,) = _nonzeros(bits, 1), _entries(bits, 1)
            v0 = (a, 0, t, t, 0)
        else:
            a, b, c, f = _entries(bits, 4)
            if d * (b * b - c * c) + d1 * f * f == 0:
                continue
            v0 = (a, 0, b, c, f)
        yield [0, 0, d, -d, d1], True, steps, ((1, 0, 0, 0, 0), v0), (inside,)
        made += 1


def compound_rank_samples(rng, count: int):
    """Yield the draws of (q, rank q) for forms on a 5-space, `count` of
    each rank."""
    require_int("a sample count", count)
    for rank in range(6):
        for _ in range(count):
            diag = _nonzeros(rng.getrandbits, rank) + [0] * (5 - rank)
            yield diag, False, _draw_steps(rng, 5), (), (rank,)
