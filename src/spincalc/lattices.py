"""Integral lattices with exact Gram-matrix arithmetic: a lattice is a
symmetric integer Gram matrix with named basis vectors, and vectors are
integer coordinate sequences in that basis.
"""

from __future__ import annotations

from math import isqrt

from ._linalg import bilinear, mat_det, require_symmetric
from ._record import Record, require_int


class DimensionMismatchError(ValueError):
    """Vector length does not match the lattice rank."""


class IntegerLattice(Record):
    """Integral symmetric bilinear form with a named basis; the Gram rows
    and the names are stored as tuples, whatever sequences they came in."""

    __slots__ = ("gram", "basis_names")

    def __init__(self, gram, basis_names):
        gram, basis_names = tuple(map(tuple, gram)), tuple(basis_names)
        if len(basis_names) != len(gram):
            raise ValueError("one basis name per Gram row")
        require_int("a Gram entry", *(x for row in gram for x in row))
        require_symmetric(gram)
        Record.__init__(self, gram, basis_names)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def _check(self, v):
        if len(v) != self.rank:
            raise DimensionMismatchError(
                f"vector of length {len(v)} in a rank-{self.rank} lattice")
        require_int("a lattice coordinate", *v)

    def inner(self, v, w) -> int:
        """Bilinear product v . w = v^T G w."""
        self._check(v)
        self._check(w)
        return bilinear(self.gram, v, w)

    def norm(self, v) -> int:
        """Self-intersection v . v."""
        return self.inner(v, v)

    def is_even(self) -> bool:
        """Even lattice: every vector has even square (all diagonal
        entries even suffices for an integral Gram)."""
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def determinant(self) -> int:
        return int(mat_det(self.gram))

    def basis_vector(self, name: str) -> tuple:
        """Coordinate vector of a named basis element; any other key, an
        int included, raises ``ValueError``."""
        idx = self.basis_names.index(name)
        return tuple(int(i == idx) for i in range(self.rank))

    def direct_sum(self, other: "IntegerLattice") -> "IntegerLattice":
        """Orthogonal direct sum; basis names are concatenated."""
        n, m = self.rank, other.rank
        gram = [row + (0,) * m for row in self.gram] + \
            [(0,) * n + row for row in other.gram]
        return IntegerLattice(gram, self.basis_names + other.basis_names)

    def scaled(self, c: int) -> "IntegerLattice":
        """Same module with the form multiplied by the nonzero int c."""
        require_int("a scale", c)
        if not c:
            raise ValueError("a lattice scale must be nonzero: a zero "
                             "form is no lattice")
        return IntegerLattice([[c * x for x in row] for row in self.gram],
                              self.basis_names)


def nikulin_lattice() -> IntegerLattice:
    """The even rank-8 lattice spanned by orthogonal (-2)-classes
    n_1..n_8 and their half-sum e.

    {n_1..n_8} is not an integral basis (e is a half-sum), so the integral
    basis used here is {n_1..n_7, e}; the eighth root is the derived
    vector n_8 = 2e - n_1 - ... - n_7.  In this basis e.e = -4 and
    e.n_i = -1; the determinant is 64.
    """
    rows = [[-2 * (i == j) for j in range(7)] + [-1] for i in range(7)]
    rows.append([-1] * 7 + [-4])
    return IntegerLattice(rows, [f"n{i}" for i in range(1, 8)] + ["e"])


def nikulin_derived_root() -> tuple:
    """Coordinates of n_8 = 2e - n_1 - ... - n_7 in the integral basis."""
    return (-1,) * 7 + (2,)


def lambda_lattice(g: int) -> IntegerLattice:
    """Rank-9 polarized Nikulin lattice: Z*c (+) nikulin_lattice(), with
    c.c = 2g - 2 and c orthogonal to the Nikulin block."""
    require_int("a genus", g)
    if g < 2:
        raise ValueError("genus must be at least 2")
    pol = IntegerLattice([[2 * g - 2]], ["c"])
    return pol.direct_sum(nikulin_lattice())


def hyperbolic_u() -> IntegerLattice:
    """The standard rank-2 hyperbolic plane."""
    return IntegerLattice([[0, 1], [1, 0]], ["u1", "u2"])


#: Dynkin-diagram edges of E8 (Bourbaki numbering: the chain
#: 1-3-4-5-6-7-8 with node 2 attached to node 4).
_E8_EDGES = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))
#: byte b with its eight bits in reverse order, for `bytes.translate`
_BIT_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def e8(scale: int = 1) -> IntegerLattice:
    """The E8 root lattice scaled by `scale`.

    The base Gram is the positive-definite Cartan matrix (determinant 1,
    even); e8(-1) is the even negative-definite unimodular rank-8 lattice
    and e8(-2) its rescaling with all squares divisible by 4.
    """
    rows = [[2 * (i == j) for j in range(8)] for i in range(8)]
    for a, b in _E8_EDGES:
        rows[a - 1][b - 1] = rows[b - 1][a - 1] = -1
    return IntegerLattice(rows, [f"r{i}" for i in range(1, 9)]).scaled(scale)


def sum_square_solution_exists(slots: int, target_sum: int,
                               target_norm: int) -> bool:
    """Decide whether integers b_1..b_slots satisfy sum b_i = target_sum
    and sum b_i^2 = target_norm.

    Exhaustive meet-in-the-middle search; the only pruning is the cap
    |b_i| <= bound = isqrt(target_norm) forced by the norm equation
    itself.  The table of j integers is one int, a bit grid: row m holds
    bits m * width to (m + 1) * width - 1, and the sum s of j integers
    with norm m is bit s + k * bound of it, with k = ceil(slots/2);
    width is a whole number of bytes and at least 2 * k * bound + 1.  A
    step to j + 1 <= k integers ORs in the table shifted by
    v * v * width +- v for v = 1..bound and drops the rows above
    target_norm.  The sums of j < k integers lie in [-j * bound,
    j * bound], so a shift by +-v never carries a sum into another row,
    and every row is symmetric under negation.  The right table (k
    slots) is built via the left (floor(slots/2)).  A solution exists
    when a left row m meets the right row target_norm - m moved by
    |target_sum|: the right grid bit-reversed puts that row, mirrored, on
    row m, so one shift, one mask of the bits it carries across rows and
    one AND join all rows at once.  The grid holds
    about 2k * target_norm^1.5 bits, and a step is bound shift-ORs of
    it, so memory grows as target_norm^1.5 and time as target_norm^2
    bit operations.
    """
    require_int("a search argument", slots, target_sum, target_norm)
    if slots < 0:
        raise ValueError("a slot count must be at least 0")
    if target_norm < 0:
        return False
    bound = isqrt(target_norm)
    if abs(target_sum) > slots * bound:
        return False
    half = slots // 2
    k = slots - half
    row_bytes = 2 * k * bound // 8 + 1
    width = 8 * row_bytes
    size = (target_norm + 1) * row_bytes
    grid = (1 << 8 * size) - 1
    left = right = 1 << k * bound
    for j in range(1, k + 1):
        nxt = right
        for v in range(1, bound + 1):
            nxt |= ((right << 2 * v) | right) << v * v * width - v
        right = nxt & grid
        if j == half:
            left = right
    reach = 2 * k * bound - abs(target_sum)
    flipped = int.from_bytes(
        right.to_bytes(size, "big").translate(_BIT_REVERSED), "little")
    row = ((2 << reach) - 1).to_bytes(row_bytes, "little")
    return bool(left & flipped >> width - 1 - reach
                & int.from_bytes(row * (target_norm + 1), "little"))


class CsEntry(Record):
    """One row of the obstruction certificate, at polarization multiple a:
    target_sum = sum b_i = 2ag - 2a - 3, target_norm = sum b_i^2 =
    a^2 (g - 1), and cs_gap = (sum b_i)^2 - 8 * sum b_i^2, positive when
    obstructed."""

    __slots__ = ("a", "target_sum", "target_norm", "cs_gap",
                 "solution_found")


def cs_obstruction(g: int, a_bound: int) -> tuple[CsEntry, ...]:
    """Certificate that no elliptic class of polarization degree 3 exists
    at genus g >= 7: one `CsEntry` for each a = 1..a_bound.

    A class a*c - sum b_i n_i with square 0 and degree 3 against the
    half-polarization forces sum b_i = 2ag - 2a - 3 and
    sum b_i^2 = a^2(g-1) over the eight roots.  For each a the analytic
    route checks that (sum b_i)^2 > 8 * sum b_i^2, contradicting
    Cauchy-Schwarz; the search route independently confirms that no
    integer 8-tuple satisfies both equations.  The certificate holds when
    every entry has a positive `cs_gap` and no `solution_found`.
    """
    require_int("a genus or bound", g, a_bound)
    if g < 7:
        raise ValueError("the obstruction argument applies from genus 7 on")
    if a_bound < 1:
        raise ValueError("need at least one multiple to check")
    entries = []
    for a in range(1, a_bound + 1):
        s = 2 * a * g - 2 * a - 3
        m = a * a * (g - 1)
        gap = s * s - 8 * m
        found = sum_square_solution_exists(8, s, m)
        entries.append(CsEntry(a, s, m, gap, found))
    return tuple(entries)


def lambda_identities(g: int):
    """The standard identity battery in the rank-9 polarized lattice.

    Returns (name, computed, expected) triples for H = c - e, N = 2e and
    the generators: H^2 = 2g-6, H.c = 2g-2, H.n_i = 1 for all eight
    roots, N^2 = -16, N.H = 8, N.c = 0, e^2 = -4, c^2 = 2g-2.
    """
    lat = lambda_lattice(g)
    c = lat.basis_vector("c")
    e = lat.basis_vector("e")
    h = tuple(ci - ei for ci, ei in zip(c, e))
    n2 = tuple(2 * x for x in e)
    roots = [lat.basis_vector(f"n{i}") for i in range(1, 8)]
    roots.append((0,) + nikulin_derived_root())
    rows = [
        ("H^2", lat.norm(h), 2 * g - 6),
        ("H.c", lat.inner(h, c), 2 * g - 2),
        ("N^2", lat.norm(n2), -16),
        ("N.H", lat.inner(n2, h), 8),
        ("N.c", lat.inner(n2, c), 0),
        ("e^2", lat.norm(e), -4),
        ("c^2", lat.norm(c), 2 * g - 2),
    ]
    for i, r in enumerate(roots, start=1):
        rows.append((f"H.n{i}", lat.inner(h, r), 1))
    return rows


def doubly_elliptic_identities() -> tuple[int, tuple[int, ...], int]:
    """(C^2, (C.G_1, ..., C.G_7), (C_1 + C_2)^2) at genus 8: 14, seven 0s
    and 14.  On the resolution of a 7-nodal quadric section the hyperplane
    class is C = 2E + G_1 + ... + G_7 with E an elliptic pencil (E^2 = 0,
    G_i^2 = -2, G_i.E = 1, G_i.G_j = 0); the same square arises on the
    rank-2 lattice of two elliptic pencils with C_1.C_2 = 7."""
    rows = [[0] + [1] * 7]
    for i in range(1, 8):
        rows.append([1] + [-2 * (i == j) for j in range(1, 8)])
    blowup = IntegerLattice(rows, ["E"] + [f"G{i}" for i in range(1, 8)])
    section = (2,) + (1,) * 7
    dots = tuple(blowup.inner(section, blowup.basis_vector(f"G{i}"))
                 for i in range(1, 8))
    pencils = IntegerLattice([[0, 7], [7, 0]], ["C1", "C2"])
    return blowup.norm(section), dots, pencils.norm((1, 1))
