"""Exact Schubert calculus on the Grassmannian of lines G(2, n).

Cycles are integer combinations of the two-row Schubert classes
sigma_{a,b}, n-2 >= a >= b >= 0.  Products are computed by the
two-variable Schur expansion

    sigma_{a,b} * sigma_{c,d} = sum_k sigma_{a+c-k, b+d+k},
    k = 0 .. min(a-b, c-d),

truncated to the box a <= n-2; multiplication by sigma_1 is the Pieri
rule sigma_{a,b} -> sigma_{a+1,b} + sigma_{a,b+1}.  Degrees are read off
the coefficient of the top class after repeated Pieri steps.
"""

from __future__ import annotations

from math import comb
from types import MappingProxyType

from ._record import Record, _set, require_int, signed_sum


class AmbientMismatchError(ValueError):
    """Operands live in different Grassmannians."""


class MixedCodimensionError(ValueError):
    """Degree of a cycle with terms in several codimensions."""


class SchubertCycle(Record):
    """Integer combination of two-row Schubert classes in G(2, n).

    `terms` maps partitions (a, b) to coefficients.  It is stored as a
    read-only mapping of nonzero ints, so `==`, `hash` and `is_zero`
    compare values; any other coefficient type (a bool, a float, a
    Fraction) raises ``TypeError``, as does any but an int for n or for
    a partition index.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms):
        require_int("n", n)
        if n < 3:
            raise ValueError("G(2, n) needs n >= 3")
        kept = {}
        for (a, b), c in terms.items():
            require_int("a partition index", a, b)
            if not (n - 2 >= a >= b >= 0):
                raise ValueError(f"partition {(a, b)} outside the "
                                 f"2 x {n - 2} box")
            require_int("a coefficient", c)
            if c:
                kept[(a, b)] = c
        _set(self, "n", n)
        _set(self, "terms", MappingProxyType(kept))

    def _key(self) -> tuple:
        return (self.n, frozenset(self.terms.items()))

    def coefficient(self, a: int, b: int = 0) -> int:
        return self.terms.get((a, b), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def codimensions(self) -> set:
        return {a + b for (a, b) in self.terms}

    def __add__(self, other: "SchubertCycle") -> "SchubertCycle":
        if not isinstance(other, SchubertCycle):
            return NotImplemented
        if other.n != self.n:
            raise AmbientMismatchError(f"G(2,{self.n}) vs G(2,{other.n})")
        terms = dict(self.terms)
        for p, c in other.terms.items():
            terms[p] = terms.get(p, 0) + c
        return SchubertCycle(self.n, terms)

    def __mul__(self, other):
        """Cup product with a cycle, or scaling by a plain int; any other
        scalar (a bool, an int subclass, a float, a Fraction) raises
        ``TypeError``, as a coefficient of the constructor does."""
        if isinstance(other, SchubertCycle):
            return multiply(self, other)
        require_int("a scalar", other)
        return SchubertCycle(self.n,
                             {p: other * c for p, c in self.terms.items()})

    __rmul__ = __mul__

    def __str__(self):
        return signed_sum((self.terms[p], f"s({p[0]},{p[1]})")
                          for p in sorted(self.terms))


def sigma(n: int, a: int, b: int = 0, coefficient: int = 1) -> SchubertCycle:
    """The class coefficient * sigma_{a,b} in G(2, n)."""
    return SchubertCycle(n, {(a, b): coefficient})


def pieri(c: SchubertCycle) -> SchubertCycle:
    """Multiply by sigma_1: sigma_{a,b} -> sigma_{a+1,b} + sigma_{a,b+1},
    dropping terms outside the box."""
    terms: dict = {}
    box = c.n - 2
    for (a, b), v in c.terms.items():
        if a + 1 <= box:
            terms[(a + 1, b)] = terms.get((a + 1, b), 0) + v
        if b + 1 <= a:
            terms[(a, b + 1)] = terms.get((a, b + 1), 0) + v
    return SchubertCycle(c.n, terms)


def multiply(c1: SchubertCycle, c2: SchubertCycle) -> SchubertCycle:
    """Product in the cohomology ring of G(2, n).

    >>> str(multiply(sigma(5, 1), sigma(5, 1)))
    's(1,1) + s(2,0)'
    """
    if c1.n != c2.n:
        raise AmbientMismatchError(f"G(2,{c1.n}) vs G(2,{c2.n})")
    box = c1.n - 2
    terms: dict = {}
    for (a, b), u in c1.terms.items():
        for (c, d), v in c2.terms.items():
            for k in range(min(a - b, c - d) + 1):
                p = (a + c - k, b + d + k)
                if p[0] <= box:
                    terms[p] = terms.get(p, 0) + u * v
    return SchubertCycle(c1.n, terms)


def degree(c: SchubertCycle) -> int:
    """Degree of a pure-codimension cycle: the coefficient of the top
    class sigma_{n-2,n-2} after pairing with the complementary power of
    sigma_1.

    >>> degree(sigma(5, 2, 1, 4))
    8
    """
    if c.is_zero():
        return 0
    codims = c.codimensions()
    if len(codims) != 1:
        raise MixedCodimensionError(f"codimensions {sorted(codims)}")
    # the constructor keeps every partition in the 2 x (n-2) box, so the
    # codimension is at most the dimension 2(n-2)
    for _ in range(2 * (c.n - 2) - codims.pop()):
        c = pieri(c)
    return c.coefficient(c.n - 2, c.n - 2)


def grassmannian_degree(n: int) -> int:
    """Degree of the Pluecker embedding of G(2, n), by repeated Pieri."""
    return degree(sigma(n, 0, 0))


def catalan_degree(n: int) -> int:
    """Closed form for deg G(2, n): the Catalan number
    (2m)! / (m! (m+1)!) with m = n-2.  Independent of the Pieri route."""
    m = n - 2
    return comb(2 * m, m) // (m + 1)


def vq_dimension(n: int) -> int:
    """Dimension 2n-5 of the family of lines on a smooth quadric in
    projective n-space."""
    require_int("a projective dimension", n)
    if n < 4:
        raise ValueError("need projective dimension at least 4")
    return 2 * n - 5
