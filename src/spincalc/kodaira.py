"""Canonical-class decomposition at genus 8.

On the even-spin moduli space of genus 8 the canonical class decomposes
exactly as

    K = 1/2 * (pullback of the plane-septic Brill-Noether class)
        + 8 * (theta-null class)
        + sum_i (a_i alpha_i + b_i beta_i),

with strictly positive coefficients (a_i, b_i) = (4,8), (10,14), (13,17),
(14,18).  Each summand is covered by a pencil pairing negatively with it
and zero with the others, which certifies that the whole class is rigid;
the rows of `checks.REGISTRY` pair those pencils themselves.  This module
computes the decomposition and returns it as computed; the check row
judges it.  It reads the pinned classes through its argument `divisor`,
which defaults to `picard.named_divisor`.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType

from ._record import Record
from .picard import (DivisorClass, alpha, beta, divisor_class,
                     named_divisor, pullback_to_spin, spin_plus)


class DecompositionResult(Record):
    """Boundary coefficients of the canonical decomposition, as read-only
    mappings i -> a_i and i -> b_i; `residual` is what is left after
    removing all three pinned pieces (zero when the decomposition closes)."""

    __slots__ = ("a", "b", "residual")

    def __init__(self, a: dict, b: dict, residual: DivisorClass):
        Record.__init__(self, MappingProxyType(dict(a)),
                        MappingProxyType(dict(b)), residual)

    def _key(self) -> tuple:
        return (frozenset(self.a.items()), frozenset(self.b.items()),
                self.residual)


def canonical_decomposition_g8(divisor=named_divisor) -> DecompositionResult:
    """Solve for the boundary part of the genus-8 canonical class.

    Subtracts half the spin pullback of the Brill-Noether class and eight
    times the theta-null class from the canonical class, reads off the
    alpha_i / beta_i coefficients and returns them with the residual, as
    computed.  The eight coefficients are derived values: they follow
    from the three pinned classes.
    """
    k = divisor("canonical", space=spin_plus(8))
    d = (k - Fraction(1, 2) * pullback_to_spin(divisor("bn8"))
         - 8 * divisor("theta_null", genus=8))
    a = {i: d.coeff(alpha(i)) for i in range(1, 5)}
    b = {i: d.coeff(beta(i)) for i in range(1, 5)}
    boundary = [(alpha(i), a[i]) for i in range(1, 5)]
    boundary += [(beta(i), b[i]) for i in range(1, 5)]
    residual = d - divisor_class(d.space, boundary)
    return DecompositionResult(a=a, b=b, residual=residual)

