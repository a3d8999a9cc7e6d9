"""Canonical-class decomposition and rigidity rows at genus 8.

On the even-spin moduli space of genus 8 the canonical class decomposes
exactly as

    K = 1/2 * (pullback of the plane-septic Brill-Noether class)
        + 8 * (theta-null class)
        + sum_i (a_i alpha_i + b_i beta_i),

with strictly positive coefficients (a_i, b_i) = (4,8), (10,14), (13,17),
(14,18).  Each summand is covered by a pencil pairing negatively with it
and zero with the others, which certifies that the whole class is rigid.
This module replays exactly that numeric skeleton; the bridging geometric
steps are quoted, not recomputed.  It returns what it computes; the rows
of `checks.REGISTRY` judge it.  Each function reads the pinned classes
through its argument `divisor`, which defaults to `picard.named_divisor`.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType

from ._record import Record
from .curves import (btilde_curve, gamma_curve, pair, r_curve_g8,
                     septic_pencil_curve)
from .picard import (DivisorClass, alpha, beta, divisor_class,
                     higher_boundary, named_divisor, pullback_to_spin,
                     spin_plus)


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


class RigidityRow(Record):
    """One component of an effective decomposition, its covering curve,
    the self-pairing and the (symbol, pairing) cross-pairings."""

    __slots__ = ("component", "curve", "self_pairing", "cross_pairings")

    @property
    def rigid(self) -> bool:
        """The sign pattern of a rigid component: a negative self-pairing
        and every cross-pairing 0."""
        return self.self_pairing < 0 and all(
            v == 0 for _, v in self.cross_pairings)


def _higher_crosses(c) -> list:
    """(symbol, pairing) of the curve `c` with each higher boundary class,
    alpha_1, beta_1, ..., alpha_{g//2}, beta_{g//2}."""
    return [(sym, c.pairing(sym)) for sym in higher_boundary(c.space)]


def rigidity_report_g8(divisor=named_divisor) -> tuple:
    """Pair every component of the canonical decomposition with its
    covering curve: the (theta-null row, Brill-Noether row).

    The doubly-elliptic pencil covers the theta-null divisor (pairing -1,
    zero against the Brill-Noether pullback and the higher boundary); the
    spin lift of the septic pencil covers the Brill-Noether pullback with
    pairing -covering_degree(8) in units of the positive normalization
    constant of that divisor.  Rigidity of the higher boundary components
    themselves is quoted, not recomputed.
    """
    bn_pull = pullback_to_spin(divisor("bn8"))
    r = r_curve_g8()
    crosses = [("pullback of bn8", pair(r, bn_pull)), *_higher_crosses(r)]
    row_theta = RigidityRow("theta_null", r.label,
                            pair(r, divisor("theta_null", genus=8)),
                            tuple(crosses))
    lift = btilde_curve(septic_pencil_curve())
    row_bn = RigidityRow("pullback of bn8", lift.label, pair(lift, bn_pull),
                         ())
    return row_theta, row_bn


def theta_rigidity_report(g: int, divisor=named_divisor) -> RigidityRow:
    """Covering-curve row for the theta-null divisor, genus 4..9: the
    pencil's pairing with the theta-null class and with every higher
    boundary class.  Its lambda, alpha_0 and beta_0 pairings are read by
    the check row."""
    c = gamma_curve(g)
    return RigidityRow("theta_null", c.label,
                       pair(c, divisor("theta_null", genus=g)),
                       tuple(_higher_crosses(c)))
