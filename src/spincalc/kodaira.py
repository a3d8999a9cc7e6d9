"""Canonical-class decomposition on the genus-8 even-spin space."""

from __future__ import annotations

from fractions import Fraction

from .picard import DivisorClass, mbar, named_divisor, pullback, spin_plus


def canonical_decomposition_g8(divisor=named_divisor) -> DivisorClass:
    """K - 1/2 * pi*bn8 - 8 * theta_null on the genus-8 even-spin space,
    from the three pinned classes `divisor` reads: the a_i and b_i are
    derived values, not quoted.

    K decomposes exactly as 1/2 pi*bn8 + 8 theta_null + sum_i (a_i alpha_i
    + b_i beta_i), with strictly positive (a_i, b_i) = (4,8), (10,14),
    (13,17), (14,18).  Each summand is covered by a pencil pairing
    negatively with it and zero with the others, which certifies that the
    whole class is rigid.  The rows of `checks.REGISTRY` pair those
    pencils and read a_i and b_i off this class, the rest of which is the
    residual, zero when the decomposition closes.
    """
    return (divisor("canonical", spin_plus(8))
            - Fraction(1, 2) * pullback(divisor("bn8", mbar(8)), spin_plus(8))
            - 8 * divisor("theta_null", spin_plus(8)))
