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
computes the boundary part K - 1/2 pi*bn8 - 8 theta as a `DivisorClass`;
the check row reads a_i and b_i off it as its alpha_i and beta_i
coefficients, takes the rest (zero when the decomposition closes) as the
residual, and judges it.  It reads the pinned classes through its
argument `divisor`, which defaults to `picard.named_divisor`.
"""

from __future__ import annotations

from fractions import Fraction

from .picard import (DivisorClass, mbar, named_divisor, pullback_to_spin,
                     spin_plus)


def canonical_decomposition_g8(divisor=named_divisor) -> DivisorClass:
    """K - 1/2 * pi*bn8 - 8 * theta_null on the genus-8 even-spin space,
    from the three pinned classes `divisor` reads: the a_i and b_i are
    derived values, not quoted."""
    return (divisor("canonical", spin_plus(8))
            - Fraction(1, 2) * pullback_to_spin(divisor("bn8", mbar(8)))
            - 8 * divisor("theta_null", spin_plus(8)))
