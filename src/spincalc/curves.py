"""Test curves in moduli, encoded by their exact intersection pairings.

A one-parameter family of curves sweeping a moduli space is recorded here
purely as a vector of pairings against the Picard basis.  Where the family
comes from a pencil on a surface, `pencil_curve` derives the pairings
from the surface invariants it is given:

    (pencil) . lambda  =  chi(O_S) + g - 1,
    total boundary budget  =  c_2 + (blown-up base points) + 4(g - 1),

with ``c_2 = 12*chi - K^2`` by Noether's formula.  On the even-spin space
the budget splits as alpha_0 + 2*beta_0, where each fibre containing an
exceptional component contributes 1 to beta_0 and each of the reducible
fibres arising from an admissible degree-(g-1) covering contributes a
half-integer (nodes/2).

All values are immutable and every operation is a pure function.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record, _set, require_int
from .picard import (ALPHA0, BETA0, D0P, D0RAM, DELTA0, LAMBDA, MBAR, SPIN,
                     DivisorClass, ModuliSpace, SpaceMismatchError,
                     _coefficients, _entries, _require_basis, basis_symbols,
                     covering_images, higher_boundary, mbar, rbar,
                     spin_plus)


class OpaquePairingError(ValueError):
    """Divisor has an opaque coefficient where the curve pairs nonzero."""


class NegativeBudgetError(ValueError):
    """Boundary budget cannot absorb the requested beta_0 multiplicities."""


class BadGenusError(ValueError):
    """Curve construction requested outside its genus range."""


class NonzeroHigherBoundaryError(ValueError):
    """Spin lift needs a base curve disjoint from higher boundary."""


class UndefinedSplitError(ValueError):
    """Spin lift pairs only with pullback-shaped classes."""


class CurveClass(Record):
    """A curve class given by its pairings against the Picard basis.

    Symbols absent from `pairings` pair to exactly zero.  Pairings may be
    half-integral (reducible admissible-covering fibres contribute nodes/2
    to beta_0).  Given pairings are stored as Fractions in a read-only
    mapping with the zeros dropped, so `==` and `hash` compare values;
    floats and bools raise ``TypeError``.  The label records provenance
    only and is ignored by equality.
    """

    __slots__ = ("space", "pairings", "label")

    def __init__(self, space: ModuliSpace, pairings, label: str = ""):
        _set(self, "space", space)
        _set(self, "pairings", _coefficients(space, pairings))
        _set(self, "label", label)

    def _key(self) -> tuple:
        return (self.space, frozenset(self.pairings.items()))

    def pairing(self, sym: str) -> Fraction:
        _require_basis(self.space, (sym,))
        return self.pairings.get(sym, Fraction(0))

    def __str__(self):
        body = ", ".join(f"{s}={v}" for s, v in
                         ((s, self.pairings.get(s)) for s in
                          basis_symbols(self.space)) if v)
        return f"<curve on {self.space}: {body or '0'}>"


def curve_class(space, entries=(), label="") -> CurveClass:
    """Build a curve class from (symbol, pairing) pairs; a symbol listed
    twice raises, as in `picard.divisor_class`."""
    return CurveClass(space, _entries(entries), label)


def noether_c2(chi: int, k_squared: int) -> int:
    """Second Chern number 12*chi - K^2 of a smooth projective surface."""
    return 12 * chi - k_squared


def pencil_curve(target: ModuliSpace, chi: int, k_squared: int,
                 nodes_resolved: int = 0, base_points: int = 0,
                 reducible_fibres=(), label: str = "") -> CurveClass:
    """Curve class of the moduli image of a pencil of genus-g curves on a
    surface, g the genus of `target`.

    chi and k_squared are chi(O) and K^2 of the resolved surface fibred
    over the pencil; base_points counts blown-up pencil base points when
    chi/k_squared quote a minimal model instead.  nodes_resolved counts
    fibres meeting the exceptional locus with multiplicity one, and
    reducible_fibres lists the node count of each fibre that contributes
    half-integrally.  Every count is a plain int; any other type (a bool,
    a float, a Fraction) raises ``TypeError``, and a negative count or
    c_2 raises ``ValueError``.  The boundary budget lands on delta_0 for
    a stable-curve target and splits as alpha_0 + 2*beta_0 on an even-spin
    one (see the module docstring).  The curve carries `label`.
    """
    reducible_fibres = tuple(reducible_fibres)
    require_int("a surface pencil count", chi, k_squared, nodes_resolved,
                base_points, *reducible_fibres)
    if noether_c2(chi, k_squared) < 0:
        raise ValueError("negative c_2: inconsistent surface invariants")
    if nodes_resolved < 0 or base_points < 0:
        raise ValueError("counts must be nonnegative")
    g = target.genus
    lam = chi + g - 1
    total = noether_c2(chi, k_squared) + base_points + 4 * (g - 1)
    if target.kind == MBAR:
        return curve_class(target, [(LAMBDA, lam), (DELTA0, total)], label)
    if target.kind != SPIN:
        raise SpaceMismatchError("pencil targets are the stable-curve and "
                                 "even-spin spaces")
    b0 = Fraction(2 * nodes_resolved + sum(reducible_fibres), 2)
    a0 = total - 2 * b0
    if a0 < 0:
        raise NegativeBudgetError(f"budget {total} cannot carry beta_0={b0}")
    return curve_class(target, [(LAMBDA, lam), (ALPHA0, a0), (BETA0, b0)],
                       label)


def xi_curve(g: int) -> CurveClass:
    """Lefschetz pencil on a polarized Nikulin surface of genus g.

    Pairings: lambda = g+1, delta_0' = 6g+2, delta_0'' = 0,
    delta_0^ram = 8, and zero against all higher boundary classes.  The 8
    ramification-type points come from the eight (-2)-curves orthogonal to
    the polarization; pushing forward, delta_0 receives 6g+18.
    """
    if g < 2:
        raise BadGenusError("genus must be at least 2")
    return curve_class(
        rbar(g), [(LAMBDA, g + 1), (D0P, 6 * g + 2), (D0RAM, 8)],
        label=f"Lefschetz pencil on a genus-{g} polarized Nikulin surface")


#: Resolved-surface invariants (chi, K^2, base points, unit-multiplicity
#: beta_0 fibres) behind the theta-null covering pencils, by genus.  The
#: genus-4 pencil lives on a quadric cone blown up at 18 base points; the
#: genus-6 surface is a 6-nodal (2,2,3) complete intersection, frozen from
#: chi = 7, K^2 = 12 by the same Noether bookkeeping as its neighbours.
GAMMA_SURFACE_DATA = {
    4: (1, 8, 18, 1),
    5: (6, 8, 0, 4),
    6: (7, 12, 0, 6),
    7: (8, 16, 0, 8),
    8: (8, 16, 0, 8),
    9: (8, 16, 0, 8),
}


def gamma_curve(g: int) -> CurveClass:
    """Pencil of spin curves through a general point of the theta-null
    divisor, built from nodal canonical-surface invariants (genus 4..9)."""
    if g not in GAMMA_SURFACE_DATA:
        raise BadGenusError("theta-null covering pencils exist for genus 4..9")
    chi, k2, bp, nodes = GAMMA_SURFACE_DATA[g]
    return pencil_curve(
        spin_plus(g), chi, k2, nodes_resolved=nodes, base_points=bp,
        label=f"pencil on a nodal canonical surface, genus {g}")


def r_curve_g8() -> CurveClass:
    """Pencil of genus-8 spin curves on a doubly-elliptic K3 surface.

    The K3 carries two elliptic pencils meeting in 7 points; blowing up
    the 14 base points gives chi = 2, K^2 = -14, and the two reducible
    members each contribute 7/2 to beta_0.  Pairings: lambda = 9,
    alpha_0 = 52, beta_0 = 7.
    """
    return pencil_curve(spin_plus(8), 2, -14, reducible_fibres=(7, 7),
                        label="pencil through two elliptic rulings on a "
                              "doubly-elliptic K3 surface")


def septic_pencil_curve() -> CurveClass:
    """Lefschetz pencil of 7-nodal plane septics: the plane blown up at the
    7 assigned nodes and 21 base points gives chi = 1, K^2 = -19, hence
    lambda = 8 and delta_0 = 59."""
    return pencil_curve(mbar(8), 1, -19,
                        label="Lefschetz pencil of 7-nodal plane septics")


def covering_degree(g: int) -> int:
    """Number of even theta-characteristics on a genus-g curve,
    2^(g-1) * (2^g + 1): the degree of the even-spin covering."""
    require_int("a genus", g)
    return 2 ** (g - 1) * (2 ** g + 1)


class LiftedSpinCurve(Record):
    """Fibre-product lift of a stable-curve pencil to the even-spin space.

    The lift pairs with any pullback class as degree * (base pairing);
    its pairings against alpha_i and beta_i (i >= 1) vanish, but the
    alpha_0/beta_0 split of its boundary budget is undefined, so pairing
    is only legal against classes with coeff(beta_0) = 2*coeff(alpha_0).
    """

    __slots__ = ("base", "label")
    _defaults = ("",)

    def _key(self) -> tuple:
        return (self.base,)

    @property
    def space(self) -> ModuliSpace:
        return spin_plus(self.base.space.genus)

    @property
    def degree(self) -> int:
        return covering_degree(self.base.space.genus)


def btilde_curve(base: CurveClass) -> LiftedSpinCurve:
    """Lift a stable-curve pencil to the even-spin space by fibre product.

    The base must pair zero with every delta_i, i >= 1, so the lift stays
    away from the higher boundary.
    """
    if base.space.kind != MBAR:
        raise SpaceMismatchError("lift starts from the stable-curve space")
    for sym in higher_boundary(base.space):
        if base.pairing(sym):
            raise NonzeroHigherBoundaryError(
                f"base pairs {base.pairing(sym)} with {sym}")
    return LiftedSpinCurve(base, label=f"spin fibre-product lift of "
                                       f"{base.label or 'a pencil'}")


def pushforward_to_mbar(c: CurveClass) -> CurveClass:
    """Push a curve class down to the stable-curve space: the transpose
    of the covering pullback, so each stable-curve symbol receives the
    pairings of its images (`picard.covering_images`) with multiplicity.
    """
    if c.space.kind == MBAR:
        return c
    entries = [(sym, sum(mult * c.pairing(img) for img, mult in images))
               for sym, images in covering_images(c.space)]
    return curve_class(mbar(c.space.genus), entries,
                       label=f"pushforward of {c.label}")


def _pair_lift(c: LiftedSpinCurve, d: DivisorClass) -> Fraction:
    if d.space != c.space:
        raise SpaceMismatchError(f"{c.space} vs {d.space}")
    if d.opaque:
        raise OpaquePairingError("lift pairs only with pinned classes")
    if d.coeff(BETA0) != 2 * d.coeff(ALPHA0):
        raise UndefinedSplitError(
            "the alpha_0/beta_0 split of the lift is undefined; "
            "pair it with pullback-shaped classes only")
    lam = c.base.pairing(LAMBDA)
    d0 = c.base.pairing(DELTA0)
    return c.degree * (d.coeff(LAMBDA) * lam + d.coeff(ALPHA0) * d0)


def pair(c, d: DivisorClass) -> Fraction:
    """Exact intersection pairing of a curve class with a divisor class.

    Opaque divisor coefficients are legal only where the curve pairs zero;
    otherwise ``OpaquePairingError`` is raised (never a silent zero).

    >>> from spincalc.picard import prym_nikulin_g6
    >>> pair(xi_curve(6), prym_nikulin_g6())
    Fraction(-1, 1)
    """
    if isinstance(c, LiftedSpinCurve):
        return _pair_lift(c, d)
    if d.space != c.space:
        raise SpaceMismatchError(f"{c.space} vs {d.space}")
    for sym in d.opaque:
        if c.pairing(sym):
            raise OpaquePairingError(
                f"divisor is opaque at {sym!r} where the curve pairs "
                f"{c.pairing(sym)}")
    return sum((v * c.pairing(s) for s, v in d.coeffs.items()), Fraction(0))
