"""Exact divisor-class calculus on three moduli-space Picard groups.

Divisor classes on the moduli space of stable curves of genus g, on the
Prym moduli space of etale double covers, and on the moduli space of even
spin curves are sparse vectors over a named basis:

    stable curves     lambda, delta_0, delta_1, ..., delta_{g//2}
    Prym curves       lambda, delta_0', delta_0'', delta_0^ram,
                      pi_delta_1, ..., pi_delta_{g//2}
    even spin curves  lambda, alpha_0, beta_0, alpha_1, beta_1, ...,
                      alpha_{g//2}, beta_{g//2}

Coefficients are exact rationals.  A basis symbol may instead be declared
*opaque*: its coefficient is unknown (divisor classes quoted in the
literature routinely trail off into unspecified boundary terms), and any
computation that would consume it raises instead of silently assuming
zero.  Opacity is absorbing under sums, nonzero scalings and pullbacks.

All values are immutable and every operation is a pure function.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from types import MappingProxyType

from ._record import Record, _set, exact, require_int, signed_sum

MBAR = "mbar"
RBAR = "rbar"
SPIN = "spin"

LAMBDA = "lambda"
DELTA0 = "delta_0"
D0P = "delta_0'"
D0PP = "delta_0''"
D0RAM = "delta_0^ram"
ALPHA0 = "alpha_0"
BETA0 = "beta_0"


def delta(i: int) -> str:
    return f"delta_{i}"


def pi_delta(i: int) -> str:
    return f"pi_delta_{i}"


def alpha(i: int) -> str:
    return f"alpha_{i}"


def beta(i: int) -> str:
    return f"beta_{i}"


class UnknownSymbolError(ValueError):
    """Symbol does not belong to the basis of the ambient space."""


class DuplicateSymbolError(ValueError):
    """Symbol listed twice, or both pinned and opaque."""


class SpaceMismatchError(ValueError):
    """Operands live on different moduli spaces."""


class ZeroDenominatorError(ValueError):
    """Slope of a class with vanishing delta_0 coefficient."""


class OpaqueCoefficientError(ValueError):
    """A needed coefficient is opaque."""


class BadParamError(ValueError):
    """Named divisor requested with inconsistent parameters."""


class ModuliSpace(Record):
    """One of the three moduli spaces, at a fixed int genus >= 2."""

    __slots__ = ("kind", "genus")

    def __init__(self, kind: str, genus: int):
        if kind not in (MBAR, RBAR, SPIN):
            raise ValueError(f"unknown moduli-space kind {kind!r}")
        require_int("a genus", genus)
        if genus < 2:
            raise ValueError("genus must be at least 2")
        _set(self, "kind", kind)
        _set(self, "genus", genus)

    def _key(self) -> tuple:
        return (self.kind, self.genus)

    def __str__(self):
        base = {MBAR: "Mbar", RBAR: "Rbar", SPIN: "Sbar+"}[self.kind]
        return f"{base}_{self.genus}"


def mbar(g: int) -> ModuliSpace:
    return ModuliSpace(MBAR, g)


def rbar(g: int) -> ModuliSpace:
    return ModuliSpace(RBAR, g)


def spin_plus(g: int) -> ModuliSpace:
    return ModuliSpace(SPIN, g)


def boundary(space: ModuliSpace, i: int) -> tuple[str, ...]:
    """The basis symbols of the i-th boundary of `space`, 0 <= i <= g//2:
    delta_i; delta_0', delta_0'', delta_0^ram or pi_delta_i; alpha_i,
    beta_i."""
    if space.kind == MBAR:
        return (delta(i),)
    if space.kind == RBAR:
        return (D0P, D0PP, D0RAM) if i == 0 else (pi_delta(i),)
    return (alpha(i), beta(i))


def higher_boundary(space: ModuliSpace) -> tuple[str, ...]:
    """The symbols of boundaries 1..g//2 of `space`, in basis order."""
    return tuple(sym for i in range(1, space.genus // 2 + 1)
                 for sym in boundary(space, i))


@lru_cache(maxsize=None)
def basis_symbols(space: ModuliSpace) -> tuple[str, ...]:
    """Ordered Picard-group basis of `space`."""
    return (LAMBDA, *boundary(space, 0), *higher_boundary(space))


@lru_cache(maxsize=None)
def _basis_set(space: ModuliSpace) -> frozenset:
    return frozenset(basis_symbols(space))


def _require_basis(space: ModuliSpace, symbols) -> None:
    """The one basis-membership test, on a cached set rather than a scan:
    raise ``UnknownSymbolError`` for a symbol outside the basis."""
    basis = _basis_set(space)
    for sym in symbols:
        if sym not in basis:
            raise UnknownSymbolError(f"{sym!r} not in basis of {space}")


class DivisorClass(Record):
    """Sparse exact-rational divisor class with an opaque tail.

    `coeffs` maps basis symbols to nonzero rationals; symbols in `opaque`
    have unknown coefficients; everything else is exactly zero.  Given
    coefficients are stored as Fractions in a read-only mapping with the
    zeros dropped, so `==`, `hash` and `is_zero` compare values; floats
    and bools raise ``TypeError``.
    """

    __slots__ = ("space", "coeffs", "opaque")

    def __init__(self, space: ModuliSpace, coeffs, opaque=frozenset()):
        opaque = frozenset(opaque)
        pinned = _coefficients(space, coeffs, opaque)
        clash = opaque.intersection(coeffs)
        if clash:
            raise DuplicateSymbolError(f"pinned and opaque: {sorted(clash)}")
        _set(self, "space", space)
        _set(self, "coeffs", pinned)
        _set(self, "opaque", opaque)

    def _key(self) -> tuple:
        return (self.space, frozenset(self.coeffs.items()), self.opaque)

    def coeff(self, sym: str) -> Fraction:
        """Pinned coefficient of `sym` (exact zero when absent)."""
        _require_basis(self.space, (sym,))
        if sym in self.opaque:
            raise OpaqueCoefficientError(f"coefficient of {sym!r} is opaque")
        return self.coeffs.get(sym, Fraction(0))

    def is_opaque(self, sym: str) -> bool:
        return sym in self.opaque

    def is_zero(self) -> bool:
        return not self.coeffs and not self.opaque

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        if other.space != self.space:
            raise SpaceMismatchError(f"{self.space} vs {other.space}")
        opaque = self.opaque | other.opaque
        coeffs = {sym: self.coeffs.get(sym, 0) + other.coeffs.get(sym, 0)
                  for sym in set(self.coeffs) | set(other.coeffs)
                  if sym not in opaque}
        return DivisorClass(self.space, coeffs, opaque)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self + (-1) * other

    def __neg__(self) -> "DivisorClass":
        return (-1) * self

    def __mul__(self, c) -> "DivisorClass":
        c = exact(c)
        if c == 0:
            return DivisorClass(self.space, {}, frozenset())
        return DivisorClass(self.space,
                            {s: c * v for s, v in self.coeffs.items()},
                            self.opaque)

    __rmul__ = __mul__

    def __str__(self):
        return format_class(self)


def _coefficients(space: ModuliSpace, values,
                  opaque=frozenset()) -> MappingProxyType:
    """`values` (symbol -> rational) as a read-only mapping of nonzero
    Fractions on the basis of `space`; a symbol of `values` or `opaque`
    outside that basis raises."""
    _require_basis(space, (*values, *opaque))
    return MappingProxyType(
        {sym: Fraction(c) for sym, v in values.items() if (c := exact(v))})


def _entries(pairs) -> dict:
    """(symbol, value) pairs as a dict; a symbol listed twice raises
    ``DuplicateSymbolError``."""
    out = {}
    for sym, value in pairs:
        if sym in out:
            raise DuplicateSymbolError(f"{sym!r} listed twice")
        out[sym] = value
    return out


def format_class(d: DivisorClass) -> str:
    """Render a class in basis order; opaque coefficients print as `?`."""
    return signed_sum((None if sym in d.opaque else d.coeffs[sym], sym)
                      for sym in basis_symbols(d.space)
                      if sym in d.opaque or sym in d.coeffs)


def divisor_class(space: ModuliSpace, entries=(), opaque=()) -> DivisorClass:
    """Build a class from (symbol, rational) pairs plus an opaque set.

    Zero coefficients are dropped; repeated symbols and pinned-and-opaque
    clashes raise.

    >>> str(divisor_class(mbar(8), [("lambda", 22), ("delta_0", -3)]))
    '22*lambda - 3*delta_0'
    """
    return DivisorClass(space, _entries(entries), frozenset(opaque))


def covering_images(target: ModuliSpace) -> tuple:
    """Image of each stable-curve basis symbol under pullback along the
    covering of the stable-curve space by `target`, as
    (symbol, ((image, multiplicity), ...)) in basis order.

    Prym covering:  delta_0 -> delta_0' + delta_0'' + 2*delta_0^ram,
                    delta_i -> pi_delta_i.
    Spin covering:  delta_0 -> alpha_0 + 2*beta_0,
                    delta_i -> alpha_i + beta_i.
    Both send lambda -> lambda.
    """
    if target.kind == RBAR:
        d0 = ((D0P, 1), (D0PP, 1), (D0RAM, 2))
    elif target.kind == SPIN:
        d0 = ((ALPHA0, 1), (BETA0, 2))
    else:
        raise SpaceMismatchError("coverings go to the Prym and spin spaces")
    images = [((LAMBDA, 1),), d0] + [
        tuple((sym, 1) for sym in boundary(target, i))
        for i in range(1, target.genus // 2 + 1)]
    return tuple(zip(basis_symbols(mbar(target.genus)), images))


def pullback(d: DivisorClass, target: ModuliSpace) -> DivisorClass:
    """Pullback along the covering of the stable-curve space by `target`
    (see `covering_images`)."""
    if d.space.kind != MBAR:
        raise SpaceMismatchError("pullbacks start from the stable-curve space")
    images = dict(covering_images(target))
    coeffs: dict = {}
    opaque: set = set()
    for sym, value in d.coeffs.items():
        for img, mult in images[sym]:
            coeffs[img] = coeffs.get(img, 0) + mult * value
    for sym in d.opaque:
        opaque.update(img for img, _ in images[sym])
    coeffs = {s: v for s, v in coeffs.items() if s not in opaque}
    return DivisorClass(target, coeffs, frozenset(opaque))


def pullback_to_spin(d: DivisorClass) -> DivisorClass:
    """Pullback along the even-spin covering of the stable-curve space
    (see `covering_images`)."""
    return pullback(d, spin_plus(d.space.genus))


def canonical_class(space: ModuliSpace) -> DivisorClass:
    """Canonical divisor class of the moduli space.

    On the spin space the class is pinned completely,
    13*lambda - 2*alpha_0 - 3*beta_0 - 2*sum(alpha_i+beta_i) - (alpha_1+beta_1).
    On the Prym space the higher boundary coefficients are opaque,
    13*lambda - 2*(delta_0'+delta_0'') - 3*delta_0^ram - (...).
    On the stable-curve space only 13*lambda - 2*delta_0 is pinned.
    """
    if space.kind == SPIN:
        entries = [(LAMBDA, 13), (ALPHA0, -2), (BETA0, -3)]
        entries += [(sym, -3 if i == 1 else -2)
                    for i in range(1, space.genus // 2 + 1)
                    for sym in boundary(space, i)]
        return divisor_class(space, entries)
    if space.kind == RBAR:
        entries = [(LAMBDA, 13), (D0P, -2), (D0PP, -2), (D0RAM, -3)]
    else:
        entries = [(LAMBDA, 13), (DELTA0, -2)]
    return divisor_class(space, entries, higher_boundary(space))


def theta_null(g: int) -> DivisorClass:
    """Class of the theta-null divisor on the even-spin space:

    1/4*lambda - 1/16*alpha_0 - 1/2*sum_i beta_i.
    """
    entries = [(LAMBDA, Fraction(1, 4)), (ALPHA0, Fraction(-1, 16))]
    entries += [(beta(i), Fraction(-1, 2)) for i in range(1, g // 2 + 1)]
    return divisor_class(spin_plus(g), entries)


def prym_green(i: int) -> DivisorClass:
    """Virtual class of the Prym-Green syzygy locus on the Prym space of
    genus 2i+6:

    C(2i+2, i) * ( 3(2i+7)/(i+3)*lambda - 3/2*delta_0^ram - delta_0' ),

    with the delta_0'' coefficient and the higher boundary terms opaque.
    """
    require_int("a syzygy index", i)
    if i < 0:
        raise BadParamError("syzygy index must be nonnegative")
    g = 2 * i + 6
    factor = comb(2 * i + 2, i)
    entries = [(LAMBDA, factor * Fraction(3 * (2 * i + 7), i + 3)),
               (D0RAM, factor * Fraction(-3, 2)),
               (D0P, Fraction(-factor))]
    return divisor_class(rbar(g), entries, (D0PP, *higher_boundary(rbar(g))))


def prym_nikulin_g6() -> DivisorClass:
    """Closure of the genus-6 Nikulin-section locus on the Prym space:

    7*lambda - 3/2*delta_0^ram - (delta_0' + delta_0''), higher terms opaque.
    """
    entries = [(LAMBDA, 7), (D0RAM, Fraction(-3, 2)), (D0P, -1), (D0PP, -1)]
    return divisor_class(rbar(6), entries, higher_boundary(rbar(6)))


def brill_noether_g8() -> DivisorClass:
    """Normalized class of the genus-8 plane-septic Brill-Noether divisor:

    22*lambda - 3*delta_0 - 14*delta_1 - 24*delta_2 - 30*delta_3 - 32*delta_4.

    Normalized means the positive integral multiple relating it to the
    underlying irreducible divisor is divided out; pairings against it are
    reported in units of that constant.
    """
    entries = [(LAMBDA, 22), (DELTA0, -3), (delta(1), -14), (delta(2), -24),
               (delta(3), -30), (delta(4), -32)]
    return divisor_class(mbar(8), entries)


def non_very_ample_g5() -> DivisorClass:
    """Closure of the genus-5 locus where the Prym-canonical bundle fails
    to be very ample:

    14*lambda - 2*(delta_0'+delta_0'') - 5/2*delta_0^ram, higher terms opaque.
    """
    entries = [(LAMBDA, 14), (D0P, -2), (D0PP, -2), (D0RAM, Fraction(-5, 2))]
    return divisor_class(rbar(5), entries, higher_boundary(rbar(5)))


def twisted_hodge_c1(i: int, g: int = 5) -> DivisorClass:
    """First Chern class of the i-th twisted Hodge bundle on the Prym space:

    C(i, 2)*(12*lambda - delta_0' - delta_0'' - 2*delta_0^ram)
        + lambda - i^2/4*delta_0^ram,

    higher boundary terms opaque.
    """
    require_int("a twist index", i)
    if i < 1:
        raise BadParamError("twist index must be positive")
    c = comb(i, 2)
    entries = [(LAMBDA, 12 * c + 1),
               (D0P, -c), (D0PP, -c),
               (D0RAM, -2 * c - Fraction(i * i, 4))]
    return divisor_class(rbar(g), entries, higher_boundary(rbar(g)))


def sym_power_c1(c1: DivisorClass, rank: int, power: int) -> DivisorClass:
    """c1 of the `power`-th symmetric power of a bundle of the given rank
    and first Chern class: (power * C(rank+power-1, power) / rank) * c1.
    """
    require_int("a rank or power", rank, power)
    if rank < 1 or power < 1:
        raise BadParamError("rank and power must be positive")
    return Fraction(power * comb(rank + power - 1, power), rank) * c1


def slope(d: DivisorClass) -> Fraction:
    """Slope a/b_0 of a stable-curve class a*lambda - b_0*delta_0 - ...

    >>> slope(brill_noether_g8())
    Fraction(22, 3)
    """
    if d.space.kind != MBAR:
        raise SpaceMismatchError("slope is defined on the stable-curve space")
    if d.is_opaque(LAMBDA) or d.is_opaque(DELTA0):
        raise OpaqueCoefficientError("slope needs pinned lambda and delta_0")
    b = d.coeff(DELTA0)
    if b == 0:
        raise ZeroDenominatorError("delta_0 coefficient vanishes")
    return d.coeff(LAMBDA) / (-b)


#: the named classes with one fixed home space, by name
_FIXED_HOME = {"nikulin_N6": prym_nikulin_g6, "bn8": brill_noether_g8,
               "d2_nonveryample": non_very_ample_g5}


def named_divisor(name: str, space: ModuliSpace, param: int | None = None
                  ) -> DivisorClass:
    """Resolve one of the named divisor classes on `space`.

    `param` is the twist index of hodge_c1, which needs one; prym_green
    takes an optional index i, which must then be (g-6)/2.  Raises
    ``BadParamError`` when the name is unknown, `space` is not its home,
    or `param` is missing, not taken or inconsistent with the genus.
    """
    if param is not None and name not in ("prym_green", "hodge_c1"):
        raise BadParamError(f"{name!r} takes no index parameter")
    if name == "canonical":
        return canonical_class(space)
    if name in _FIXED_HOME:
        d = _FIXED_HOME[name]()
    elif name == "theta_null":
        d = theta_null(space.genus)
    elif name == "prym_green":
        if param is not None and space.genus != 2 * param + 6:
            raise BadParamError("prym_green needs genus = 2i+6")
        if space.genus < 6 or space.genus % 2:
            raise BadParamError("prym_green needs genus 2i+6")
        # a given param is passed on itself, so its int rule applies
        d = prym_green((space.genus - 6) // 2 if param is None else param)
    elif name == "hodge_c1":
        if param is None:
            raise BadParamError("hodge_c1 needs an index parameter")
        d = twisted_hodge_c1(param, space.genus)
    else:
        raise BadParamError(f"unknown divisor name {name!r}")
    if d.space != space:
        raise BadParamError(f"{name} lives on {d.space}, not {space}")
    return d
