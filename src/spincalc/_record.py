"""The one base of the package's immutable value types.

A `Record` subclass names its fields in `__slots__`, in the order of
the constructor's parameters.  `Record.__init__` binds positional
arguments to the slots in that order and keyword arguments by name; the
last ``len(_defaults)`` slots default to the values in the class
attribute `_defaults`.  A missing, unknown or repeated argument raises
``TypeError``.  A class that checks its arguments spells out an
`__init__` that also calls `Record.__init__`; a class built in an inner
loop sets each field with `_set` instead, and one hashed there spells out
`_key`, each two to four times faster than the generic version.  From
then on the instance is read-only: assigning or deleting an attribute
raises ``AttributeError``.  Equality (with instances of the same class
only), hashing and `repr` all read one key tuple, `_key()`: every field
in slot order, unless the subclass narrows it.  Copying and pickling
rebuild an instance through its `__init__` from its fields.

The package's two exact-number rules, `exact` and `require_int`, live
here alone, each with one ``TypeError`` text, as does `signed_sum`, the
one renderer of sums.  Building a class costs no more than any class
statement, and importing this module loads nothing that interpreter
start-up has not loaded.
"""

from types import MappingProxyType

_set = object.__setattr__


class Record:
    __slots__ = ()
    #: values of the last len(_defaults) slots when the caller omits them
    _defaults = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        values = dict(zip(names[len(names) - len(self._defaults):],
                          self._defaults))
        values.update(zip(names, args), **kwargs)
        if (len(args) > len(names) or len(values) < len(names)
                or not kwargs.keys() <= set(names[len(args):])):
            raise TypeError(f"{type(self).__name__}({', '.join(names)}): "
                            f"missing, unknown or repeated arguments")
        for name in names:
            _set(self, name, values[name])

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        fields = (getattr(self, name) for name in self.__slots__)
        return type(self), tuple(dict(v) if type(v) is MappingProxyType
                                 else v for v in fields)

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self._key()))})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only")


def exact(x):
    """`x` as an int when integral, else as the Fraction it is; any type
    but int and Fraction (a float, a bool, text, a ``Decimal``, an int
    subclass) raises ``TypeError``."""
    if type(x) is int:
        return x
    import fractions  # here, not at the top: a `schubert` query needs none
    if type(x) is not fractions.Fraction:
        raise TypeError(f"{type(x).__name__} is inexact; use int or Fraction")
    return x.numerator if x.denominator == 1 else x


def require_int(what: str, *values) -> None:
    """Raise ``TypeError``, ``<what> must be int, not <type>``, unless
    each of `values` is a plain int (a bool or a Fraction is not): the
    rule of every genus, count, index, seed, lattice Gram entry and
    scale."""
    for x in values:
        if type(x) is not int:
            raise TypeError(f"{what} must be int, not {type(x).__name__}")


def signed_sum(terms) -> str:
    """Render (coefficient, name) pairs as ``c*name + ... - name``: a
    coefficient of magnitude 1 is left out, a `None` coefficient prints
    as ``?``, and no terms print as ``0``."""
    out = []
    for c, name in terms:
        negative = c is not None and c < 0
        body = (f"?*{name}" if c is None else
                name if abs(c) == 1 else f"{abs(c)}*{name}")
        if out:
            body = ("- " if negative else "+ ") + body
        elif negative:
            body = "-" + body
        out.append(body)
    return " ".join(out) or "0"
