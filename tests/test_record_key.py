"""The one key rule of `Record`: a read-only mapping field is keyed by
the frozenset of its items, so equality and hashing ignore the order in
which the mapping was built."""

from types import MappingProxyType

from spincalc._record import Record


class Tagged(Record):
    __slots__ = ("name", "table")

    def __init__(self, name, table):
        Record.__init__(self, name, MappingProxyType(dict(table)))


def test_a_mapping_field_keys_by_its_items_in_any_order():
    a = Tagged("t", {"x": 1, "y": 2})
    b = Tagged("t", {"y": 2, "x": 1})
    assert list(a.table) != list(b.table)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert Tagged("t", {"x": 1, "y": 3}) != a
