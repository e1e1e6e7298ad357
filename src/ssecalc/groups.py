"""Finite groups given by explicit multiplication tables.

Element 0 is always the identity; the tuple order of the names is the
fixed total order used everywhere (block indexing, marks, schedules).
"""

from __future__ import annotations

from itertools import permutations

from .errors import SseError, json_fields, json_list
from .frozen import Frozen, slot_setters


class InvalidGroupError(SseError):
    pass


class FiniteGroup(Frozen):
    """A finite group as a validated multiplication table."""

    __slots__ = ("names", "table", "_inv", "_hash")

    def __init__(self, names, table):
        names = tuple(names)
        n = len(names)
        if any(type(name) is not str for name in names):
            raise InvalidGroupError("element names must be strings")
        if len(set(names)) != n or n == 0:
            raise InvalidGroupError("element names must be nonempty and distinct")
        table = tuple(tuple(row) for row in table)
        if len(table) != n or any(len(r) != n for r in table):
            raise InvalidGroupError("table must be n x n")
        for r in table:
            for v in r:
                if type(v) is not int:
                    raise InvalidGroupError(f"table entry {v!r} is not an integer")
                if not (0 <= v < n):
                    raise InvalidGroupError("table entry out of range")
        for i in range(n):
            if table[0][i] != i or table[i][0] != i:
                raise InvalidGroupError("element 0 must be the identity")
        inv = [None] * n
        for i in range(n):
            for j in range(n):
                if table[i][j] == 0:
                    inv[i] = j
        if any(v is None for v in inv):
            raise InvalidGroupError("missing inverses")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if table[table[i][j]][k] != table[i][table[j][k]]:
                        raise InvalidGroupError("table is not associative")
        _set_names(self, names)
        _set_table(self, table)
        _set_inv(self, tuple(inv))
        _set_hash(self, hash((names, table)))

    def __reduce__(self):
        return (FiniteGroup, (self.names, self.table))

    @property
    def order(self) -> int:
        return len(self.names)

    def op(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self._inv[i]

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError as exc:
            raise InvalidGroupError(f"unknown element {name!r}") from exc

    def __eq__(self, other):
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.names == other.names and self.table == other.table

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FiniteGroup({list(self.names)})"


_set_names, _set_table, _set_inv, _set_hash = slot_setters(FiniteGroup)


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise InvalidGroupError("order must be >= 1")
    names = ["e"] + [f"a^{k}" if k > 1 else "a" for k in range(1, n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(names, table)


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on {1..n}; elements named by one-line notation, identity first."""
    if n < 1 or n > 5:
        raise InvalidGroupError("symmetric_group supports 1 <= n <= 5")
    elems = sorted(permutations(range(n)), key=lambda p: (p != tuple(range(n)), p))
    idx = {p: i for i, p in enumerate(elems)}
    names = ["".join(str(v + 1) for v in p) for p in elems]
    # composition (p*q)(x) = p(q(x))
    table = [
        [idx[tuple(p[q[x]] for x in range(n))] for q in elems]
        for p in elems
    ]
    return FiniteGroup(names, table)


def group_to_json(g: FiniteGroup) -> dict:
    return {"elements": list(g.names), "table": [list(r) for r in g.table]}


def group_from_json(obj: dict) -> FiniteGroup:
    names, table = json_fields(obj, InvalidGroupError, "a group", ("elements", "table"))
    try:
        return FiniteGroup(json_list(names, InvalidGroupError, "group elements"), table)
    except TypeError as exc:
        raise InvalidGroupError(f"malformed group object: {exc}") from exc
