"""Finite window combinatorics in Cayley graphs: connectivity and
leaf-removal schedules that shrink a window one element at a time.

Supported groups are Z^d (elements are integer tuples) and finite groups
with explicit tables (elements are indices).  The schedule repeatedly
removes a spanning-tree leaf h != e, certifying each removal by h = h'·g
with h' kept and g a generator or inverse generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Union

from .errors import SseError, json_fields, json_list
from .frozen import Frozen, slot_setters
from .groups import FiniteGroup, group_from_json, group_to_json


class InvalidWindowError(SseError):
    pass


@dataclass(frozen=True)
class ZdGroup:
    """The free abelian group Z^d with elements as integer d-tuples."""

    dim: int

    def __post_init__(self):
        d = self.dim
        if not isinstance(d, int) or isinstance(d, bool) or d < 1:
            raise InvalidWindowError(f"dimension {d!r} is not an integer >= 1")

    @property
    def identity(self):
        return (0,) * self.dim

    def op(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def inv(self, a):
        return tuple(-x for x in a)

    def check(self, a):
        if not (
            isinstance(a, tuple)
            and len(a) == self.dim
            and all(isinstance(x, int) and not isinstance(x, bool) for x in a)
        ):
            raise InvalidWindowError(f"{a!r} is not an element of Z^{self.dim}")


@dataclass(frozen=True)
class TableGroup:
    """Adapter giving a FiniteGroup the same element interface as ZdGroup."""

    group: FiniteGroup

    @property
    def identity(self):
        return 0

    def op(self, a, b):
        return self.group.op(a, b)

    def inv(self, a):
        return self.group.inv(a)

    def check(self, a):
        if not (isinstance(a, int) and 0 <= a < self.group.order):
            raise InvalidWindowError(f"{a!r} is not an element index")


GroupOps = Union[ZdGroup, TableGroup]


class FGGroupWindow(Frozen):
    """A finite subset T of a group with a generating set S containing e."""

    __slots__ = ("ops", "gens", "window", "sprime")

    def __init__(self, ops: GroupOps, gens: Iterable, window: Iterable):
        gens, window = tuple(gens), tuple(window)
        # in input order and before any set is built, so an error names
        # the first bad element whatever the hash seed
        for x in gens + window:
            ops.check(x)
        # an empty set is refused before the identity is built: Z^d's
        # identity is a d-tuple, and only the elements bound d
        if not gens or ops.identity not in gens:
            raise InvalidWindowError("generating set must contain the identity")
        if not window:
            raise InvalidWindowError("window must be nonempty")
        _set_ops(self, ops)
        _set_gens(self, gens)
        _set_window(self, frozenset(window))
        sp = set(self.gens) | {ops.inv(g) for g in self.gens}
        sp.discard(ops.identity)
        _set_sprime(self, frozenset(sp))

    def __reduce__(self):
        return (FGGroupWindow, (self.ops, self.gens, self.window))

    def __eq__(self, other):
        if not isinstance(other, FGGroupWindow):
            return NotImplemented
        return (self.ops, self.gens, self.window) == (other.ops, other.gens, other.window)

    def __hash__(self):
        return hash((self.ops, self.gens, self.window))

    def neighbors(self, t) -> list:
        out = [self.ops.op(t, s) for s in self.sprime]
        return [u for u in out if u in self.window]


_set_ops, _set_gens, _set_window, _set_sprime = slot_setters(FGGroupWindow)


def is_connected(w: FGGroupWindow) -> bool:
    """Connectivity of the subgraph induced by the window in the Cayley
    graph of S ∪ S^{-1} (edges t — t·s)."""
    start = min(w.window)
    seen = {start}
    stack = [start]
    while stack:
        t = stack.pop()
        for u in w.neighbors(t):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen == w.window


@dataclass(frozen=True)
class ScheduleStep:
    removed: Hashable  # h
    generator: Hashable  # g with h = h'·g
    parent: Hashable  # h'


def reduction_schedule(w: FGGroupWindow) -> list[ScheduleStep]:
    """Remove elements one by one down to {e}, each step certified.

    The spanning tree is breadth-first from the identity; the leaf removed
    first is the lexicographically smallest by element encoding.  Every
    step satisfies h = h'·g, T' connected, and T ⊆ T' ∪ T'·g.
    """
    e = w.ops.identity
    if e not in w.window:
        raise InvalidWindowError("identity must be in the window")
    if not is_connected(w):
        raise InvalidWindowError("window is not connected")
    parent: dict = {e: None}
    parent_gen: dict = {e: None}
    order = sorted(w.sprime)
    queue = [e]
    while queue:
        t = queue.pop(0)
        for s in order:
            u = w.ops.op(t, s)
            if u in w.window and u not in parent:
                parent[u] = t
                parent_gen[u] = s
                queue.append(u)
    children: dict = {t: set() for t in w.window}
    for t, p in parent.items():
        if p is not None:
            children[p].add(t)
    remaining = set(w.window)
    steps = []
    while len(remaining) > 1:
        leaves = sorted(t for t in remaining if t != e and not children[t])
        h = leaves[0]
        h_parent = parent[h]
        g = parent_gen[h]
        remaining.discard(h)
        children[h_parent].discard(h)
        if w.ops.op(h_parent, g) != h:
            raise InvalidWindowError("internal: parent certificate broken")
        steps.append(ScheduleStep(h, g, h_parent))
    return steps


def verify_schedule(w: FGGroupWindow, steps: list[ScheduleStep]) -> bool:
    """Re-check every certificate of a schedule from scratch."""
    cur = set(w.window)
    for st in steps:
        if st.removed not in cur or st.parent not in cur or st.removed == w.ops.identity:
            return False
        if w.ops.op(st.parent, st.generator) != st.removed:
            return False
        if st.generator not in w.sprime:
            return False
        nxt = cur - {st.removed}
        if st.parent not in nxt:
            return False
        shifted = {w.ops.op(t, st.generator) for t in nxt}
        if not cur <= (nxt | shifted):
            return False
        if not is_connected(FGGroupWindow(w.ops, w.gens, nxt)):
            return False
        cur = nxt
    return cur == {w.ops.identity}


# -- JSON format ------------------------------------------------------


def window_to_json(w: FGGroupWindow) -> dict:
    if isinstance(w.ops, ZdGroup):
        return {
            "group": {"type": "Z^d", "dim": w.ops.dim},
            "generators": [list(g) for g in w.gens],
            "window": sorted(list(t) for t in w.window),
        }
    names = w.ops.group.names
    return {
        "group": {"type": "table", **group_to_json(w.ops.group)},
        "generators": [names[g] for g in w.gens],
        "window": sorted(names[t] for t in w.window),
    }


def window_from_json(obj: dict) -> FGGroupWindow:
    keys = ("group", "generators", "window")
    gspec, gens, window = json_fields(obj, InvalidWindowError, "a window", keys)
    if not isinstance(gspec, dict):
        raise InvalidWindowError(f"group must be a JSON object, not {gspec!r}")
    gens, window = (json_list(v, InvalidWindowError, k) for v, k in zip((gens, window), keys[1:]))
    if gspec.get("type") == "Z^d":
        (dim,) = json_fields(gspec, InvalidWindowError, "a window", ("dim",))
        ops, element = ZdGroup(dim), tuple
    else:
        ops = TableGroup(group_from_json(gspec))
        element = ops.group.index
    try:
        return FGGroupWindow(ops, map(element, gens), map(element, window))
    except TypeError as exc:
        raise InvalidWindowError(f"malformed window object: {exc}") from exc


def schedule_to_json(w: FGGroupWindow, steps: list[ScheduleStep]) -> list[dict]:
    if isinstance(w.ops, ZdGroup):
        def enc(x):
            return list(x)
    else:
        names = w.ops.group.names

        def enc(x):
            return names[x]

    return [
        {"removed": enc(s.removed), "generator": enc(s.generator), "parent": enc(s.parent)}
        for s in steps
    ]
