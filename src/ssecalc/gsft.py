"""Group-ring matrices with {0,1} coefficients, the bar/hat transforms
between them and G-invariant boolean block matrices, marked G-graphs, and
equivariant triangle equations.

bar sends A over the {0,1}-coefficient part of ZG to the boolean matrix
indexed by (symbol, group element) pairs with bar(A)[(k,g),(l,h)] = 1 iff
g^{-1}h lies in A[k,l]; hat is its inverse on G-invariant matrices.  Both
are multiplicative, which reduces equivariant triangle equations to the
boolean ones.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .elementary import _TRIANGLE_EQUATIONS, DegSSEEdge, Triangle, check_triangle
from .errors import (
    GStarOverflowError,
    InvalidEdgeError,
    InvalidMatrixError,
    VerificationError,
    json_fields,
    json_list,
)
from .frozen import Frozen, slot_setters
from .groups import FiniteGroup, group_from_json, group_to_json
from .matrices import NonnegMatrix, check_declared_shape, matrix_from_json


class GroupRingMatrix(Frozen):
    """A matrix over ZG with all coefficients in {0,1} (entries as subsets of G)."""

    __slots__ = ("group", "rows", "cols", "entries", "_hash")

    def __init__(self, group: FiniteGroup, entries: Iterable[Iterable[Iterable[int]]]):
        cells = [[list(cell) for cell in row] for row in entries]
        ent = tuple(tuple(frozenset(cell) for cell in row) for row in cells)
        if not ent or not ent[0]:
            raise InvalidMatrixError("matrix must have at least one row and column")
        cols = len(ent[0])
        for i, row in enumerate(cells):
            if len(row) != cols:
                raise InvalidMatrixError("ragged rows")
            for j, cell in enumerate(row):
                for g in cell:
                    if not (0 <= g < group.order):
                        raise InvalidMatrixError(f"element index {g} out of range")
                if len(cell) != len(ent[i][j]):
                    g = next(g for g in cell if cell.count(g) > 1)
                    raise InvalidMatrixError(
                        f"coefficient >= 2 at cell ({i + 1},{j + 1}): element "
                        f"{group.names[g]!r} is listed more than once"
                    )
        _set_group(self, group)
        _set_rows(self, len(ent))
        _set_cols(self, cols)
        _set_entries(self, ent)
        _set_hash(self, hash((group, ent)))

    def __reduce__(self):
        return (GroupRingMatrix, (self.group, self.entries))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other):
        if not isinstance(other, GroupRingMatrix):
            return NotImplemented
        return self.group == other.group and self.entries == other.entries

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"GroupRingMatrix({self.rows}x{self.cols} over {self.group!r})"


_set_group, _set_rows, _set_cols, _set_entries, _set_hash = slot_setters(GroupRingMatrix)


def mul_zg(a: GroupRingMatrix, b: GroupRingMatrix) -> list[list[Counter]]:
    """Exact product over ZG as per-cell coefficient counters."""
    if a.group != b.group or a.cols != b.rows:
        raise InvalidMatrixError("group-ring product shape/group mismatch")
    op = a.group.op
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            c: Counter = Counter()
            for k in range(a.cols):
                for g in a.entries[i][k]:
                    for h in b.entries[k][j]:
                        c[op(g, h)] += 1
            row.append(c)
        out.append(row)
    return out


def mul_gstar(a: GroupRingMatrix, b: GroupRingMatrix) -> GroupRingMatrix:
    """Product inside G*, raising GStarOverflowError on a coefficient >= 2."""
    prod = mul_zg(a, b)
    ent = []
    for i, row in enumerate(prod):
        out_row = []
        for j, c in enumerate(row):
            bad = [g for g, v in c.items() if v >= 2]
            if bad:
                raise GStarOverflowError(
                    f"coefficient >= 2 at cell ({i + 1},{j + 1}), elements "
                    f"{[a.group.names[g] for g in bad]}"
                )
            out_row.append(frozenset(c))
        ent.append(out_row)
    return GroupRingMatrix(a.group, ent)


def product_in_gstar(a: GroupRingMatrix, b: GroupRingMatrix) -> bool:
    prod = mul_zg(a, b)
    return all(v <= 1 for row in prod for c in row for v in c.values())


def bar(a: GroupRingMatrix) -> NonnegMatrix:
    """The boolean block matrix of a; blocks by symbol, order by the group."""
    g = a.group
    ng = g.order
    masks = []
    for k in range(a.rows):
        for gi in range(ng):
            m = 0
            for l in range(a.cols):
                base = l * ng
                for c in a.entries[k][l]:
                    m |= 1 << (base + g.op(gi, c))
            masks.append(m)
    return NonnegMatrix.from_bool_rows(a.cols * ng, masks)


def _check_invariant(e: NonnegMatrix, group: FiniteGroup, m: int, n: int) -> None:
    """Raise InvalidMatrixError unless e[(k,e),(l,h)] = e[(k,g),(l,gh)] for
    all blocks (k, l) and g, h in G, which is invariance under the left
    action f(k,h) = (k,fh)."""
    ng = group.order
    for k in range(m):
        for l in range(n):
            for g in range(ng):
                for h in range(ng):
                    if e.entry(k * ng, l * ng + h) != e.entry(
                        k * ng + g, l * ng + group.op(g, h)
                    ):
                        raise InvalidMatrixError(
                            "not G-invariant at symbols "
                            f"(k={k + 1}, l={l + 1}, g={group.names[g]}, h={group.names[h]})"
                        )


def hat(e: NonnegMatrix, group: FiniteGroup, shape: tuple[int, int]) -> GroupRingMatrix:
    """Inverse of bar; input must be G-invariant, violations are reported."""
    m, n = shape
    ng = group.order
    if not e.is_boolean:
        raise InvalidMatrixError("hat needs a {0,1} matrix")
    if e.rows != m * ng or e.cols != n * ng:
        raise InvalidMatrixError(
            f"shape {e.rows}x{e.cols} does not match {m}x{n} blocks of size {ng}"
        )
    _check_invariant(e, group, m, n)
    ent = [
        [
            frozenset(
                h for h in range(ng) if e.entry(k * ng, l * ng + h)
            )
            for l in range(n)
        ]
        for k in range(m)
    ]
    return GroupRingMatrix(group, ent)


@dataclass(frozen=True)
class MarkedGGraph:
    """A graph on {1..n} x G with the free action g(k,h) = (k,gh), one
    marked vertex per orbit and a total order on the marks."""

    group: FiniteGroup
    n_orbits: int
    adjacency: NonnegMatrix  # indexed by k*|G| + g
    marks: tuple[tuple[int, int], ...]  # (orbit, group element) per orbit, ordered

    def __post_init__(self):
        ng = self.group.order
        n = self.n_orbits * ng
        if self.adjacency.rows != n or self.adjacency.cols != n:
            raise InvalidMatrixError("adjacency shape does not match orbits x |G|")
        if not self.adjacency.is_boolean:
            raise InvalidMatrixError("adjacency must be {0,1} (no parallel edges)")
        seen = set()
        for orbit, g in self.marks:
            if not (0 <= orbit < self.n_orbits and 0 <= g < ng):
                raise InvalidMatrixError("mark out of range")
            seen.add(orbit)
        if len(self.marks) != self.n_orbits or len(seen) != self.n_orbits:
            raise InvalidMatrixError("need exactly one mark per orbit")
        adj = self.adjacency
        _check_invariant(adj, self.group, self.n_orbits, self.n_orbits)
        cols = adj.transpose()
        for i in range(n):
            if not adj.row_mask(i) or not cols.row_mask(i):
                raise InvalidMatrixError("graph has a sink or a source")


def mark_and_relabel(d: MarkedGGraph) -> GroupRingMatrix:
    """The canonical matrix over G* of a marked G-graph.

    Vertex (l,h) is h·g_l^{-1} applied to the mark (l,g_l), so entry (t, u)
    is {h·g_l^{-1} : (k,g_k) -> (l,h)} for the marks (k,g_k) and (l,g_l)
    of ranks t and u.  MarkedGGraph has checked G-invariance, so the rows
    of the marks determine the matrix.
    """
    g, ng, adj = d.group, d.group.order, d.adjacency
    entries = [
        [
            frozenset(g.op(h, g.inv(gl)) for h in range(ng) if adj.entry(k * ng + gk, l * ng + h))
            for l, gl in d.marks
        ]
        for k, gk in d.marks
    ]
    return GroupRingMatrix(g, entries)


@dataclass(frozen=True)
class GsftEdge:
    """An elementary SSE over G*: a = r·s and b = s·r inside G*.

    Its products can leave G* (GStarOverflowError), so it is not a
    DegSSEEdge; elementary.Triangle takes it all the same."""

    a: GroupRingMatrix
    b: GroupRingMatrix
    r: GroupRingMatrix
    s: GroupRingMatrix

    def __post_init__(self):
        if not (self.a.is_square and self.b.is_square):
            raise InvalidEdgeError("A and B must be square")
        if mul_gstar(self.r, self.s) != self.a:
            raise InvalidEdgeError("RS != A over ZG")
        if mul_gstar(self.s, self.r) != self.b:
            raise InvalidEdgeError("SR != B over ZG")


def equivariant_triangle(t: Triangle) -> bool:
    """The triangle equations over ZG for a Triangle of GsftEdges; products
    leaving G* are reported (GStarOverflowError), distinctly from plain
    inequality.

    The verdict is cross-checked against the triangle equations of the
    barred matrices, which must agree by multiplicativity; these are
    DegSSEEdges, since a matrix over G* may have a zero row."""
    verdict = all(mul_gstar(x(t), y(t)) == z(t) for _, x, y, z in _TRIANGLE_EQUATIONS)
    barred = Triangle(
        *(DegSSEEdge(bar(e.a), bar(e.b), bar(e.r), bar(e.s)) for e in (t.e1, t.e2, t.e3))
    )
    if verdict != check_triangle(barred):
        raise VerificationError("group-ring and barred triangle verdicts differ")
    return verdict


# -- JSON format ------------------------------------------------------


def gsft_matrix_to_json(a: GroupRingMatrix) -> dict:
    return {
        "group": group_to_json(a.group),
        "rows": a.rows,
        "cols": a.cols,
        "entries": [
            [sorted(a.group.names[g] for g in cell) for cell in row]
            for row in a.entries
        ],
    }


def gsft_matrix_from_json(obj: dict) -> GroupRingMatrix:
    keys = ("group", "entries")
    group, entries = json_fields(obj, InvalidMatrixError, "a group-ring matrix", keys)
    group = group_from_json(group)
    entries = [
        [
            [group.index(name) for name in json_list(cell, InvalidMatrixError, "a group-ring cell")]
            for cell in json_list(row, InvalidMatrixError, "a group-ring row")
        ]
        for row in json_list(entries, InvalidMatrixError, "group-ring entries")
    ]
    m = GroupRingMatrix(group, entries)
    check_declared_shape(m, obj.get("rows", m.rows), obj.get("cols", m.cols))
    return m


def hat_input_from_json(obj: dict) -> tuple[FiniteGroup, NonnegMatrix, tuple[int, int]]:
    """The group, the boolean matrix and the block shape [m, n] that hat takes."""
    keys = ("group", "matrix", "shape")
    group, e, shape = json_fields(obj, InvalidMatrixError, "a hat input", keys)
    group, e = group_from_json(group), matrix_from_json(e)
    if not (
        isinstance(shape, list)
        and len(shape) == 2
        and all(type(k) is int and k > 0 for k in shape)
    ):
        raise InvalidMatrixError(f"shape must be two positive integers, not {shape!r}")
    return group, e, (shape[0], shape[1])
