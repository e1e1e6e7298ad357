"""Paths in the complex of strong shift equivalences and their calculus:
composition, homotopy decision, and bounded neighborhood exploration.

Two paths with the same endpoints are homotopic exactly when their signed
compositions agree as block codes, so homotopy is decided by composing
and comparing normal forms.  explore materializes the depth-bounded
2-skeleton around a matrix by exhaustive factorization search.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .codes import BlockCode, compose, identity_code, normalize
from .elementary import (
    DegSSEEdge,
    SSEEdge,
    Triangle,
    code_from_edge,
    edge_from_json,
    edge_to_json,
)
from .errors import InvalidEdgeError, ResourceBoundError
from .factorize import factorizations, factorizations_general
from .matrices import NonnegMatrix, matrix_from_json, matrix_to_json, mul
from .shifts import VertexShift


@dataclass(frozen=True)
class SSEPath:
    """A word of signed edges with chained endpoints, based at a matrix.

    The edges may be strict SSEEdges or degenerate DegSSEEdges; only
    strict paths have a composition."""

    base: NonnegMatrix
    steps: tuple[tuple[DegSSEEdge, int], ...]

    def __post_init__(self):
        cur = self.base
        for i, (edge, sign) in enumerate(self.steps):
            if type(sign) is not int or sign not in (1, -1):
                raise InvalidEdgeError(
                    f"step {i}: sign must be the integer 1 or -1, not {sign!r}"
                )
            src = edge.a if sign == 1 else edge.b
            if src != cur:
                raise InvalidEdgeError(f"step {i}: source does not chain")
            cur = edge.b if sign == 1 else edge.a

    @property
    def end(self) -> NonnegMatrix:
        return self.vertices()[-1]

    def vertices(self) -> list[NonnegMatrix]:
        out = [self.base]
        for edge, sign in self.steps:
            out.append(edge.b if sign == 1 else edge.a)
        return out

    @property
    def is_loop(self) -> bool:
        return self.end == self.base

    def concat(self, other: "SSEPath") -> "SSEPath":
        if other.base != self.end:
            raise InvalidEdgeError("concatenation endpoints do not match")
        return SSEPath(self.base, self.steps + other.steps)

    def reversed(self) -> "SSEPath":
        return SSEPath(
            self.end, tuple((e, -s) for e, s in reversed(self.steps))
        )

    def transposed(self) -> "SSEPath":
        return SSEPath(
            self.base.transpose(),
            tuple((e.transposed(), s) for e, s in self.steps),
        )


def compose_path(p: SSEPath) -> BlockCode:
    """The conjugacy phi_n^{e_n} ∘ ... ∘ phi_1^{e_1} of the path, normalized."""
    cur = identity_code(VertexShift(p.base))
    for edge, sign in p.steps:
        c = code_from_edge(edge, verify=False)
        step_code = c if sign == 1 else c.inverse
        cur = normalize(compose(step_code, cur))
    return cur


def homotopic(p: SSEPath, q: SSEPath) -> bool:
    """Paths with equal endpoints are homotopic iff their compositions agree."""
    if p.base != q.base or p.end != q.end:
        raise InvalidEdgeError("homotopy needs equal endpoints")
    return compose_path(p) == compose_path(q)


def automorphism_from_loop(p: SSEPath) -> BlockCode:
    if not p.is_loop:
        raise InvalidEdgeError("path is not a loop")
    return compose_path(p)


@dataclass
class ComplexFragment:
    """A finite piece of the SSE complex around a base matrix."""

    vertices: list[NonnegMatrix]
    edges: list[DegSSEEdge]
    triangles: list[Triangle]
    depth: int
    max_inner: int


def explore(
    a: NonnegMatrix,
    max_inner: int,
    depth: int = 1,
    max_size: int = 6,
    max_edges: int = 20000,
    experimental_counts: bool = False,
) -> ComplexFragment:
    """All edges within depth rounds of factorization search from a.

    Every edge (R,S): V -> W found is recorded together with its reverse
    (S,R): W -> V; triangles are all triples of recorded edges passing the
    triangle equations.  The first equation forces R3 = R1·R2, so for each
    chained pair e1: A -> B, e2: B -> C the candidates e3 are looked up
    among the recorded edges A -> C with that R, in recording order, and
    each candidate is then checked against all three equations of
    check_triangle.  The products are read from a table local to the call,
    so each distinct product is computed once.  Caps raise
    ResourceBoundError, they never silently truncate.

    experimental_counts switches to the much slower search over all
    nonnegative integer entries (matrices over Z>=0 instead of {0,1});
    the fragment then holds degenerate-flavoured edges and triangles.
    """
    if a.rows > max_size:
        raise ResourceBoundError(f"matrix size {a.rows} exceeds cap {max_size}")
    if experimental_counts:
        find, make_edge = factorizations_general, DegSSEEdge
    else:
        if not a.is_boolean:
            raise ResourceBoundError(
                "entries above 1 need the experimental_counts flag"
            )
        find, make_edge = factorizations, SSEEdge
    # one object per distinct matrix of the call, so that equal matrices
    # below are mostly the same object and compare by identity
    canon: dict[NonnegMatrix, NonnegMatrix] = {a: a}
    intern = canon.setdefault
    vertices: dict[NonnegMatrix, None] = {a: None}
    edges: dict[tuple, object] = {}
    frontier = [a]
    for _ in range(depth):
        next_frontier = []
        for v in frontier:
            if v.rows > max_size:
                continue
            for m in range(1, max_inner + 1):
                for r, s, b in find(v, m, max_results=max_edges):
                    r, s, b = intern(r, r), intern(s, s), intern(b, b)
                    key = (v, b, r, s)
                    if key not in edges:
                        e = make_edge(v, b, r, s)
                        edges[key] = e
                        edges[(b, v, s, r)] = e.reversed()
                        if len(edges) > max_edges:
                            raise ResourceBoundError(
                                f"more than {max_edges} edges; tighten the bounds"
                            )
                    if b not in vertices:
                        vertices[b] = None
                        next_frontier.append(b)
        frontier = next_frontier
    edge_list = list(edges.values())
    by_source: dict[NonnegMatrix, list] = {}
    # source -> target -> R -> edges, each list in edge_list order
    by_ends: dict[NonnegMatrix, dict[NonnegMatrix, dict[NonnegMatrix, list]]] = {}
    for e in edge_list:
        by_source.setdefault(e.a, []).append(e)
        by_ends.setdefault(e.a, {}).setdefault(e.b, {}).setdefault(e.r, []).append(e)
    # (X, Y) -> X·Y; few distinct R and S occur, so most products repeat
    products: dict[tuple[NonnegMatrix, NonnegMatrix], NonnegMatrix] = {}

    def product(x: NonnegMatrix, y: NonnegMatrix) -> NonnegMatrix:
        p = products.get((x, y))
        if p is None:
            p = mul(x, y)
            p = products[(x, y)] = intern(p, p)
        return p

    triangles = []
    for e1 in edge_list:
        from_a = by_ends[e1.a]
        for e2 in by_source.get(e1.b, ()):
            by_r = from_a.get(e2.b)
            if by_r is None:
                continue
            r3 = product(e1.r, e2.r)
            for e3 in by_r.get(r3, ()):
                # the three triangle equations of check_triangle
                if (
                    r3 == e3.r
                    and product(e2.r, e3.s) == e1.s
                    and product(e3.s, e1.r) == e2.s
                ):
                    triangles.append(Triangle(e1, e2, e3))
    return ComplexFragment(list(vertices), edge_list, triangles, depth, max_inner)


# -- JSON formats ------------------------------------------------------


def path_to_json(p: SSEPath, degenerate: bool = False) -> dict:
    """The path object; a degenerate path, even one without steps, carries
    "degenerate": true, and so does each of its edges."""
    out = {
        "base": matrix_to_json(p.base),
        "steps": [{"edge": edge_to_json(e, degenerate), "sign": s} for e, s in p.steps],
    }
    if degenerate:
        out["degenerate"] = True
    return out


def path_from_json(obj: dict, degenerate: bool = False) -> SSEPath:
    """A path of SSEEdges, or of DegSSEEdges when degenerate.  A sign is
    taken as it is, so SSEPath refuses any but the integers 1 and -1."""
    try:
        base = matrix_from_json(obj["base"])
        steps = tuple(
            (edge_from_json(st["edge"], degenerate), st["sign"]) for st in obj["steps"]
        )
    except (TypeError, KeyError) as exc:
        raise InvalidEdgeError(f"malformed path object: {exc}") from exc
    return SSEPath(base, steps)


def path_pair_from_json(obj: dict) -> tuple[SSEPath, SSEPath]:
    """The paths p and q of a {"p": path, "q": path} object."""
    if not isinstance(obj, dict):
        raise InvalidEdgeError("a path pair must be a JSON object")
    return path_from_json(obj["p"]), path_from_json(obj["q"])


def fragment_to_json(f: ComplexFragment) -> dict:
    vindex = {v: i for i, v in enumerate(f.vertices)}
    edges = []
    eindex = {}
    for e in f.edges:
        eindex[(e.a, e.b, e.r, e.s)] = len(edges)
        edges.append(
            {
                "source": vindex[e.a],
                "target": vindex[e.b],
                "R": matrix_to_json(e.r),
                "S": matrix_to_json(e.s),
            }
        )
    triangles = [
        {
            "e1": eindex[(t.e1.a, t.e1.b, t.e1.r, t.e1.s)],
            "e2": eindex[(t.e2.a, t.e2.b, t.e2.r, t.e2.s)],
            "e3": eindex[(t.e3.a, t.e3.b, t.e3.r, t.e3.s)],
        }
        for t in f.triangles
    ]
    return {
        "vertices": [matrix_to_json(v) for v in f.vertices],
        "edges": edges,
        "triangles": triangles,
        "depth": f.depth,
        "max_inner": f.max_inner,
    }


def fragment_to_text(f: ComplexFragment, indent: str = "") -> str:
    """json.dumps(fragment_to_json(f), indent=2, sort_keys=True), written
    without building the dict.

    indent prefixes every line after the first, as json.dumps does for a
    fragment nested in a larger object.  The records have a fixed shape, so
    each is one %-template, and each matrix is encoded once by json.dumps.
    """
    vindex = {v: i for i, v in enumerate(f.vertices)}
    item = indent + "    "  # indent of an edge, triangle or vertex record
    field = item + "  "  # indent of a record's fields

    def matrix_text(m: NonnegMatrix, pad: str) -> str:
        return json.dumps(matrix_to_json(m), indent=2, sort_keys=True).replace(
            "\n", "\n" + pad
        )

    field_text: dict[NonnegMatrix, str] = {}  # R and S text, once per matrix

    def edge_matrix_text(m: NonnegMatrix) -> str:
        t = field_text.get(m)
        if t is None:
            t = field_text[m] = matrix_text(m, field)
        return t

    edge_record = (
        f'{{\n{field}"R": %s,\n{field}"S": %s,\n'
        f'{field}"source": %d,\n{field}"target": %d\n{item}}}'
    )
    edges = []
    eindex = {}
    for e in f.edges:
        eindex[(e.a, e.b, e.r, e.s)] = len(edges)
        edges.append(
            edge_record
            % (edge_matrix_text(e.r), edge_matrix_text(e.s), vindex[e.a], vindex[e.b])
        )
    triangle_record = (
        f'{{\n{field}"e1": %d,\n{field}"e2": %d,\n{field}"e3": %d\n{item}}}'
    )
    # each edge object's index, read off its key once
    by_id = {id(e): eindex[(e.a, e.b, e.r, e.s)] for e in f.edges}

    def index(e: DegSSEEdge) -> int:
        i = by_id.get(id(e))
        return eindex[(e.a, e.b, e.r, e.s)] if i is None else i

    triangles = [
        triangle_record % (index(t.e1), index(t.e2), index(t.e3))
        for t in f.triangles
    ]
    vertices = [matrix_text(v, item) for v in f.vertices]

    def listing(records: list[str]) -> str:
        if not records:
            return "[]"
        return f"[\n{item}" + f",\n{item}".join(records) + f"\n{indent}  ]"

    return (
        f'{{\n{indent}  "depth": {json.dumps(f.depth)},\n'
        f'{indent}  "edges": {listing(edges)},\n'
        f'{indent}  "max_inner": {json.dumps(f.max_inner)},\n'
        f'{indent}  "triangles": {listing(triangles)},\n'
        f'{indent}  "vertices": {listing(vertices)}\n{indent}}}'
    )
