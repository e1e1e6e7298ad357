"""Paths in the complex of strong shift equivalences and their calculus:
composition, homotopy decision, and bounded neighborhood exploration.

Two paths with the same endpoints are homotopic exactly when their signed
compositions agree as block codes, so homotopy is decided by composing
and comparing normal forms.  explore materializes the depth-bounded
2-skeleton around a matrix by exhaustive factorization search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .codes import BlockCode, compose, identity_code, normalize
from .elementary import (
    DegSSEEdge,
    SSEEdge,
    code_from_edge,
    edge_from_json,
    edge_to_json,
)
from .errors import InvalidEdgeError, ResourceBoundError, json_fields, json_list
from .factorize import factorizations, factorizations_general
from .matrices import (
    NonnegMatrix,
    _boolean_mul,
    is_nondegenerate,
    matrix_from_json,
    matrix_to_json,
    mul,
)
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


class _Products(dict):
    """(X, Y) -> X·Y for interned matrices X and Y, computed on first
    lookup and interned; None where multiply gives None."""

    __slots__ = ("multiply", "intern")

    def __init__(self, multiply, intern):
        self.multiply, self.intern = multiply, intern

    def __missing__(self, key: tuple[NonnegMatrix, NonnegMatrix]) -> Optional[NonnegMatrix]:
        p = self.multiply(*key)
        if p is not None:
            p = self.intern(p, p)
        self[key] = p
        return p


@dataclass
class ComplexFragment:
    """A finite piece of the SSE complex around a base matrix; a triangle
    t is the positions (e1, e2, e3) of its edges in edges."""

    vertices: list[NonnegMatrix]
    edges: list[DegSSEEdge]
    triangles: list[tuple[int, int, int]]
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
    so each distinct product is computed once.  Every matrix of the call
    is interned, so the tables are keyed by the matrices themselves and
    the scan compares them by identity.  The edges out of a nondegenerate
    vertex are built without their checks, which the exact covers already
    guarantee; a degenerate base gets checked edges.  Caps raise
    ResourceBoundError, they never silently truncate.

    experimental_counts switches to the much slower search over all
    nonnegative integer entries (matrices over Z>=0 instead of {0,1});
    the fragment then holds degenerate-flavoured edges and triangles.

    max_inner and max_size must be ints >= 1, depth and max_edges ints
    >= 0 (ValueError otherwise).
    """
    for name, value, least in (
        ("max_inner", max_inner, 1),
        ("max_size", max_size, 1),
        ("depth", depth, 0),
        ("max_edges", max_edges, 0),
    ):
        if type(value) is not int or value < least:
            raise ValueError(f"{name} must be an int >= {least}, not {value!r}")
    if a.rows > max_size:
        raise ResourceBoundError(f"matrix size {a.rows} exceeds cap {max_size}")
    if experimental_counts:
        find, checked_edge, multiply = factorizations_general, DegSSEEdge, mul
    else:
        if not a.is_boolean:
            raise ResourceBoundError(
                "entries above 1 need the experimental_counts flag"
            )
        # a strict R or S is {0,1}, so a product with a larger entry
        # equals none of them and is recorded as a miss (None)
        find, checked_edge, multiply = factorizations, SSEEdge, _boolean_mul
    # one object per distinct matrix of the call, so that equal matrices
    # below are the same object: the tables below are keyed by them, and
    # a lookup or a product test then matches by identity
    canon: dict[NonnegMatrix, NonnegMatrix] = {a: a}
    intern = canon.setdefault
    vertices: dict[NonnegMatrix, None] = {a: None}  # in discovery order
    edges: dict[tuple[NonnegMatrix, NonnegMatrix], DegSSEEdge] = {}  # by (R, S)
    frontier = [a]
    for _ in range(depth):
        next_frontier = []
        for v in frontier:
            if v.rows > max_size:
                continue
            # an exact cover of a nondegenerate {0,1} A makes R, S and B
            # nondegenerate {0,1} with RS = A and SR = B, so its edges and
            # their reverses need no check
            if experimental_counts or not is_nondegenerate(v):
                make_edge = checked_edge
            else:
                make_edge = SSEEdge._trusted
            for m in range(1, max_inner + 1):
                for r, s, b in find(v, m, max_results=max_edges):
                    r, s, b = intern(r, r), intern(s, s), intern(b, b)
                    if (r, s) not in edges:  # A = RS and B = SR
                        edges[r, s] = make_edge(v, b, r, s)
                        edges[s, r] = make_edge(b, v, s, r)
                        if len(edges) > max_edges:
                            raise ResourceBoundError(
                                f"more than {max_edges} edges; tighten the bounds"
                            )
                    if b not in vertices:
                        vertices[b] = None
                        next_frontier.append(b)
        frontier = next_frontier
    edge_list = list(edges.values())
    # source -> target -> R -> [(position in edge_list, edge)], each list
    # in edge_list order
    index: dict[NonnegMatrix, dict[NonnegMatrix, dict[NonnegMatrix, list]]] = {}
    for pos, e in enumerate(edge_list):
        index.setdefault(e.a, {}).setdefault(e.b, {}).setdefault(e.r, []).append((pos, e))
    # few distinct R and S occur, so most products repeat
    products = _Products(multiply, intern)
    # the three triangle equations of check_triangle; the first,
    # R1·R2 = R3, is the lookup of e3 by its R
    triangles = []
    for pos1, e1 in enumerate(edge_list):
        from_a, out_of_b = index[e1.a], index[e1.b]
        r1, s1 = e1.r, e1.s
        # the e2 out of B into the targets A has edges to, in edge_list order
        for pos2, e2 in sorted(
            pair
            for c in out_of_b.keys() & from_a.keys()
            for by_r in out_of_b[c].values()
            for pair in by_r
        ):
            r2 = e2.r
            r3 = products[r1, r2]
            if r3 is None:
                continue
            for pos3, e3 in from_a[e2.b].get(r3, ()):
                s3 = e3.s
                if products[r2, s3] is s1 and products[s3, r1] is e2.s:
                    triangles.append((pos1, pos2, pos3))
    return ComplexFragment(list(vertices), edge_list, triangles, depth, max_inner)


# -- JSON formats ------------------------------------------------------


def path_to_json(p: SSEPath, degenerate: bool = False, *, encode=matrix_to_json) -> dict:
    """The path object; a degenerate path, even one without steps, carries
    "degenerate": true, and so does each of its edges.  Each matrix is
    encode(matrix), a JSON object by default."""
    out = {
        "base": encode(p.base),
        "steps": [
            {"edge": edge_to_json(e, degenerate, encode=encode), "sign": s} for e, s in p.steps
        ],
    }
    if degenerate:
        out["degenerate"] = True
    return out


def path_from_json(obj: dict, degenerate: bool = False) -> SSEPath:
    """A path of SSEEdges, or of DegSSEEdges when degenerate.  A sign is
    taken as it is, so SSEPath refuses any but the integers 1 and -1."""
    base, steps = json_fields(obj, InvalidEdgeError, "a path", ("base", "steps"))
    base = matrix_from_json(base)
    steps = [
        json_fields(st, InvalidEdgeError, "a path step", ("edge", "sign"))
        for st in json_list(steps, InvalidEdgeError, "path steps")
    ]
    return SSEPath(base, tuple((edge_from_json(e, degenerate), sign) for e, sign in steps))


def path_pair_from_json(obj: dict) -> tuple[SSEPath, SSEPath]:
    """The paths p and q of a {"p": path, "q": path} object."""
    p, q = json_fields(obj, InvalidEdgeError, "a path pair", ("p", "q"))
    return path_from_json(p), path_from_json(q)
