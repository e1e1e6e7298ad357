"""Paths in the complex of strong shift equivalences and their calculus:
composition, homotopy decision, and bounded neighborhood exploration.

Two paths with the same endpoints are homotopic exactly when their signed
compositions agree as block codes, so homotopy is decided by composing
and comparing normal forms.  explore materializes the depth-bounded
2-skeleton around a matrix in two stages: _closure, the exhaustive
factorization search that numbers the matrices and records the edges,
and _triangles, which finds the 2-cells from the edge rows alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import BlockCode, _compose_raw, _normal_pair, identity_code, normalize
from .elementary import (
    DegSSEEdge,
    SSEEdge,
    _edge_rule,
    edge_from_json,
    edge_to_json,
)
from .errors import InvalidEdgeError, ResourceBoundError, json_fields, json_list
from .factorize import factorizations, factorizations_general
from .matrices import (
    NonnegMatrix,
    _boolean_rows,
    is_nondegenerate,
    matrix_from_json,
    matrix_to_json,
    matrix_value,
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


def _fold(p: SSEPath) -> BlockCode:
    """The normal form of phi_n^{e_n} ∘ ... ∘ phi_1^{e_1}, the forward code
    of the strict path p, composed one step at a time with no inverse: a
    step builds only the rule it traverses its edge by, and the fold
    starts from the first step's rule.  An empty path gives the identity,
    which carries its inverse."""
    if not p.steps:
        return identity_code(VertexShift(p.base))
    rules = (BlockCode._trusted(*_edge_rule(edge, sign)) for edge, sign in p.steps)
    cur = normalize(next(rules))
    for rule in rules:
        cur = normalize(_compose_raw(rule, cur))
    return cur


def compose_path(p: SSEPath) -> BlockCode:
    """The conjugacy phi_n^{e_n} ∘ ... ∘ phi_1^{e_1} of the path, normalized
    and linked to its normalized inverse.  Each is one forward fold: the
    inverse is the code of p.reversed(), and normal forms are canonical."""
    return _normal_pair(_fold(p), _fold(p.reversed()))


def homotopic(p: SSEPath, q: SSEPath) -> bool:
    """Paths with equal endpoints are homotopic iff their compositions
    agree; only the forward codes are composed and compared."""
    if p.base != q.base or p.end != q.end:
        raise InvalidEdgeError("homotopy needs equal endpoints")
    return _fold(p) == _fold(q)


def automorphism_from_loop(p: SSEPath) -> BlockCode:
    if not p.is_loop:
        raise InvalidEdgeError("path is not a loop")
    return compose_path(p)


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
    """All edges within depth rounds of factorization search from a
    (_closure), and the triangles among them (_triangles).

    Every edge (R,S): V -> W found is recorded together with its reverse
    (S,R): W -> V; triangles are all triples of recorded edges passing the
    triangle equations, listed in lexicographic order of their positions.
    The edges of a nondegenerate {0,1} base are built without their
    checks, which the exact covers already guarantee; a degenerate base
    gets checked edges.  Caps raise ResourceBoundError, they never
    silently truncate.

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
        find, make_edge = factorizations_general, DegSSEEdge
    elif not a.is_boolean:
        raise ResourceBoundError("entries above 1 need the experimental_counts flag")
    else:
        # an exact cover of a nondegenerate {0,1} A makes R, S and B
        # nondegenerate {0,1} with RS = A and SR = B, so every vertex
        # found from a is nondegenerate too, and no edge needs a check
        find = factorizations
        make_edge = SSEEdge._trusted if is_nondegenerate(a) else SSEEdge
    vertices, edges, *tables = _closure(a, max_inner, depth, max_size, max_edges, find, make_edge)
    return ComplexFragment(vertices, edges, _triangles(*tables), depth, max_inner)


def _closure(a, max_inner, depth, max_size, max_edges, find, make_edge):
    """The vertices and edges within depth rounds of find from a, edges
    made by make_edge(A, B, R, S), and the tables the triangle stage reads:
    the rows (position, A, B, R, S, position of the reverse) in edge order,
    mats and serial.  Every distinct matrix of the call gets a serial, its
    position in mats, when it is found, looked up by its matrix_value,
    which hashes in C; the fragment holds the first object of each.  An
    edge's reverse is recorded right after it, or is itself when R = S."""
    mats: list[NonnegMatrix] = [a]
    serial: dict[tuple, int] = {matrix_value(a): 0}

    def number(m: NonnegMatrix) -> int:
        k = serial.setdefault(matrix_value(m), len(mats))
        if k == len(mats):
            mats.append(m)
        return k

    vertices = [a]  # in discovery order
    seen = {0}  # their serials
    recorded: set[tuple[int, int]] = set()  # the (R, S) of every edge
    edge_list: list[DegSSEEdge] = []
    rows: list[tuple[int, int, int, int, int, int]] = []
    frontier = [0]
    for _ in range(depth):
        if not frontier:
            break
        next_frontier = []
        for vk in frontier:
            v = mats[vk]
            if v.rows > max_size:
                continue
            for m in range(1, max_inner + 1):
                for r, s, b in find(v, m, max_results=max_edges):
                    rk, sk, bk = number(r), number(s), number(b)
                    if (rk, sk) not in recorded:  # A = RS and B = SR
                        r, s, b = mats[rk], mats[sk], mats[bk]
                        recorded.add((rk, sk))
                        edge_list.append(make_edge(v, b, r, s))
                        pos = len(rows)
                        if rk == sk:
                            rows.append((pos, vk, bk, rk, sk, pos))
                        else:
                            rows.append((pos, vk, bk, rk, sk, pos + 1))
                            recorded.add((sk, rk))
                            edge_list.append(make_edge(b, v, s, r))
                            rows.append((pos + 1, bk, vk, sk, rk, pos))
                        if len(edge_list) > max_edges:
                            raise ResourceBoundError(
                                f"more than {max_edges} edges; tighten the bounds"
                            )
                    if bk not in seen:
                        seen.add(bk)
                        vertices.append(mats[bk])
                        next_frontier.append(bk)
        frontier = next_frontier
    return vertices, edge_list, rows, mats, serial


def _triangles(rows, mats, serial) -> list[tuple[int, int, int]]:
    """The triangles among the edges of rows, in lexicographic order of
    their positions, read off the rows and the numbering of their matrices.

    The edges are indexed by (source, target), so the e2 of an e1: A -> B
    are the edges B -> C for the C that A and B both have edges to.  The
    first equation forces R3 = R1·R2, so the candidates e3 are looked up
    among the recorded edges A -> C with that R, and each candidate is
    then checked against the other two equations of check_triangle.
    (e1, e2, e3) is a triangle exactly when (e2, ē3, ē1) is, for ē the
    reverse of e, as the three equations of the one are those of the
    other; so only triples least in their orbit under that rotation are
    scanned, and each is emitted with its orbit of 1 or 3 triangles.  The
    products are read from a table local to the call, so each distinct
    product is computed once, by the row-mask kernel when every matrix is
    {0,1} and by mul otherwise."""
    # the rows by (source, target), and those again by R, each list in
    # edge order; the targets of each source.  at[pos] collects the
    # triangles whose first edge is at pos; a row carries the list of its
    # own position, or for an e3 the list of its reverse's.
    between: dict[tuple[int, int], list] = {}
    by_r: dict[tuple[int, int], dict[int, list]] = {}
    targets: dict[int, set[int]] = {}
    at: list[list] = [[] for _ in rows]
    for pos, ak, bk, rk, sk, rev in rows:
        between.setdefault((ak, bk), []).append((pos, rk, sk, rev, at[pos]))
        by_r.setdefault((ak, bk), {}).setdefault(rk, []).append((pos, sk, rev, at[rev]))
        targets.setdefault(ak, set()).add(bk)
    # x·n + y -> the serial of X·Y, or -1 when X·Y is no matrix of the
    # call (then it equals no R or S); few distinct R and S occur, so
    # most products repeat
    n = len(mats)
    products: dict[int, int] = {}
    if all(m.is_boolean for m in mats):
        # a {0,1} matrix's value is its column count, width 1 and row
        # masks; a product with an entry >= 2 equals none of the matrices,
        # and any other has the same value under mul
        masks = [m._rows for m in mats]
        cols = [m.cols for m in mats]

        def product(key: int) -> int:
            x, y = divmod(key, n)
            pm = _boolean_rows(masks[x], masks[y])
            products[key] = p = -1 if pm is None else serial.get((cols[y], 1, pm), -1)
            return p
    else:
        def product(key: int) -> int:
            x, y = divmod(key, n)
            products[key] = p = serial.get(matrix_value(mul(mats[x], mats[y])), -1)
            return p

    # the three triangle equations of check_triangle; the first,
    # R1·R2 = R3, is the lookup of e3 by its R.  A triple t = (e1, e2, e3)
    # is scanned only when pos2 >= pos1 and rev3 >= pos1, so that no
    # member of its orbit t, u, w starts lower; it is emitted with its
    # orbit when it is also the least by tuple order (t == u == w, or all
    # three differ).
    for (ak, bk), e1s in between.items():
        # e1: A -> B, e2: B -> C and e3: A -> C
        for ck in targets[ak] & targets[bk]:
            e3_by_r = by_r[ak, ck]
            for pos2, r2, s2, rev2, at2 in between[bk, ck]:
                r2n = r2 * n
                for pos1, r1, s1, rev1, at1 in e1s:
                    if pos1 > pos2:
                        break
                    key = r1 * n + r2
                    r3 = products.get(key)
                    if r3 is None:
                        r3 = product(key)
                    e3s = e3_by_r.get(r3)
                    if e3s is None:
                        continue
                    for pos3, s3, rev3, at3 in e3s:
                        if rev3 < pos1:
                            continue
                        key = r2n + s3
                        p = products.get(key)
                        if p is None:
                            p = product(key)
                        if p != s1:
                            continue
                        key = s3 * n + r1
                        p = products.get(key)
                        if p is None:
                            p = product(key)
                        if p != s2:
                            continue
                        t, u, w = (pos1, pos2, pos3), (pos2, rev3, rev1), (rev3, pos1, rev2)
                        if t == u:
                            at1.append(t)
                        elif t < u and t < w:
                            at1.append(t)
                            at2.append(u)
                            at3.append(w)
    triangles = []
    for ts in at:
        ts.sort()
        triangles += ts
        ts.clear()
    return triangles


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
