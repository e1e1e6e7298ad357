"""Strong shift equivalence with matrices allowed to have zero rows or
columns: the four-triangle reduction of a degenerate edge, restriction of
triangles to cores, and normalization of degenerate paths.

Degenerate vertices carry no shift semantics, so the homotopy content of
path normalization is certified by composition equality after restricting
to cores, which is only available for {0,1} paths.

Edges, triangles and paths are the shared DegSSEEdge, Triangle and
SSEPath of elementary and complexes, and so are their JSON codecs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import SSEPath
from .elementary import DegSSEEdge, Triangle, check_triangle
from .errors import (
    EmptyCoreError,
    InvalidEdgeError,
    IterationBoundError,
    VerificationError,
)
from .matrices import (
    IndexSet,
    NonnegMatrix,
    core_indices,
    e_s_matrix,
    identity_submatrix,
    is_nondegenerate,
    mul,
    submatrix,
)


# older names of check_triangle and SSEPath, kept only because the
# benchmark workloads (perfbench/workloads.py) import them
check_deg_triangle = check_triangle
DegSSEPath = SSEPath


def _nonzero_rows(m: NonnegMatrix) -> IndexSet:
    return IndexSet(
        m.rows, tuple(i + 1 for i in range(m.rows) if m.row_mask(i))
    )


@dataclass
class DegTriangulation:
    """The four-triangle reduction of a degenerate edge."""

    k: IndexSet
    l: IndexSet
    j: IndexSet
    e_s: NonnegMatrix
    midpoint: NonnegMatrix  # B·E_S
    vertical_a: DegSSEEdge  # A -> A_{KxK}
    vertical_b: DegSSEEdge  # B -> B_{LxL}
    top: DegSSEEdge  # A_{KxK} -> B_{LxL}
    triangles: tuple[Triangle, Triangle, Triangle, Triangle]
    equations_checked: int


def deg_triangulate(e: DegSSEEdge) -> DegTriangulation:
    """Triangulate the square of a degenerate edge over its row-supports.

    Builds the midpoint B·E_S, the restricted matrices and the four
    triangles; every identity from the construction is re-verified and a
    failure raises VerificationError (valid input data cannot fail).
    """
    a, b, r, s = e.a, e.b, e.r, e.s
    n, m = a.rows, b.rows
    k = _nonzero_rows(a)
    l = _nonzero_rows(b)
    j = _nonzero_rows(s)
    if not k.members:
        raise EmptyCoreError("A has no nonzero row")
    if not l.members:
        raise EmptyCoreError("B has no nonzero row")
    full_n = IndexSet.full(n)
    full_m = IndexSet.full(m)
    es = e_s_matrix(s)
    re_s = mul(r, es)
    be_s = mul(b, es)
    checked = 0

    def expect(lhs: NonnegMatrix, rhs: NonnegMatrix, what: str):
        nonlocal checked
        checked += 1
        if lhs != rhs:
            raise VerificationError(f"identity failed: {what}")

    expect(mul(es, s), s, "E_S S = S")
    expect(mul(es, b), b, "E_S B = B")
    a_kk = submatrix(a, k, k)
    a_kn = submatrix(a, k, full_n)
    i_nk = identity_submatrix(full_n, k)
    b_ll = submatrix(b, l, l)
    b_lm = submatrix(b, l, full_m)
    i_ml = identity_submatrix(full_m, l)
    re_s_km = submatrix(re_s, k, full_m)
    re_s_kl = submatrix(re_s, k, l)
    s_mk = submatrix(s, full_m, k)
    s_lk = submatrix(s, l, k)
    es_ml = submatrix(es, full_m, l)
    be_s_lm = submatrix(be_s, l, full_m)

    expect(mul(s_mk, re_s_km), be_s, "S_{MxK} (RE_S)_{KxM} = B E_S")
    expect(mul(re_s_kl, s_lk), a_kk, "(RE_S)_{KxL} S_{LxK} = A_{KxK}")

    edge0 = e
    vert_a = DegSSEEdge(a, a_kk, i_nk, a_kn)
    vert_b = DegSSEEdge(b, b_ll, i_ml, b_lm)
    e1 = DegSSEEdge(a, be_s, re_s, s)
    e2 = DegSSEEdge(b, be_s, es, b)
    e3 = DegSSEEdge(a_kk, be_s, re_s_km, s_mk)
    e4 = DegSSEEdge(be_s, b_ll, es_ml, be_s_lm)
    e5 = DegSSEEdge(a_kk, b_ll, re_s_kl, s_lk)
    checked += 14  # two product identities per constructed edge

    triangles = (
        Triangle(edge0, e2, e1),
        Triangle(vert_a, e3, e1),
        Triangle(e2, e4, vert_b),
        Triangle(e3, e4, e5),
    )
    for idx, t in enumerate(triangles):
        checked += 3
        if not check_triangle(t):
            raise VerificationError(f"triangle {idx + 1} equations failed")
    return DegTriangulation(
        k, l, j, es, be_s, vert_a, vert_b, e5, triangles, checked
    )


def restrict_edge(e: DegSSEEdge) -> DegSSEEdge:
    """Restriction of an edge to the cores of its endpoints."""
    ja = core_indices(e.a)
    jb = core_indices(e.b)
    if not ja.members or not jb.members:
        raise EmptyCoreError("edge endpoint has an empty core")
    return DegSSEEdge(
        submatrix(e.a, ja, ja),
        submatrix(e.b, jb, jb),
        submatrix(e.r, ja, jb),
        submatrix(e.s, jb, ja),
    )


def restrict_triangle(t: Triangle) -> Triangle:
    """Restrict a valid triangle to the cores of its three vertices."""
    if not check_triangle(t):
        raise InvalidEdgeError("input triangle does not satisfy the equations")
    ja = core_indices(t.e1.a)
    jb = core_indices(t.e1.b)
    jc = core_indices(t.e2.b)
    for name, idx in (("A", ja), ("B", jb), ("C", jc)):
        if not idx.members:
            raise EmptyCoreError(f"core of {name} is empty")
    out = Triangle(restrict_edge(t.e1), restrict_edge(t.e2), restrict_edge(t.e3))
    if not check_triangle(out):
        raise VerificationError("restricted triangle fails the equations")
    return out


def cancel_backtracks(steps):
    """Remove adjacent (e,+1),(e,-1) pairs; they compose to nothing."""
    out: list = []
    for step in steps:
        if out and out[-1][0] == step[0] and out[-1][1] == -step[1]:
            out.pop()
        else:
            out.append(step)
    return tuple(out)


def _row_pass(p: SSEPath) -> tuple[SSEPath, bool]:
    """Replace every edge with a zero-row endpoint by its triangulated
    detour A -> A_{KxK} -> B_{LxL} <- B; returns (path, changed).

    Two consecutive expanded edges produce the backtrack
    ... -> B_{LxL} <- B -> B_{LxL} -> ... through their shared endpoint,
    which is cancelled, so interior degenerate vertices are actually
    removed from the path."""
    new_steps: list[tuple[DegSSEEdge, int]] = []
    changed = False
    for edge, sign in p.steps:
        k_full = all(edge.a.row_mask(i) for i in range(edge.a.rows))
        l_full = all(edge.b.row_mask(i) for i in range(edge.b.rows))
        if k_full and l_full:
            new_steps.append((edge, sign))
            continue
        changed = True
        # triangulate the edge in its stored orientation (phi_{S,R} is
        # sigma composed with phi_{R,S}^{-1}, not the plain inverse, so
        # flipping the edge first would change the composite), then
        # reverse the detour when the step is traversed backwards
        tri = deg_triangulate(edge)
        expansion: list[tuple[DegSSEEdge, int]] = []
        if not tri.k.is_full:
            expansion.append((tri.vertical_a, 1))
        expansion.append((tri.top, 1))
        if not tri.l.is_full:
            expansion.append((tri.vertical_b, -1))
        if sign == -1:
            expansion = [(e2, -s2) for e2, s2 in reversed(expansion)]
        new_steps.extend(expansion)
    return SSEPath(p.base, cancel_backtracks(new_steps)), changed


def normalize_path(p: SSEPath, max_rounds: int | None = None) -> SSEPath:
    """Homotop a degenerate path to one through nondegenerate matrices.

    Alternates row passes and (transposed) column passes until every
    vertex is nondegenerate; the endpoints must already be nondegenerate
    and are kept fixed.  max_rounds, an int >= 0, bounds the passes
    (IterationBoundError when they do not converge); by default it is 2
    plus the number of rows of all the vertices.
    """
    if not is_nondegenerate(p.base) or not is_nondegenerate(p.end):
        raise InvalidEdgeError("normalize_path needs nondegenerate endpoints")
    if max_rounds is None:
        max_rounds = 2 + sum(v.rows for v in p.vertices())
    elif type(max_rounds) is not int or max_rounds < 0:
        raise ValueError(f"max_rounds must be an int >= 0, not {max_rounds!r}")
    cur = p
    for _ in range(max_rounds):
        if all(is_nondegenerate(v) for v in cur.vertices()):
            return cur
        cur, changed_rows = _row_pass(cur)
        transposed, changed_cols = _row_pass(cur.transposed())
        cur = transposed.transposed()
        if not changed_rows and not changed_cols:
            break
    if all(is_nondegenerate(v) for v in cur.vertices()):
        return cur
    raise IterationBoundError("normalization did not converge within the bound")


def to_strict_path(p: SSEPath):
    """View an all-nondegenerate {0,1} degenerate path as a strict SSEPath."""
    return SSEPath(p.base, tuple((e.to_strict(), s) for e, s in p.steps))


def restrict_path_to_cores(p: SSEPath) -> SSEPath:
    """Restrict every edge of a path to the cores of its endpoints."""
    steps = tuple((restrict_edge(e), s) for e, s in p.steps)
    ja = core_indices(p.base)
    return SSEPath(submatrix(p.base, ja, ja), steps)
