"""The dictionary between matrix pairs (R,S) and elementary conjugacies,
and the three triangle equations.

An edge (R,S): A -> B with A = RS and B = SR determines the conjugacy
phi(x)_i = the unique b with R[x_i,b]·S[b,x_{i+1}] = 1, and conversely an
elementary conjugacy determines its matrix pair through the supports of
its local rules.  check_triangle only tests the three matrix equations;
that they are equivalent to commutation of the corresponding codes is a
test target, not an assumption.

DegSSEEdge is the edge over Z>=0 with no nondegeneracy requirement;
SSEEdge is its checked subclass for {0,1} nondegenerate matrices, the
edges that have a conjugacy.  One Triangle and one check_triangle serve
both.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import BlockCode, _fits, normalize, verify_inverse
from .errors import InvalidEdgeError, NotElementaryError, VerificationError
from .matrices import (
    NonnegMatrix,
    is_nondegenerate,
    matrix_from_json,
    matrix_to_json,
    mul,
)
from .shifts import VertexShift


@dataclass(frozen=True)
class DegSSEEdge:
    """An elementary strong shift equivalence A = RS, B = SR over Z>=0,
    without nondegeneracy requirements."""

    a: NonnegMatrix
    b: NonnegMatrix
    r: NonnegMatrix
    s: NonnegMatrix

    def __post_init__(self):
        a, b, r, s = self.a, self.b, self.r, self.s
        if not (a.is_square and b.is_square):
            raise InvalidEdgeError("A and B must be square")
        if r.rows != a.rows or r.cols != b.rows or s.rows != b.rows or s.cols != a.rows:
            raise InvalidEdgeError("R, S shapes do not match A, B")
        if mul(r, s) != a:
            raise InvalidEdgeError("RS != A")
        if mul(s, r) != b:
            raise InvalidEdgeError("SR != B")

    def reversed(self) -> "DegSSEEdge":
        return type(self)(self.b, self.a, self.s, self.r)

    def transposed(self) -> "DegSSEEdge":
        return type(self)(
            self.a.transpose(), self.b.transpose(), self.s.transpose(), self.r.transpose()
        )

    @property
    def is_boolean(self) -> bool:
        return all(m.is_boolean for m in (self.a, self.b, self.r, self.s))

    def to_strict(self) -> "SSEEdge":
        return SSEEdge(self.a, self.b, self.r, self.s)


@dataclass(frozen=True)
class SSEEdge(DegSSEEdge):
    """An elementary SSE between {0,1} matrices, all four nondegenerate."""

    def __post_init__(self):
        for name, m in (("A", self.a), ("B", self.b), ("R", self.r), ("S", self.s)):
            if not m.is_boolean:
                raise InvalidEdgeError(f"{name} must be a {{0,1}} matrix")
            if not is_nondegenerate(m):
                raise InvalidEdgeError(f"{name} must be nondegenerate")
        super().__post_init__()


@dataclass(frozen=True)
class Triangle:
    """Edges e1: A->B, e2: B->C, e3: A->C with matching endpoints.

    Only endpoints are compared, so the edges may be of any family:
    SSEEdge, DegSSEEdge or gsft.GsftEdge."""

    e1: DegSSEEdge
    e2: DegSSEEdge
    e3: DegSSEEdge

    def __post_init__(self):
        if self.e1.b != self.e2.a:
            raise InvalidEdgeError("e1 target != e2 source")
        if self.e1.a != self.e3.a:
            raise InvalidEdgeError("e1 source != e3 source")
        if self.e2.b != self.e3.b:
            raise InvalidEdgeError("e2 target != e3 target")


def code_from_edge(e: SSEEdge, verify: bool = True) -> BlockCode:
    """The elementary conjugacy phi_{R,S}: X_A -> X_B with its inverse."""
    x = VertexShift(e.a)
    y = VertexShift(e.b)
    r_rows = e.r.support_rows()
    s_cols = e.s.transpose().support_rows()
    fwd = {}
    for w in x.words(2):
        cands = r_rows[w[0]] & s_cols[w[1]]
        if cands == 0 or cands & (cands - 1):
            raise InvalidEdgeError(
                f"local rule not uniquely defined on {w}: candidate mask {cands:b}"
            )
        fwd[w] = cands.bit_length() - 1
    s_rows = e.s.support_rows()
    r_cols = e.r.transpose().support_rows()
    bwd = {}
    for w in y.words(2):
        cands = s_rows[w[0]] & r_cols[w[1]]
        if cands == 0 or cands & (cands - 1):
            raise InvalidEdgeError(
                f"inverse local rule not uniquely defined on {w}: candidate mask {cands:b}"
            )
        bwd[w] = cands.bit_length() - 1
    f = BlockCode(x, y, 0, 1, fwd, inverse=(-1, 0, bwd))
    if verify and not verify_inverse(f, f.inverse):
        raise VerificationError("phi_{R,S} compositions do not normalize to identity")
    return f


def edge_from_code(f: BlockCode) -> SSEEdge:
    """The matrix pair (R_phi, S_phi) of an elementary conjugacy."""
    fn = normalize(f)
    gn = fn.inverse
    if not _fits(fn, 0, 1):
        raise NotElementaryError(
            f"windows {fn.window} / inverse {gn.window} not inside (0,1) / (-1,0)"
        )
    x, y = f.domain, f.codomain
    ftab = fn.table_at(0, 1)
    gtab = gn.table_at(-1, 0)
    r_masks = [0] * x.alphabet_size
    for (a, _a1), b in ftab.items():
        r_masks[a] |= 1 << b
    s_masks = [0] * y.alphabet_size
    for (b, _b1), a in gtab.items():
        s_masks[b] |= 1 << a
    r = NonnegMatrix.from_bool_rows(y.alphabet_size, r_masks)
    s = NonnegMatrix.from_bool_rows(x.alphabet_size, s_masks)
    return SSEEdge(x.matrix, y.matrix, r, s)


def check_triangle(t: Triangle) -> bool:
    """The three triangle equations R1R2=R3, R2S3=S1, S3R1=S2, exactly."""
    return (
        mul(t.e1.r, t.e2.r) == t.e3.r
        and mul(t.e2.r, t.e3.s) == t.e1.s
        and mul(t.e3.s, t.e1.r) == t.e2.s
    )


# -- JSON format ------------------------------------------------------


def edge_to_json(e: DegSSEEdge, degenerate: bool = False) -> dict:
    """The edge object; a degenerate edge carries "degenerate": true."""
    out = {
        "A": matrix_to_json(e.a),
        "B": matrix_to_json(e.b),
        "R": matrix_to_json(e.r),
        "S": matrix_to_json(e.s),
    }
    if degenerate:
        out["degenerate"] = True
    return out


def edge_from_json(obj: dict, degenerate: bool = False) -> DegSSEEdge:
    """An SSEEdge, or a DegSSEEdge when degenerate; the "degenerate" key of
    the object is not read."""
    try:
        return (DegSSEEdge if degenerate else SSEEdge)(
            matrix_from_json(obj["A"]),
            matrix_from_json(obj["B"]),
            matrix_from_json(obj["R"]),
            matrix_from_json(obj["S"]),
        )
    except (TypeError, KeyError) as exc:
        raise InvalidEdgeError(f"malformed edge object: {exc}") from exc


def triangle_to_json(t: Triangle) -> dict:
    return {"e1": edge_to_json(t.e1), "e2": edge_to_json(t.e2), "e3": edge_to_json(t.e3)}


def triangle_from_json(obj: dict) -> Triangle:
    try:
        return Triangle(
            edge_from_json(obj["e1"]),
            edge_from_json(obj["e2"]),
            edge_from_json(obj["e3"]),
        )
    except (TypeError, KeyError) as exc:
        raise InvalidEdgeError(f"malformed triangle object: {exc}") from exc
