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
from functools import reduce
from operator import attrgetter, or_

from .codes import BlockCode, _fits, _packed_at, normalize, verify_inverse
from .errors import InvalidEdgeError, NotElementaryError, VerificationError, json_fields
from .matrices import (
    NonnegMatrix,
    _boolean_rows,
    _product_is,
    is_nondegenerate,
    matrix_from_json,
    matrix_to_json,
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
        if not _product_is(r, s, a):
            raise InvalidEdgeError("RS != A")
        if not _product_is(s, r, b):
            raise InvalidEdgeError("SR != B")

    @classmethod
    def _trusted(cls, a, b, r, s) -> "DegSSEEdge":
        """An edge of this class built without __post_init__, for callers
        that already know it passes every check (a factorization search
        guarantees them).  The fields are set in declaration order, as
        __init__ sets them, so instances keep sharing their dict keys."""
        e = object.__new__(cls)
        object.__setattr__(e, "a", a)
        object.__setattr__(e, "b", b)
        object.__setattr__(e, "r", r)
        object.__setattr__(e, "s", s)
        return e

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
    """An elementary SSE between {0,1} matrices, all four nondegenerate.

    R and S need no nondegeneracy check of their own once RS = A and SR = B
    with A and B nondegenerate: a nonzero row i of A = RS needs a nonzero
    row i of R and a nonzero column j of A a nonzero column j of S, and
    B = SR gives the rows of S and the columns of R alike.  So a valid edge
    passes one conjunction of the remaining checks, read off the packed
    fields with no property call: the four widths are 1, the shapes fit,
    A's and B's row masks hold no 0 and their unions are every column,
    and the row masks of R·S and S·R are A's and B's.  Only an edge that
    fails it runs every check in order, for the message of the first that
    fails.
    """

    def __post_init__(self):
        a, b, r, s = self.a, self.b, self.r, self.s
        na, nb = a.rows, b.rows
        if (
            a._width == b._width == r._width == s._width == 1
            and na == a.cols == r.rows == s.cols
            and nb == b.cols == r.cols == s.rows
            and 0 not in a._rows
            and 0 not in b._rows
            and reduce(or_, a._rows) == (1 << na) - 1
            and reduce(or_, b._rows) == (1 << nb) - 1
            and _boolean_rows(r._rows, s._rows) == a._rows
            and _boolean_rows(s._rows, r._rows) == b._rows
        ):
            return
        for name, m in (("A", a), ("B", b), ("R", r), ("S", s)):
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


def _two_block_rule(x: VertexShift, p: NonnegMatrix, q: NonnegMatrix, name: str) -> dict:
    """The rule w -> the one c with P[w0, c] = Q[c, w1] = 1 on the packed
    2-words of x."""
    p_rows = p.support_rows()
    q_cols = q.transpose().support_rows()
    b = x.symbol_bits
    last = (1 << b) - 1
    rule = {}
    for w in x.packed_words(2):
        w0, w1 = w >> b, w & last
        cands = p_rows[w0] & q_cols[w1]
        if cands == 0 or cands & (cands - 1):
            raise InvalidEdgeError(
                f"{name} not uniquely defined on {(w0, w1)}: candidate mask {cands:b}"
            )
        rule[w] = cands.bit_length() - 1
    return rule


def _edge_rule(e: SSEEdge, sign: int) -> tuple:
    """The domain, codomain, window and packed table of the rule a path
    step of the given sign traverses e by: phi_{R,S} on [0, 1] for sign 1,
    its inverse on [-1, 0] for sign -1.

    Both rules are total on the 2-words and no check can fail: the images
    c, d of the 2-words (u, v), (v, w) of X_A follow each other in X_B, as
    B[c, d] >= S[c, v] R[v, d] = 1 for B = SR, and the inverse's images
    follow each other in X_A alike, for A = RS."""
    x, y = VertexShift(e.a), VertexShift(e.b)
    if sign == 1:
        return x, y, 0, 1, _two_block_rule(x, e.r, e.s, "local rule")
    return y, x, -1, 0, _two_block_rule(y, e.s, e.r, "inverse local rule")


def code_from_edge(e: SSEEdge, verify: bool = True) -> BlockCode:
    """The elementary conjugacy phi_{R,S}: X_A -> X_B with its inverse."""
    x, y, *fwd = _edge_rule(e, 1)
    f = BlockCode._trusted(x, y, *fwd, _edge_rule(e, -1)[2:])
    if verify and not verify_inverse(f, f.inverse):
        raise VerificationError("phi_{R,S} compositions do not normalize to identity")
    return f


def _rule_matrix(f: BlockCode, left: int) -> NonnegMatrix:
    """The {0,1} matrix with a 1 at (w0, v) for each 2-word w of the window
    [left, left + 1] and f's value v on it."""
    b = f.domain.symbol_bits
    masks = [0] * f.domain.alphabet_size
    for w, v in _packed_at(f, left, left + 1).items():
        masks[w >> b] |= 1 << v
    return NonnegMatrix.from_bool_rows(f.codomain.alphabet_size, masks)


def edge_from_code(f: BlockCode) -> SSEEdge:
    """The matrix pair (R_phi, S_phi) of an elementary conjugacy."""
    fn = normalize(f)
    gn = fn.inverse
    if not _fits(fn, 0, 1):
        raise NotElementaryError(
            f"windows {fn.window} / inverse {gn.window} not inside (0,1) / (-1,0)"
        )
    return SSEEdge(f.domain.matrix, f.codomain.matrix, _rule_matrix(fn, 0), _rule_matrix(gn, -1))


# the triangle equations x·y = z as (name, x, y, z), read off a Triangle;
# checks stop at the first that fails, before a later product is formed
_TRIANGLE_EQUATIONS = (
    ("R1R2=R3", attrgetter("e1.r"), attrgetter("e2.r"), attrgetter("e3.r")),
    ("R2S3=S1", attrgetter("e2.r"), attrgetter("e3.s"), attrgetter("e1.s")),
    ("S3R1=S2", attrgetter("e3.s"), attrgetter("e1.r"), attrgetter("e2.s")),
)


def check_triangle(t: Triangle) -> bool:
    """The three triangle equations R1R2=R3, R2S3=S1, S3R1=S2, exactly."""
    return all(_product_is(x(t), y(t), z(t)) for _, x, y, z in _TRIANGLE_EQUATIONS)


def failed_triangle_equations(t: Triangle) -> list[str]:
    """The names of the triangle equations that t fails, of "R1R2=R3",
    "R2S3=S1" and "S3R1=S2" in that order; empty exactly when
    check_triangle(t) holds."""
    return [name for name, x, y, z in _TRIANGLE_EQUATIONS if not _product_is(x(t), y(t), z(t))]


# -- JSON format ------------------------------------------------------


def edge_to_json(e: DegSSEEdge, degenerate: bool = False, *, encode=matrix_to_json) -> dict:
    """The edge object; a degenerate edge carries "degenerate": true.
    Each matrix is encode(matrix), a JSON object by default."""
    out = {"A": encode(e.a), "B": encode(e.b), "R": encode(e.r), "S": encode(e.s)}
    if degenerate:
        out["degenerate"] = True
    return out


def edge_from_json(obj: dict, degenerate: bool = False) -> DegSSEEdge:
    """An SSEEdge, or a DegSSEEdge when degenerate; the "degenerate" key of
    the object is not read."""
    fields = json_fields(obj, InvalidEdgeError, "an edge", ("A", "B", "R", "S"))
    return (DegSSEEdge if degenerate else SSEEdge)(*map(matrix_from_json, fields))


def triangle_to_json(t: Triangle, *, encode=matrix_to_json) -> dict:
    return {
        "e1": edge_to_json(t.e1, encode=encode),
        "e2": edge_to_json(t.e2, encode=encode),
        "e3": edge_to_json(t.e3, encode=encode),
    }


def triangle_from_json(obj: dict) -> Triangle:
    fields = json_fields(obj, InvalidEdgeError, "a triangle", ("e1", "e2", "e3"))
    return Triangle(*map(edge_from_json, fields))
