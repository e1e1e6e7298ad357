"""Ordered simplicial complexes, integer chains, the signed Freudenthal
subdivision of the simplex, the chain maps F and rho with their exact
identities, and the subdivision operator on complexes of conjugacies.

Chains are finitely supported integer combinations of ordered vertex
tuples; any tuple with a repeated vertex is annihilated at insertion, so
cancellation in the subdivision identities is exact by construction.
Pair vertices (v,w) with v = w are identified with the plain vertex v.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Hashable, Iterable, Optional, Sequence

from .errors import ResourceBoundError, SseError


class OracleUndefinedError(SseError):
    """The refinement oracle has no value on a required pair."""


class InvalidComplexError(SseError):
    pass


class InvalidChainError(SseError):
    pass


# -- lattice geometry of the subdivision --------------------------------


def theta(i: int, j: int, n: int) -> tuple[int, ...]:
    """The lattice point with i twos, then j-i ones, then zeros."""
    if not (0 <= i <= j <= n):
        raise ValueError(f"need 0 <= i <= j <= n, got ({i},{j},{n})")
    return tuple(2 if k <= i else (1 if k <= j else 0) for k in range(1, n + 1))


def theta_inverse(point: Sequence[int]) -> tuple[int, int]:
    """Recover (i, j) from a theta point: i twos and j nonzero entries."""
    i = sum(1 for x in point if x == 2)
    j = sum(1 for x in point if x >= 1)
    if theta(i, j, len(point)) != tuple(point):
        raise ValueError(f"{point!r} is not of the 2..21..10..0 form")
    return i, j


@dataclass(frozen=True)
class FreudenthalSimplex:
    """One top cell: base corner, coordinate insertion order, and sign."""

    dimension: int
    base: tuple[int, ...]
    perm: tuple[int, ...]  # 1-based coordinate indices
    vertices: tuple[tuple[int, ...], ...]
    sign: int


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j] - 1
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


# Cells and index tables are kept per dimension; the bound keeps both
# tables at no more than MAX_SUBDIVISION_DIMENSION + 1 entries.
MAX_SUBDIVISION_DIMENSION = 10
_CELLS: dict[int, tuple[FreudenthalSimplex, ...]] = {}
_INDEX_PAIRS: dict[int, tuple[tuple[int, tuple[tuple[int, int], ...]], ...]] = {}


def _subdivision_cells(n: int) -> tuple[FreudenthalSimplex, ...]:
    """The 2^n signed top cells of the subdivided n-simplex, sorted by
    (base, perm).

    A base inside the simplex is theta(0, j) for some j; from it the j
    "1->2" steps must raise coordinates 1..j in order and the n-j "0->1"
    steps coordinates j+1..n in order, so the cells on that base are the
    C(n, j) interleavings of the two runs.  Bases come in increasing j and
    the interleavings in lexicographic order of their "1->2" positions,
    which is already (base, perm) order.
    """
    cells = _CELLS.get(n)
    if cells is not None:
        return cells
    if n < 0:
        raise ValueError(f"dimension must be >= 0, got {n}")
    if n > MAX_SUBDIVISION_DIMENSION:
        raise ResourceBoundError(
            f"subdivision dimension {n} exceeds MAX_SUBDIVISION_DIMENSION"
            f" = {MAX_SUBDIVISION_DIMENSION}"
        )
    found = []
    for j in range(n + 1):
        base = theta(0, j, n)
        for two_steps in combinations(range(n), j):
            to_two = iter(range(1, j + 1))
            to_one = iter(range(j + 1, n + 1))
            perm = tuple(next(to_two) if k in two_steps else next(to_one) for k in range(n))
            verts = [base]
            for p in perm:
                nxt = list(verts[-1])
                nxt[p - 1] += 1
                verts.append(tuple(nxt))
            found.append(FreudenthalSimplex(n, base, perm, tuple(verts), _perm_sign(perm)))
    cells = _CELLS[n] = tuple(found)
    return cells


def _signed_index_pairs(n: int) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """For each cell of _subdivision_cells(n), in order: its sign and the
    (i, j) of theta_inverse at each of its vertices."""
    table = _INDEX_PAIRS.get(n)
    if table is None:
        table = _INDEX_PAIRS[n] = tuple(
            (cell.sign, tuple(theta_inverse(p) for p in cell.vertices))
            for cell in _subdivision_cells(n)
        )
    return table


def enumerate_subdivision(n: int) -> list[FreudenthalSimplex]:
    """All 2^n signed top cells of the subdivided n-simplex."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return list(_subdivision_cells(n))


def face_map(k: int, point: Sequence[int]) -> tuple[int, ...]:
    """The k-th face inclusion: prepend 2, double coordinate k, or append 0."""
    n = len(point)
    if k == 0:
        return (2,) + tuple(point)
    if k == n + 1:
        return tuple(point) + (0,)
    if not (1 <= k <= n):
        raise ValueError(f"face index {k} out of range 0..{n + 1}")
    return tuple(point[:k]) + (point[k - 1],) + tuple(point[k:])


# -- chains -------------------------------------------------------------


class Chain:
    """A finitely supported integer combination of ordered simplices."""

    __slots__ = ("coeffs", "complex")

    def __init__(self, coeffs: Optional[dict] = None, complex: Optional["OrderedComplex"] = None):
        self.coeffs: dict[tuple, int] = {}
        self.complex = complex
        if coeffs:
            for simplex, c in coeffs.items():
                self.add(tuple(simplex), c)

    def add(self, simplex: tuple, coeff: int) -> None:
        if coeff == 0 or len(set(simplex)) != len(simplex):
            return
        new = self.coeffs.get(simplex, 0) + coeff
        if new:
            self.coeffs[simplex] = new
        else:
            self.coeffs.pop(simplex, None)

    def __add__(self, other: "Chain") -> "Chain":
        out = Chain(dict(self.coeffs), self.complex)
        for s, c in other.coeffs.items():
            out.add(s, c)
        return out

    def __sub__(self, other: "Chain") -> "Chain":
        out = Chain(dict(self.coeffs), self.complex)
        for s, c in other.coeffs.items():
            out.add(s, -c)
        return out

    def __eq__(self, other):
        if not isinstance(other, Chain):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"Chain({self.coeffs!r})"


def boundary(c: Chain) -> Chain:
    out = Chain(complex=c.complex)
    for simplex, coeff in c.coeffs.items():
        if len(simplex) == 1:
            continue
        for k in range(len(simplex)):
            out.add(simplex[:k] + simplex[k + 1 :], coeff * (-1) ** k)
    return out


# -- pair vertices and the maps F, rho ----------------------------------


@dataclass(frozen=True)
class PairVertex:
    """An ordered pair vertex of the subdivided complex; (v,v) never
    occurs as a PairVertex, it collapses to the plain vertex v."""

    lo: Hashable
    hi: Hashable


def make_pair(v, w):
    return v if v == w else PairVertex(v, w)


def split_pair(x):
    if isinstance(x, PairVertex):
        return x.lo, x.hi
    return x, x


def chain_f(c: Chain) -> Chain:
    """The signed Freudenthal subdivision image of a chain."""
    out = Chain(complex=None)
    for simplex, coeff in c.coeffs.items():
        for sign, ij in _signed_index_pairs(len(simplex) - 1):
            out.add(tuple(make_pair(simplex[i], simplex[j]) for i, j in ij), coeff * sign)
    return out


def chain_rho(c: Chain) -> Chain:
    """The alternating cone from subdivision simplices into the mixed
    complex; degenerate output terms vanish."""
    out = Chain(complex=None)
    for simplex, coeff in c.coeffs.items():
        pairs = [split_pair(x) for x in simplex]
        for k in range(len(pairs)):
            head = tuple(a for a, _b in pairs[: k + 1])
            tail = tuple(make_pair(a, b) for a, b in pairs[k:])
            out.add(head + tail, coeff * (-1) ** k)
    return out


@dataclass(frozen=True)
class SubdivisionCheck:
    """The identities of the subdivided n-simplex, each checked exactly."""

    cells: int
    vertices: int
    counts_ok: bool  # 2^n cells on (n+1)(n+2)/2 lattice points
    chain_map_identity: bool  # boundary of the cells = faces of the (n-1)-cells
    chain_homotopy: bool  # d rho F + rho F d = F - id on random chains

    @property
    def ok(self) -> bool:
        return self.counts_ok and self.chain_map_identity and self.chain_homotopy


def check_subdivision(n: int, trials: int, seed: int) -> SubdivisionCheck:
    """Check the counts and the chain-map identity of the subdivided
    n-simplex, and the chain homotopy on `trials` random chains of
    n-simplices drawn with random.Random(seed)."""
    cells = enumerate_subdivision(n)
    vertices = {v for c in cells for v in c.vertices}
    counts_ok = len(cells) == 2**n and len(vertices) == (n + 1) * (n + 2) // 2
    lhs = Chain()
    for cell in cells:
        for k in range(n + 1):
            lhs.add(cell.vertices[:k] + cell.vertices[k + 1 :], cell.sign * (-1) ** k)
    rhs = Chain()
    for k in range(n + 1):
        for cell in _subdivision_cells(n - 1):
            rhs.add(tuple(face_map(k, p) for p in cell.vertices), (-1) ** k * cell.sign)
    rng = random.Random(seed)
    simplices = list(combinations(range(n + 3), n + 1))
    homotopy_ok = True
    for _ in range(trials):
        c = Chain({rng.choice(simplices): rng.randint(-3, 3) for _ in range(4)})
        fc = chain_f(c)
        if boundary(chain_rho(fc)) + chain_rho(chain_f(boundary(c))) != fc - c:
            homotopy_ok = False
            break
    return SubdivisionCheck(len(cells), len(vertices), counts_ok, lhs == rhs, homotopy_ok)


# -- ordered complexes ---------------------------------------------------


class OrderedComplex:
    """Vertices with an acyclic arrow relation and a face-closed set of
    simplices, each strictly increasing along the relation."""

    __slots__ = ("vertices", "arrows", "simplices")

    def __init__(
        self,
        vertices: Iterable[Hashable],
        arrows: Iterable[tuple[Hashable, Hashable]],
        top_simplices: Iterable[tuple],
    ):
        self.vertices = tuple(vertices)
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise InvalidComplexError("duplicate vertices")
        self.arrows = frozenset((a, b) for a, b in arrows)
        for a, b in self.arrows:
            if a not in vset or b not in vset:
                raise InvalidComplexError("arrow endpoint not a vertex")
            if a == b:
                raise InvalidComplexError("self-arrows are not allowed")
            if (b, a) in self.arrows:
                raise InvalidComplexError("arrow relation has a 2-cycle")
        self._check_acyclic()
        simplices = set()
        for top in top_simplices:
            top = tuple(top)
            for x in top:
                if x not in vset:
                    raise InvalidComplexError(f"simplex vertex {x!r} unknown")
            for i in range(len(top)):
                for j in range(i + 1, len(top)):
                    if (top[i], top[j]) not in self.arrows:
                        raise InvalidComplexError(
                            f"simplex {top!r} not increasing along the relation"
                        )
            # face closure
            for mask in range(1, 1 << len(top)):
                face = tuple(top[i] for i in range(len(top)) if (mask >> i) & 1)
                simplices.add(face)
        self.simplices = frozenset(simplices)

    def _check_acyclic(self):
        succ: dict = {}
        for a, b in self.arrows:
            succ.setdefault(a, []).append(b)
        state: dict = {}

        def visit(v):
            state[v] = 1
            for u in succ.get(v, ()):
                if state.get(u) == 1:
                    raise InvalidComplexError("arrow relation has a cycle")
                if u not in state:
                    visit(u)
            state[v] = 2

        for v in self.vertices:
            if v not in state:
                visit(v)

    def has_simplex(self, simplex: tuple) -> bool:
        return tuple(simplex) in self.simplices

    def chain(self, coeffs: dict) -> Chain:
        c = Chain(coeffs, complex=self)
        for s in c.coeffs:
            if s not in self.simplices:
                raise InvalidChainError(f"simplex {s!r} outside the complex")
        return c


# -- the subdivision operator on complexes of conjugacies ----------------


@dataclass
class SubdivisionReport:
    type_one: int = 0
    type_two: int = 0
    flagged_zero_ell: int = 0
    dropped_degenerate: int = 0


def subdivision_operator(
    c: Chain,
    refine: Callable[[Hashable, Hashable], Hashable],
) -> tuple[Chain, SubdivisionReport]:
    """Apply the subdivision followed by the refinement vertex map.

    refine(u, v) realizes the induced map on pair vertices; plain
    diagonal vertices also go through refine(v, v).  Every surviving
    output simplex is verified to be of type (I) (all strict pairs,
    indices nondecreasing) or type (II) (one diagonal at position l); the
    l = 0 case is accepted and counted separately.
    """
    report = SubdivisionReport()
    out = Chain(complex=None)
    cache: dict = {}

    def refined(u, v):
        key = (u, v)
        if key not in cache:
            val = refine(u, v)
            if val is None:
                raise OracleUndefinedError(f"refinement undefined on pair {key!r}")
            cache[key] = val
        return cache[key]

    for simplex, coeff in c.coeffs.items():
        for sign, ij in _signed_index_pairs(len(simplex) - 1):
            image = tuple(refined(simplex[i], simplex[j]) for (i, j) in ij)
            if len(set(image)) != len(image):
                report.dropped_degenerate += 1
                continue
            diag = [k for k, (i, j) in enumerate(ij) if i == j]
            if not diag:
                report.type_one += 1
            else:
                ell = ij[diag[0]][0]
                if len(diag) != 1:
                    raise InvalidChainError("more than one diagonal vertex in a cell")
                if ell == 0:
                    report.flagged_zero_ell += 1
                report.type_two += 1
            out.add(image, coeff * sign)
    return out, report
