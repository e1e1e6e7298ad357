"""Ordered simplicial complexes, integer chains, the signed Freudenthal
subdivision of the simplex, the chain maps F and rho with their exact
identities, and the subdivision operator on complexes of conjugacies.

Chains are finitely supported integer combinations of ordered vertex
tuples; any tuple with a repeated vertex is annihilated at insertion, so
cancellation in the subdivision identities is exact by construction.
Pair vertices (v,w) with v = w are identified with the plain vertex v.

F and rho are one kernel each, given how to make a pair and how to read
a first component.  chain_f and chain_rho take any vertices and make
PairVertex pairs; check_subdivision numbers its vertices, so that every
simplex it hashes is a tuple of small ints: a lattice point is its slot,
and the pair of trial vertices v != w is one int past them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Optional, Sequence

from .errors import ResourceBoundError, SseError
from .frozen import Frozen, slot_setters


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
    """One top cell: base corner, coordinate insertion order, and sign;
    pairs holds the (i, j) with theta(i, j) = each vertex, and slots the
    position of each (i, j) in the list of the pairs i <= j of 0..n,
    row by row."""

    dimension: int
    base: tuple[int, ...]
    perm: tuple[int, ...]  # 1-based coordinate indices
    vertices: tuple[tuple[int, ...], ...]
    sign: int
    pairs: tuple[tuple[int, int], ...]
    slots: tuple[int, ...]


# Cells are kept per dimension; the bound keeps the table at no more than
# MAX_SUBDIVISION_DIMENSION + 1 entries.
MAX_SUBDIVISION_DIMENSION = 10
_CELLS: dict[int, tuple[FreudenthalSimplex, ...]] = {}


def _slot(i: int, j: int, n: int) -> int:
    """The position of (i, j) in the pairs i <= j of 0..n, row by row;
    row i starts at i(2n + 3 - i)/2."""
    return i * (2 * n + 3 - i) // 2 + j - i


def _subdivision_cells(n: int) -> tuple[FreudenthalSimplex, ...]:
    """The 2^n signed top cells of the subdivided n-simplex, sorted by
    (base, perm).

    A base inside the simplex is theta(0, j) for some j; from it the j
    "1->2" steps must raise coordinates 1..j in order and the n-j "0->1"
    steps coordinates j+1..n in order, so the cells on that base are the
    C(n, j) interleavings of the two runs.  Bases come in increasing j and
    the interleavings in lexicographic order of their "1->2" positions,
    which is already (base, perm) order.

    After i "1->2" steps out of k, a cell is at theta(i, j + k - i), whose
    slot is i(2n + 3 - i)/2 + j + k - 2i, row i starting at i(2n + 3 - i)/2.
    A "0->1" step before a "1->2" step is an inversion of perm, so the
    sign is (-1) to the sum of the 0-based "1->2" positions less j(j - 1)/2.
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
            perm, pairs, i = [], [(0, j)], 0
            for k in range(1, n + 1):
                if k - 1 in two_steps:
                    i += 1
                    perm.append(i)
                else:
                    perm.append(j + k - i)
                pairs.append((i, j + k - i))
            verts = tuple(theta(a, b, n) for a, b in pairs)
            slots = tuple(_slot(a, b, n) for a, b in pairs)
            sign = -1 if (sum(two_steps) - j * (j - 1) // 2) % 2 else 1
            found.append(
                FreudenthalSimplex(n, base, tuple(perm), verts, sign, tuple(pairs), slots)
            )
    cells = _CELLS[n] = tuple(found)
    return cells


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
    """A finitely supported integer combination of ordered simplices; no
    key of coeffs repeats a vertex and no coefficient is zero."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[dict] = None):
        self.coeffs: dict[tuple, int] = {}
        if coeffs:
            for simplex, c in coeffs.items():
                self.add(tuple(simplex), c)

    def add(self, simplex: tuple, coeff: int) -> None:
        """Add coeff·simplex; a simplex with a repeated vertex is zero."""
        if coeff and len(set(simplex)) == len(simplex):
            coeffs = self.coeffs
            new = coeffs.get(simplex, 0) + coeff
            if new:
                coeffs[simplex] = new
            else:
                del coeffs[simplex]

    def _plus(self, other: "Chain", sign: int) -> "Chain":
        coeffs = dict(self.coeffs)
        get = coeffs.get
        for s, c in other.coeffs.items():
            coeffs[s] = get(s, 0) + sign * c
        return _chain(coeffs)

    def __add__(self, other: "Chain") -> "Chain":
        return self._plus(other, 1)

    def __sub__(self, other: "Chain") -> "Chain":
        return self._plus(other, -1)

    def __eq__(self, other):
        if not isinstance(other, Chain):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"Chain({self.coeffs!r})"


def _chain(coeffs: dict) -> Chain:
    """The chain of a fresh dict whose keys repeat no vertex, its zero
    terms deleted: the chain maps sum into a plain dict and drop zeros
    once."""
    for s in [s for s, c in coeffs.items() if not c]:
        del coeffs[s]
    out = Chain()
    out.coeffs = coeffs
    return out


def boundary(c: Chain) -> Chain:
    # a face of a simplex repeats none of its vertices
    out: dict[tuple, int] = {}
    get = out.get
    for simplex, coeff in c.coeffs.items():
        if len(simplex) == 1:
            continue
        for k in range(len(simplex)):
            face = simplex[:k] + simplex[k + 1 :]
            out[face] = get(face, 0) + coeff
            coeff = -coeff
    return _chain(out)


# -- pair vertices and the maps F, rho ----------------------------------


_PAIR = object()  # the tag of every PairVertex; no other tuple holds it


class PairVertex(tuple):
    """An ordered pair vertex of the subdivided complex; (v,v) never
    occurs as a PairVertex, it collapses to the plain vertex v.

    A pair is the tuple (_PAIR, lo, hi) under a module-private tag, so it
    hashes and compares in C, and it never equals a plain vertex, not
    even the tuple (lo, hi)."""

    __slots__ = ()

    def __new__(cls, lo: Hashable, hi: Hashable) -> "PairVertex":
        if lo == hi:
            raise ValueError(f"a pair vertex needs lo != hi, got {lo!r} twice")
        return tuple.__new__(cls, (_PAIR, lo, hi))

    def __reduce__(self):
        return PairVertex, (self[1], self[2])

    lo = property(itemgetter(1))
    hi = property(itemgetter(2))

    def __repr__(self) -> str:
        return f"PairVertex(lo={self[1]!r}, hi={self[2]!r})"


def make_pair(v, w):
    return v if v == w else PairVertex(v, w)


def split_pair(x):
    if type(x) is PairVertex:
        return x[1], x[2]
    return x, x


def _first(x):
    """The first component of a vertex: lo of a pair, a plain vertex itself."""
    return x[1] if type(x) is PairVertex else x


def _f(c: Chain, pair: Callable[[Hashable, Hashable], Hashable]) -> Chain:
    """F with the pair vertex of (v, w) made by pair(v, w); pair(v, v) is v."""
    out: dict[tuple, int] = {}
    get = out.get
    # a cell's (i, j) rise in both coordinates, and its every i is at most
    # its every j; so a diagonal v_k and a pair (v_i, v_j) of one cell
    # have k = i or k = j, and since a simplex repeats no vertex, no image
    # repeats one either
    for simplex, coeff in c.coeffs.items():
        # each pair vertex is made once per simplex, not once per cell
        pairs = [pair(v, w) for i, v in enumerate(simplex) for w in simplex[i:]]
        take = pairs.__getitem__
        for cell in _subdivision_cells(len(simplex) - 1):
            image = tuple(map(take, cell.slots))
            out[image] = get(image, 0) + coeff * cell.sign
    return _chain(out)


def _rho(c: Chain, first: Callable[[Hashable], Hashable]) -> Chain:
    """rho with the first component of a vertex read by first(x).

    Term k of a simplex is the first components of its vertices 0..k
    followed by the pairs of its vertices k.., and those pairs are the
    vertices themselves, since make_pair(*split_pair(x)) == x.  Once a
    first component repeats, it repeats in every later term too, so the
    terms from there on are all degenerate.  Neither the head nor the tail
    of a term repeats a vertex, so the term does iff they meet."""
    out: dict[tuple, int] = {}
    get = out.get
    for simplex, coeff in c.coeffs.items():
        firsts = tuple(map(first, simplex))
        seen = set()
        for k, lo in enumerate(firsts):
            if lo in seen:
                break
            seen.add(lo)
            tail = simplex[k:]
            if seen.isdisjoint(tail):
                term = firsts[: k + 1] + tail
                out[term] = get(term, 0) + coeff
            coeff = -coeff
    return _chain(out)


def chain_f(c: Chain) -> Chain:
    """The signed Freudenthal subdivision image of a chain."""
    return _f(c, make_pair)


def chain_rho(c: Chain) -> Chain:
    """The alternating cone from subdivision simplices into the mixed
    complex; degenerate output terms vanish."""
    return _rho(c, _first)


def _face_slots(n: int, k: int) -> list[int]:
    """Face k on slots: the slot of (i, j) in dimension n - 1 goes to the
    slot of (i + (k <= i), j + (k <= j)) in dimension n, which is
    face_map(k, .) on theta points."""
    return [
        _slot(i + (k <= i), j + (k <= j), n) for i in range(n) for j in range(i, n)
    ]


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
    n-simplices drawn with random.Random(seed); `trials` must be an
    integer >= 0.

    Both identities run on numbered vertices.  A lattice point is its
    slot.  The random chains are on the vertices 0..size-1, size = n + 3,
    and the pair of v != w is the number size + v·size + w, whose first
    component is read from a table."""
    if type(trials) is not int or trials < 0:
        raise ValueError(f"trials must be an integer >= 0, not {trials!r}")
    cells = enumerate_subdivision(n)
    vertices = {v for c in cells for v in c.vertices}
    counts_ok = len(cells) == 2**n and len(vertices) == (n + 1) * (n + 2) // 2
    lhs = boundary(Chain({cell.slots: cell.sign for cell in cells}))
    rhs = Chain()
    for k in range(n + 1):
        take = _face_slots(n, k).__getitem__
        for cell in _subdivision_cells(n - 1):
            rhs.add(tuple(map(take, cell.slots)), (-1) ** k * cell.sign)
    rng = random.Random(seed)
    simplices = list(combinations(range(n + 3), n + 1))
    size = n + 3
    firsts = list(range(size)) + [v for v in range(size) for _w in range(size)]

    def pair(v: int, w: int) -> int:
        return v if v == w else size + v * size + w

    first = firsts.__getitem__
    homotopy_ok = True
    for _ in range(trials):
        c = Chain({rng.choice(simplices): rng.randint(-3, 3) for _ in range(4)})
        fc = _f(c, pair)
        if boundary(_rho(fc, first)) + _rho(_f(boundary(c), pair), first) != fc - c:
            homotopy_ok = False
            break
    return SubdivisionCheck(len(cells), len(vertices), counts_ok, lhs == rhs, homotopy_ok)


# -- ordered complexes ---------------------------------------------------


class OrderedComplex(Frozen):
    """Vertices with an acyclic arrow relation and a face-closed set of
    simplices, each strictly increasing along the relation."""

    __slots__ = ("vertices", "arrows", "simplices")

    def __init__(
        self,
        vertices: Iterable[Hashable],
        arrows: Iterable[tuple[Hashable, Hashable]],
        top_simplices: Iterable[tuple],
    ):
        _set_vertices(self, tuple(vertices))
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise InvalidComplexError("duplicate vertices")
        _set_arrows(self, frozenset((a, b) for a, b in arrows))
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
        _set_simplices(self, frozenset(simplices))

    def __reduce__(self):
        # rebuilt from its maximal simplices: those that are no facet of another
        s = self.simplices
        tops = s - {t[:i] + t[i + 1 :] for t in s for i in range(len(t))}
        return (OrderedComplex, (self.vertices, self.arrows, tops))

    def __eq__(self, other):
        if not isinstance(other, OrderedComplex):
            return NotImplemented
        return (self.vertices, self.arrows, self.simplices) == (
            other.vertices, other.arrows, other.simplices
        )

    def __hash__(self):
        return hash((self.vertices, self.arrows, self.simplices))

    def _check_acyclic(self):
        # Kahn's algorithm: a vertex is dropped once every arrow into it
        # comes from a dropped vertex; a cycle keeps its vertices
        succ: dict = {}
        into = dict.fromkeys(self.vertices, 0)
        for a, b in self.arrows:
            succ.setdefault(a, []).append(b)
            into[b] += 1
        ready = [v for v, n in into.items() if n == 0]
        dropped = 0
        while ready:
            dropped += 1
            for u in succ.get(ready.pop(), ()):
                into[u] -= 1
                if into[u] == 0:
                    ready.append(u)
        if dropped < len(into):
            raise InvalidComplexError("arrow relation has a cycle")

    def has_simplex(self, simplex: tuple) -> bool:
        return tuple(simplex) in self.simplices

    def chain(self, coeffs: dict) -> Chain:
        c = Chain(coeffs)
        for s in c.coeffs:
            if s not in self.simplices:
                raise InvalidChainError(f"simplex {s!r} outside the complex")
        return c


_set_vertices, _set_arrows, _set_simplices = slot_setters(OrderedComplex)


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
    out = Chain()
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
        for cell in _subdivision_cells(len(simplex) - 1):
            image = tuple(refined(simplex[i], simplex[j]) for (i, j) in cell.pairs)
            if len(set(image)) != len(image):
                report.dropped_degenerate += 1
                continue
            diag = [i for (i, j) in cell.pairs if i == j]
            if not diag:
                report.type_one += 1
            else:
                ell = diag[0]
                if len(diag) != 1:
                    raise InvalidChainError("more than one diagonal vertex in a cell")
                if ell == 0:
                    report.flagged_zero_ell += 1
                report.type_two += 1
            out.add(image, coeff * cell.sign)
    return out, report
