"""Vertex shifts over Z: allowed-word languages, higher-block presentations,
and sofic presentations by subset automata, with a shortest word that tells
two of them apart.

Symbols are 0-based internally; all JSON formats are 1-based.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from .errors import InvalidMatrixError
from .matrices import NonnegMatrix, is_nondegenerate


class VertexShift:
    """The shift of bi-infinite paths in the graph of a nondegenerate {0,1} matrix."""

    __slots__ = ("matrix", "_succ", "_pred", "_words", "_hash")

    def __init__(self, matrix: NonnegMatrix):
        if not matrix.is_square:
            raise InvalidMatrixError("vertex shift needs a square matrix")
        if not matrix.is_boolean:
            raise InvalidMatrixError("vertex shift needs a {0,1} matrix")
        if not is_nondegenerate(matrix):
            raise InvalidMatrixError("vertex shift needs a nondegenerate matrix")
        self.matrix = matrix
        n = matrix.rows
        rows = matrix.support_rows()
        self._succ = tuple(_bits(rows[i]) for i in range(n))
        cols = matrix.transpose().support_rows()
        self._pred = tuple(_bits(cols[j]) for j in range(n))
        self._words: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._hash = hash(matrix)

    @property
    def alphabet_size(self) -> int:
        return self.matrix.rows

    def has_edge(self, i: int, j: int) -> bool:
        return self.matrix.entry(i, j) == 1

    def succ(self, i: int) -> tuple[int, ...]:
        return self._succ[i]

    def pred(self, j: int) -> tuple[int, ...]:
        return self._pred[j]

    def words(self, length: int) -> tuple[tuple[int, ...], ...]:
        """All allowed words of the given length, lexicographically sorted."""
        if length < 1:
            raise ValueError("length must be >= 1")
        cached = self._words.get(length)
        if cached is not None:
            return cached
        if length == 1:
            out = tuple((a,) for a in range(self.alphabet_size))
        else:
            prev = self.words(length - 1)
            out = tuple(w + (a,) for w in prev for a in self._succ[w[-1]])
        self._words[length] = out
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, VertexShift):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"VertexShift({self.alphabet_size} symbols)"


def _bits(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


def higher_block(x: VertexShift, window: int):
    """The vertex shift on window-length words plus the conjugacy onto it.

    Symbols of the new shift are the allowed words of the given length in
    lexicographic order; transitions are by overlap.
    """
    from .codes import BlockCode, identity_code

    if window < 1:
        raise ValueError("window must be >= 1")
    if window == 1:
        f = identity_code(x)
        return x, f
    words = x.words(window)
    rank = {w: i for i, w in enumerate(words)}
    masks = []
    for w in words:
        m = 0
        for a in x.succ(w[-1]):
            m |= 1 << rank[w[1:] + (a,)]
        masks.append(m)
    target = VertexShift(NonnegMatrix.from_bool_rows(len(words), masks))
    fwd = BlockCode(
        x, target, 0, window - 1, {w: rank[w] for w in words},
        inverse=(0, 0, {(i,): words[i][0] for i in range(len(words))}), unchecked=True,
    )
    return target, fwd


# -- sofic language machinery ----------------------------------------


class LabeledGraph:
    """A finite edge-labeled graph presenting a sofic language of factors."""

    __slots__ = ("n_states", "edges")

    def __init__(self, n_states: int, edges: Iterable[tuple[int, Hashable, int]]):
        self.n_states = n_states
        self.edges = tuple(edges)
        for s, _, d in self.edges:
            if not (0 <= s < n_states and 0 <= d < n_states):
                raise ValueError("edge endpoint out of range")

    def trim(self) -> "LabeledGraph":
        """Restrict to states with bi-infinite paths through them."""
        alive = set(range(self.n_states))
        while True:
            outs = {s for s, _, d in self.edges if s in alive and d in alive}
            ins = {d for s, _, d in self.edges if s in alive and d in alive}
            keep = alive & outs & ins
            if keep == alive:
                break
            alive = keep
        order = sorted(alive)
        remap = {s: i for i, s in enumerate(order)}
        edges = [
            (remap[s], a, remap[d])
            for s, a, d in self.edges
            if s in alive and d in alive
        ]
        return LabeledGraph(len(order), edges)


class DeterministicPresentation:
    """Subset-construction automaton for the factor language of a LabeledGraph.

    A word is in the language iff following it from the initial state stays
    inside the automaton (the empty subset is not a state).
    """

    __slots__ = ("alphabet", "n_states", "delta", "initial")

    def __init__(self, alphabet, n_states: int, delta: dict, initial: int):
        self.alphabet = frozenset(alphabet)
        self.n_states = n_states
        self.delta = delta
        self.initial = initial

    @classmethod
    def from_graph(cls, g: LabeledGraph) -> "DeterministicPresentation":
        g = g.trim()
        if g.n_states == 0:
            return cls(frozenset(), 1, {}, 0)
        step: dict[tuple[int, Hashable], set[int]] = {}
        alphabet = set()
        for s, a, d in g.edges:
            alphabet.add(a)
            step.setdefault((s, a), set()).add(d)
        start = frozenset(range(g.n_states))
        ids = {start: 0}
        queue = [start]
        delta = {}
        while queue:
            cur = queue.pop()
            cid = ids[cur]
            for a in alphabet:
                nxt = frozenset().union(*(step.get((s, a), ()) for s in cur))
                if not nxt:
                    continue
                if nxt not in ids:
                    ids[nxt] = len(ids)
                    queue.append(nxt)
                delta[(cid, a)] = ids[nxt]
        return cls(alphabet, len(ids), delta, 0)

    def accepts(self, word: Sequence[Hashable]) -> bool:
        cur = self.initial
        for a in word:
            nxt = self.delta.get((cur, a))
            if nxt is None:
                return False
            cur = nxt
        return True


def language_difference_witness(p, q):
    """A shortest word in exactly one of the two languages, or None.

    Both presentations must be deterministic (right-resolving); the search
    runs a breadth-first product construction.
    """
    from collections import deque

    alphabet = sorted(p.alphabet | q.alphabet, key=repr)
    start = (p.initial, q.initial)
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        (sp, sq), word = queue.popleft()
        for a in alphabet:
            np = p.delta.get((sp, a))
            nq = q.delta.get((sq, a))
            if (np is None) != (nq is None):
                return word + (a,)
            if np is None:
                continue
            nxt = (np, nq)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, word + (a,)))
    return None
