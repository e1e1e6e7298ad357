"""Vertex shifts over Z: allowed-word languages, higher-block presentations,
and sofic presentations by subset automata, with a shortest word that tells
two of them apart.

Symbols are 0-based internally; all JSON formats are 1-based.
"""

from __future__ import annotations

import weakref
from typing import Hashable, Iterable, Sequence

from .errors import InvalidMatrixError
from .frozen import Frozen, slot_setters
from .matrices import NonnegMatrix, is_nondegenerate


class VertexShift(Frozen):
    """The shift of bi-infinite paths in the graph of a nondegenerate {0,1} matrix.

    Shifts are immutable, and equal matrices share one shift while it is
    alive: ``VertexShift(m)`` returns the live shift of a matrix equal to
    ``m`` if there is one, so its successor and predecessor tuples and its
    packed word tables are built once per matrix.  ``succ[i]`` and
    ``pred[j]`` are the symbols that may follow i and precede j.

    A word packs into an int of ``symbol_bits`` bits per symbol, the first
    symbol most significant, so packed words of one length sort like the
    tuples and a sub-window is a shift and a mask.
    """

    __slots__ = (
        "matrix", "symbol_bits", "succ", "pred", "_packed", "_hash", "__weakref__"
    )

    def __new__(cls, matrix: NonnegMatrix):
        live = _LIVE.get(matrix)
        if live is not None:
            return live
        if not matrix.is_square:
            raise InvalidMatrixError("vertex shift needs a square matrix")
        if not matrix.is_boolean:
            raise InvalidMatrixError("vertex shift needs a {0,1} matrix")
        if not is_nondegenerate(matrix):
            raise InvalidMatrixError("vertex shift needs a nondegenerate matrix")
        self = object.__new__(cls)
        _set_matrix(self, matrix)
        _set_symbol_bits(self, max(1, (matrix.rows - 1).bit_length()))
        _set_succ(self, tuple(map(_bits, matrix.support_rows())))
        _set_pred(self, tuple(map(_bits, matrix.transpose().support_rows())))
        _set_packed(self, {})
        _set_hash(self, hash(matrix))
        # only a shift whose matrix passed every check is recorded; another
        # thread may have recorded one first, and then that one is shared
        return _LIVE.setdefault(matrix, self)

    def __reduce__(self):
        return (VertexShift, (self.matrix,))

    @property
    def alphabet_size(self) -> int:
        return self.matrix.rows

    def words(self, length: int) -> tuple[tuple[int, ...], ...]:
        """All allowed words of the given length, lexicographically sorted:
        ``packed_words(length)`` unpacked, in the same order."""
        b = self.symbol_bits
        last, offsets = (1 << b) - 1, range(b * (length - 1), -1, -b)
        return tuple(tuple([w >> k & last for k in offsets]) for w in self.packed_words(length))

    def packed_words(self, length: int) -> tuple[int, ...]:
        """All allowed words of the given length packed into ints, sorted.

        A longer word is a head of half its length joined on the head's
        last symbol to a word of the other half, so each word is built by
        one shift and an OR; the lengths built are kept, about 2*log2 of
        them for one long request."""
        if length < 1:
            raise ValueError("length must be >= 1")
        cache = self._packed
        out = cache.get(length)
        if out is not None:
            return out
        n, b, succ = self.alphabet_size, self.symbol_bits, self.succ
        if length == 1:
            out = tuple(range(n))
        elif length == 2:
            out = tuple(a << b | c for a in range(n) for c in succ[a])
        else:
            head = (length + 1) // 2
            rest = length - head  # symbols after the head's last one
            first, keep = b * rest, (1 << b * rest) - 1
            tails = [[] for _ in range(n)]
            for w in self.packed_words(rest + 1):
                tails[w >> first].append(w & keep)
            last = (1 << b) - 1
            out = tuple(u << first | v for u in self.packed_words(head) for v in tails[u & last])
        cache[length] = out
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, VertexShift):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"VertexShift({self.alphabet_size} symbols)"


_set_matrix, _set_symbol_bits, _set_succ, _set_pred, _set_packed, _set_hash = (
    slot_setters(VertexShift)
)

# The live shift of each matrix.  A shift leaves the table when nothing else
# references it, so the table holds no more shifts than the program uses.
_LIVE: "weakref.WeakValueDictionary[NonnegMatrix, VertexShift]" = weakref.WeakValueDictionary()


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
    words = x.packed_words(window)
    rank = {w: i for i, w in enumerate(words)}
    b, succ = x.symbol_bits, x.succ
    last, tail, first = (1 << b) - 1, (1 << b * (window - 1)) - 1, b * (window - 1)
    masks = []
    for w in words:
        core = (w & tail) << b
        m = 0
        for a in succ[w & last]:
            m |= 1 << rank[core | a]
        masks.append(m)
    target = VertexShift(NonnegMatrix.from_bool_rows(len(words), masks))
    # the forward table is the rank itself; the inverse reads a word's first symbol
    fwd = BlockCode._trusted(
        x, target, 0, window - 1, rank, (0, 0, {i: w >> first for i, w in enumerate(words)})
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
