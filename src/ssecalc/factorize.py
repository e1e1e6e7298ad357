"""Exhaustive factorization A = R·S of a {0,1} matrix into {0,1} pairs.

A factorization with inner dimension m is exactly an exact cover of the
support of A by m combinatorial rectangles (column t of R) x (row t of S):
every 1-entry covered once, no 0-entry touched.  The extra requirement
that B = S·R stays a {0,1} matrix says the rectangles pairwise share at
most one index between column sets and row sets.  The search branches on
the first uncovered 1-entry, which yields every unordered cover exactly
once; orderings of the rectangle list are emitted as separate (R, S)
pairs since they are distinct edges of the complex.

Four things keep the work per cover small.  A node with k >= 2
rectangles left is cut when the uncovered rows have rank above k over
GF(2).  Rectangles that cover those rows exactly are disjoint, so the
uncovered part is their sum without carries, a sum of k matrices of
rank 1 over GF(2), and its rank is at most k (the rank bound on
rectangle partitions, Mehlhorn and Schmidt, STOC 1982).  So the cut
drops only subtrees that hold no cover: the covers, their order and
the cover at which a cap is exceeded stay those of the search without
it.  The elimination stops at the (k+1)-th independent row, and runs
only when more than k rows remain from the first uncovered one on,
since r rows have rank at most r.  At k = 2 the rank bound leaves at
most three distinct nonzero rows, g1, g2 and g1 ^ g2.  The one
recursion that places every rectangle narrows its choices there: the
rows the next rectangle (rho, gamma) does not fit must share one value,
and if gamma leaves part of its row uncovered, rho is every row gamma
fits; if gamma is the whole row, rho is that set or the rows equal to
gamma, unless every row gamma fits equals it.  The last rectangle, at
inner dimension 1 or after such a choice, is placed by one helper that
reads the rows left on the fly: they must all be one column set,
checked in O(n) with at most one cover.  Compatibility is checked by pair
masks: the set of pairs {a < b} inside a row or column set is a bit mask, two sets share at most
one index iff their pair masks are disjoint, and the search carries the
OR of the pair masks of the row sets and of the column sets on its
stack, so a candidate costs one AND against each (plus |γ ∩ ρ| <= 1 for
the rectangle itself) instead of a loop over the stack.  The pair masks
are memoized in a table that lives for one search.  An ordered search
with max_results stops at max_results // inner! covers, since every
cover has inner! orderings, with the message "more than max_results
ordered factorizations".

The triples are built once per cover: the row masks of R and S are
read off the rectangles, B's are the product S·R, and each ordering π
is a relabeling of them (S's and B's rows gathered in the order π, R's
and B's columns relabeled).  A call builds each π's gather (an
itemgetter) and relabeling once and shares them among its covers, so
an ordering costs one gather of S, one of B and a relabeling mapped
over R and B.  The relabeling is a table over all 2^m masks, each bit
doubling it, when those entries cost no more than the covers' lookups,
and otherwise a dict filled on lookup, so a large m with few covers
never pays m!·2^m.
EdgeSpace keeps only the covers and decodes the SSEEdge at an index on
access, for callers that draw a few edges out of many.
Inner dimension 0 has no factorization.  An inner dimension or an
EdgeSpace max_inner is an int >= 0 and max_results None or an int >= 0;
anything else is a ValueError, not a bound.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import permutations, product
from math import factorial
from operator import index, itemgetter
from typing import Iterator, Optional

from .elementary import SSEEdge
from .errors import ResourceBoundError
from .matrices import NonnegMatrix, _boolean_rows, is_nondegenerate, mul

_from_packed = NonnegMatrix._from_packed


def _subsets_containing(mask: int, forced: int) -> Iterator[int]:
    """All submasks of mask that contain the forced bits."""
    rest = mask & ~forced
    sub = rest
    while True:
        yield sub | forced
        if sub == 0:
            return
        sub = (sub - 1) & rest


def _gf2_rank(masks: list[int], limit: int) -> int:
    """The rank over GF(2) of the masks as rows, or limit + 1 when it is
    larger: elimination pivoting on each row's highest bit, stopped at the
    (limit + 1)-th independent row."""
    pivots: dict[int, int] = {}  # highest bit -> the pivot row that has it
    for x in masks:
        while x:
            top = x.bit_length()
            p = pivots.get(top)
            if p is None:
                pivots[top] = x
                if len(pivots) > limit:
                    return len(pivots)
                break
            x ^= p
    return len(pivots)


def _check_inner(inner, name: str = "inner dimension") -> None:
    if type(inner) is not int or inner < 0:
        raise ValueError(f"{name} must be an int >= 0, not {inner!r}")


def _check_cap(max_results) -> None:
    if max_results is not None and (type(max_results) is not int or max_results < 0):
        raise ValueError(f"max_results must be None or an int >= 0, not {max_results!r}")


class _PairMasks(dict):
    """Set mask x -> the mask with bit a·n+b set for every a < b in x,
    computed on first lookup.  Two sets share at most one element iff
    their pair masks are disjoint.  One instance lives for one search."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n

    def __missing__(self, x: int) -> int:
        n = self.n
        bits = [k for k in range(n) if x >> k & 1]
        p = 0
        for t, a in enumerate(bits):
            for b in bits[t + 1 :]:
                p |= 1 << (a * n + b)
        self[x] = p
        return p


def _covers(
    support: list[int],
    n: int,
    m: int,
    cap: Optional[int],
    bound_message: Optional[str] = None,
) -> list[list[tuple[int, int]]]:
    """All unordered exact covers of the support by exactly m rectangles.

    Rectangles are (row_set_mask, col_set_mask) pairs, pairwise compatible
    in the sense |cols(t) ∩ rows(u)| <= 1 (ordered, both ways).  More than
    cap covers raise ResourceBoundError with bound_message (by default the
    unordered message).
    """
    if bound_message is None:
        bound_message = f"more than {cap} factorizations; raise the cap to enumerate"
    out: list[list[tuple[int, int]]] = []
    rect_stack: list[tuple[int, int]] = []
    pairs = _PairMasks(n)

    def emit():
        out.append(list(rect_stack))
        if cap is not None and len(out) > cap:
            raise ResourceBoundError(bound_message)

    # row_pairs / col_pairs: OR of the pair masks of the row sets / column
    # sets on the stack.  A rectangle (rho, gamma) is compatible with the
    # stack iff pairs[gamma] misses row_pairs, pairs[rho] misses col_pairs
    # and |gamma ∩ rho| <= 1.  Rows before i are covered.  With k >= 2
    # rectangles left, rows of GF(2) rank above k have no cover.
    #
    # With two rectangles left, (rho, gamma) holds the first uncovered
    # entry and close_one places the rectangle (rho_last, last) that must
    # cover the rest.  The rank cut leaves the nonzero rows at most three
    # values.  The nonzero rows gamma does not fit stay as they are, so
    # they must share one value, other, and last is other.  A row that fits
    # gamma but stays out of rho keeps a superset of gamma, so it must be
    # last.  So rho is rho_cand when there is an other (it misses part of
    # gamma) and when gamma leaves part of row i uncovered (that part is
    # last and misses gamma).  Otherwise gamma is row i and a row left out
    # of rho is last, a superset of gamma, so every row in rho equals
    # gamma: if some candidate row is larger, rho is rho_cand or the rows
    # equal to gamma; if none is, rho may be any candidate set, as with
    # more rectangles left.
    def rec(rows: list[int], i: int, used: int, row_pairs: int, col_pairs: int):
        while i < n and not rows[i]:
            i += 1
        if i == n:
            if used == m:
                emit()
            return
        if used == m:
            return
        left = m - used
        # rows i.. have rank at most n - i, so fewer rectangles than that
        # are the only ones the rank can exceed
        if 2 <= left < n - i and _gf2_rank(rows, left) > left:
            return
        if left == 1:  # only when m == 1: every nonzero row must equal row i
            close_one(rows, i, 0, 0, row_pairs, col_pairs)
            return
        row = rows[i]
        for gamma in _subsets_containing(row, row & -row):
            gamma_pairs = pairs[gamma]
            if gamma_pairs & row_pairs:
                continue
            rho_cand = equal = other = 0
            for k in range(i, n):
                rk = rows[k]
                if gamma & ~rk == 0:
                    rho_cand |= 1 << k
                    if rk == gamma:
                        equal |= 1 << k
                elif rk and left == 2:
                    if other and rk != other:
                        break
                    other = rk
            else:
                if left == 2 and (gamma != row or other):
                    choices = (rho_cand,)
                elif left == 2 and equal != rho_cand:
                    choices = (rho_cand, equal)
                else:
                    choices = _subsets_containing(rho_cand, 1 << i)
                for rho in choices:
                    rho_pairs = pairs[rho]
                    both = gamma & rho
                    if rho_pairs & col_pairs or both & (both - 1):
                        continue
                    rect_stack.append((rho, gamma))
                    if left == 2:
                        close_one(rows, i, rho, gamma, row_pairs | rho_pairs, col_pairs | gamma_pairs)
                    else:
                        new_rows = rows[:]
                        r = rho
                        while r:
                            k = (r & -r).bit_length() - 1
                            r &= r - 1
                            new_rows[k] &= ~gamma
                        rec(new_rows, i, used + 1, row_pairs | rho_pairs, col_pairs | gamma_pairs)
                    rect_stack.pop()

    def close_one(rows: list[int], i: int, rho: int, gamma: int, row_pairs: int, col_pairs: int):
        """Emit the cover that one last rectangle closes, if any: rows i..,
        with gamma taken out of the rows in rho, must be zero or one and
        the same column set, and the rectangle must fit the pair masks."""
        last = rho_last = 0
        for k in range(i, n):
            rk = rows[k] & ~gamma if rho >> k & 1 else rows[k]
            if rk:
                if last and rk != last:
                    return
                last = rk
                rho_last |= 1 << k
        both = last & rho_last
        if not last or pairs[last] & row_pairs or pairs[rho_last] & col_pairs or both & (both - 1):
            return
        rect_stack.append((rho_last, last))
        emit()
        rect_stack.pop()

    try:
        rec(list(support), 0, 0, 0, 0)
    finally:
        del rec  # rec's closure holds rec; free the cycle on return
    return out


def _columns(r_rows: list[list[int]], col: list[int], k: int = 0) -> list[tuple[int, ...]]:
    """Entries k.. of every column s with R·s = col, in lexicographic
    order.  Entry k is capped by col[i] // R[i][k] over the rows using it."""
    if k == len(r_rows[0]):
        return [] if any(col) else [()]
    cap = min((c // r[k] for c, r in zip(col, r_rows) if r[k]), default=max(col, default=0))
    return [
        (v,) + tail
        for v in range(cap + 1)
        for tail in _columns(r_rows, [c - v * r[k] for c, r in zip(col, r_rows)], k + 1)
    ]


def factorizations_general(
    a: NonnegMatrix,
    inner: int,
    max_results: Optional[int] = None,
) -> list[tuple[NonnegMatrix, NonnegMatrix, NonnegMatrix]]:
    """Experimental: nondegenerate factorizations over the nonnegative
    integers, entries above 1 allowed.  Enumerates candidate R matrices
    in row-major order, each entry capped by the maximum of its row of A,
    then solves the columns of S exactly; exponential and meant for very
    small inputs only."""
    _check_inner(inner)
    _check_cap(max_results)
    if not a.is_square:
        raise ValueError("factorization search needs a square matrix")
    if inner == 0:
        return []  # no R has zero columns
    n = a.rows
    caps = [range(max(a.row_list(i)) + 1) for i in range(n) for _ in range(inner)]
    cols = [[a.entry(i, j) for i in range(n)] for j in range(n)]
    out: list[tuple[NonnegMatrix, NonnegMatrix, NonnegMatrix]] = []
    for flat in product(*caps):
        if not all(any(flat[k::inner]) for k in range(inner)):
            continue  # R has a zero column
        r_rows = [list(flat[i * inner : (i + 1) * inner]) for i in range(n)]
        per_col = []
        for col in cols:
            per_col.append(_columns(r_rows, col))
            if not per_col[-1]:
                break  # no S, and product(*per_col) is empty
        for chosen in product(*per_col):
            s_rows = list(zip(*chosen))
            if not all(any(row) for row in s_rows):
                continue  # S has a zero row
            r = NonnegMatrix(r_rows)
            s = NonnegMatrix(s_rows)
            out.append((r, s, mul(s, r)))
            if max_results is not None and len(out) > max_results:
                raise ResourceBoundError(
                    f"more than {max_results} general factorizations"
                )
    return out


def _search(
    a: NonnegMatrix, inner: int, ordered: bool, max_results: Optional[int]
) -> list[list[tuple[int, int]]]:
    """The covers behind factorizations(a, inner, ordered, max_results),
    with its argument checks and its bound errors."""
    _check_inner(inner)
    _check_cap(max_results)
    if not a.is_boolean or not a.is_square:
        raise ValueError("factorization search needs a square {0,1} matrix")
    if inner == 0:
        return []  # no R has zero columns
    cap, message = max_results, None
    if ordered and max_results is not None:
        # every cover has exactly inner! orderings, so more than
        # max_results // inner! covers is an overflow, known before any
        # triple is built and before the rest of the covers are searched
        cap = max_results // factorial(inner)
        message = f"more than {max_results} ordered factorizations"
    return _covers(a.support_rows(), a.rows, inner, cap, message)


class _Relabel(dict):
    """Mask x -> the mask with bit t set iff bit perm[t] of x is set,
    computed on first lookup: _relabeling's fallback for few lookups."""

    __slots__ = ("perm",)

    def __init__(self, perm: tuple[int, ...]):
        self.perm = perm

    def __missing__(self, x: int) -> int:
        y = 0
        for t, p in enumerate(self.perm):
            if x >> p & 1:
                y |= 1 << t
        self[x] = y
        return y


def _relabeling(perm: tuple[int, ...], lookups: int):
    """Mask x -> the mask with bit t set iff bit perm[t] of x is set, for
    masks below 2 ** m (m = len(perm)), indexed by x.  It is the whole
    table, built one bit at a time (each bit doubles it), when its 2 ** m
    entries are no more than the lookups the caller will make, and a
    _Relabel filled on lookup otherwise, so building it never costs more
    than the lookups themselves, however large m is."""
    m = len(perm)
    if 1 << m > lookups:
        return _Relabel(perm)
    images = [0] * m
    for t, p in enumerate(perm):
        images[p] = 1 << t
    table = [0]
    for image in images:
        table += [y | image for y in table]
    return table


def _cover_masks(cover: list[tuple[int, int]], n: int) -> tuple[list[int], list[int], tuple[int, ...]]:
    """The row masks of R, S and B of a cover, rectangles in cover order:
    bit t of row k of R says k is in row set t, row t of S is column set
    t, and B is S·R.  The rectangles are compatible, so B is {0,1}."""
    r_masks = [0] * n
    for t, (rho, _gamma) in enumerate(cover):
        while rho:
            k = (rho & -rho).bit_length() - 1
            rho &= rho - 1
            r_masks[k] |= 1 << t
    s_masks = [gamma for _rho, gamma in cover]
    return r_masks, s_masks, _boolean_rows(s_masks, r_masks)


def _orderings(perms, lookups: int) -> list[tuple]:
    """The gather and the relabeling of each permutation perm of
    range(m): itemgetter(*perm) takes rows in the order perm (tuple, for
    m = 1, where itemgetter of one index would return a bare item), and
    the relabeling's __getitem__ maps a mask to perm's relabeling of it
    (_relabeling, sized for lookups)."""
    return [
        (itemgetter(*perm) if len(perm) > 1 else tuple, _relabeling(perm, lookups).__getitem__)
        for perm in perms
    ]


def _ordered(
    masks: tuple[list[int], list[int], tuple[int, ...]], orderings: list[tuple]
) -> list[tuple[NonnegMatrix, NonnegMatrix, NonnegMatrix]]:
    """(R, S, B) of a cover for each of the orderings: S's and B's rows
    gathered, R's columns and B's columns relabeled.  The orderings may
    be shared by many covers."""
    r_masks, s_masks, b_masks = masks
    n, m = len(r_masks), len(s_masks)
    return [
        (
            _from_packed(n, m, 1, tuple(map(relabel, r_masks))),
            _from_packed(m, n, 1, gather(s_masks)),
            _from_packed(m, m, 1, tuple(map(relabel, gather(b_masks)))),
        )
        for gather, relabel in orderings
    ]


def _unrank(rank: int, m: int) -> tuple[int, ...]:
    """The permutation at position rank of itertools.permutations(range(m)),
    read off rank in the factorial number system."""
    rest = list(range(m))
    perm = []
    for k in range(m - 1, -1, -1):
        digit, rank = divmod(rank, factorial(k))
        perm.append(rest.pop(digit))
    return tuple(perm)


def _triples(
    covers: list[list[tuple[int, int]]], n: int, m: int, ordered: bool
) -> list[tuple[NonnegMatrix, NonnegMatrix, NonnegMatrix]]:
    """(R, S, B) of every cover, one per ordering of its rectangles in
    itertools.permutations order, or in cover order only when unordered."""
    if not covers:
        return []
    # each relabeling is looked up for the n rows of R and m rows of B of
    # every cover
    perms = permutations(range(m)) if ordered else [tuple(range(m))]
    orderings = _orderings(perms, len(covers) * (n + m))
    out = []
    for cover in covers:
        out += _ordered(_cover_masks(cover, n), orderings)
    return out


class EdgeSpace:
    """The edges (R, S): a -> B of a with inner dimension 1..max_inner, as a
    sequence built on access.

    Inner dimension m holds the triples of factorizations(a, m,
    max_results=max_results) or, when that overflows, factorizations(a, m,
    ordered=False, max_results=max_results), whose own overflow raises; a
    max_results of None caps nothing.  The ordered list overflows exactly
    when its covers times m! exceed max_results, so each dimension is
    searched once, unordered.  Only the
    covers are kept: index i decodes to (m, cover, ordering rank), and the
    rank unranks to the permutation itertools.permutations emits there, so
    the sequence lists the edges of the concatenation of those lists.  The
    edges of a nondegenerate a skip SSEEdge's checks, which an exact cover
    already guarantees; a degenerate a gets checked edges, which raise.
    """

    __slots__ = ("a", "_edge", "_starts", "_blocks", "_len")

    def __init__(self, a: NonnegMatrix, max_inner: int, max_results: Optional[int]):
        _check_inner(max_inner, "max_inner")
        _check_cap(max_results)
        self.a = a
        self._edge = SSEEdge._trusted if is_nondegenerate(a) else SSEEdge
        self._starts: list[int] = []  # index of each block's first edge
        self._blocks: list[tuple[int, list, bool]] = []  # (m, covers, ordered)
        total = 0
        for m in range(1, max_inner + 1):
            covers = _search(a, m, False, max_results)
            ordered = max_results is None or len(covers) * factorial(m) <= max_results
            if covers:
                self._starts.append(total)
                self._blocks.append((m, covers, ordered))
                total += len(covers) * (factorial(m) if ordered else 1)
        self._len = total

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: int) -> SSEEdge:
        i = index(i)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError("factorization index out of range")
        block = bisect_right(self._starts, i) - 1
        m, covers, ordered = self._blocks[block]
        c, rank = divmod(i - self._starts[block], factorial(m) if ordered else 1)
        a = self.a
        orderings = _orderings([_unrank(rank, m)], a.rows + m)
        (r, s, b), = _ordered(_cover_masks(covers[c], a.rows), orderings)
        return self._edge(a, b, r, s)


def factorizations(
    a: NonnegMatrix,
    inner: int,
    ordered: bool = True,
    max_results: Optional[int] = None,
) -> list[tuple[NonnegMatrix, NonnegMatrix, NonnegMatrix]]:
    """All (R, S, B) with A = RS, B = SR, everything {0,1}.

    With ordered=True every ordering of the inner index set is emitted;
    max_results caps the output (ResourceBoundError when exceeded, no
    silent truncation).  Inner dimension 0 has no factorization.
    """
    covers = _search(a, inner, ordered, max_results)
    return _triples(covers, a.rows, inner, ordered)
