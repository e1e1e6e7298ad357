"""Exhaustive factorization A = R·S of a {0,1} matrix into {0,1} pairs.

A factorization with inner dimension m is exactly an exact cover of the
support of A by m combinatorial rectangles (column t of R) x (row t of S):
every 1-entry covered once, no 0-entry touched.  The extra requirement
that B = S·R stays a {0,1} matrix says the rectangles pairwise share at
most one index between column sets and row sets.  The search branches on
the first uncovered 1-entry, which yields every unordered cover exactly
once; orderings of the rectangle list are emitted as separate (R, S)
pairs since they are distinct edges of the complex.

Three things keep the work per cover small.  The last rectangle is
closed directly: with one rectangle left, every nonzero uncovered row
must equal the first one, which is checked in O(n) and yields at most
one cover.  Compatibility is checked by pair masks: the set of pairs
{a < b} inside a row or column set is a bit mask, two sets share at most
one index iff their pair masks are disjoint, and the search carries the
OR of the pair masks of the row sets and of the column sets on its
stack, so a candidate costs one AND against each (plus |γ ∩ ρ| <= 1 for
the rectangle itself) instead of a loop over the stack.  The pair masks
are memoized in a table that lives for one search.  An ordered search
with max_results stops at max_results // inner! covers, since every
cover has inner! orderings, with the message "more than max_results
ordered factorizations".
"""

from __future__ import annotations

from itertools import permutations, product
from math import factorial
from typing import Iterator, Optional

from .errors import ResourceBoundError
from .matrices import NonnegMatrix, mul


def _subsets_containing(mask: int, forced: int) -> Iterator[int]:
    """All submasks of mask that contain the forced bits."""
    rest = mask & ~forced
    sub = rest
    while True:
        yield sub | forced
        if sub == 0:
            return
        sub = (sub - 1) & rest


def _check_inner(inner) -> None:
    if type(inner) is not int or inner < 0:
        raise ValueError(f"inner dimension must be an int >= 0, not {inner!r}")


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
    # and |gamma ∩ rho| <= 1.  Rows before i are covered.
    def rec(rows: list[int], i: int, used: int, row_pairs: int, col_pairs: int):
        while i < n and not rows[i]:
            i += 1
        if i == n:
            if used == m:
                emit()
            return
        if used == m:
            return
        row = rows[i]
        if used == m - 1:
            # the rest must be one rectangle: every nonzero row equals row
            rho = 0
            for k in range(i, n):
                if rows[k]:
                    if rows[k] != row:
                        return
                    rho |= 1 << k
            both = row & rho
            if pairs[row] & row_pairs or pairs[rho] & col_pairs or both & (both - 1):
                return
            rect_stack.append((rho, row))
            emit()
            rect_stack.pop()
            return
        for gamma in _subsets_containing(row, row & -row):
            gamma_pairs = pairs[gamma]
            if gamma_pairs & row_pairs:
                continue
            rho_cand = 0
            for k in range(i, n):
                if gamma & ~rows[k] == 0:
                    rho_cand |= 1 << k
            for rho in _subsets_containing(rho_cand, 1 << i):
                rho_pairs = pairs[rho]
                both = gamma & rho
                if rho_pairs & col_pairs or both & (both - 1):
                    continue
                new_rows = rows[:]
                r = rho
                while r:
                    k = (r & -r).bit_length() - 1
                    r &= r - 1
                    new_rows[k] &= ~gamma
                rect_stack.append((rho, gamma))
                rec(new_rows, i, used + 1, row_pairs | rho_pairs, col_pairs | gamma_pairs)
                rect_stack.pop()

    rec(list(support), 0, 0, 0, 0)
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
    if not a.is_square:
        raise ValueError("factorization search needs a square matrix")
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


def factorizations(
    a: NonnegMatrix,
    inner: int,
    ordered: bool = True,
    max_results: Optional[int] = None,
) -> list[tuple[NonnegMatrix, NonnegMatrix, NonnegMatrix]]:
    """All (R, S, B) with A = RS, B = SR, everything {0,1}.

    With ordered=True every ordering of the inner index set is emitted;
    max_results caps the output (ResourceBoundError when exceeded, no
    silent truncation).
    """
    _check_inner(inner)
    if not a.is_boolean or not a.is_square:
        raise ValueError("factorization search needs a square {0,1} matrix")
    n = a.rows
    support = a.support_rows()
    cap, message = max_results, None
    if ordered and max_results is not None:
        # every cover has exactly inner! orderings, so more than
        # max_results // inner! covers is an overflow, known before any
        # triple is built and before the rest of the covers are searched
        cap = max_results // factorial(inner)
        message = f"more than {max_results} ordered factorizations"
    covers = _covers(support, n, inner, cap, message)
    out = []
    for cover in covers:
        seqs = permutations(cover) if ordered else (tuple(cover),)
        for seq in seqs:
            r_masks = [0] * n
            s_masks = []
            for t, (rho, gamma) in enumerate(seq):
                s_masks.append(gamma)
                rr = rho
                while rr:
                    k = (rr & -rr).bit_length() - 1
                    rr &= rr - 1
                    r_masks[k] |= 1 << t
            r = NonnegMatrix.from_bool_rows(inner, r_masks)
            s = NonnegMatrix.from_bool_rows(n, s_masks)
            b_masks = []
            for rho, gamma in seq:
                row = 0
                for u, (rho2, _g2) in enumerate(seq):
                    inter = gamma & rho2
                    if inter:
                        row |= 1 << u
                b_masks.append(row)
            b = NonnegMatrix.from_bool_rows(inner, b_masks)
            out.append((r, s, b))
    return out
