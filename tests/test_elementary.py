import gc
import random
import re
import sys
from itertools import permutations, product
from math import factorial
from typing import Optional

import pytest

from ssecalc.codes import compose, equal_codes, identity_code, is_elementary, normalize, shift_code
from ssecalc.complexes import explore
from ssecalc.elementary import (
    DegSSEEdge,
    SSEEdge,
    Triangle,
    check_triangle,
    code_from_edge,
    edge_from_code,
    edge_from_json,
    edge_to_json,
)
from ssecalc.errors import InvalidEdgeError, NotElementaryError, ResourceBoundError, SseError
from ssecalc.factorize import (
    EdgeSpace,
    _covers,
    _gf2_rank,
    _PairMasks,
    _subsets_containing,
    factorizations,
    factorizations_general,
)
from ssecalc.matrices import NonnegMatrix, is_nondegenerate, mul
from ssecalc.sampling import edge_pool, random_edge, random_nondeg_matrix
from ssecalc.shifts import VertexShift, higher_block

GM = NonnegMatrix([[1, 1], [1, 0]])
I2 = NonnegMatrix.identity(2)


def test_edge_validation():
    with pytest.raises(InvalidEdgeError):
        SSEEdge(GM, GM, I2, I2)  # I·I != GM
    with pytest.raises(InvalidEdgeError):
        SSEEdge(GM, GM, NonnegMatrix([[1, 0], [1, 0]]), GM)


def test_identity_edge_gives_identity_code():
    e = SSEEdge(GM, GM, I2, GM)
    f = code_from_edge(e)
    assert equal_codes(f, identity_code(VertexShift(GM)))


def test_shift_edge_gives_sigma():
    e = SSEEdge(GM, GM, GM, I2)
    f = code_from_edge(e)
    assert equal_codes(f, shift_code(VertexShift(GM), 1))


def test_higher_block_edge_matches_higher_block_code():
    x = VertexShift(GM)
    y, hb = higher_block(x, 2)
    r = NonnegMatrix([[1, 1, 0], [0, 0, 1]])
    s = NonnegMatrix([[1, 0], [0, 1], [1, 0]])
    e = SSEEdge(GM, y.matrix, r, s)
    assert equal_codes(code_from_edge(e), hb)


def test_edge_from_identity_and_shift():
    x = VertexShift(GM)
    e_id = edge_from_code(identity_code(x))
    assert (e_id.r, e_id.s) == (I2, GM)
    e_sh = edge_from_code(shift_code(x, 1))
    assert (e_sh.r, e_sh.s) == (GM, I2)


def test_edge_from_code_rejects_wide_codes():
    x = VertexShift(GM)
    with pytest.raises(NotElementaryError):
        edge_from_code(compose(shift_code(x, 1), shift_code(x, 1)))


def brute_force_edges(a, inner):
    """All (R,S) by direct enumeration of every {0,1} pair."""
    n = a.rows
    out = []
    for rbits in product((0, 1), repeat=n * inner):
        r = NonnegMatrix([list(rbits[i * inner : (i + 1) * inner]) for i in range(n)])
        if not is_nondegenerate(r):
            continue
        for sbits in product((0, 1), repeat=inner * n):
            s = NonnegMatrix([list(sbits[i * n : (i + 1) * n]) for i in range(inner)])
            if not is_nondegenerate(s):
                continue
            if mul(r, s) != a:
                continue
            b = mul(s, r)
            if not b.is_boolean or not is_nondegenerate(b):
                continue
            out.append((r, s, b))
    return out


def test_factorizations_match_brute_force():
    rng = random.Random(0)
    mats = [GM, NonnegMatrix([[1, 1], [1, 1]]), NonnegMatrix([[1]])]
    for _ in range(10):
        n = rng.randint(1, 3)
        while True:
            m = NonnegMatrix([[rng.randint(0, 1) for _ in range(n)] for _ in range(n)])
            if is_nondegenerate(m):
                mats.append(m)
                break
    for a in mats:
        for inner in (1, 2, 3):
            got = {(r, s) for r, s, _b in factorizations(a, inner)}
            want = {(r, s) for r, s, _b in brute_force_edges(a, inner)}
            assert got == want, (a.to_lists(), inner)


def test_roundtrip_on_all_small_edges():
    for a in (GM, NonnegMatrix([[1, 1], [1, 1]])):
        for e in edge_pool(a, 3):
            f = code_from_edge(e, verify=True)
            assert is_elementary(f)
            assert edge_from_code(f) == e


def test_local_rules():
    rng = random.Random(1)
    for _ in range(30):
        n = rng.randint(2, 4)
        while True:
            a = NonnegMatrix([[rng.randint(0, 1) for _ in range(n)] for _ in range(n)])
            if is_nondegenerate(a) and edge_pool(a, n):
                break
        e = random_edge(rng, a, n)
        f = code_from_edge(e, verify=False)
        x, y = f.domain, f.codomain
        ftab = normalize(f).table_at(0, 1)
        for (s0, s1), b in ftab.items():
            assert e.r.entry(s0, b) * e.s.entry(b, s1) == 1
            others = [c for c in range(y.alphabet_size) if c != b]
            assert all(e.r.entry(s0, c) * e.s.entry(c, s1) == 0 for c in others)
        gtab = normalize(f.inverse).table_at(-1, 0)
        for (t0, t1), a_sym in gtab.items():
            assert e.s.entry(t0, a_sym) * e.r.entry(a_sym, t1) == 1


def test_check_triangle_identity():
    e = SSEEdge(GM, GM, I2, GM)
    assert check_triangle(Triangle(e, e, e))


def test_check_triangle_perturbed():
    e_id = SSEEdge(GM, GM, I2, GM)
    e_sh = SSEEdge(GM, GM, GM, I2)
    assert not check_triangle(Triangle(e_id, e_id, e_sh))


def _random_true_triangle(rng, max_tries=2000):
    """A triangle built from a composable pair whose composite is elementary."""
    for _ in range(max_tries):
        n = rng.randint(2, 4)
        a = NonnegMatrix([[rng.randint(0, 1) for _ in range(n)] for _ in range(n)])
        if not is_nondegenerate(a) or not edge_pool(a, 4):
            continue
        e1 = random_edge(rng, a, 4)
        if not edge_pool(e1.b, 4):
            continue
        e2 = random_edge(rng, e1.b, 4)
        f1 = code_from_edge(e1, verify=False)
        f2 = code_from_edge(e2, verify=False)
        comp = compose(f2, f1)
        if not is_elementary(comp):
            continue
        e3 = edge_from_code(comp)
        return Triangle(e1, e2, e3), f1, f2, comp
    raise AssertionError("could not sample a commuting triangle")


def test_triangle_equations_iff_commutation():
    rng = random.Random(2)
    for _ in range(25):
        t, f1, f2, comp = _random_true_triangle(rng)
        assert check_triangle(t)
        assert equal_codes(compose(code_from_edge(t.e2), code_from_edge(t.e1)), code_from_edge(t.e3))
        # replace e3 by a different valid edge: equations must fail
        others = [
            SSEEdge(t.e3.a, t.e3.b, r, s)
            for r, s, b in factorizations(t.e3.a, t.e3.b.rows, max_results=3000)
            if b == t.e3.b and (r, s) != (t.e3.r, t.e3.s)
        ]
        if others:
            bad = Triangle(t.e1, t.e2, rng.choice(others))
            assert not check_triangle(bad)
            assert not equal_codes(
                compose(code_from_edge(bad.e2), code_from_edge(bad.e1)),
                code_from_edge(bad.e3),
            )


def test_edge_json_roundtrip():
    e = SSEEdge(GM, GM, GM, I2)
    assert edge_from_json(edge_to_json(e)) == e


def _ordered_reference(a, inner):
    """Every unordered factorization with its inner index set permuted,
    in itertools.permutations order."""
    out = []
    for r, s, _b in factorizations(a, inner, ordered=False):
        for perm in permutations(range(inner)):
            rp = NonnegMatrix([[r.entry(i, perm[t]) for t in range(inner)] for i in range(a.rows)])
            sp = NonnegMatrix([[s.entry(perm[t], j) for j in range(a.cols)] for t in range(inner)])
            out.append((rp, sp, mul(sp, rp)))
    return out


FULL2 = NonnegMatrix([[1, 1], [1, 1]])
BASE3 = NonnegMatrix([[1, 1, 1], [1, 1, 0], [1, 0, 0]])
BASE4 = NonnegMatrix([[1, 1, 0, 1], [1, 0, 0, 1], [0, 0, 1, 0], [0, 0, 1, 0]])


@pytest.mark.parametrize(
    "a, inner",
    [(GM, 2), (GM, 3), (FULL2, 2), (FULL2, 3), (BASE3, 3), (BASE3, 4), (BASE4, 3), (BASE4, 4)],
    ids=["a0-2", "a1-3", "a2-2", "a3-3", "a4-3", "a5-4", "a6-3", "a7-4"],
)
def test_ordered_factorization_overflow_boundary(a, inner):
    covers = len(factorizations(a, inner, ordered=False))
    total = covers * factorial(inner)
    assert covers > 0
    assert factorizations(a, inner, max_results=total) == _ordered_reference(a, inner)
    with pytest.raises(ResourceBoundError) as exc:
        factorizations(a, inner, max_results=total - 1)
    assert str(exc.value) == f"more than {total - 1} ordered factorizations"
    # more covers than the cap: the ordered search stops at its cover cap
    # with the ordered message, the unordered message is unchanged
    with pytest.raises(ResourceBoundError) as exc:
        factorizations(a, inner, max_results=covers - 1)
    assert str(exc.value) == f"more than {covers - 1} ordered factorizations"
    with pytest.raises(ResourceBoundError) as exc:
        factorizations(a, inner, ordered=False, max_results=covers - 1)
    assert str(exc.value) == f"more than {covers - 1} factorizations; raise the cap to enumerate"


@pytest.mark.parametrize("inner", [-1, 2.0, True, "2", None])
@pytest.mark.parametrize("search", [factorizations, factorizations_general])
def test_bad_inner_is_an_input_error(search, inner):
    with pytest.raises(ValueError, match="inner dimension must be an int >= 0"):
        search(GM, inner, max_results=10)


@pytest.mark.parametrize("cap", [-1, True, 2.5, "3"], ids=["negative", "bool", "float", "str"])
@pytest.mark.parametrize(
    "search",
    [
        lambda cap: factorizations(GM, 2, max_results=cap),
        lambda cap: factorizations(GM, 2, ordered=False, max_results=cap),
        lambda cap: factorizations_general(GM, 2, max_results=cap),
        lambda cap: EdgeSpace(GM, 2, cap),
        lambda cap: EdgeSpace(GM, 0, cap),
    ],
    ids=["ordered", "unordered", "general", "pool", "empty-pool"],
)
def test_bad_cap_is_an_input_error(search, cap):
    # a bad cap is an argument error, never a bound error or a TypeError
    with pytest.raises(ValueError) as exc:
        search(cap)
    assert str(exc.value) == f"max_results must be None or an int >= 0, not {cap!r}"


@pytest.mark.parametrize("max_inner", [-1, True, 2.0, "3"], ids=["negative", "bool", "float", "str"])
def test_bad_max_inner_is_an_input_error(max_inner):
    # the rule factorizations applies to inner: an int >= 0, else a
    # ValueError, never an empty pool or a TypeError
    with pytest.raises(ValueError) as exc:
        EdgeSpace(GM, max_inner, None)
    assert str(exc.value) == f"max_inner must be an int >= 0, not {max_inner!r}"


@pytest.mark.parametrize("cap", [None, 0, 3000])
@pytest.mark.parametrize("a", [GM, NonnegMatrix([[0, 1], [0, 1]])], ids=["gm", "degenerate"])
def test_pool_of_max_inner_zero_is_empty(a, cap):
    pool = EdgeSpace(a, 0, cap)
    assert len(pool) == 0 and list(pool) == []


def test_pool_without_cap_is_ordered():
    assert list(EdgeSpace(GM, 3, None)) == list(EdgeSpace(GM, 3, 10**6))


def _reference_covers(support: list[int], n: int, m: int, cap: Optional[int]) -> list[list[tuple[int, int]]]:
    """All unordered exact covers of the support by exactly m rectangles.

    Rectangles are (row_set_mask, col_set_mask) pairs, pairwise compatible
    in the sense |cols(t) ∩ rows(u)| <= 1 (ordered, both ways).
    """
    out: list[list[tuple[int, int]]] = []
    rect_stack: list[tuple[int, int]] = []

    def first_uncovered(rows: list[int]) -> tuple[int, int]:
        for i in range(n):
            if rows[i]:
                return i, (rows[i] & -rows[i]).bit_length() - 1
        return -1, -1

    def compatible(rho: int, gamma: int) -> bool:
        for rho2, gamma2 in rect_stack:
            if (gamma & rho2).bit_count() > 1 or (gamma2 & rho).bit_count() > 1:
                return False
        return (gamma & rho).bit_count() <= 1

    def rec(rows: list[int], used: int):
        i, j = first_uncovered(rows)
        if i < 0:
            if used == m:
                out.append(list(rect_stack))
                if cap is not None and len(out) > cap:
                    raise ResourceBoundError(
                        f"more than {cap} factorizations; raise the cap to enumerate"
                    )
            return
        if used == m:
            return
        for gamma in _subsets_containing(rows[i], 1 << j):
            rho_cand = 0
            for i2 in range(n):
                if gamma & ~rows[i2] == 0:
                    rho_cand |= 1 << i2
            for rho in _subsets_containing(rho_cand, 1 << i):
                if not compatible(rho, gamma):
                    continue
                new_rows = rows[:]
                r = rho
                while r:
                    k = (r & -r).bit_length() - 1
                    r &= r - 1
                    new_rows[k] &= ~gamma
                rect_stack.append((rho, gamma))
                rec(new_rows, used + 1)
                rect_stack.pop()

    rec(list(support), 0)
    return out


def _covers_or_bound(search, *args):
    try:
        return search(*args)
    except ResourceBoundError as exc:
        return str(exc)


COVER_CASES = {1: 2, 2: 8, 3: 12, 4: 12, 5: 4}  # random supports per size n


def _blocks(*sizes: int) -> list[int]:
    """The row masks of the block-diagonal support of all-ones blocks of
    the given sizes."""
    rows, offset = [], 0
    for k in sizes:
        rows += [((1 << k) - 1) << offset] * k
        offset += k
    return rows


def _structured_supports(rng: random.Random) -> list[list[int]]:
    """Supports that reach every way the last two rectangles close: rows
    equal to the first rectangle's columns next to a larger row, candidate
    rows that all equal them, the identity, all-ones blocks and
    block-diagonal supports, and rows repeated at random."""
    supports = [
        [0b1000, 0b1000, 0b1100, 0],  # rows equal to gamma and one larger row
        [0b01, 0b01],  # every candidate row equals gamma
        [0b001, 0b001, 0b110],
        [0b0011, 0b0011, 0b0011, 0b1100],
        [0b1111, 0b1111, 0b1100, 0b1100],  # all-ones blocks, upper block triangle
        [0b0111, 0b0001, 0b0001, 0b1000],
    ]
    supports += [_blocks(*[1] * n) for n in range(1, 7)]  # the identity
    supports += [_blocks(n) for n in range(1, 5)]  # all ones
    supports += [_blocks(*sizes) for sizes in ((1, 2), (2, 2), (1, 3), (2, 1, 2), (3, 3), (2, 2, 2))]
    for n in (3, 4, 5, 6):
        for _ in range(3):
            distinct = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 3))]
            supports.append([rng.choice(distinct + [0]) for _ in range(n)])
    return supports


def test_covers_match_reference_in_order():
    """_covers returns the reference search's covers in the same order, and
    the same bound message at the same cap."""
    rng = random.Random(11)
    for n in range(1, 6):
        for t in range(COVER_CASES[n]):
            a = random_nondeg_matrix(rng, n, 0.4 + 0.5 * t / (COVER_CASES[n] - 1))
            support = a.support_rows()
            for inner in range(n + 2):
                for cap in ([None] if n <= 3 else []) + [5, 50, 400]:
                    args = (support, n, inner, cap)
                    want = _covers_or_bound(_reference_covers, *args)
                    assert _covers_or_bound(_covers, *args) == want, (a.to_lists(), inner, cap)
    for support in _structured_supports(rng):
        n = len(support)
        for inner in range(n + 3):
            for cap in ([None] if n <= 4 else []) + [5, 50]:
                args = (support, n, inner, cap)
                want = _covers_or_bound(_reference_covers, *args)
                assert _covers_or_bound(_covers, *args) == want, (support, inner, cap)


def _upper_triangle(n: int) -> list[int]:
    """The row masks of the upper triangular all-ones n x n support, of
    rank n over GF(2)."""
    return [((1 << n) - 1) & ~((1 << k) - 1) for k in range(n)]


def _cycle_plus_identity(n: int) -> list[int]:
    """The row masks of I + P for the n-cycle P: rank n - 1 over GF(2) for
    even n, since the rows sum to 0."""
    return [(1 << k) | (1 << (k + 1) % n) for k in range(n)]


def test_covers_match_reference_in_order_at_six():
    """At n = 6, where the rank cut drops the most of the search, _covers
    returns the unpruned reference's covers in the same order, and the same
    bound message at the same cap."""
    rng = random.Random(6)
    supports = [random_nondeg_matrix(rng, 6, p).support_rows() for p in (0.35, 0.4, 0.45, 0.5)]
    supports += [_upper_triangle(6), _cycle_plus_identity(6), _blocks(1, 2, 3), _blocks(2, 4)]
    for support in supports:
        for inner in range(8):
            for cap in (5, 50):
                args = (support, 6, inner, cap)
                want = _covers_or_bound(_reference_covers, *args)
                assert _covers_or_bound(_covers, *args) == want, (support, inner, cap)


def _span_size(masks: list[int]) -> int:
    """The number of XORs of subsets of the masks, 2 ** rank over GF(2)."""
    span = {0}
    for x in masks:
        span |= {y ^ x for y in span}
    return len(span)


def test_gf2_rank_is_the_size_of_the_xor_span():
    rng = random.Random(35)
    for _ in range(400):
        width = rng.randint(1, 8)
        masks = [rng.randrange(1 << width) for _ in range(rng.randint(0, 8))]
        rank = _span_size(masks).bit_length() - 1
        for limit in range(len(masks) + 1):
            assert _gf2_rank(masks, limit) == min(rank, limit + 1), (masks, limit)


def _frames(fn, names: tuple[str, ...]):
    """fn() and the number of Python frames entered for each of the names,
    counted with sys.setprofile."""
    counts = dict.fromkeys(names, 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name in counts:
            counts[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        out = fn()
    finally:
        sys.setprofile(None)
    return out, counts


@pytest.mark.parametrize(
    "support",
    [_blocks(1, 1, 1, 1), _upper_triangle(5), _cycle_plus_identity(6), [0b0011, 0, 0b0110, 0b1100]],
    ids=["identity-4", "triangle-5", "cycle-plus-identity-6", "zero-row"],
)
def test_covers_of_rank_above_m_end_at_the_root(support):
    """A support of GF(2) rank above m has no cover by m >= 2 rectangles,
    and the search ends in its first frame."""
    n = len(support)
    rank = _gf2_rank(support, n)
    assert rank >= 3
    for m in range(2, rank):
        out, counts = _frames(lambda: _covers(support, n, m, None), ("rec", "close_two"))
        assert out == [] == _reference_covers(support, n, m, None)
        assert counts == {"rec": 1, "close_two": 0}, (m, counts)


def test_search_effort_on_six_by_six_bases_is_pinned():
    """The rank cut's search effort on seeded 6x6 bases at inner 1-7: the
    search without it enters 202,974 rec and 163,661 close_two frames for
    the same 2,016 covers, and with it 39,971 and 4,529."""
    rng = random.Random(77)
    supports = [random_nondeg_matrix(rng, 6).support_rows() for _ in range(6)]
    out, counts = _frames(
        lambda: [_covers(s, 6, m, None) for s in supports for m in range(1, 8)], ("rec", "close_two")
    )
    assert sum(map(len, out)) == 2016
    assert counts["rec"] <= 60_000 and counts["close_two"] <= 10_000, counts


def test_covers_leave_nothing_for_the_collector():
    """A cover search frees its recursive closure when it returns or
    raises its bound error, so none of its objects waits for the cycle
    collector."""
    full = NonnegMatrix([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        explore(GM, max_inner=4, depth=2)
        assert _covers_or_bound(_covers, full.support_rows(), 3, 3, 0).startswith("more than 0")
        gc.collect()
        left = [
            o for o in gc.garbage
            if isinstance(o, _PairMasks) or getattr(o, "__qualname__", "").startswith("_covers.")
        ]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not left


def _reference_factorizations_general(a, inner, max_results=None):
    """The Z>=0 factorization search as nested closures: R entry by entry
    (row-major), then every column of S, then S assembled column by column.
    Inner dimension 0 has no factorization."""
    if inner == 0:
        return []
    n = a.rows
    row_caps = [max(a.row_list(i)) for i in range(n)]
    out = []

    def r_candidates(i, row, rows):
        if i == n:
            for k in range(inner):
                if all(r[k] == 0 for r in rows):
                    return
            solve_s([list(r) for r in rows])
            return
        if len(row) == inner:
            rows.append(list(row))
            r_candidates(i + 1, [], rows)
            rows.pop()
            return
        for v in range(row_caps[i] + 1):
            row.append(v)
            r_candidates(i, row, rows)
            row.pop()

    def solve_s(r_rows):
        cols = []

        def fill(scol, remaining):
            if len(scol) == inner:
                if all(v == 0 for v in remaining):
                    cols.append(list(scol))
                return
            k = len(scol)
            cap = min(
                (remaining[i] // r_rows[i][k] for i in range(n) if r_rows[i][k]),
                default=max(remaining, default=0),
            )
            for v in range(cap + 1):
                scol.append(v)
                fill(scol, [remaining[i] - v * r_rows[i][k] for i in range(n)])
                scol.pop()

        per_col = []
        for j in range(n):
            cols = []
            fill([], [a.entry(i, j) for i in range(n)])
            if not cols:
                return
            per_col.append(cols)

        def assemble(j, chosen):
            if j == n:
                s_entries = [[chosen[jj][k] for jj in range(n)] for k in range(inner)]
                if any(all(v == 0 for v in srow) for srow in s_entries):
                    return
                r = NonnegMatrix(r_rows)
                s = NonnegMatrix(s_entries)
                out.append((r, s, mul(s, r)))
                if max_results is not None and len(out) > max_results:
                    raise ResourceBoundError(f"more than {max_results} general factorizations")
                return
            for c in per_col[j]:
                chosen.append(c)
                assemble(j + 1, chosen)
                chosen.pop()

        assemble(0, [])

    r_candidates(0, [], [])
    return out


def _search_outcome(search, *args):
    try:
        return search(*args)
    except SseError as exc:
        return type(exc), str(exc)


def test_general_factorizations_match_reference_in_order():
    """The Z>=0 search returns the closure search's triples in the same
    order, and the same bound error for the same input."""
    rng = random.Random(5)
    kinds = {"found": 0, "none": 0, "error": 0}
    for n in (1, 2, 3):
        for t in range(10):
            a = NonnegMatrix([[rng.randint(0, 2) for _ in range(n)] for _ in range(n)])
            for inner in range(4 if n < 3 or t < 3 else 3):
                cap = rng.choice([None, 3, 30])
                want = _search_outcome(_reference_factorizations_general, a, inner, cap)
                assert _search_outcome(factorizations_general, a, inner, cap) == want, (
                    a.to_lists(), inner, cap
                )
                kinds["error" if isinstance(want, tuple) else "found" if want else "none"] += 1
    assert min(kinds.values()) >= 5, kinds


# -- one edge algebra: SSEEdge is DegSSEEdge plus the strict checks ----


def _strict_reference_error(a, b, r, s):
    """The first message of the strict edge checks, in their order, or None."""
    for name, m in (("A", a), ("B", b), ("R", r), ("S", s)):
        if not m.is_boolean:
            return f"{name} must be a {{0,1}} matrix"
        if not is_nondegenerate(m):
            return f"{name} must be nondegenerate"
    if not (a.is_square and b.is_square):
        return "A and B must be square"
    if r.rows != a.rows or r.cols != b.rows or s.rows != b.rows or s.cols != a.rows:
        return "R, S shapes do not match A, B"
    if mul(r, s) != a:
        return "RS != A"
    if mul(s, r) != b:
        return "SR != B"
    return None


def _refusal(cls, a, b, r, s):
    try:
        cls(a, b, r, s)
    except InvalidEdgeError as exc:
        return str(exc)
    return None


def _random_matrix(rng, n, m, max_entry, density):
    return NonnegMatrix(
        [[rng.randint(1, max_entry) if rng.random() < density else 0 for _ in range(m)] for _ in range(n)]
    )


def _flip_first_entry(x):
    rows = x.to_lists()
    rows[0][0] = 1 - min(rows[0][0], 1)
    return NonnegMatrix(rows)


def _zero_line(x, rng):
    """x with one random row or column set to zero."""
    rows = x.to_lists()
    if rng.random() < 0.5:
        rows[rng.randrange(x.rows)] = [0] * x.cols
    else:
        k = rng.randrange(x.cols)
        for row in rows:
            row[k] = 0
    return NonnegMatrix(rows)


def test_strict_edge_is_checked_degenerate_edge():
    rng = random.Random(17)
    # pools of valid edges, inner dimension up to 5, for half the cases:
    # random products of n x m matrices are seldom {0,1} and nondegenerate
    pools = [EdgeSpace(random_nondeg_matrix(rng, n), 5, 3000) for n in (1, 2, 3, 4, 5)]
    seen = set()
    for _ in range(1200):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        max_entry = rng.choice((1, 1, 2))
        density = rng.choice((0.5, 0.7, 0.9))
        if rng.random() < 0.5:
            e = rng.choice(pools[n - 1])
            r, s, m = e.r, e.s, e.r.cols
        else:
            r = _random_matrix(rng, n, m, max_entry, density)
            s = _random_matrix(rng, m, n, max_entry, density)
        a, b = mul(r, s), mul(s, r)
        spoil = rng.randrange(8)
        if spoil == 1:
            a = _flip_first_entry(a)
        elif spoil == 2:
            b = _flip_first_entry(b)
        elif spoil == 3:
            r = r.transpose()
        elif spoil == 4:
            a = NonnegMatrix([[1] * (n + 1)] * n)
        elif spoil >= 6:
            # a zero line in R or S, with A and B left as they were (a
            # product fails) or recomputed (A or B loses a line too)
            if spoil == 6:
                r = _zero_line(r, rng)
            else:
                s = _zero_line(s, rng)
            if rng.random() < 0.5:
                a, b = mul(r, s), mul(s, r)
        deg = _refusal(DegSSEEdge, a, b, r, s)
        strict = _refusal(SSEEdge, a, b, r, s)
        clean = all(x.is_boolean and is_nondegenerate(x) for x in (a, b, r, s))
        assert (strict is None) == (deg is None and clean)
        assert strict == _strict_reference_error(a, b, r, s)
        seen.add(strict and re.sub("^[ABRS] must", "X must", strict))
    # acceptance and every refusal were reached
    assert seen == {
        None,
        "X must be a {0,1} matrix",
        "X must be nondegenerate",
        "A and B must be square",
        "R, S shapes do not match A, B",
        "RS != A",
        "SR != B",
    }


@pytest.mark.parametrize(
    "a, b, r, s, message",
    [
        # S has a zero row, so B = SR has one; the rest holds
        (NonnegMatrix([[1]]), NonnegMatrix([[1, 1], [0, 0]]), NonnegMatrix([[1, 1]]),
         NonnegMatrix([[1], [0]]), "B must be nondegenerate"),
        # a 2x3 A or B whose last column is zero has the row masks of a
        # square matrix that passes every other check
        (NonnegMatrix([[1, 1, 0], [1, 0, 0]]), GM, GM, I2, "A must be nondegenerate"),
        (GM, NonnegMatrix([[1, 1, 0], [1, 0, 0]]), GM, I2, "B must be nondegenerate"),
    ],
    ids=["zero-row-of-b", "wide-a", "wide-b"],
)
def test_edges_that_pass_all_but_one_check_are_refused(a, b, r, s, message):
    assert _strict_reference_error(a, b, r, s) == message
    assert _refusal(SSEEdge, a, b, r, s) == message


def test_checked_edge_is_the_trusted_edge_on_random_pools():
    # the checked SSEEdge accepts every ordered factorization of a
    # nondegenerate {0,1} base, as the trusted constructor assumes
    rng = random.Random(29)
    built = 0
    for n in (1, 2, 3, 3, 4, 4):
        a = random_nondeg_matrix(rng, n, rng.uniform(0.3, 0.9))
        for inner in range(1, n + 2):
            try:
                triples = factorizations(a, inner, max_results=2000)
            except ResourceBoundError:
                continue
            for r, s, b in triples:
                assert SSEEdge(a, b, r, s) == SSEEdge._trusted(a, b, r, s)
            built += len(triples)
    assert built > 1000, built


@pytest.mark.parametrize(
    "edge",
    [
        SSEEdge(GM, GM, I2, GM),
        SSEEdge(GM, GM, GM, I2),
        DegSSEEdge(GM, GM, GM, I2),
        DegSSEEdge(
            NonnegMatrix([[1, 1], [0, 0]]),
            NonnegMatrix([[1]]),
            NonnegMatrix([[1], [0]]),
            NonnegMatrix([[1, 1]]),
        ),
        DegSSEEdge(
            NonnegMatrix([[2]]), NonnegMatrix([[2]]), NonnegMatrix([[1]]), NonnegMatrix([[2]])
        ),
    ],
    ids=["strict-identity", "strict-shift", "deg-shift", "deg-zero-row", "deg-entry-2"],
)
def test_reversed_and_transposed_keep_the_class(edge):
    for other in (edge.reversed(), edge.transposed()):
        assert type(other) is type(edge)
    assert edge.reversed().reversed() == edge
    assert edge.transposed().transposed() == edge


def test_to_strict():
    assert DegSSEEdge(GM, GM, I2, GM).to_strict() == SSEEdge(GM, GM, I2, GM)
    assert DegSSEEdge(GM, GM, I2, GM) != SSEEdge(GM, GM, I2, GM)
    two = NonnegMatrix([[2]])
    e = DegSSEEdge(two, two, NonnegMatrix([[1]]), two)
    assert not e.is_boolean
    with pytest.raises(InvalidEdgeError, match=r"A must be a \{0,1\} matrix"):
        e.to_strict()
