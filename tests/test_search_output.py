"""The factorization search's output is built once per cover and trusted
downstream: factorizations, the lazy edge pool and explore must give what
rebuilding R, S and B for every ordering and the eager, checked pool
gave."""

import random
from itertools import permutations

import pytest

from ssecalc.complexes import explore
from ssecalc.elementary import SSEEdge, Triangle, check_triangle
from ssecalc.errors import InvalidEdgeError, ResourceBoundError
from ssecalc import factorize
from ssecalc.factorize import EdgeSpace, _covers, factorizations, factorizations_general
from ssecalc.matrices import NonnegMatrix, is_nondegenerate
from ssecalc import sampling
from ssecalc.sampling import edge_pool, random_edge, random_nondeg_matrix

GM = NonnegMatrix([[1, 1], [1, 0]])
FULL2 = NonnegMatrix([[1, 1], [1, 1]])
POOL_CAP = 3000  # sampling's cap per inner dimension


def _reference_factorizations(a, inner, ordered=True, max_results=None):
    """factorizations as it was with R, S and B rebuilt from the
    rectangles for every ordering."""
    if type(inner) is not int or inner < 0:
        raise ValueError(f"inner dimension must be an int >= 0, not {inner!r}")
    if not a.is_boolean or not a.is_square:
        raise ValueError("factorization search needs a square {0,1} matrix")
    if inner == 0:
        return []
    n = a.rows
    cap, message = max_results, None
    if ordered and max_results is not None:
        cap = max_results // len(list(permutations(range(inner))))
        message = f"more than {max_results} ordered factorizations"
    out = []
    for cover in _covers(a.support_rows(), n, inner, cap, message):
        seqs = permutations(cover) if ordered else (tuple(cover),)
        for seq in seqs:
            r_masks = [0] * n
            s_masks = []
            for t, (rho, gamma) in enumerate(seq):
                s_masks.append(gamma)
                for k in range(n):
                    if rho >> k & 1:
                        r_masks[k] |= 1 << t
            b_masks = []
            for _rho, gamma in seq:
                row = 0
                for u, (rho2, _g2) in enumerate(seq):
                    if gamma & rho2:
                        row |= 1 << u
                b_masks.append(row)
            out.append(
                (
                    NonnegMatrix.from_bool_rows(inner, r_masks),
                    NonnegMatrix.from_bool_rows(n, s_masks),
                    NonnegMatrix.from_bool_rows(inner, b_masks),
                )
            )
    return out


def _reference_edge_pool(a, max_inner):
    """The eager pool: every triple of every inner dimension as a checked
    SSEEdge, unordered covers where the ordered search overflows."""
    pool = []
    for m in range(1, max_inner + 1):
        try:
            triples = _reference_factorizations(a, m, max_results=POOL_CAP)
        except ResourceBoundError:
            triples = _reference_factorizations(a, m, ordered=False, max_results=POOL_CAP)
        pool.extend(SSEEdge(a, b, r, s) for r, s, b in triples)
    return pool


def _outcome(search, *args, **kwargs):
    try:
        return search(*args, **kwargs)
    except ResourceBoundError as exc:
        return str(exc)


def _random_boolean(rng, n):
    density = rng.uniform(0.3, 0.9)
    return NonnegMatrix([[int(rng.random() < density) for _ in range(n)] for _ in range(n)])


# random {0,1} bases per size; any support, degenerate ones included
SIZES = {1: 4, 2: 10, 3: 12, 4: 10, 5: 3}


def test_factorizations_match_reference_in_order():
    rng = random.Random(2024)
    seen = {"found": 0, "none": 0, "bound": 0}
    for n, count in SIZES.items():
        for _ in range(count):
            a = _random_boolean(rng, n)
            for inner in range(n + 2):
                for cap in ([None] if n <= 3 else []) + [10, POOL_CAP]:
                    for ordered in (True, False):
                        want = _outcome(_reference_factorizations, a, inner, ordered, cap)
                        got = _outcome(factorizations, a, inner, ordered, cap)
                        assert got == want, (a.to_lists(), inner, ordered, cap)
                        kind = "bound" if isinstance(want, str) else "found" if want else "none"
                        seen[kind] += 1
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("search", [factorizations, factorizations_general])
@pytest.mark.parametrize(
    "a",
    [NonnegMatrix([[0]]), NonnegMatrix([[0, 0], [0, 0]]), GM, NonnegMatrix([[1, 0], [0, 0]])],
    ids=["zero1", "zero2", "gm", "degenerate"],
)
def test_inner_zero_has_no_factorization(search, a):
    assert search(a, 0) == []
    assert search(a, 0, max_results=0) == []


def _pool_cases():
    rng = random.Random(77)
    cases = [
        (random_nondeg_matrix(rng, n, rng.uniform(0.3, 0.9)), rng.randint(1, 4))
        for n in (1, 2, 3, 4)
        for _ in range(8)
    ]
    # pools whose ordered search overflows at inner 5 and 6, so that
    # those blocks hold one edge per cover
    full3 = NonnegMatrix([[1] * 3] * 3)
    cases += [(full3, 6), (NonnegMatrix([[1, 1, 1], [1, 1, 0], [1, 0, 1]]), 5)]
    return rng, cases


def test_edge_pool_matches_eager_pool():
    rng, cases = _pool_cases()
    for a, max_inner in cases:
        want = _reference_edge_pool(a, max_inner)
        pool = edge_pool(a, max_inner)
        assert len(pool) == len(want)
        assert list(pool) == want, (a.to_lists(), max_inner)
        for i in sorted(rng.sample(range(len(want)), min(len(want), 12))):
            assert pool[i] == want[i]
            assert pool[i - len(want)] == want[i]
        with pytest.raises(IndexError):
            pool[len(want)]
        if want:
            seed = rng.randrange(1 << 30)
            draws, oracle = random.Random(seed), random.Random(seed)
            for _ in range(5):
                assert random_edge(draws, a, max_inner) == oracle.choice(want)


def test_evicted_pool_is_rebuilt_with_the_same_edges(monkeypatch):
    monkeypatch.setattr(sampling, "_FACTOR_CACHE", {})
    monkeypatch.setattr(sampling, "_FACTOR_CACHE_SIZE", 2)
    first = edge_pool(GM, 3)
    edges = list(first)
    edge_pool(FULL2, 2)
    assert edge_pool(GM, 3) is first  # a hit keeps the pool
    edge_pool(FULL2, 3)  # the cache is full: the oldest pool goes
    assert list(sampling._FACTOR_CACHE) == [(FULL2, 2), (FULL2, 3)]
    rebuilt = edge_pool(GM, 3)
    assert rebuilt is not first and list(rebuilt) == edges
    assert list(sampling._FACTOR_CACHE) == [(FULL2, 3), (GM, 3)]


def test_each_inner_dimension_is_searched_once(monkeypatch):
    # the ordered search of the all-ones 3x3 overflows at inner 5 and 6
    inners = []

    def counted(rows, n, inner, cap, message):
        inners.append(inner)
        return _covers(rows, n, inner, cap, message)

    monkeypatch.setattr(factorize, "_covers", counted)
    monkeypatch.setattr(sampling, "_FACTOR_CACHE", {})
    full3 = NonnegMatrix([[1] * 3] * 3)
    assert len(edge_pool(full3, 6)) == len(_reference_edge_pool(full3, 6))
    assert inners == [1, 2, 3, 4, 5, 6]
    # an unordered overflow still raises the unordered search's message
    with pytest.raises(ResourceBoundError) as want:
        factorizations(full3, 4, ordered=False, max_results=10)
    with pytest.raises(ResourceBoundError) as got:
        EdgeSpace(full3, 4, 10)
    assert str(got.value) == str(want.value)


def test_edge_pool_edges_are_plain_checked_edges():
    # trusted pool edges carry the same fields, in the same order, as
    # edges that went through SSEEdge's checks
    for e in edge_pool(GM, 3):
        checked = SSEEdge(e.a, e.b, e.r, e.s)
        assert type(e) is SSEEdge and e == checked
        assert list(vars(e)) == list(vars(checked))


def test_degenerate_edge_pool_raises_on_access():
    a = NonnegMatrix([[1, 0], [0, 0]])
    pool = edge_pool(a, 2)
    assert len(pool) == len(_reference_factorizations(a, 1)) + len(
        _reference_factorizations(a, 2)
    )
    with pytest.raises(InvalidEdgeError, match="A must be nondegenerate"):
        pool[0]
    with pytest.raises(InvalidEdgeError, match="A must be nondegenerate"):
        list(pool)


@pytest.mark.parametrize(
    "a, max_inner, depth",
    [(GM, 3, 2), (FULL2, 3, 1)]
    + [(random_nondeg_matrix(random.Random(seed), 3), 3, 1) for seed in range(3)],
    ids=["gm-d2", "full2", "rand0", "rand1", "rand2"],
)
def test_trusted_explore_output_equals_checked(a, max_inner, depth):
    frag = explore(a, max_inner, depth=depth)
    assert frag.triangles
    for e in frag.edges:
        checked = SSEEdge(e.a, e.b, e.r, e.s)
        assert type(e) is SSEEdge and e == checked
        assert list(vars(e)) == list(vars(checked))
    for t in frag.triangles:
        assert check_triangle(Triangle(*(frag.edges[i] for i in t)))
    # equal matrices of a fragment are one object
    matrices = {}
    for e in frag.edges:
        for m in (e.a, e.b, e.r, e.s):
            assert matrices.setdefault(m, m) is m


def test_explore_degenerate_base_still_raises():
    with pytest.raises(InvalidEdgeError, match="A must be nondegenerate"):
        explore(NonnegMatrix([[1, 0], [0, 0]]), 2)
    assert not is_nondegenerate(NonnegMatrix([[0]]))
    assert explore(NonnegMatrix([[0]]), 2).edges == []
