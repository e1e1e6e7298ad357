"""Random generators for the randomized verification suites.

Everything takes an explicit random.Random so suites are reproducible
from a seed.  Edge pools (factorize.EdgeSpace) are cached per (matrix,
max_inner), since the suites repeatedly sample edges from a handful of
base matrices.  A pool keeps only the covers of its factorization search
and builds an edge when it is drawn.  The cache keeps the last
_FACTOR_CACHE_SIZE pools built.  The whole tier-1 suite in one process
builds 3266 pools, 2805 of them in the triangle-equivalence acceptance
criterion, and the benchmark's inputs 189 (codes) and 47 (search), so
the bound is not reached there and only caps memory in longer runs.
"""

from __future__ import annotations

import random
from typing import Optional

from .codes import BlockCode, bijection_code
from .complexes import SSEPath, compose_path
from .elementary import SSEEdge, code_from_edge
from .errors import ResourceBoundError
from .factorize import EdgeSpace, factorizations
from .matrices import NonnegMatrix, is_nondegenerate, mul
from .shifts import VertexShift

_FACTOR_CAP = 3000
_FACTOR_CACHE_SIZE = 4096


def random_nondeg_matrix(rng: random.Random, size: int, density: float = 0.55) -> NonnegMatrix:
    """A random nondegenerate {0,1} matrix of the given size."""
    while True:
        rows = [
            [1 if rng.random() < density else 0 for _ in range(size)]
            for _ in range(size)
        ]
        m = NonnegMatrix(rows)
        if is_nondegenerate(m):
            return m


# (matrix, max_inner) -> its pool, oldest first
_FACTOR_CACHE: dict[tuple[NonnegMatrix, int], EdgeSpace] = {}


def edge_pool(a: NonnegMatrix, max_inner: int) -> EdgeSpace:
    """All edges from a with inner dimension <= max_inner (cached, capped)."""
    key = (a, max_inner)
    pool = _FACTOR_CACHE.get(key)
    if pool is None:
        pool = EdgeSpace(a, max_inner, _FACTOR_CAP)
        if len(_FACTOR_CACHE) >= _FACTOR_CACHE_SIZE:
            del _FACTOR_CACHE[next(iter(_FACTOR_CACHE))]
        _FACTOR_CACHE[key] = pool
    return pool


def random_edge(rng: random.Random, a: NonnegMatrix, max_inner: Optional[int] = None) -> SSEEdge:
    if max_inner is None:
        max_inner = a.rows + 1
    pool = edge_pool(a, max_inner)
    if not pool:
        raise ValueError(f"no edges from {a!r} with inner <= {max_inner}")
    return rng.choice(pool)


def random_elementary_code(
    rng: random.Random, a: NonnegMatrix, max_inner: Optional[int] = None
) -> BlockCode:
    return code_from_edge(random_edge(rng, a, max_inner), verify=False)


def random_bijection_code(rng: random.Random, x: VertexShift) -> BlockCode:
    perm = list(range(x.alphabet_size))
    rng.shuffle(perm)
    return bijection_code(x, perm)


def random_conjugacy(
    rng: random.Random,
    base: NonnegMatrix,
    n_factors: int,
    max_inner: Optional[int] = None,
) -> BlockCode:
    """A conjugacy composed of n_factors random elementary codes and inverses:
    the composition of a random strict path of n_factors steps."""
    steps = []
    a = base
    for _ in range(n_factors):
        e = random_edge(rng, a, max_inner)
        # a move in H^{-1}: traverse a reversed edge backwards
        steps.append((e.reversed(), -1) if rng.random() < 0.3 else (e, 1))
        a = e.b
    return compose_path(SSEPath(base, tuple(steps)))


def random_tuple(
    rng: random.Random, base: NonnegMatrix, n: int, max_inner: Optional[int] = None
) -> list[BlockCode]:
    """n random elementary codes out of the same base shift."""
    return [random_elementary_code(rng, base, max_inner) for _ in range(n)]


# -- degenerate samplers ----------------------------------------------


def random_deg_pair(
    rng: random.Random, n: int, m: int, max_entry: int = 2, density: float = 0.4
):
    """Random (R, S) over {0..max_entry} with nonzero A = RS and B = SR."""
    while True:
        r = NonnegMatrix(
            [
                [rng.randint(1, max_entry) if rng.random() < density else 0 for _ in range(m)]
                for _ in range(n)
            ]
        )
        s = NonnegMatrix(
            [
                [rng.randint(1, max_entry) if rng.random() < density else 0 for _ in range(n)]
                for _ in range(m)
            ]
        )
        a = mul(r, s)
        b = mul(s, r)
        if any(a.row_mask(i) for i in range(n)) and any(b.row_mask(i) for i in range(m)):
            return r, s, a, b


def random_deg_bool_edge(rng: random.Random, a: NonnegMatrix, extra_slots: int = 1):
    """A random {0,1} factorization of a, possibly with empty inner slots.

    Empty slots produce zero columns of R and zero rows of S, i.e. a
    degenerate target matrix B.  Returns (r, s, b).
    """
    best: list = []
    for inner in range(1, a.rows + 2):
        try:
            best.extend(factorizations(a, inner, ordered=False, max_results=400))
        except ResourceBoundError:
            break
        if len(best) > 50:
            break
    if not best:
        raise ValueError("matrix has no boolean factorization")
    r, s, b = rng.choice(best)
    slots = rng.randrange(0, extra_slots + 1)
    if slots:
        inner = r.cols
        r_rows = [r.row_mask(i) for i in range(r.rows)]
        s_rows = [s.row_mask(i) for i in range(s.rows)] + [0] * slots
        r2 = NonnegMatrix.from_bool_rows(inner + slots, r_rows)
        s2 = NonnegMatrix.from_bool_rows(s.cols, s_rows)
        b_rows = [b.row_mask(i) for i in range(b.rows)] + [0] * slots
        b2 = NonnegMatrix.from_bool_rows(inner + slots, b_rows)
        return r2, s2, b2
    return r, s, b
