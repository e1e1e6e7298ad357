import copy
import pickle
import random
from collections import Counter

import pytest

from ssecalc.errors import GStarOverflowError, InvalidEdgeError, InvalidMatrixError, SseError
from ssecalc.groups import FiniteGroup, cyclic_group, symmetric_group
from ssecalc.gsft import (
    GroupRingMatrix,
    GsftEdge,
    MarkedGGraph,
    bar,
    equivariant_triangle,
    gsft_matrix_from_json,
    gsft_matrix_to_json,
    hat,
    mark_and_relabel,
    mul_gstar,
    mul_zg,
    product_in_gstar,
)
from ssecalc.matrices import NonnegMatrix, mul
from ssecalc.elementary import DegSSEEdge, SSEEdge, Triangle, check_triangle

Z3 = cyclic_group(3)
Z2 = cyclic_group(2)
S3 = symmetric_group(3)

# the running example: A = [[e+a, a], [a^2, a^2]] over Z/3Z
A_EXAMPLE = GroupRingMatrix(Z3, [[{0, 1}, {1}], [{2}, {2}]])

# bar(A) for the order (e, a, a^2); the block at symbols (2,2) carries the
# a^2-cycle (2,e)->(2,a^2)->(2,a)->(2,e), matching the defining formula and
# the graph the matrix describes
BAR_EXAMPLE = NonnegMatrix(
    [
        [1, 1, 0, 0, 1, 0],
        [0, 1, 1, 0, 0, 1],
        [1, 0, 1, 1, 0, 0],
        [0, 0, 1, 0, 0, 1],
        [1, 0, 0, 1, 0, 0],
        [0, 1, 0, 0, 1, 0],
    ]
)


def test_group_validation():
    with pytest.raises(Exception):
        FiniteGroup(["e", "x"], [[0, 1], [1, 1]])
    g = cyclic_group(4)
    assert g.op(1, 3) == 0 and g.inv(1) == 3


def test_bar_trivial_group():
    g1 = cyclic_group(1)
    a = GroupRingMatrix(g1, [[{0}, set()], [{0}, {0}]])
    assert bar(a) == NonnegMatrix([[1, 0], [1, 1]])


def test_bar_example_matrix():
    assert bar(A_EXAMPLE) == BAR_EXAMPLE


def test_hat_inverts_bar_on_example():
    assert hat(BAR_EXAMPLE, Z3, (2, 2)) == A_EXAMPLE


def test_hat_identity_blocks():
    ident = NonnegMatrix.identity(4)
    a = hat(ident, Z2, (2, 2))
    assert a.entries[0][0] == frozenset({0})
    assert a.entries[1][1] == frozenset({0})
    assert a.entries[0][1] == frozenset()


def test_hat_reports_invariance_violation():
    bad = NonnegMatrix([[1, 0], [0, 0]])
    with pytest.raises(InvalidMatrixError) as err:
        hat(bad, Z2, (1, 1))
    assert "G-invariant" in str(err.value)


def rand_gstar(rng, group, rows, cols, density=0.35):
    return GroupRingMatrix(
        group,
        [
            [
                {g for g in range(group.order) if rng.random() < density}
                for _ in range(cols)
            ]
            for _ in range(rows)
        ],
    )


def test_bar_hat_roundtrip_random():
    rng = random.Random(0)
    for group in (Z2, Z3, S3):
        for _ in range(20):
            a = rand_gstar(rng, group, rng.randint(1, 3), rng.randint(1, 3))
            assert hat(bar(a), group, (a.rows, a.cols)) == a


def test_bar_multiplicative_both_ways():
    rng = random.Random(1)
    in_gstar = 0
    overflow = 0
    for group in (Z2, Z3, S3):
        for _ in range(120):
            a = rand_gstar(rng, group, rng.randint(1, 3), rng.randint(1, 3))
            b = rand_gstar(rng, group, a.cols, rng.randint(1, 3))
            boolean_product = mul(bar(a), bar(b))
            if product_in_gstar(a, b):
                in_gstar += 1
                assert boolean_product == bar(mul_gstar(a, b))
            else:
                overflow += 1
                assert not boolean_product.is_boolean
    assert in_gstar > 20 and overflow > 20


def test_marked_graph_roundtrip():
    g = MarkedGGraph(Z3, 2, BAR_EXAMPLE, ((0, 0), (1, 0)))
    assert mark_and_relabel(g) == A_EXAMPLE


def test_marked_graph_nontrivial_marks():
    # picking marks away from the identity relabels but re-bars consistently
    g = MarkedGGraph(Z3, 2, BAR_EXAMPLE, ((0, 1), (1, 2)))
    a2 = mark_and_relabel(g)
    assert hat(bar(a2), Z3, (2, 2)) == a2


def test_marked_graph_validation():
    with pytest.raises(InvalidMatrixError):
        MarkedGGraph(Z3, 2, NonnegMatrix.identity(5), ((0, 0), (1, 0)))
    sinkful = NonnegMatrix(
        [[0, 1, 0, 0, 0, 0]] + [[1, 0, 0, 0, 0, 0]] * 5
    )
    with pytest.raises(InvalidMatrixError):
        MarkedGGraph(Z3, 2, sinkful, ((0, 0), (1, 0)))
    # invariance is hat's test, with hat's message
    rows = BAR_EXAMPLE.to_lists()
    rows[0][0] = 0
    with pytest.raises(InvalidMatrixError, match="not G-invariant at symbols"):
        MarkedGGraph(Z3, 2, NonnegMatrix(rows), ((0, 0), (1, 0)))


def test_mul_gstar_overflow_reported():
    a = GroupRingMatrix(Z2, [[{0, 1}, {0, 1}]])
    b = GroupRingMatrix(Z2, [[{0, 1}], [{0, 1}]])
    with pytest.raises(GStarOverflowError):
        mul_gstar(a, b)
    counts = mul_zg(a, b)
    assert counts[0][0] == Counter({0: 4, 1: 4})


def test_a_cell_that_lists_an_element_twice_is_refused():
    # e listed twice is the coefficient 2, which is outside G*
    with pytest.raises(InvalidMatrixError, match=r"cell \(1,1\): element 'e' is listed more"):
        GroupRingMatrix(Z2, [[[0, 0]]])
    with pytest.raises(InvalidMatrixError, match=r"cell \(2,1\): element 'a' is listed more"):
        GroupRingMatrix(Z3, [[[0], [1]], [[1, 2, 1], []]])
    # a set, or a list of distinct elements, is the same matrix as before
    assert GroupRingMatrix(Z2, [[[1, 0]]]) == GroupRingMatrix(Z2, [[{0, 1}]])


def _identity_gsft_edge(a: GroupRingMatrix) -> GsftEdge:
    n = a.rows
    ident = GroupRingMatrix(
        a.group, [[{0} if i == j else set() for j in range(n)] for i in range(n)]
    )
    return GsftEdge(a, a, ident, a)


def test_equivariant_triangle_identity():
    e = _identity_gsft_edge(A_EXAMPLE)
    assert equivariant_triangle(Triangle(e, e, e))


def test_equivariant_triangle_reports_a_product_leaving_gstar():
    # R = e + a and S = e over Z/2 give A = B = e + a, and R1·R2 = 2e + 2a
    # leaves G*: the first equation reports it before any later product
    ea = GroupRingMatrix(Z2, [[{0, 1}]])
    e = GsftEdge(ea, ea, ea, GroupRingMatrix(Z2, [[{0}]]))
    with pytest.raises(GStarOverflowError, match=r"coefficient >= 2 at cell \(1,1\)"):
        equivariant_triangle(Triangle(e, e, e))


def test_equivariant_triangle_matches_barred_verdict():
    e = _identity_gsft_edge(A_EXAMPLE)
    t = Triangle(e, e, e)
    barred = Triangle(
        SSEEdge(bar(e.a), bar(e.b), bar(e.r), bar(e.s)),
        SSEEdge(bar(e.a), bar(e.b), bar(e.r), bar(e.s)),
        SSEEdge(bar(e.a), bar(e.b), bar(e.r), bar(e.s)),
    )
    assert equivariant_triangle(t) == check_triangle(barred)


def test_equivariant_triangle_perturbed():
    e = _identity_gsft_edge(A_EXAMPLE)
    # sigma-like edge: R = A, S = I
    n = e.a.rows
    ident = GroupRingMatrix(
        Z3, [[{0} if i == j else set() for j in range(n)] for i in range(n)]
    )
    e_sigma = GsftEdge(e.a, e.a, e.a, ident)
    t = Triangle(e, e, e_sigma)
    assert not equivariant_triangle(t)
    barred = Triangle(
        SSEEdge(bar(e.a), bar(e.a), bar(e.r), bar(e.s)),
        SSEEdge(bar(e.a), bar(e.a), bar(e.r), bar(e.s)),
        SSEEdge(bar(e.a), bar(e.a), bar(e_sigma.r), bar(e_sigma.s)),
    )
    assert not check_triangle(barred)


def test_gsft_edge_validation():
    ident = GroupRingMatrix(Z3, [[{0}]])
    with pytest.raises(InvalidEdgeError):
        GsftEdge(A_EXAMPLE, A_EXAMPLE, ident, ident)


@pytest.mark.parametrize(
    "value, slots",
    [
        (cyclic_group(3), FiniteGroup.__slots__),
        (GroupRingMatrix(Z3, [[{0, 1}, {1}], [{2}, {2}]]), GroupRingMatrix.__slots__),
    ],
    ids=["group", "group-ring-matrix"],
)
def test_groups_and_group_ring_matrices_are_immutable(value, slots):
    before = hash(value)
    for name in slots:
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError, match="is immutable"):
        value.names = ("x", "y", "z")
    assert hash(value) == before


@pytest.mark.parametrize(
    "value", [S3, A_EXAMPLE, GroupRingMatrix(S3, [[{0, 3}]])], ids=["S3", "example", "over-S3"]
)
def test_groups_and_group_ring_matrices_copy_and_pickle(value):
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in copies:
        assert type(c) is type(value) and c == value and hash(c) == hash(value)
    assert copies[1].__reduce__() == value.__reduce__()


def test_json_roundtrip():
    obj = gsft_matrix_to_json(A_EXAMPLE)
    assert obj["entries"][0][0] == ["a", "e"]
    assert gsft_matrix_from_json(obj) == A_EXAMPLE


def test_one_orbit_of_loops():
    # |G| disjoint loops forming a single free orbit present the matrix [[e]]
    g = MarkedGGraph(Z3, 1, NonnegMatrix.identity(3), ((0, 0),))
    a = mark_and_relabel(g)
    assert a.entries == ((frozenset({0}),),)


def test_equivariant_triangle_with_a_zero_row():
    # r has a zero row, so bar(r·s) does too; the barred cross-check must
    # take such edges and return the verdict
    r = GroupRingMatrix(Z2, [[{0}], [set()]])
    s = GroupRingMatrix(Z2, [[{0}, {1}]])
    a, b = mul_gstar(r, s), mul_gstar(s, r)
    e1 = GsftEdge(a, b, r, s)
    e2 = GsftEdge(b, b, GroupRingMatrix(Z2, [[{0}]]), b)
    assert equivariant_triangle(Triangle(e1, e2, e1)) is True
    barred = DegSSEEdge(bar(a), bar(b), bar(r), bar(s))
    assert not barred.a.row_mask(2)


def _reference_marked_graph(group, n_orbits, adj, marks):
    """The checks and the relabeling of a marked G-graph as they were
    written before the G-invariance test was shared with hat: a loop over
    every f, g, h, then hat of the densely relabeled adjacency."""
    ng = group.order
    n = n_orbits * ng
    if adj.rows != n or adj.cols != n:
        raise InvalidMatrixError("adjacency shape does not match orbits x |G|")
    if not adj.is_boolean:
        raise InvalidMatrixError("adjacency must be {0,1} (no parallel edges)")
    seen = set()
    for orbit, g in marks:
        if not (0 <= orbit < n_orbits and 0 <= g < ng):
            raise InvalidMatrixError("mark out of range")
        seen.add(orbit)
    if len(marks) != n_orbits or len(seen) != n_orbits:
        raise InvalidMatrixError("need exactly one mark per orbit")
    op = group.op
    for k in range(n_orbits):
        for l in range(n_orbits):
            for g in range(ng):
                for h in range(ng):
                    for f in range(ng):
                        if adj.entry(k * ng + g, l * ng + h) != adj.entry(
                            k * ng + op(f, g), l * ng + op(f, h)
                        ):
                            raise InvalidMatrixError("adjacency is not G-invariant")
    cols = adj.transpose()
    for i in range(n):
        if not adj.row_mask(i) or not cols.row_mask(i):
            raise InvalidMatrixError("graph has a sink or a source")
    relabeled = [[0] * n for _ in range(n)]
    orbit_rank = {orbit: t for t, (orbit, _) in enumerate(marks)}
    mark_elem = {orbit: ge for (orbit, ge) in marks}
    for k in range(n_orbits):
        t = orbit_rank[k]
        gk_inv = group.inv(mark_elem[k])
        for h in range(ng):
            new = t * ng + op(h, gk_inv)
            for l in range(n_orbits):
                u = orbit_rank[l]
                gl_inv = group.inv(mark_elem[l])
                for h2 in range(ng):
                    relabeled[new][u * ng + op(h2, gl_inv)] = adj.entry(k * ng + h, l * ng + h2)
    return hat(NonnegMatrix(relabeled), group, (n_orbits, n_orbits))


def _outcome(build):
    try:
        return build().entries
    except SseError as exc:
        return type(exc)


def test_marked_graph_matches_reference_on_random_graphs():
    rng = random.Random(11)
    groups = [cyclic_group(k) for k in (1, 2, 3, 4)] + [S3]
    kinds = {"entries": 0, "broken": 0}
    for trial in range(200):
        group = groups[trial % len(groups)]
        ng = group.order
        n_orbits = rng.randint(1, 3)
        rows = bar(rand_gstar(rng, group, n_orbits, n_orbits, density=0.5)).to_lists()
        if rng.random() < 0.2:
            i, j = rng.randrange(n_orbits * ng), rng.randrange(n_orbits * ng)
            rows[i][j] = 1 - rows[i][j]
        adj = NonnegMatrix(rows)
        orbits = list(range(n_orbits))
        rng.shuffle(orbits)
        marks = tuple((k, rng.randrange(ng)) for k in orbits)
        got = _outcome(lambda: mark_and_relabel(MarkedGGraph(group, n_orbits, adj, marks)))
        want = _outcome(lambda: _reference_marked_graph(group, n_orbits, adj, marks))
        assert got == want, (group, rows, marks)
        kinds["entries" if isinstance(want, tuple) else "broken"] += 1
    assert kinds["entries"] > 40 and kinds["broken"] > 40

