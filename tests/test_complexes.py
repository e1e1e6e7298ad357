import hashlib
import json
import random
import tracemalloc

import pytest

from ssecalc.cli import _BLOCK, _encode
from ssecalc.codes import equal_codes, is_identity, shift_code
from ssecalc.complexes import (
    ComplexFragment,
    SSEPath,
    automorphism_from_loop,
    compose_path,
    explore,
    homotopic,
    path_from_json,
    path_to_json,
)
from ssecalc.elementary import (
    DegSSEEdge,
    SSEEdge,
    Triangle,
    check_triangle,
    code_from_edge,
    edge_from_code,
)
from ssecalc.errors import InvalidEdgeError, ResourceBoundError
from ssecalc.matrices import NonnegMatrix, is_nondegenerate, matrix_to_json, matrix_value
from ssecalc.shifts import VertexShift

GM = NonnegMatrix([[1, 1], [1, 0]])
FULL2 = NonnegMatrix([[1, 1], [1, 1]])
I2 = NonnegMatrix.identity(2)
ONE = NonnegMatrix([[1]])


def test_empty_path_is_identity():
    p = SSEPath(GM, ())
    assert is_identity(compose_path(p))


def test_backtrack_composes_to_identity():
    e = SSEEdge(GM, GM, GM, I2)
    p = SSEPath(GM, ((e, 1), (e, -1)))
    assert is_identity(compose_path(p))


def test_chaining_validated():
    e = SSEEdge(GM, GM, GM, I2)
    with pytest.raises(InvalidEdgeError):
        SSEPath(FULL2, ((e, 1),))


def _triangles(frag):
    """The fragment's triangles as Triangles of its edges."""
    return [Triangle(*(frag.edges[i] for i in t)) for t in frag.triangles]


def test_triangle_boundary_composes_to_identity():
    # e1; e2; then e3 backwards is a loop homotopic to a point
    frag = explore(GM, 3)
    tris = [t for t in _triangles(frag) if check_triangle(t)]
    assert tris
    for t in tris[:10]:
        p = SSEPath(t.e1.a, ((t.e1, 1), (t.e2, 1), (t.e3, -1)))
        assert is_identity(compose_path(p))


def test_homotopic_backtrack_insertion():
    e = SSEEdge(GM, GM, GM, I2)
    p = SSEPath(GM, ((e, 1),))
    q = SSEPath(GM, ((e, 1), (e, -1), (e, 1)))
    assert homotopic(p, q)


def test_homotopic_needs_matching_endpoints():
    e = SSEEdge(GM, GM, GM, I2)
    frag = explore(GM, 3)
    other = next(x for x in frag.edges if x.b != GM)
    with pytest.raises(InvalidEdgeError):
        homotopic(SSEPath(GM, ((e, 1),)), SSEPath(GM, ((other, 1),)))


def test_homotopic_reroute_across_triangle():
    frag = explore(GM, 3)
    t = next(t for t in _triangles(frag) if check_triangle(t))
    direct = SSEPath(t.e1.a, ((t.e3, 1),))
    around = SSEPath(t.e1.a, ((t.e1, 1), (t.e2, 1)))
    assert homotopic(direct, around)


def test_distinct_automorphism_loops():
    sigma_edge = SSEEdge(FULL2, FULL2, FULL2, I2)
    p = SSEPath(FULL2, ((sigma_edge, 1),))
    swap_edge = SSEEdge(FULL2, FULL2, NonnegMatrix([[0, 1], [1, 0]]), FULL2)
    q = SSEPath(FULL2, ((swap_edge, 1),))
    assert not homotopic(p, q)
    assert equal_codes(
        automorphism_from_loop(p), shift_code(VertexShift(FULL2), 1)
    )


def test_automorphism_from_loop_requires_loop():
    frag = explore(GM, 3)
    e = next(x for x in frag.edges if x.b != GM)
    with pytest.raises(InvalidEdgeError):
        automorphism_from_loop(SSEPath(GM, ((e, 1),)))


def test_explore_fixed_point_shift():
    frag = explore(ONE, 1)
    assert frag.vertices == [ONE]
    assert len(frag.edges) >= 1
    e = frag.edges[0]
    assert (e.r, e.s) == (NonnegMatrix([[1]]), NonnegMatrix([[1]]))


def test_explore_finds_higher_block_edge():
    frag = explore(GM, 3)
    hb = NonnegMatrix([[1, 1, 0], [0, 0, 1], [1, 1, 0]])
    assert any(e.b == hb for e in frag.edges)


def test_explore_edges_roundtrip():
    frag = explore(GM, 3)
    for e in frag.edges[:50]:
        assert edge_from_code(code_from_edge(e, verify=False)) == e


def test_explore_symmetric_edges():
    frag = explore(GM, 3)
    keys = {(e.a, e.b, e.r, e.s) for e in frag.edges}
    assert all((e.b, e.a, e.s, e.r) in keys for e in frag.edges)


def test_explore_bounds():
    with pytest.raises(ResourceBoundError):
        explore(NonnegMatrix([[1] * 7 for _ in range(7)]), 2, max_size=6)
    with pytest.raises(ResourceBoundError):
        explore(FULL2, 4, max_edges=5)


def test_path_json_roundtrip():
    e = SSEEdge(GM, GM, GM, I2)
    p = SSEPath(GM, ((e, 1), (e, -1)))
    q = path_from_json(path_to_json(p))
    assert q == p
    assert "degenerate" not in path_to_json(p)


@pytest.mark.parametrize("sign", [True, 1.0])
def test_path_sign_must_be_the_integer_one_or_minus_one(sign):
    e = SSEEdge(GM, GM, GM, I2)
    with pytest.raises(InvalidEdgeError, match="sign"):
        SSEPath(GM, ((e, sign),))


def fragment_to_json(f):
    """The explore report's "fragment" object, built as a dict: the oracle
    of the CLI's direct writer."""
    vindex = {v: i for i, v in enumerate(f.vertices)}
    return {
        "vertices": [matrix_to_json(v) for v in f.vertices],
        "edges": [
            {
                "source": vindex[e.a],
                "target": vindex[e.b],
                "R": matrix_to_json(e.r),
                "S": matrix_to_json(e.s),
            }
            for e in f.edges
        ],
        "triangles": [{"e1": i1, "e2": i2, "e3": i3} for i1, i2, i3 in f.triangles],
        "depth": f.depth,
        "max_inner": f.max_inner,
    }


def _assert_report_matches_oracle(a, frag):
    """The CLI's explore report text equals json.dumps of the report built
    with the oracle."""
    report = {"command": "explore", "input": matrix_to_json(a), "elapsed_seconds": 0.125}
    want = json.dumps({**report, "fragment": fragment_to_json(frag)}, indent=2, sort_keys=True)
    assert _encode({**report, "fragment": frag}) == want


def test_fragment_json():
    frag = explore(GM, 2)
    obj = fragment_to_json(frag)
    assert len(obj["vertices"]) == len(frag.vertices)
    assert len(obj["edges"]) == len(frag.edges)
    assert all(set(t) == {"e1", "e2", "e3"} for t in obj["triangles"])


def test_swap_loop_from_decomposition():
    # the symbol swap of the full 2-shift, decomposed into a loop and
    # recovered as the automorphism of that loop
    from ssecalc.codes import bijection_code, normalize
    from ssecalc.williams import decompose

    x = VertexShift(FULL2)
    swap = bijection_code(x, [1, 0])
    steps = decompose(swap)
    assert steps  # the swap is not the identity
    p = SSEPath(FULL2, tuple((s.edge, s.sign) for s in steps))
    assert p.is_loop
    assert equal_codes(automorphism_from_loop(p), swap)


def test_explore_experimental_counts():
    from ssecalc.factorize import factorizations_general

    a = NonnegMatrix([[2]])
    with pytest.raises(ResourceBoundError):
        explore(a, 1)  # entries above 1 need the flag
    frag = explore(a, 1, experimental_counts=True)
    pairs = {(e.r, e.s) for e in frag.edges}
    assert (NonnegMatrix([[1]]), NonnegMatrix([[2]])) in pairs
    assert (NonnegMatrix([[2]]), NonnegMatrix([[1]])) in pairs
    # on boolean inputs the general search agrees with the exact-cover one
    for inner in (1, 2):
        got = {
            (r, s)
            for r, s, b in factorizations_general(GM, inner, max_results=4000)
            if b.is_boolean
        }
        from ssecalc.factorize import factorizations

        want = {(r, s) for r, s, b in factorizations(GM, inner, max_results=4000)}
        assert got == want


def test_compose_path_is_functorial_on_concatenation():
    from ssecalc.codes import compose, normalize

    frag = explore(GM, 3)
    for e1 in frag.edges[:8]:
        for e2 in frag.edges[:8]:
            if e2.a != e1.b:
                continue
            p = SSEPath(e1.a, ((e1, 1),))
            q = SSEPath(e2.a, ((e2, 1),))
            joint = p.concat(q)
            assert equal_codes(
                compose_path(joint),
                normalize(compose(compose_path(q), compose_path(p))),
            )


def test_explore_depth_two_reaches_second_shell():
    frag1 = explore(GM, 2, depth=1)
    frag2 = explore(GM, 2, depth=2)
    assert set(map(id, frag1.vertices)) != set(map(id, frag2.vertices)) or len(
        frag2.edges
    ) >= len(frag1.edges)
    # every depth-1 vertex of size within bounds got expanded
    assert len(frag2.edges) > len(frag1.edges)
    sources = {e.a for e in frag2.edges}
    assert any(v != GM for v in sources)


def _reference_triangles(frag):
    """The plain O(E·deg²) scan: every e3 leaving e1's source is tried.
    Triangles are the edge positions (e1, e2, e3)."""
    by_source = {}
    for pos, e in enumerate(frag.edges):
        by_source.setdefault(e.a, []).append((pos, e))
    out = []
    for pos1, e1 in enumerate(frag.edges):
        for pos2, e2 in by_source.get(e1.b, ()):
            for pos3, e3 in by_source.get(e1.a, ()):
                if e3.b == e2.b and check_triangle(Triangle(e1, e2, e3)):
                    out.append((pos1, pos2, pos3))
    return out


def _random_base(rng, n):
    while True:
        m = NonnegMatrix([[rng.randint(0, 1) for _ in range(n)] for _ in range(n)])
        if is_nondegenerate(m):
            return m


@pytest.mark.parametrize(
    "a, max_inner, depth",
    [(GM, 3, 1), (GM, 3, 2), (FULL2, 4, 1), (FULL2, 3, 2)]
    + [(_random_base(random.Random(seed), 3), 4, 1) for seed in range(4)],
    ids=["gm-d1", "gm-d2", "full2-d1", "full2-d2", "rand0", "rand1", "rand2", "rand3"],
)
def test_explore_triangles_match_reference_scan(a, max_inner, depth):
    frag = explore(a, max_inner, depth=depth)
    want = _reference_triangles(frag)
    assert want
    assert frag.triangles == want


@pytest.mark.parametrize(
    "a, max_inner, counts",
    [(I2, 2, (1, 2, 2, 4)), (NonnegMatrix.identity(3), 3, (1, 6, 4, 36))],
    ids=["identity2", "identity3"],
)
def test_explore_records_a_self_reverse_edge_once(a, max_inner, counts):
    """An edge with R = S is its own reverse and is one edge of the
    fragment; counts are (vertices, edges, edges with R = S, triangles)."""
    frag = explore(a, max_inner)
    keys = [(e.r, e.s) for e in frag.edges]
    assert len(set(keys)) == len(keys)
    got = (len(frag.vertices), len(frag.edges), sum(r == s for r, s in keys), len(frag.triangles))
    assert got == counts
    assert frag.triangles == _reference_triangles(frag)
    _assert_report_matches_oracle(a, frag)


@pytest.mark.parametrize(
    "a, max_inner",
    [(NonnegMatrix([[2]]), 1), (NonnegMatrix([[2]]), 2), (FULL2, 2), (GM, 3)],
    ids=["two", "two-inner2", "full2", "gm"],
)
def test_explore_experimental_counts_triangles_match_reference_scan(a, max_inner):
    frag = explore(a, max_inner, experimental_counts=True)
    want = _reference_triangles(frag)
    assert want
    assert frag.triangles == want


@pytest.mark.parametrize(
    "a, max_inner, depth, counts",
    [(GM, 3, 1, False), (GM, 3, 2, False), (FULL2, 4, 1, False), (FULL2, 3, 2, False)]
    + [(_random_base(random.Random(seed), 3), 4, 1, False) for seed in range(4)]
    + [(I2, 2, 1, False), (NonnegMatrix.identity(3), 3, 1, False)]
    + [(NonnegMatrix([[2]]), 1, 1, True), (NonnegMatrix([[2]]), 2, 1, True), (FULL2, 2, 1, True)]
    + [(GM, 3, 1, True)],
    ids=["gm-d1", "gm-d2", "full2-d1", "full2-d2", "rand0", "rand1", "rand2", "rand3",
         "identity2", "identity3", "counts-two", "counts-two-inner2", "counts-full2",
         "counts-gm"],
)
def test_explore_triangles_are_closed_under_rotation(a, max_inner, depth, counts):
    """(x, y, z) is a triangle exactly when (y, r(z), r(x)) is, where r(e)
    is the edge (e.s, e.r), so every orbit of that rotation has 1 or 3
    members.  r is looked up by (S, R) here, and explore's positional rule
    (an edge's reverse is recorded right after it, or the edge is its own
    reverse) is checked against the lookup."""
    frag = explore(a, max_inner, depth=depth, experimental_counts=counts)
    position = {(e.r, e.s): pos for pos, e in enumerate(frag.edges)}
    r = [position[e.s, e.r] for e in frag.edges]
    positional = []
    while len(positional) < len(frag.edges):
        pos = len(positional)
        e = frag.edges[pos]
        positional += [pos] if e.r == e.s else [pos + 1, pos]
    assert positional == r
    triangles = set(frag.triangles)
    assert triangles and len(triangles) == len(frag.triangles)
    orbits = set()
    for x, y, z in frag.triangles:
        assert (y, r[z], r[x]) in triangles
        orbit = frozenset({(x, y, z), (y, r[z], r[x]), (r[z], x, r[y])})
        assert len(orbit) in (1, 3)
        orbits.add(orbit)
    assert sum(map(len, orbits)) == len(triangles)


@pytest.mark.parametrize(
    "a, max_inner, depth, counts",
    [(GM, 3, 2, False), (FULL2, 3, 2, False),
     (NonnegMatrix([[1, 1, 0], [0, 1, 1], [1, 1, 1]]), 4, 1, False),
     (NonnegMatrix([[2]]), 2, 1, True), (GM, 2, 1, True)],
    ids=["gm-d2", "full2-d2", "3x3-d1", "counts-two", "counts-gm"],
)
def test_explore_holds_one_object_per_matrix(a, max_inner, depth, counts):
    """Equal matrices among the vertices and the edges' A, B, R and S are
    one object, so a fragment holds each distinct matrix once."""
    frag = explore(a, max_inner, depth=depth, experimental_counts=counts)
    first = {}
    for m in frag.vertices + [x for e in frag.edges for x in (e.a, e.b, e.r, e.s)]:
        assert first.setdefault(matrix_value(m), m) is m
    assert frag.edges and len(first) > len(frag.vertices)


# (base, max_inner, depth, experimental_counts) of the encoded fragments
_FRAGMENTS = {
    "gm-d1": (GM, 3, 1, False),
    "gm-d2": (GM, 3, 2, False),
    "full2-d2": (FULL2, 3, 2, False),
    "zero": (NonnegMatrix([[0]]), 3, 1, False),
    "no-triangles": (NonnegMatrix([[0, 1, 1], [0, 1, 1], [1, 0, 1]]), 2, 1, False),
    "counts": (FULL2, 2, 1, True),
    "counts-wide-entries": (NonnegMatrix([[12]]), 2, 1, True),
    **{
        f"rand{seed}": (_random_base(random.Random(seed), 3), 4, 1, False)
        for seed in range(4)
    },
}


@pytest.fixture(params=list(_FRAGMENTS), scope="module")
def fragment(request):
    a, max_inner, depth, counts = _FRAGMENTS[request.param]
    frag = explore(a, max_inner, depth=depth, experimental_counts=counts)
    return request.param, a, frag


def test_fragment_text_is_json_dumps(fragment):
    name, a, frag = fragment
    _assert_report_matches_oracle(a, frag)
    obj = fragment_to_json(frag)
    if name == "zero":
        assert obj["edges"] == [] and obj["triangles"] == []
    if name == "no-triangles":
        assert obj["edges"] and obj["triangles"] == []
    if name == "counts":
        assert not all(e.is_boolean for e in frag.edges)
    if name == "counts-wide-entries":
        assert (len(obj["edges"]), len(obj["triangles"])) == (166, 357)


def _copy(m):
    """A matrix equal to m that is not m."""
    return NonnegMatrix(m.to_lists())


def _ones(rows, cols):
    return NonnegMatrix([[1] * cols for _ in range(rows)])


def _hand_built(with_triangles):
    """A fragment that explore does not make: vertices equal to, but not
    the same objects as, the edge endpoints, one vertex without edges, an
    edge whose R is another edge's S, {0,1} rows of 10 and 12 columns,
    and entries of 12.  The writer reads a triangle as three positions, so
    these need not pass check_triangle."""
    swap10 = NonnegMatrix.from_bool_rows(10, [1 << ((i + 1) % 10) for i in range(10)])
    twelve = NonnegMatrix([[12]])
    edges = [
        SSEEdge(GM, GM, GM, I2),
        SSEEdge(GM, GM, I2, GM),  # R is the S of the edge before
        SSEEdge(swap10, swap10, swap10, NonnegMatrix.identity(10)),
        DegSSEEdge(twelve, twelve, NonnegMatrix([[3]]), NonnegMatrix([[4]])),
        DegSSEEdge(twelve, _ones(12, 12), _ones(1, 12), _ones(12, 1)),
    ]
    vertices = [_copy(m) for m in (GM, swap10, twelve, _ones(12, 12), FULL2)]
    triangles = [(0, 1, 0), (1, 0, 1), (3, 4, 4)] if with_triangles else []
    return ComplexFragment(vertices, edges, triangles, 2, 12)


@pytest.mark.parametrize("with_triangles", [True, False], ids=["triangles", "no-triangles"])
def test_hand_built_fragment_text_is_json_dumps(with_triangles):
    _assert_report_matches_oracle(GM, _hand_built(with_triangles))


@pytest.mark.parametrize("count", [_BLOCK, _BLOCK + 1], ids=["one-block", "one-block-and-one"])
def test_fragment_listings_of_a_block_and_one_more_record(count):
    """count vertices [[k]], count edges and count triangles: every listing
    is exactly one block, or one block and one record."""
    vertices = [NonnegMatrix([[k]]) for k in range(count)]
    edges = [
        DegSSEEdge(_copy(v), _copy(v), _copy(v), ONE) for v in reversed(vertices)
    ]
    triangles = [(k, (k + 1) % count, (k * 7) % count) for k in range(count)]
    frag = ComplexFragment(vertices, edges, triangles, 1, 1)
    _assert_report_matches_oracle(ONE, frag)


def test_explore_triangles_pass_check_triangle(fragment):
    _, _, frag = fragment
    for t in frag.triangles:
        assert type(t) is tuple and len(t) == 3
        assert all(type(i) is int and 0 <= i < len(frag.edges) for i in t)
        e1, e2, e3 = (frag.edges[i] for i in t)
        # e1: A -> B, e2: B -> C, e3: A -> C
        assert e1.b == e2.a and e1.a == e3.a and e2.b == e3.b
        assert check_triangle(Triangle(e1, e2, e3))


# the benchmark's four deep explore inputs, the golden mean at depth 2,
# and two bases whose covers need inner dimension n + 1: (base, max_inner,
# depth) and the (vertices, edges, triangles) of their fragments
@pytest.mark.parametrize(
    "a, max_inner, depth, counts",
    [
        (GM, 3, 3, (8, 104, 960)),
        (FULL2, 3, 2, (13, 340, 4908)),
        (FULL2, 3, 3, (13, 340, 4908)),
        (GM, 4, 2, (104, 1256, 11328)),
        (GM, 3, 2, (8, 104, 960)),
        (NonnegMatrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]]), 4, 1, (74, 450, 2052)),
        (
            NonnegMatrix([[1, 1, 1, 0], [1, 0, 1, 1], [0, 1, 1, 1], [1, 1, 0, 1]]),
            5,
            1,
            (968, 5850, 26514),
        ),
    ],
    ids=["gm-d3", "full2-d2", "full2-d3", "gm-d2-inner4", "gm-d2", "cycle3-inner4",
         "near4-inner5"],
)
def test_deep_explore_counts(a, max_inner, depth, counts):
    frag = explore(a, max_inner, depth=depth)
    assert (len(frag.vertices), len(frag.edges), len(frag.triangles)) == counts
    _assert_report_matches_oracle(a, frag)


@pytest.mark.parametrize("max_size, counts", [(2, (8, 32, 96)), (3, (8, 104, 960))])
def test_explore_expands_only_vertices_within_max_size(max_size, counts):
    """The 3x3 vertices of the golden mean's first shell are recorded at
    max_size 2 but not expanded, so every edge has a 2x2 end."""
    frag = explore(GM, 3, depth=2, max_size=max_size)
    assert (len(frag.vertices), len(frag.edges), len(frag.triangles)) == counts
    assert all(min(e.a.rows, e.b.rows) <= max_size for e in frag.edges)
    assert frag.triangles == _reference_triangles(frag)


def test_golden_mean_at_depth_three_is_pinned():
    """The golden mean at depth 3 and max-inner 4: its counts, the sha256
    of its triangle list, and a bound on the memory the call allocates:
    the 76.2 MB tracemalloc peak of the scan before the edge index, plus
    5%.  The scan with the edge index peaks at 73.0 MB (CPython 3.11)."""
    tracemalloc.start()
    try:
        frag = explore(GM, 4, depth=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(frag.vertices), len(frag.edges), len(frag.triangles)) == (104, 10472, 591936)
    digest = hashlib.sha256(repr(frag.triangles).encode()).hexdigest()
    assert digest == "8788771adb8c95f8f88d576a17308a89dd41fa7e2677aba834a3649c0bc43045"
    assert peak < 80_000_000
