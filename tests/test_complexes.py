import json
import random

import pytest

from ssecalc.cli import _encode
from ssecalc.codes import equal_codes, identity_code, is_identity, shift_code
from ssecalc.complexes import (
    SSEPath,
    automorphism_from_loop,
    compose_path,
    explore,
    fragment_to_json,
    fragment_to_text,
    homotopic,
    path_from_json,
    path_to_json,
)
from ssecalc.elementary import SSEEdge, Triangle, check_triangle, code_from_edge, edge_from_code
from ssecalc.errors import InvalidEdgeError, ResourceBoundError
from ssecalc.matrices import NonnegMatrix, is_nondegenerate, matrix_to_json
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


def test_triangle_boundary_composes_to_identity():
    # e1; e2; then e3 backwards is a loop homotopic to a point
    frag = explore(GM, 3)
    tris = [t for t in frag.triangles if check_triangle(t)]
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
    t = next(t for t in frag.triangles if check_triangle(t))
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


def _reference_triangles(frag, make_triangle, check):
    """The plain O(E·deg²) scan: every e3 leaving e1's source is tried."""
    by_source = {}
    for e in frag.edges:
        by_source.setdefault(e.a, []).append(e)
    out = []
    for e1 in frag.edges:
        for e2 in by_source.get(e1.b, ()):
            for e3 in by_source.get(e1.a, ()):
                if e3.b != e2.b:
                    continue
                t = make_triangle(e1, e2, e3)
                if check(t):
                    out.append(t)
    return out


def _edge_indices(frag, triangles):
    index = {id(e): i for i, e in enumerate(frag.edges)}
    return [(index[id(t.e1)], index[id(t.e2)], index[id(t.e3)]) for t in triangles]


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
    want = _reference_triangles(frag, Triangle, check_triangle)
    assert want
    assert _edge_indices(frag, frag.triangles) == _edge_indices(frag, want)


@pytest.mark.parametrize(
    "a, max_inner", [(NonnegMatrix([[2]]), 1), (FULL2, 2)], ids=["two", "full2"]
)
def test_explore_experimental_counts_triangles_match_reference_scan(a, max_inner):
    frag = explore(a, max_inner, experimental_counts=True)
    want = _reference_triangles(frag, Triangle, check_triangle)
    assert want
    assert _edge_indices(frag, frag.triangles) == _edge_indices(frag, want)


# (base, max_inner, depth, experimental_counts) of the encoded fragments
_FRAGMENTS = {
    "gm-d1": (GM, 3, 1, False),
    "gm-d2": (GM, 3, 2, False),
    "full2-d2": (FULL2, 3, 2, False),
    "zero": (NonnegMatrix([[0]]), 3, 1, False),
    "no-triangles": (NonnegMatrix([[0, 1, 1], [0, 1, 1], [1, 0, 1]]), 2, 1, False),
    "counts": (FULL2, 2, 1, True),
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
    obj = fragment_to_json(frag)
    assert fragment_to_text(frag) == json.dumps(obj, indent=2, sort_keys=True)
    report = {"command": "explore", "input": matrix_to_json(a), "elapsed_seconds": 0.125}
    want = json.dumps({**report, "fragment": obj}, indent=2, sort_keys=True)
    assert _encode({**report, "fragment": frag}) == want
    if name == "zero":
        assert obj["edges"] == [] and obj["triangles"] == []
    if name == "no-triangles":
        assert obj["edges"] and obj["triangles"] == []
    if name == "counts":
        assert not all(e.is_boolean for e in frag.edges)


def test_explore_triangles_pass_check_triangle(fragment):
    _, _, frag = fragment
    assert all(check_triangle(t) for t in frag.triangles)
    edges = set(map(id, frag.edges))
    assert all({id(t.e1), id(t.e2), id(t.e3)} <= edges for t in frag.triangles)
