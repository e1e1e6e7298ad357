import random

import pytest

from ssecalc.codes import equal_codes
from ssecalc.complexes import SSEPath, compose_path, path_from_json, path_to_json
from ssecalc.degenerate import (
    DegSSEEdge,
    cancel_backtracks,
    deg_triangulate,
    normalize_path,
    restrict_edge,
    restrict_path_to_cores,
    restrict_triangle,
    to_strict_path,
)
from ssecalc.elementary import SSEEdge, Triangle, check_triangle, edge_from_json, edge_to_json
from ssecalc.errors import EmptyCoreError, InvalidEdgeError, VerificationError
from ssecalc.matrices import NonnegMatrix, is_nondegenerate, mul
from ssecalc.sampling import random_deg_bool_edge, random_deg_pair, random_nondeg_matrix

GM = NonnegMatrix([[1, 1], [1, 0]])
I2 = NonnegMatrix.identity(2)


def test_edge_validation():
    with pytest.raises(InvalidEdgeError):
        DegSSEEdge(GM, GM, I2, I2)


def test_nondegenerate_edge_triangulates_trivially():
    e = DegSSEEdge(GM, GM, GM, I2)
    tri = deg_triangulate(e)
    assert tri.k.is_full and tri.l.is_full
    assert tri.e_s == I2
    assert tri.midpoint == GM
    assert tri.top.a == GM and tri.top.b == GM


def test_spec_handmade_example():
    a = NonnegMatrix([[1, 1], [0, 0]])
    r = NonnegMatrix([[1], [0]])
    s = NonnegMatrix([[1, 1]])
    b = NonnegMatrix([[1]])
    tri = deg_triangulate(DegSSEEdge(a, b, r, s))
    assert tri.k.members == (1,)
    assert tri.l.members == (1,)
    assert all(check_triangle(t) for t in tri.triangles)
    assert tri.equations_checked >= 24


def test_zero_matrix_rejected():
    z = NonnegMatrix([[0]])
    e = DegSSEEdge(z, z, z, z)
    with pytest.raises(EmptyCoreError):
        deg_triangulate(e)


def test_random_degenerate_triangulations():
    rng = random.Random(0)
    for _ in range(150):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        r, s, a, b = random_deg_pair(rng, n, m)
        tri = deg_triangulate(DegSSEEdge(a, b, r, s))
        assert all(check_triangle(t) for t in tri.triangles)
        # key identities from the construction
        assert mul(tri.e_s, s) == s
        assert mul(tri.e_s, b) == b


def test_restrict_triangle_nondegenerate_unchanged():
    e = DegSSEEdge(GM, GM, GM, I2)
    t = Triangle(e, DegSSEEdge(GM, GM, I2, GM), e)
    assert check_triangle(t)
    assert restrict_triangle(t) == t


def test_restrict_triangle_with_sink():
    # B gains a dead symbol through the factorization; restriction heals it
    a = GM
    r_pad = NonnegMatrix([[1, 0, 1], [0, 1, 0]])
    s_pad = NonnegMatrix([[1, 1], [1, 0], [0, 0]])
    b_pad = mul(s_pad, r_pad)
    assert not is_nondegenerate(b_pad)
    e_pad = DegSSEEdge(a, b_pad, r_pad, s_pad)
    rt = restrict_edge(e_pad)
    assert is_nondegenerate(rt.b)
    t2 = Triangle(e_pad, DegSSEEdge(b_pad, a, s_pad, r_pad), DegSSEEdge(a, a, I2, a))
    if check_triangle(t2):
        rt2 = restrict_triangle(t2)
        assert check_triangle(rt2)


def test_restrict_triangle_from_triangulations():
    rng = random.Random(1)
    done = 0
    while done < 40:
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        r, s, a, b = random_deg_pair(rng, n, m)
        try:
            tri = deg_triangulate(DegSSEEdge(a, b, r, s))
        except EmptyCoreError:
            continue
        for t in tri.triangles:
            try:
                rt = restrict_triangle(t)
            except EmptyCoreError:
                continue
            assert check_triangle(rt)
            done += 1


def test_restrict_commutes_with_transpose():
    rng = random.Random(2)
    done = 0
    while done < 30:
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        r, s, a, b = random_deg_pair(rng, n, m)
        e = DegSSEEdge(a, b, r, s)
        try:
            lhs = restrict_edge(e.transposed())
            rhs = restrict_edge(e).transposed()
        except EmptyCoreError:
            continue
        assert lhs == rhs
        done += 1


def sample_deg_path(rng, want_degenerate=True):
    for _ in range(400):
        a0 = random_nondeg_matrix(rng, rng.randint(2, 4))
        steps = []
        cur = a0
        try:
            for _ in range(rng.randint(1, 3)):
                r, s, b = random_deg_bool_edge(rng, cur, extra_slots=1)
                edge = DegSSEEdge(cur, b, r, s)
                if rng.random() < 0.3:
                    steps.append((edge.reversed(), -1))
                else:
                    steps.append((edge, 1))
                cur = b
        except ValueError:
            continue
        if not is_nondegenerate(cur):
            continue
        p = SSEPath(a0, tuple(steps))
        deg = not all(is_nondegenerate(v) for v in p.vertices())
        if deg == want_degenerate:
            return p
    raise AssertionError("sampling failed")


def test_path_vertices_and_transpose():
    rng = random.Random(6)
    strict = SSEPath(GM, ((SSEEdge(GM, GM, I2, GM), 1), (SSEEdge(GM, GM, GM, I2), -1)))
    paths = [strict] + [sample_deg_path(rng, want_degenerate=rng.random() < 0.5) for _ in range(10)]
    for p in paths:
        assert p.end == p.vertices()[-1]
        assert p.base == p.vertices()[0]
        assert len(p.vertices()) == len(p.steps) + 1
        assert p.transposed().transposed() == p
        assert p.transposed().vertices() == [v.transpose() for v in p.vertices()]
    assert all(type(e) is SSEEdge for e, _ in strict.transposed().steps)


def test_normalize_path_idempotent_on_nondegenerate():
    rng = random.Random(3)
    p = sample_deg_path(rng, want_degenerate=False)
    assert normalize_path(p) == p


def test_single_degenerate_midpoint_two_steps():
    # out to a degenerate presentation and back: the normalization keeps the
    # nondegenerate endpoints and detours through the restricted midpoint
    a = GM
    r = NonnegMatrix([[1, 0, 1], [0, 1, 0]])
    s = NonnegMatrix([[1, 1], [1, 0], [0, 0]])
    m = mul(s, r)
    assert not is_nondegenerate(m)
    e = DegSSEEdge(a, m, r, s)
    p = SSEPath(a, ((e, 1), (e.reversed(), 1)))
    q = normalize_path(p)
    assert len(q.steps) == 2
    assert all(is_nondegenerate(v) for v in q.vertices())
    f_in = compose_path(to_strict_path(restrict_path_to_cores(p)))
    f_out = compose_path(to_strict_path(q))
    assert equal_codes(f_in, f_out)


def test_normalize_path_random_composites_agree():
    rng = random.Random(4)
    for _ in range(15):
        p = sample_deg_path(rng)
        q = normalize_path(p)
        assert all(is_nondegenerate(v) for v in q.vertices())
        f_in = compose_path(to_strict_path(restrict_path_to_cores(p)))
        f_out = compose_path(to_strict_path(q))
        assert equal_codes(f_in, f_out)


def test_cancel_backtracks():
    e = DegSSEEdge(GM, GM, GM, I2)
    assert cancel_backtracks([(e, 1), (e, -1)]) == ()
    assert cancel_backtracks([(e, 1), (e, 1)]) == ((e, 1), (e, 1))


def test_deg_edge_json_roundtrip():
    a = NonnegMatrix([[1, 1], [0, 0]])
    e = DegSSEEdge(a, NonnegMatrix([[1]]), NonnegMatrix([[1], [0]]), NonnegMatrix([[1, 1]]))
    obj = edge_to_json(e, degenerate=True)
    assert obj["degenerate"] is True
    assert type(edge_from_json(obj, degenerate=True)) is DegSSEEdge
    assert edge_from_json(obj, degenerate=True) == e
    with pytest.raises(InvalidEdgeError):
        edge_from_json(obj)  # A is degenerate, so not a strict SSEEdge
    for p in (SSEPath(a, ((e, 1), (e, -1))), SSEPath(a, ())):
        obj = path_to_json(p, degenerate=True)
        assert obj["degenerate"] is True
        assert all(st["edge"]["degenerate"] is True for st in obj["steps"])
        assert path_from_json(obj, degenerate=True) == p


def test_one_application_may_leave_zero_rows():
    # restriction to nonzero rows is not idempotent: a row can lose its
    # whole support to removed columns; path normalization iterates
    a = NonnegMatrix([[0, 1, 0], [0, 0, 0], [0, 1, 1]])
    e = DegSSEEdge(a, a, a, NonnegMatrix.identity(3))
    tri = deg_triangulate(e)
    assert all(check_triangle(t) for t in tri.triangles)
    assert any(tri.top.a.row_mask(i) == 0 for i in range(tri.top.a.rows))
