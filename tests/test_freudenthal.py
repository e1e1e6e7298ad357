import json
import random
import time
from itertools import combinations, permutations, product

import pytest

from ssecalc.cli import main
from ssecalc.codes import identity_code, normalize, shift_code
from ssecalc.errors import ResourceBoundError
from ssecalc.freudenthal import (
    MAX_SUBDIVISION_DIMENSION,
    Chain,
    InvalidChainError,
    InvalidComplexError,
    OracleUndefinedError,
    OrderedComplex,
    PairVertex,
    _perm_sign,
    _subdivision_cells,
    boundary,
    chain_f,
    chain_rho,
    check_subdivision,
    enumerate_subdivision,
    face_map,
    make_pair,
    split_pair,
    subdivision_operator,
    theta,
    theta_inverse,
)
from ssecalc.matrices import NonnegMatrix
from ssecalc.refinement import equivalent, refine_representative
from ssecalc.shifts import VertexShift


def test_theta_examples():
    assert theta(0, 0, 4) == (0, 0, 0, 0)
    assert theta(1, 3, 5) == (2, 1, 1, 0, 0)
    assert theta(1, 5, 5) == (2, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        theta(2, 1, 3)


def test_theta_midpoint():
    for n in (2, 4):
        for i in range(n + 1):
            for j in range(i, n + 1):
                a, b, mid = theta(i, i, n), theta(j, j, n), theta(i, j, n)
                assert all(2 * mid[k] == a[k] + b[k] for k in range(n))


def test_theta_inverse():
    for n in (1, 3, 5):
        for i in range(n + 1):
            for j in range(i, n + 1):
                assert theta_inverse(theta(i, j, n)) == (i, j)


def in_standard_simplex(point):
    """Membership in {2 >= x_1 >= ... >= x_n >= 0}."""
    prev = 2
    for x in point:
        if x > prev or x < 0:
            return False
        prev = x
    return True


def brute_force_cells(n):
    """Directly enumerate all (base, permutation) simplices inside the
    simplex, independent of the production enumeration order."""
    out = set()
    for base in product((0, 1), repeat=n):
        for perm in permutations(range(1, n + 1)):
            verts = [tuple(base)]
            for p in perm:
                v = list(verts[-1])
                v[p - 1] += 1
                verts.append(tuple(v))
            if all(in_standard_simplex(v) for v in verts):
                out.add(tuple(verts))
    return out


def test_subdivision_counts_and_oracle():
    for n in (1, 2, 3, 4):
        cells = enumerate_subdivision(n)
        assert len(cells) == 2**n
        verts = {v for c in cells for v in c.vertices}
        assert len(verts) == (n + 1) * (n + 2) // 2
        assert {c.vertices for c in cells} == brute_force_cells(n)


def test_generated_cells_match_brute_force():
    for n in range(1, 7):
        cells = _subdivision_cells(n)
        assert {c.vertices for c in cells} == brute_force_cells(n)
        assert list(cells) == sorted(cells, key=lambda c: (c.base, c.perm))
        assert all(c.sign == _perm_sign(c.perm) for c in cells)


def test_enumerate_subdivision_returns_a_fresh_list():
    cells = enumerate_subdivision(3)
    want = list(cells)
    cells.clear()
    assert enumerate_subdivision(3) == want
    assert enumerate_subdivision(3) is not enumerate_subdivision(3)


def test_dimension_bound():
    with pytest.raises(ResourceBoundError, match=str(MAX_SUBDIVISION_DIMENSION)):
        _subdivision_cells(MAX_SUBDIVISION_DIMENSION + 1)
    with pytest.raises(ResourceBoundError):
        chain_f(Chain({tuple(range(MAX_SUBDIVISION_DIMENSION + 2)): 1}))


def _det_by_permutations(rows):
    """Leibniz expansion, each term signed by its count of inversions."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = (-1) ** inversions
        for r in range(n):
            term *= rows[r][perm[r]]
        total += term
    return total


def test_signs_match_determinant():
    # a cell's sign is the determinant of its consecutive vertex steps
    for n in range(1, 7):
        for c in enumerate_subdivision(n):
            steps = [
                [c.vertices[k + 1][i] - c.vertices[k][i] for i in range(n)]
                for k in range(n)
            ]
            assert _det_by_permutations(steps) == c.sign


def test_boundary_squares_to_zero():
    rng = random.Random(0)
    simps = list(combinations(range(6), 3))
    c = Chain({rng.choice(simps): rng.randint(-4, 4) for _ in range(5)})
    assert not boundary(boundary(c))


def test_f_on_point_and_edge():
    c = Chain({("v",): 1})
    assert chain_f(c) == c
    e = Chain({("v", "w"): 1})
    fe = chain_f(e)
    assert fe.coeffs == {
        ("v", PairVertex("v", "w")): 1,
        (PairVertex("v", "w"), "w"): 1,
    }


def test_f_is_chain_map():
    rng = random.Random(1)
    for m in (1, 2, 3):
        simps = list(combinations(range(m + 3), m + 1))
        for _ in range(10):
            c = Chain({rng.choice(simps): rng.randint(-3, 3) for _ in range(4)})
            assert boundary(chain_f(c)) == chain_f(boundary(c))


def test_rho_on_vertex():
    # the cone term [v, (v,v)] has a repeated vertex after the diagonal
    # identification, so it is annihilated; the homotopy identity on a
    # 0-simplex then reads 0 = F([v]) - [v], which holds
    c = Chain({(make_pair("v", "v"),): 1})
    assert not chain_rho(c)
    assert boundary(chain_rho(chain_f(c))) + chain_rho(chain_f(boundary(c))) == chain_f(c) - c


def flatten_to_first(c):
    """Project pair vertices to their first components (kills degenerates)."""
    out = Chain()
    for simplex, coeff in c.coeffs.items():
        out.add(tuple(split_pair(x)[0] for x in simplex), coeff)
    return out


def test_rho_boundary_identity_on_subdivision_simplices():
    # d∘rho + rho∘d sends s to s - [first components]
    rng = random.Random(2)
    for m in (1, 2, 3):
        for cell in _subdivision_cells(m):
            simplex = tuple(
                make_pair(("p", i), ("p", j))
                for (i, j) in (theta_inverse(p) for p in cell.vertices)
            )
            if len(set(simplex)) != len(simplex):
                continue
            c = Chain({simplex: 1})
            got = boundary(chain_rho(c)) + chain_rho(boundary(c))
            want = c - flatten_to_first(c)
            assert got == want


def test_chain_homotopy_random():
    rng = random.Random(3)
    for m in (1, 2, 3, 4):
        simps = list(combinations(range(m + 3), m + 1))
        for _ in range(10):
            c = Chain({rng.choice(simps): rng.randint(-3, 3) for _ in range(4)})
            lhs = boundary(chain_rho(chain_f(c))) + chain_rho(chain_f(boundary(c)))
            assert lhs == chain_f(c) - c


def test_chain_map_identity_lattice():
    for m in (1, 2, 3, 4):
        lhs = Chain()
        for cell in _subdivision_cells(m):
            for k in range(m + 1):
                lhs.add(cell.vertices[:k] + cell.vertices[k + 1 :], cell.sign * (-1) ** k)
        rhs = Chain()
        for k in range(m + 1):
            for cell in _subdivision_cells(m - 1):
                rhs.add(tuple(face_map(k, p) for p in cell.vertices), (-1) ** k * cell.sign)
        assert lhs == rhs


def test_check_subdivision():
    for n in (1, 2, 3):
        check = check_subdivision(n, trials=3, seed=n)
        assert check.ok
        assert check.cells == 2**n and check.vertices == (n + 1) * (n + 2) // 2


def test_freudenthal_check_dimension_bound(tmp_path):
    out = tmp_path / "out.json"
    start = time.monotonic()
    code = main(["freudenthal-check", "--dimension", str(MAX_SUBDIVISION_DIMENSION + 1),
                 "--output", str(out)])
    assert time.monotonic() - start < 5
    rep = json.loads(out.read_text())
    assert code == 3 and rep["kind"] == "bound"
    assert str(MAX_SUBDIVISION_DIMENSION) in rep["error"]
    code = main(["freudenthal-check", "--dimension", "0", "--output", str(out)])
    assert code == 2 and json.loads(out.read_text())["kind"] == "input"


def test_ordered_complex_validation():
    with pytest.raises(InvalidComplexError):
        OrderedComplex(["a"], [("a", "a")], [])
    with pytest.raises(InvalidComplexError):
        OrderedComplex(["a", "b"], [("a", "b"), ("b", "a")], [])
    k = OrderedComplex(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")], [("a", "b", "c")])
    assert k.has_simplex(("a", "c"))
    with pytest.raises(InvalidChainError):
        k.chain({("c", "a"): 1})
    c = k.chain({("a", "b", "c"): 2})
    assert boundary(c).coeffs == {("b", "c"): 2, ("a", "c"): -2, ("a", "b"): 2}


def _code_complex():
    x = VertexShift(NonnegMatrix([[1, 1], [1, 0]]))
    phi0 = normalize(identity_code(x))
    phi1 = normalize(shift_code(x, 1))
    return x, phi0, phi1


def test_subdivision_operator_vertex():
    x, phi0, _ = _code_complex()
    out, report = subdivision_operator(Chain({(phi0,): 1}), refine_representative)
    assert len(out.coeffs) == 1
    ((simplex, coeff),) = out.coeffs.items()
    assert coeff == 1 and len(simplex) == 1
    assert equivalent(simplex[0], phi0)


def test_subdivision_operator_edge():
    x, phi0, phi1 = _code_complex()
    # phi0 -> phi1 since phi1∘phi0^{-1} = sigma is elementary
    out, report = subdivision_operator(Chain({(phi0, phi1): 1}), refine_representative)
    assert report.type_two + report.type_one + report.dropped_degenerate == 2
    d01 = refine_representative(phi0, phi1)
    d00 = refine_representative(phi0, phi0)
    d11 = refine_representative(phi1, phi1)
    assert out.coeffs == {(d00, d01): 1, (d01, d11): 1}


def test_subdivision_operator_chain_triangle_collapses():
    # a chain of refinements id -> delta(id, sigma) -> sigma has all its
    # pairwise joins in one equivalence class, so the subdivided 2-simplex
    # degenerates entirely
    x, phi0, phi1 = _code_complex()
    from ssecalc.refinement import delta

    mid = delta([phi0, phi1]).delta
    out, report = subdivision_operator(
        Chain({(phi0, mid, phi1): 1}), refine_representative
    )
    assert not out and report.dropped_degenerate == 4


def test_subdivision_operator_proper_triangle_lands_in_ktag():
    # a commuting triangle of proper elementary conjugacies: its pairwise
    # joins are three distinct classes and all four cells survive
    from ssecalc.codes import compose
    from ssecalc.elementary import SSEEdge, code_from_edge

    from ssecalc.matrices import mul

    a = NonnegMatrix([[1, 1, 1], [0, 0, 1], [1, 1, 0]])
    r1 = NonnegMatrix([[0, 1, 1, 0], [0, 0, 0, 1], [1, 1, 0, 0]])
    s1 = NonnegMatrix([[0, 1, 0], [1, 0, 0], [0, 1, 1], [0, 0, 1]])
    b = mul(s1, r1)
    f1 = code_from_edge(SSEEdge(a, b, r1, s1))
    r2 = NonnegMatrix([[0, 0, 0, 1], [0, 0, 1, 0], [1, 1, 0, 0], [0, 1, 0, 0]])
    s2 = NonnegMatrix([[0, 0, 0, 1], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]])
    f2 = code_from_edge(SSEEdge(b, mul(s2, r2), r2, s2))
    phi0 = normalize(identity_code(f1.domain))
    phi1 = normalize(f1)
    phi2 = normalize(compose(f2, f1))
    out, report = subdivision_operator(
        Chain({(phi0, phi1, phi2): 1}), refine_representative
    )
    assert report.type_one == 1 and report.type_two == 3
    assert report.flagged_zero_ell == 1
    assert len(out.coeffs) == 4
    for simplex in out.coeffs:
        assert len(simplex) == 3


def test_subdivision_operator_reports_missing_pairs():
    x, phi0, phi1 = _code_complex()

    def broken(u, v):
        return None

    with pytest.raises(OracleUndefinedError):
        subdivision_operator(Chain({(phi0, phi1): 1}), broken)
