"""The acceptance gate: one test per criterion, exact integer checks
throughout (tolerance zero), one PASS/FAIL line printed per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines.
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations, product

from ssecalc.cayley import (
    FGGroupWindow,
    TableGroup,
    ZdGroup,
    reduction_schedule,
    verify_schedule,
)
from ssecalc.codes import (
    compose,
    equal_codes,
    identity_code,
    is_elementary,
    is_identity,
    normalize,
)
from ssecalc.complexes import SSEPath, compose_path, explore, homotopic
from ssecalc.degenerate import (
    DegSSEEdge,
    deg_triangulate,
    normalize_path,
    restrict_path_to_cores,
    to_strict_path,
)
from ssecalc.elementary import (
    SSEEdge,
    Triangle,
    check_triangle,
    code_from_edge,
    edge_from_code,
)
from ssecalc.factorize import factorizations
from ssecalc.freudenthal import (
    Chain,
    _subdivision_cells,
    boundary,
    chain_f,
    chain_rho,
    enumerate_subdivision,
    face_map,
)
from ssecalc.groups import cyclic_group, symmetric_group
from ssecalc.gsft import GroupRingMatrix, bar, hat, mul_gstar, product_in_gstar
from ssecalc.matrices import NonnegMatrix, core_indices, is_nondegenerate, mul
from ssecalc.refinement import AXIOM_NAMES, verify_refinement_axioms
from ssecalc.sampling import (
    edge_pool,
    random_deg_bool_edge,
    random_deg_pair,
    random_edge,
    random_conjugacy,
    random_nondeg_matrix,
    random_tuple,
)
from ssecalc.shifts import VertexShift
from ssecalc.williams import decompose

GM = NonnegMatrix([[1, 1], [1, 0]])
FULL2 = NonnegMatrix([[1, 1], [1, 1]])
I2 = NonnegMatrix.identity(2)


@contextmanager
def criterion(number, label):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL [{time.monotonic() - start:.1f}s]")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS [{time.monotonic() - start:.1f}s]")


def all_nondeg_matrices(size):
    out = []
    for bits in product((0, 1), repeat=size * size):
        m = NonnegMatrix([list(bits[i * size : (i + 1) * size]) for i in range(size)])
        if is_nondegenerate(m):
            out.append(m)
    return out


def check_local_rules(e, f):
    """Eq. of the forward rule: value b at (a,a') iff R[a,b]S[b,a'] = 1;
    mirrored for the inverse rule."""
    x, y = f.domain, f.codomain
    ftab = normalize(f).table_at(0, 1)
    for (a, a1), b in ftab.items():
        for c in range(y.alphabet_size):
            want = 1 if c == b else 0
            assert e.r.entry(a, c) * e.s.entry(c, a1) == want
    gtab = normalize(f.inverse).table_at(-1, 0)
    for (b, b1), a in gtab.items():
        for c in range(x.alphabet_size):
            want = 1 if c == a else 0
            assert e.s.entry(b, c) * e.r.entry(c, b1) == want


def random_valid_edge(rng, n, m, density):
    r = NonnegMatrix(
        [[1 if rng.random() < density else 0 for _ in range(m)] for _ in range(n)]
    )
    s = NonnegMatrix(
        [[1 if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]
    )
    if not (is_nondegenerate(r) and is_nondegenerate(s)):
        return None
    a = mul(r, s)
    b = mul(s, r)
    if a.is_boolean and b.is_boolean and is_nondegenerate(a) and is_nondegenerate(b):
        return SSEEdge(a, b, r, s)
    return None


def test_criterion_01_dictionary_roundtrip():
    with criterion(1, "dictionary roundtrip"):
        count = 0
        for size in (1, 2, 3):
            for a in all_nondeg_matrices(size):
                for inner in (1, 2, 3):
                    for r, s, b in factorizations(a, inner):
                        e = SSEEdge(a, b, r, s)
                        f = code_from_edge(e, verify=True)
                        assert edge_from_code(f) == e
                        check_local_rules(e, f)
                        count += 1
        assert count == 4993  # frozen from the exhaustive enumeration
        rng = random.Random(101)
        done = 0
        while done < 1000:
            if done < 700:
                n, m = rng.randint(1, 5), rng.randint(1, 5)
            else:
                n, m = rng.choice(((4, 4), (5, 4), (4, 5), (5, 5)))
            e = random_valid_edge(rng, n, m, 0.32 if max(n, m) >= 4 else 0.55)
            if e is None:
                continue
            f = code_from_edge(e, verify=True)
            assert edge_from_code(f) == e
            check_local_rules(e, f)
            done += 1


def sample_true_triangle(rng, want_alternative):
    """A commuting triangle of elementary codes on alphabets <= 4; with
    want_alternative, only return it when a different third edge exists."""
    while True:
        a = random_nondeg_matrix(rng, rng.randint(2, 4))
        if not edge_pool(a, 4):
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
        alternatives = []
        if want_alternative:
            alternatives = [
                SSEEdge(e3.a, e3.b, r, s)
                for r, s, b in factorizations(e3.a, e3.b.rows, max_results=4000)
                if b == e3.b and (r, s) != (e3.r, e3.s)
            ]
            if not alternatives:
                continue
        return Triangle(e1, e2, e3), alternatives


def test_criterion_02_triangle_equivalence():
    with criterion(2, "triangle equations iff commutation"):
        rng = random.Random(202)
        for _ in range(500):
            t, _ = sample_true_triangle(rng, want_alternative=False)
            assert check_triangle(t)
            assert equal_codes(
                compose(code_from_edge(t.e2, verify=False), code_from_edge(t.e1, verify=False)),
                code_from_edge(t.e3, verify=False),
            )
        for _ in range(500):
            t, alts = sample_true_triangle(rng, want_alternative=True)
            bad = Triangle(t.e1, t.e2, rng.choice(alts))
            assert not check_triangle(bad)
            assert not equal_codes(
                compose(code_from_edge(bad.e2, verify=False), code_from_edge(bad.e1, verify=False)),
                code_from_edge(bad.e3, verify=False),
            )


def test_criterion_03_williams_soundness():
    with criterion(3, "Williams decomposition recomposes"):
        rng = random.Random(303)
        for _ in range(200):
            base = random_nondeg_matrix(rng, rng.randint(2, 4))
            f = random_conjugacy(rng, base, rng.randint(1, 5), max_inner=4)
            steps = decompose(f)
            path = SSEPath(f.domain.matrix, tuple((s.edge, s.sign) for s in steps))
            assert equal_codes(compose_path(path), f)


def test_criterion_04_refinement_axioms():
    with criterion(4, "nine refinement axioms"):
        rng = random.Random(404)
        grouping_checked = 0
        arrow_checked = 0
        for i in range(100):
            base = GM if i % 2 == 0 else FULL2
            codes = random_tuple(rng, base, 1 + (i % 3))
            report = verify_refinement_axioms(codes, trials=2, seed=i)
            for name in AXIOM_NAMES:
                assert report[name].ok, (i, name, report[name].failures)
            grouping_checked += report["grouping"].checked
            arrow_checked += (
                report["arrow-left-pair"].checked
                + report["arrow-right-pair"].checked
                + report["arrow-delta"].checked
            )
        assert grouping_checked >= 100
        assert arrow_checked >= 200


def test_criterion_05_homotopy_decision():
    with criterion(5, "homotopy decided by composition"):
        # triangle boundaries and backtracks are null-homotopic
        for base, inner in ((GM, 3), (FULL2, 3)):
            frag = explore(base, inner)
            assert frag.triangles
            for t in frag.triangles:
                loop = SSEPath(t.e1.a, ((t.e1, 1), (t.e2, 1), (t.e3, -1)))
                assert is_identity(compose_path(loop))
                assert homotopic(loop, SSEPath(t.e1.a, ()))
            for e in frag.edges[:20]:
                p = SSEPath(e.a, ((e, 1),))
                q = SSEPath(e.a, ((e, 1), (e, -1), (e, 1)))
                assert homotopic(p, q)
        # distinct automorphisms at the full 2-shift are never homotopic
        sigma_edge = SSEEdge(FULL2, FULL2, FULL2, I2)
        swap_edge = SSEEdge(FULL2, FULL2, NonnegMatrix([[0, 1], [1, 0]]), FULL2)
        gens = (sigma_edge, swap_edge)
        rng = random.Random(505)

        def random_loop():
            steps = tuple(
                (rng.choice(gens), rng.choice((1, -1)))
                for _ in range(rng.randint(1, 6))
            )
            return SSEPath(FULL2, steps)

        done = 0
        while done < 100:
            p, q = random_loop(), random_loop()
            fp, fq = compose_path(p), compose_path(q)
            if fp == fq:
                assert homotopic(p, q)
                continue
            assert not homotopic(p, q)
            done += 1


def test_criterion_06_degenerate_reduction():
    with criterion(6, "degenerate reduction"):
        rng = random.Random(606)
        for _ in range(500):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            r, s, a, b = random_deg_pair(rng, n, m, max_entry=2)
            tri = deg_triangulate(DegSSEEdge(a, b, r, s))
            assert all(check_triangle(t) for t in tri.triangles)
            assert tri.equations_checked >= 24
        done = 0
        while done < 100:
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
            q = normalize_path(p)
            assert all(is_nondegenerate(v) for v in q.vertices())
            f_in = compose_path(to_strict_path(restrict_path_to_cores(p)))
            f_out = compose_path(to_strict_path(q))
            assert equal_codes(f_in, f_out)
            done += 1


# bar of [[e+a, a], [a^2, a^2]] over Z/3Z with the order (e, a, a^2); the
# (2,2) block carries the a^2-cycle prescribed by the entry a^2, i.e. the
# adjacency matrix of the six-vertex graph the matrix encodes
BAR_EXAMPLE = [
    [1, 1, 0, 0, 1, 0],
    [0, 1, 1, 0, 0, 1],
    [1, 0, 1, 1, 0, 0],
    [0, 0, 1, 0, 0, 1],
    [1, 0, 0, 1, 0, 0],
    [0, 1, 0, 0, 1, 0],
]


def test_criterion_07_gsft_example_and_multiplicativity():
    with criterion(7, "G-SFT bar example and multiplicativity"):
        z3 = cyclic_group(3)
        a = GroupRingMatrix(z3, [[{0, 1}, {1}], [{2}, {2}]])
        got = bar(a)
        expected = NonnegMatrix(BAR_EXAMPLE)
        assert got == expected, "bar example mismatch"
        assert hat(got, z3, (2, 2)) == a
        groups = (cyclic_group(2), z3, symmetric_group(3))
        rng = random.Random(707)
        in_gstar = 0
        while in_gstar < 500:
            g = rng.choice(groups)
            rows, inner, cols = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
            density = 0.35
            x = GroupRingMatrix(
                g,
                [
                    [
                        {h for h in range(g.order) if rng.random() < density}
                        for _ in range(inner)
                    ]
                    for _ in range(rows)
                ],
            )
            y = GroupRingMatrix(
                g,
                [
                    [
                        {h for h in range(g.order) if rng.random() < density}
                        for _ in range(cols)
                    ]
                    for _ in range(inner)
                ],
            )
            if product_in_gstar(x, y):
                assert mul(bar(x), bar(y)) == bar(mul_gstar(x, y))
                in_gstar += 1
            else:
                assert not mul(bar(x), bar(y)).is_boolean


def test_criterion_08_freudenthal_identities():
    with criterion(8, "Freudenthal identities"):
        rng = random.Random(808)
        for n in (1, 2, 3, 4):
            cells = enumerate_subdivision(n)
            assert len(cells) == 2**n
            assert len({v for c in cells for v in c.vertices}) == (n + 1) * (n + 2) // 2
            lhs = Chain()
            for cell in cells:
                for k in range(n + 1):
                    lhs.add(
                        cell.vertices[:k] + cell.vertices[k + 1 :],
                        cell.sign * (-1) ** k,
                    )
            rhs = Chain()
            for k in range(n + 1):
                for cell in _subdivision_cells(n - 1):
                    rhs.add(
                        tuple(face_map(k, p) for p in cell.vertices),
                        (-1) ** k * cell.sign,
                    )
            assert lhs == rhs
            simplices = list(combinations(range(n + 4), n + 1))
            for _ in range(100):
                c = Chain(
                    {rng.choice(simplices): rng.randint(-4, 4) for _ in range(5)}
                )
                got = boundary(chain_rho(chain_f(c))) + chain_rho(chain_f(boundary(c)))
                assert got == chain_f(c) - c


def power_oracle_core(a):
    n = a.rows
    alive = set(range(1, n + 1))
    p = NonnegMatrix.identity(n)
    for _ in range(n):
        p = mul(p, a)
        pt = p.transpose()
        alive &= {i for i in alive if p.row_mask(i - 1) and pt.row_mask(i - 1)}
    return tuple(sorted(alive))


def test_criterion_09_core_computation():
    with criterion(9, "core indices vs matrix-power oracle"):
        for bits in product((0, 1), repeat=16):
            a = NonnegMatrix([list(bits[i * 4 : (i + 1) * 4]) for i in range(4)])
            assert core_indices(a).members == power_oracle_core(a)
        rng = random.Random(909)
        for _ in range(1000):
            size = rng.randint(1, 6)
            a = NonnegMatrix(
                [[rng.randint(0, 1) for _ in range(size)] for _ in range(size)]
            )
            assert core_indices(a).members == power_oracle_core(a)


def test_criterion_10_cayley_schedules():
    with criterion(10, "Cayley window schedules"):
        z1 = ZdGroup(1)
        z2 = ZdGroup(2)
        s3 = TableGroup(symmetric_group(3))
        setups = (
            (z1, [(0,), (1,)]),
            (z2, [(0, 0), (1, 0), (0, 1)]),
            (s3, [0, 1, 2]),
        )
        rng = random.Random(1010)
        for i in range(200):
            ops, gens = setups[i % 3]
            sprime = sorted(set(gens) | {ops.inv(g) for g in gens})
            window = {ops.identity}
            target = rng.randint(1, 8 if ops is not s3 else 6)
            while len(window) < target:
                window.add(ops.op(rng.choice(sorted(window)), rng.choice(sprime)))
            w = FGGroupWindow(ops, gens, window)
            steps = reduction_schedule(w)
            assert len(steps) == len(w.window) - 1
            assert verify_schedule(w, steps)
