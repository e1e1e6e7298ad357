"""The forward fold of a path.

compose_path is checked against the two-chain fold it replaced, on the
paths of decompose and on random signed walks in an explore fragment;
homotopic's verdicts are checked against that oracle, and its work is
pinned by counting compositions.  The reports of the commands that
compose paths are pinned byte for byte on fixed inputs."""

import hashlib
import json
import random
import re

import pytest

from ssecalc import codes
from ssecalc.cli import main
from ssecalc.codes import code_to_json, compose, identity_code, normalize
from ssecalc.complexes import SSEPath, compose_path, explore, homotopic, path_to_json
from ssecalc.elementary import DegSSEEdge, SSEEdge, code_from_edge
from ssecalc.matrices import NonnegMatrix, mul
from ssecalc.sampling import random_conjugacy, random_nondeg_matrix
from ssecalc.shifts import VertexShift
from ssecalc.williams import decompose

GM = NonnegMatrix([[1, 1], [1, 0]])
FULL2 = NonnegMatrix([[1, 1], [1, 1]])
SWAP = NonnegMatrix([[0, 1], [1, 0]])
I2 = NonnegMatrix.identity(2)


def two_chain_fold(p: SSEPath):
    """The oracle: every prefix composed together with its inverse chain,
    then normalized, one step at a time."""
    cur = identity_code(VertexShift(p.base))
    for edge, sign in p.steps:
        c = code_from_edge(edge, verify=False)
        cur = normalize(compose(c if sign == 1 else c.inverse, cur))
    return cur


def _conjugacy(rng: random.Random):
    """A random conjugacy on a 2- or 3-symbol base whose window and inverse
    window are at most 5 wide together, so decompose stays fast."""
    while True:
        base = random_nondeg_matrix(rng, rng.randint(2, 3))
        f = random_conjugacy(rng, base, rng.randint(1, 4), max_inner=3)
        if f.width + normalize(f.inverse).width <= 5:
            return f


def _decomposed(f) -> SSEPath:
    return SSEPath(f.domain.matrix, tuple((s.edge, s.sign) for s in decompose(f)))


def decompose_paths(seed: int, count: int) -> list[SSEPath]:
    rng = random.Random(seed)
    return [_decomposed(_conjugacy(rng)) for _ in range(count)]


FRAGMENT = explore(GM, 2, depth=2)


def _moves(edges, vertex: NonnegMatrix) -> list:
    """The signed steps out of vertex along edges: forwards along an edge
    out of it, backwards along an edge into it."""
    return [(e, 1) for e in edges if e.a == vertex] + [(e, -1) for e in edges if e.b == vertex]


def walk(rng: random.Random, start: NonnegMatrix, length: int) -> SSEPath:
    """A random signed walk in FRAGMENT."""
    steps, cur = [], start
    for _ in range(length):
        e, s = rng.choice(_moves(FRAGMENT.edges, cur))
        steps.append((e, s))
        cur = e.b if s == 1 else e.a
    return SSEPath(start, tuple(steps))


def walks(seed: int, count: int) -> list[SSEPath]:
    rng = random.Random(seed)
    return [walk(rng, rng.choice(FRAGMENT.vertices), rng.randint(0, 6)) for _ in range(count)]


def _assert_same_tables(p: SSEPath):
    got, want = compose_path(p), two_chain_fold(p)
    for f, g in ((got, want), (got.inverse, want.inverse)):
        assert (f.domain, f.codomain, f.window) == (g.domain, g.codomain, g.window)
        assert list(f.table.items()) == list(g.table.items())
    assert got.inverse.inverse is got


@pytest.mark.parametrize("seed", range(3))
def test_compose_path_matches_the_two_chain_fold_on_decompose_paths(seed):
    paths = decompose_paths(seed, 4)
    assert any(p.steps for p in paths)
    for p in paths:
        _assert_same_tables(p)


def test_compose_path_matches_the_two_chain_fold_on_signed_walks():
    paths = walks(7, 60)
    assert any(s == -1 for p in paths for _, s in p.steps)
    for p in paths:
        _assert_same_tables(p)


def _with_backtracks(rng: random.Random, p: SSEPath) -> SSEPath:
    """p with a few backtracks (e, s)(e, -s) inserted, along edges of p or
    of FRAGMENT: homotopic to p."""
    steps = list(p.steps)
    edges = FRAGMENT.edges + [e for e, _ in p.steps]
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(steps))
        e, s = rng.choice(_moves(edges, SSEPath(p.base, tuple(steps[:at])).end))
        steps[at:at] = [(e, s), (e, -s)]
    return SSEPath(p.base, tuple(steps))


def _loop_pairs(seed: int, count: int):
    """Loops at GM, each paired with the empty loop: a walk out, then back
    along the reverse of a second walk that ends where the first does."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = walk(rng, GM, rng.randint(1, 3))
        q = walk(rng, GM, rng.randint(1, 3))
        if p.end == q.end:
            out.append((p.concat(q.reversed()), SSEPath(GM, ())))
    return out


def test_homotopic_verdicts_match_the_oracle():
    rng = random.Random(11)
    paths = walks(12, 20) + [p for p in decompose_paths(13, 3) if p.steps]
    pairs = [(p, _with_backtracks(rng, p)) for p in paths]
    pairs += _loop_pairs(14, 30)
    verdicts = []
    for p, q in pairs:
        want = two_chain_fold(p) == two_chain_fold(q)
        assert homotopic(p, q) is want
        assert homotopic(q, p) is want
        verdicts.append(want)
    assert True in verdicts and False in verdicts


def test_homotopic_composes_once_per_step(monkeypatch):
    calls = []
    compose_data = codes._compose_data

    def counted(g, f):
        calls.append(1)
        return compose_data(g, f)

    monkeypatch.setattr(codes, "_compose_data", counted)
    rng = random.Random(21)
    paths = walks(22, 10) + [p for p in decompose_paths(23, 2) if p.steps]
    pairs = [(p, _with_backtracks(rng, p)) for p in paths]
    for p, q in pairs + _loop_pairs(24, 5):
        calls.clear()
        homotopic(p, q)
        assert len(calls) == max(0, len(p.steps) - 1) + max(0, len(q.steps) - 1)


# -- reports pinned byte for byte ---------------------------------------


def _report_digest(tmp_path, command: str, obj: dict) -> tuple[int, str]:
    """The exit status and the sha256 of the report's bytes without its
    elapsed_seconds line."""
    src, out = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(json.dumps(obj))
    status = main([command, "--input", str(src), "--output", str(out)])
    text = re.sub(r'\n  "elapsed_seconds": [^\n]*', "", out.read_text())
    return status, hashlib.sha256(text.encode()).hexdigest()


def _pinned_inputs():
    """(name, command, input object) for every pinned report."""
    out = []
    paths = [SSEPath(GM, ())] + decompose_paths(35, 2) + walks(32, 6)[3:]
    for i, p in enumerate(paths):
        out.append((f"compose-path-{i}", "compose-path", path_to_json(p)))
    rng = random.Random(33)
    for i in range(5):
        out.append((f"decompose-{i}", "decompose", code_to_json(_conjugacy(rng))))
    # loops at the full 2-shift; the first edge's code is the shift map
    shift, swap = SSEEdge(FULL2, FULL2, FULL2, I2), SSEEdge(FULL2, FULL2, SWAP, FULL2)
    p = ((swap, 1), (shift, -1))
    for name, q in (
        ("true", ((swap, 1), (shift, 1), (swap, -1), (swap, 1), (shift, -1), (shift, -1))),
        ("false", ((swap, 1), (shift, 1), (swap, 1))),
    ):
        obj = {"p": path_to_json(SSEPath(FULL2, p)), "q": path_to_json(SSEPath(FULL2, q))}
        out.append((f"homotopic-{name}", "homotopic", obj))
    r = NonnegMatrix([[1, 0, 1], [0, 1, 0]])
    s = NonnegMatrix([[1, 1], [1, 0], [0, 0]])
    e = DegSSEEdge(GM, mul(s, r), r, s)
    detour = SSEPath(GM, ((e, 1), (e.reversed(), 1)))
    out.append(("normalize-degenerate-0", "normalize-degenerate", path_to_json(detour, True)))
    return out


INPUTS = {name: (command, obj) for name, command, obj in _pinned_inputs()}

# (exit status, sha256) of each report, made by the two-chain fold
PINNED = {
    'compose-path-0': (0, 'fd3ad5f5057701b00645a1c37ba0574e59a838bef765c6efe8e2912c397ab607'),
    'compose-path-1': (0, '00f7b845ac01786f8357389c3ef8c0424320270239c195f06918887e1a857fab'),
    'compose-path-2': (0, '5064aa9b3c10555080ffe756463838f8a0f31b2cdd15328514f9169f3e61de76'),
    'compose-path-3': (0, '83413c5e259c37d71904b6fda0bccce06d331249e4988702f515ab8fa20743b7'),
    'compose-path-4': (0, '9a3fa1933224171a4031b54721e997edd8633e2810f8a7fa2cfd6811e7de5050'),
    'compose-path-5': (0, '9fd9c8487bca67019e1238480200fff9f4327039f616d8e1f64fef2337f5eba4'),
    'decompose-0': (0, 'd61f6405034e197fe7288dbd652d6a47462dcc4ebc17253e354d0c00efea1c95'),
    'decompose-1': (0, '14ccd6b12824c1b74961551f0587788b85ca771785f5cf2ea27b42e890c3db3b'),
    'decompose-2': (0, 'a3943396a811fe8dcce7835326de8059e4356abe2f306ac97dd3cc88f1b9f664'),
    'decompose-3': (0, '8bf89eb815ed8f0f5dbab2da84d9996d55eca626d4abee035baeae6e04438141'),
    'decompose-4': (0, '47d9d173ddd84dc34d1955c2765045ee8fe00d3b58709cb1ead25489f3fe852e'),
    'homotopic-true': (0, '18ca66ae181f749fb15b84edcaea7558a2c299aee7217f54816c59582d2473d7'),
    'homotopic-false': (1, '6ea0afd71c8534f47440bc386ee8f7462292595bd2a935935da45fdfd69a687c'),
    'normalize-degenerate-0': (0, '144199df302380c5c899076c3ed36457c6d284c3b6d09b7ea09147e87afa255a'),
}


@pytest.mark.parametrize("name", INPUTS)
def test_reports_are_pinned(tmp_path, name):
    assert _report_digest(tmp_path, *INPUTS[name]) == PINNED[name]
