"""Job pools of the benchmark workloads.

A workload is made of job families (explore, edges, conjugacy,
freudenthal), a family of job kinds.  Each kind has a fixed pool of inputs;
input ``i`` of a kind is generated from its own string seed, so it is the
same on every machine and in every run, and its expected output can be
frozen once (see ``freeze.py``).  The run seed only chooses the order in
which a pass walks each pool; timed phases run whole passes, so every seed
times the same work.

A job is one user request.  ``explore``, ``conjugacy`` and ``freudenthal``
jobs run a CLI subcommand in-process through ``ssecalc.cli.main`` on a JSON
input file written at set-up, so JSON decoding, validation and report
encoding are part of the job.  ``edges`` jobs are sequences of library
calls, because no subcommand enumerates edge pools.

Library modules are always called through their module attribute
(``fz.factorizations``, not a name imported at load time), so that the
traced run sees the calls this file makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ssecalc import cli
from ssecalc import codes as cd
from ssecalc import complexes as cx
from ssecalc import degenerate as dg
from ssecalc import elementary as el
from ssecalc import errors as er
from ssecalc import factorize as fz
from ssecalc import groups as gr
from ssecalc import gsft as gs
from ssecalc import matrices as mx
from ssecalc import sampling as sp

import tracer

GM = mx.NonnegMatrix([[1, 1], [1, 0]])
FULL2 = mx.NonnegMatrix([[1, 1], [1, 1]])
SWAP = mx.NonnegMatrix([[0, 1], [1, 0]])

# The CLI report ends every run with its wall time; it is the one field
# that differs between two runs of the same job.
_ELAPSED = re.compile(r'\n\s*"elapsed_seconds": [0-9.e+-]+,?')


@dataclass
class Job:
    key: str  # "<family>/<kind>/<pool index>", also the expected-output key
    kind: str
    call: Callable[[], tuple[int, str]]  # -> (exit status, output text)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_call(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = cli.main(argv)
        text = buf.getvalue()
        tracer.count("cli.report_bytes", len(text))
        return status, text

    return call


def canonical_cli_output(text: str) -> str:
    return _ELAPSED.sub("", text)


def _write(workdir: Path, key: str, obj) -> str:
    path = workdir / (key.replace("/", "_") + ".json")
    path.write_text(json.dumps(obj))
    return str(path)


def _random_base(rng: random.Random, size: int, ones: tuple[int, ...]) -> mx.NonnegMatrix:
    """A random nondegenerate {0,1} matrix with a number of ones in `ones`.

    Explore cost grows steeply with the number of ones (a 3x3 base with
    seven ones at max_inner 5 runs for minutes), so each job kind fixes
    the range it samples from.
    """
    while True:
        a = sp.random_nondeg_matrix(rng, size)
        if sum(m.bit_count() for m in a.support_rows()) in ones:
            return a


# -- explore ------------------------------------------------------------

# (base, depth, max_inner) of the deep jobs.  Full 2-shift at depth 2 with
# max_inner 4 (about a minute) and golden mean at depth 3 with max_inner 4
# (minutes) are too long to repeat.
_DEEP = ((GM, 3, 3), (FULL2, 2, 3), (FULL2, 3, 3), (GM, 2, 4))

# kind -> (matrix size, allowed number of ones, max_inner)
_WIDE = {
    "wide3": (3, (5,), 4),
    "wide4": (4, (6, 7, 8), 4),
    "wide4x5": (4, (5,), 5),
    "wide3x5": (3, (5,), 5),
}


def _explore_job(kind: str, i: int, rng: random.Random, workdir: Path) -> Job:
    key = f"explore/{kind}/{i}"
    if kind == "deep":
        base, depth, max_inner = _DEEP[i % len(_DEEP)]
    else:
        size, ones, max_inner = _WIDE[kind]
        base, depth = _random_base(rng, size, ones), 1
    path = _write(workdir, key, mx.matrix_to_json(base))
    argv = ["explore", "--input", path, "--max-inner", str(max_inner), "--depth", str(depth)]
    return Job(key, kind, cli_call(argv))


# -- conjugacy ----------------------------------------------------------


def _homotopic_pair(rng: random.Random) -> dict:
    """Two loops at the full 2-shift that are homotopic: q is p with
    backtracks (e, s)(e, -s) inserted, so the decision must compose both."""
    gens = (
        el.SSEEdge(FULL2, FULL2, FULL2, mx.NonnegMatrix.identity(2)),
        el.SSEEdge(FULL2, FULL2, SWAP, FULL2),
    )
    p = [(rng.choice(gens), rng.choice((1, -1))) for _ in range(rng.randint(1, 6))]
    q = list(p)
    for _ in range(rng.randint(1, 3)):
        e, s = rng.choice(gens), rng.choice((1, -1))
        at = rng.randint(0, len(q))
        q[at:at] = [(e, s), (e, -s)]
    return {
        "p": cx.path_to_json(cx.SSEPath(FULL2, tuple(p))),
        "q": cx.path_to_json(cx.SSEPath(FULL2, tuple(q))),
    }


def _random_conjugacy(rng: random.Random):
    """Criterion 3's sampler (bases 2-4, 1-5 elementary factors), kept to
    conjugacies whose window and inverse window are at most 5 wide
    together: decomposition cost grows steeply with the windows, and
    wider ones run for seconds to minutes."""
    while True:
        base = sp.random_nondeg_matrix(rng, rng.randint(2, 4))
        f = sp.random_conjugacy(rng, base, rng.randint(1, 5), max_inner=4)
        if f.width + cd.normalize(f.inverse).width <= 5:
            return f


def _conjugacy_job(kind: str, i: int, rng: random.Random, workdir: Path) -> Job:
    key = f"conjugacy/{kind}/{i}"
    if kind == "decompose":
        f = _random_conjugacy(rng)
        argv = ["decompose", "--input", _write(workdir, key, cd.code_to_json(f))]
    elif kind == "homotopic":
        obj = _homotopic_pair(rng)
        argv = ["homotopic", "--input", _write(workdir, key, obj)]
    else:  # refine-axioms
        obj = {"base": mx.matrix_to_json(GM if i % 2 == 0 else FULL2), "tuple_size": 1 + i % 3}
        argv = [
            "refine-axioms", "--input", _write(workdir, key, obj),
            "--seed", str(rng.randrange(1 << 16)), "--trials", "2",
        ]
    return Job(key, kind, cli_call(argv))


# -- freudenthal --------------------------------------------------------


def _freudenthal_job(kind: str, i: int, rng: random.Random, workdir: Path) -> Job:
    argv = [
        "freudenthal-check", "--dimension", kind[3:],
        "--seed", str(rng.randrange(1 << 16)), "--trials", "2",
    ]
    return Job(f"freudenthal/{kind}/{i}", kind, cli_call(argv))


# -- edges (library calls) ----------------------------------------------

_POOL_CAP = 3000  # the cap sampling.edge_pool uses
_ALT_CAP = 4000  # the cap of the alternative-e3 search in acceptance criterion 2


def _library_call(fn, *args) -> Callable[[], tuple[int, str]]:
    def call():
        return 0, json.dumps(fn(*args), sort_keys=True)

    return call


def _edge_pool_job(bases: list) -> dict:
    """Ordered factorizations and their edges, inner dimension 1..n+1, for
    one base of each size 2..5.

    The edge_pool shape, without its cache: a search over the cap falls
    back to unordered covers, and a second overflow is recorded.  Every
    job holds a 5x5 base, so these jobs form one cluster of run times and
    the 90th percentile of the workload falls inside it, not on an edge.
    """
    out = []
    for a in bases:
        for m in range(1, a.rows + 2):
            mode = "ordered"
            try:
                triples = fz.factorizations(a, m, max_results=_POOL_CAP)
            except er.ResourceBoundError:
                mode = "unordered"
                try:
                    triples = fz.factorizations(a, m, ordered=False, max_results=_POOL_CAP)
                except er.ResourceBoundError:
                    out.append([a.rows, m, "bound", 0])
                    continue
            edges = [el.SSEEdge(a, b, r, s) for r, s, b in triples]
            out.append([a.rows, m, mode, len(edges)])
    return {"per_inner": out}


def _roundtrip_job(edges: list) -> dict:
    """Acceptance criterion 1: (R,S) -> code (verified) -> (R,S)."""
    same = 0
    for e in edges:
        f = el.code_from_edge(e, verify=True)
        same += el.edge_from_code(f) == e
    return {"edges": len(edges), "roundtrip_equal": same}


def _triangle(e1, e2, pick: int) -> dict:
    """Acceptance criterion 2: the composed triangle commutes and passes the
    equations; a different e3 with the same target, found by a
    factorization search filtered on B, fails both."""
    f1 = el.code_from_edge(e1, verify=False)
    f2 = el.code_from_edge(e2, verify=False)
    comp = cd.compose(f2, f1)
    e3 = el.edge_from_code(comp)
    good = el.check_triangle(el.Triangle(e1, e2, e3)) and cd.equal_codes(
        comp, el.code_from_edge(e3, verify=False)
    )
    triples = fz.factorizations(e3.a, e3.b.rows, max_results=_ALT_CAP)
    hits = [(r, s) for r, s, b in triples if b == e3.b]
    tracer.count("factorize.target_hits", len(hits))
    tracer.count("factorize.target_searched", len(triples))
    alts = [(r, s) for r, s in hits if (r, s) != (e3.r, e3.s)]
    out = {"commutes": good, "triples": len(triples), "target_hits": len(hits), "alternatives": len(alts)}
    if alts:
        r, s = alts[pick % len(alts)]
        bad = el.Triangle(e1, e2, el.SSEEdge(e3.a, e3.b, r, s))
        out["alternative_rejected"] = not el.check_triangle(bad) and not cd.equal_codes(
            comp, el.code_from_edge(bad.e3, verify=False)
        )
    return out


def _triangle_job(pairs: list) -> dict:
    return {"triangles": [_triangle(e1, e2, pick) for e1, e2, pick in pairs]}


def _degenerate_job(pairs: list, paths: list) -> dict:
    """Acceptance criterion 6: four-triangle reductions of degenerate edges
    over Z>=0, and normalization of degenerate {0,1} paths."""
    checked = []
    for r, s, a, b in pairs:
        tri = dg.deg_triangulate(dg.DegSSEEdge(a, b, r, s))
        checked.append([tri.equations_checked, all(dg.check_deg_triangle(t) for t in tri.triangles)])
    normalized = []
    for p in paths:
        q = dg.normalize_path(p)
        f_in = cx.compose_path(dg.to_strict_path(dg.restrict_path_to_cores(p)))
        f_out = cx.compose_path(dg.to_strict_path(q))
        normalized.append([
            len(q.steps),
            all(mx.is_nondegenerate(v) for v in q.vertices()),
            cd.equal_codes(f_in, f_out),
        ])
    return {"triangulations": checked, "paths": normalized}


def _gsft_job(pairs: list) -> dict:
    """Acceptance criterion 7: bar is multiplicative on products inside G*,
    and a product outside G* has a bar product that is not {0,1}."""
    inside = agree = 0
    for x, y in pairs:
        prod = mx.mul(gs.bar(x), gs.bar(y))
        if gs.product_in_gstar(x, y):
            inside += 1
            agree += prod == gs.bar(gs.mul_gstar(x, y))
        else:
            agree += not prod.is_boolean
    return {"pairs": len(pairs), "in_gstar": inside, "agree": agree}


def _deg_path(rng: random.Random):
    while True:
        a0 = sp.random_nondeg_matrix(rng, rng.randint(2, 4))
        steps, cur = [], a0
        try:
            for _ in range(rng.randint(1, 3)):
                r, s, b = sp.random_deg_bool_edge(rng, cur, extra_slots=1)
                edge = dg.DegSSEEdge(cur, b, r, s)
                steps.append((edge.reversed(), -1) if rng.random() < 0.3 else (edge, 1))
                cur = b
        except ValueError:
            continue
        if mx.is_nondegenerate(cur):
            return dg.DegSSEPath(a0, tuple(steps))


def _random_valid_edge(rng: random.Random) -> el.SSEEdge:
    """Criterion 1's sampler: random R (n x m) and S (m x n), n, m <= 5, kept
    when R, S, RS and SR are nondegenerate {0,1} matrices."""
    while True:
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        density = 0.32 if max(n, m) >= 4 else 0.55
        r = mx.NonnegMatrix([[int(rng.random() < density) for _ in range(m)] for _ in range(n)])
        s = mx.NonnegMatrix([[int(rng.random() < density) for _ in range(n)] for _ in range(m)])
        if not (mx.is_nondegenerate(r) and mx.is_nondegenerate(s)):
            continue
        a, b = mx.mul(r, s), mx.mul(s, r)
        if a.is_boolean and b.is_boolean and mx.is_nondegenerate(a) and mx.is_nondegenerate(b):
            return el.SSEEdge(a, b, r, s)


def _composable_pair(rng: random.Random):
    """Edges e1, e2 whose composed code is elementary (criterion 2's sampler)."""
    while True:
        a = sp.random_nondeg_matrix(rng, rng.randint(2, 4))
        if not sp.edge_pool(a, 4):
            continue
        e1 = sp.random_edge(rng, a, 4)
        if not sp.edge_pool(e1.b, 4):
            continue
        e2 = sp.random_edge(rng, e1.b, 4)
        comp = cd.compose(el.code_from_edge(e2, verify=False), el.code_from_edge(e1, verify=False))
        if cd.is_elementary(comp):
            return e1, e2


def _random_group_matrix(rng: random.Random, g, rows: int, cols: int):
    return gs.GroupRingMatrix(
        g, [[{h for h in range(g.order) if rng.random() < 0.35} for _ in range(cols)] for _ in range(rows)]
    )


_GROUPS = (gr.cyclic_group(2), gr.cyclic_group(3), gr.symmetric_group(3))


def _edges_job(kind: str, i: int, rng: random.Random, workdir: Path) -> Job:
    key = f"edges/{kind}/{i}"
    if kind == "pool":
        call = _library_call(_edge_pool_job, [sp.random_nondeg_matrix(rng, n) for n in (2, 3, 4, 5)])
    elif kind == "roundtrip":
        call = _library_call(_roundtrip_job, [_random_valid_edge(rng) for _ in range(24)])
    elif kind == "triangle":
        pairs = [(*_composable_pair(rng), rng.randrange(1 << 16)) for _ in range(2)]
        call = _library_call(_triangle_job, pairs)
    elif kind == "degenerate":
        pairs = [sp.random_deg_pair(rng, rng.randint(1, 5), rng.randint(1, 5), max_entry=2) for _ in range(8)]
        call = _library_call(_degenerate_job, pairs, [_deg_path(rng)])
    else:  # gsft
        pairs = []
        for _ in range(120):
            g = rng.choice(_GROUPS)
            rows, inner, cols = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
            pairs.append((_random_group_matrix(rng, g, rows, inner), _random_group_matrix(rng, g, inner, cols)))
        call = _library_call(_gsft_job, pairs)
    return Job(key, kind, call)


# -- the workload table ---------------------------------------------------

# job family -> (job maker, kinds, inputs per kind).  A family's pass walks
# its whole pool round-robin over the kinds.
FAMILIES = {
    "explore": (_explore_job, ("wide3", "wide4", "wide4x5", "wide3x5", "deep"), 10),
    "edges": (_edges_job, ("pool", "roundtrip", "triangle", "degenerate", "gsft"), 8),
    "conjugacy": (_conjugacy_job, ("decompose", "homotopic", "refine-axioms"), 80),
    "freudenthal": (_freudenthal_job, ("dim2", "dim3", "dim4", "dim5", "dim6"), 10),
}

# workload -> its job families.  `search` is factorization search, edge
# validation and the triangle scan; `codes` is block-code algebra, Markov
# membership and Freudenthal chains.  Two workloads instead of four give
# each run more work within the same total benchmark time, which the
# machine's drift needs.
WORKLOADS = {
    "search": ("explore", "edges"),
    "codes": ("conjugacy", "freudenthal"),
}


def pool_job(family: str, kind: str, i: int, workdir: Path) -> Job:
    make = FAMILIES[family][0]
    return make(kind, i, random.Random(f"perfbench/{family}/{kind}/{i}"), workdir)


def build_jobs(workload: str, seed: int, workdir: Path, between: Callable[[], None]) -> list[Job]:
    """One pass: every pool input of the workload's families once.  Each
    kind's pool is walked in an order drawn from `seed`, and the families
    are interleaved in proportion, so every prefix holds the same mix.
    `between` is called after each job is made."""
    rng = random.Random(seed)
    slots = []
    for family in WORKLOADS[workload]:
        _make, kinds, pool = FAMILIES[family]
        orders = {k: rng.sample(range(pool), pool) for k in kinds}
        slots += [((r + 0.5) / pool, family, k, orders[k][r]) for r in range(pool) for k in kinds]
    slots.sort(key=lambda slot: slot[0])
    jobs = []
    for _pos, family, k, i in slots:
        jobs.append(pool_job(family, k, i, workdir))
        between()
    return jobs
