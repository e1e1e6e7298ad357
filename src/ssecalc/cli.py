"""Batch JSON front-end.

Every subcommand reads JSON, writes a JSON report echoing the validated
input, and exits 0 on verified-true, 1 on verified-false, 2 on input
errors, 3 when a resource or iteration bound was exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

from . import __version__
from .cayley import (
    reduction_schedule,
    schedule_to_json,
    verify_schedule,
    window_from_json,
    window_to_json,
)
from .codes import code_from_json, code_to_json, equal_codes, normalize
from .complexes import (
    ComplexFragment,
    SSEPath,
    compose_path,
    explore,
    homotopic,
    path_from_json,
    path_pair_from_json,
    path_to_json,
)
from .degenerate import (
    normalize_path,
    restrict_path_to_cores,
    to_strict_path,
)
from .elementary import (
    check_triangle,
    code_from_edge,
    edge_from_code,
    edge_from_json,
    edge_to_json,
    triangle_from_json,
    triangle_to_json,
)
from .errors import IterationBoundError, ResourceBoundError, SseError
from .freudenthal import check_subdivision
from .gsft import (
    bar,
    gsft_matrix_from_json,
    gsft_matrix_to_json,
    hat,
    hat_input_from_json,
)
from .matrices import NonnegMatrix, matrix_from_json
from .refinement import axiom_input_from_json, report_to_json, verify_refinement_axioms
from .williams import decompose


def _load(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:
            raise ValueError("input nests deeper than the JSON decoder allows") from exc


def _matrix_text(m: NonnegMatrix, pad: str) -> str:
    """json.dumps(matrix_to_json(m), indent=2, sort_keys=True) with pad
    after every newline.  The rows of a {0,1} matrix are written from
    their masks, one character per entry."""
    entry = f",\n{pad}      "
    if m.is_boolean:
        form = f"0{m.cols}b"
        cells = (entry.join(format(mask, form)[::-1]) for mask in m.support_rows())
    else:
        cells = (entry.join(map(str, m.row_list(i))) for i in range(m.rows))
    rows = f",\n{pad}    ".join(f"[\n{pad}      {row}\n{pad}    ]" for row in cells)
    return (
        f'{{\n{pad}  "cols": {m.cols},\n{pad}  "entries": [\n{pad}    {rows}\n'
        f'{pad}  ],\n{pad}  "rows": {m.rows}\n{pad}}}'
    )


def _fragment_text(f: ComplexFragment, pad: str) -> str:
    """The fragment of an explore report as json.dumps writes its dict at
    indent 2 with pad after every newline, without building the dict.

    The records have a fixed shape, so each is one %-template, and each
    matrix is written once, directly.  Vertices are indexed by matrix;
    triangles already hold edge positions."""
    inner = pad + "  "
    item, field = inner + "  ", inner + "    "  # indents of a record and of its fields
    vindex = {v: i for i, v in enumerate(f.vertices)}
    field_text: dict[NonnegMatrix, str] = {}  # R and S text, once per matrix

    def edge_matrix_text(m: NonnegMatrix) -> str:
        t = field_text.get(m)
        if t is None:
            t = field_text[m] = _matrix_text(m, field)
        return t

    edge_record = (
        f'{{\n{field}"R": %s,\n{field}"S": %s,\n'
        f'{field}"source": %d,\n{field}"target": %d\n{item}}}'
    )
    edges = [
        edge_record % (edge_matrix_text(e.r), edge_matrix_text(e.s), vindex[e.a], vindex[e.b])
        for e in f.edges
    ]
    triangle_record = f'{{\n{field}"e1": %d,\n{field}"e2": %d,\n{field}"e3": %d\n{item}}}'
    triangles = [triangle_record % t for t in f.triangles]
    vertices = [_matrix_text(v, item) for v in f.vertices]

    def listing(records: list[str]) -> str:
        if not records:
            return "[]"
        return f"[\n{item}" + f",\n{item}".join(records) + f"\n{inner}]"

    return (
        f'{{\n{inner}"depth": {f.depth},\n{inner}"edges": {listing(edges)},\n'
        f'{inner}"max_inner": {f.max_inner},\n{inner}"triangles": {listing(triangles)},\n'
        f'{inner}"vertices": {listing(vertices)}\n{pad}}}'
    )


_string_text = json.encoder.encode_basestring_ascii


def _as_is(m: NonnegMatrix) -> NonnegMatrix:
    """The matrix encoder of every report builder: _text writes the
    matrix itself, from its rows."""
    return m


def _text(v, pad: str) -> str:
    """json.dumps(v, indent=2, sort_keys=True) with pad after every newline.

    Plain strings, ints, lists, tuples and dicts with string keys are
    written here, a list of plain ints in one join; a NonnegMatrix as
    matrix_to_json writes it, by _matrix_text; a ComplexFragment by
    _fragment_text.  Everything else (subclasses, non-string keys, NaN
    and infinities) is json.dumps of its subtree."""
    t = type(v)
    if t is list or t is tuple:
        if not v:
            return "[]"
        inner = pad + "  "
        if {*map(type, v)} == {int}:
            body = f",\n{inner}".join(map(int.__repr__, v))
        else:
            body = f",\n{inner}".join([_text(x, inner) for x in v])
        return f"[\n{inner}{body}\n{pad}]"
    if t is int:
        return int.__repr__(v)
    if t is str:
        return _string_text(v)
    if t is dict and all(type(k) is str for k in v):
        if not v:
            return "{}"
        inner = pad + "  "
        body = f",\n{inner}".join(
            [f"{_string_text(k)}: {_text(v[k], inner)}" for k in sorted(v)]
        )
        return f"{{\n{inner}{body}\n{pad}}}"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if v is None:
        return "null"
    if t is float and math.isfinite(v):
        return float.__repr__(v)
    if t is NonnegMatrix:
        return _matrix_text(v, pad)
    if t is ComplexFragment:
        return _fragment_text(v, pad)
    return json.dumps(v, indent=2, sort_keys=True).replace("\n", "\n" + pad)


def _encode(report: dict) -> str:
    """json.dumps(report, indent=2, sort_keys=True), written by _text:
    json's C encoder runs only without indent, and its Python encoder is
    several times slower."""
    return _text(report, "")


def _run_verify_edge(args) -> tuple[int, dict]:
    obj = _load(args.input)
    edge = edge_from_json(obj)
    f = code_from_edge(edge, verify=True)
    ok = edge_from_code(f) == edge
    return (0 if ok else 1), {
        "command": "verify-edge",
        "input": edge_to_json(edge, encode=_as_is),
        "verified": ok,
        "code": code_to_json(normalize(f), encode=_as_is),
    }


def _run_verify_triangle(args) -> tuple[int, dict]:
    t = triangle_from_json(_load(args.input))
    ok = check_triangle(t)
    return (0 if ok else 1), {
        "command": "verify-triangle",
        "input": triangle_to_json(t, encode=_as_is),
        "verified": ok,
    }


def _run_code(args) -> tuple[int, dict]:
    edge = edge_from_json(_load(args.input))
    f = code_from_edge(edge, verify=True)
    return 0, {
        "command": "code",
        "input": edge_to_json(edge, encode=_as_is),
        "code": code_to_json(f, encode=_as_is),
    }


def _run_extract(args) -> tuple[int, dict]:
    f = code_from_json(_load(args.input))
    edge = edge_from_code(f)
    return 0, {
        "command": "extract",
        "input": code_to_json(f, encode=_as_is),
        "edge": edge_to_json(edge, encode=_as_is),
    }


def _run_decompose(args) -> tuple[int, dict]:
    f = code_from_json(_load(args.input))
    steps = decompose(f)
    path = SSEPath(f.domain.matrix, tuple((s.edge, s.sign) for s in steps))
    ok = equal_codes(compose_path(path), f)
    return (0 if ok else 1), {
        "command": "decompose",
        "input": code_to_json(f, encode=_as_is),
        "path": path_to_json(path, encode=_as_is),
        "sides": [s.side for s in steps],
        "recomposes": ok,
    }


def _run_compose_path(args) -> tuple[int, dict]:
    p = path_from_json(_load(args.input))
    f = compose_path(p)
    return 0, {
        "command": "compose-path",
        "input": path_to_json(p, encode=_as_is),
        "code": code_to_json(f, encode=_as_is),
    }


def _run_homotopic(args) -> tuple[int, dict]:
    p, q = path_pair_from_json(_load(args.input))
    ok = homotopic(p, q)
    return (0 if ok else 1), {
        "command": "homotopic",
        "input": {"p": path_to_json(p, encode=_as_is), "q": path_to_json(q, encode=_as_is)},
        "homotopic": ok,
    }


def _run_explore(args) -> tuple[int, dict]:
    a = matrix_from_json(_load(args.input))
    frag = explore(
        a,
        max_inner=args.max_inner,
        depth=args.depth,
        max_size=args.max_size,
        max_edges=args.bound,
        experimental_counts=args.experimental_counts,
    )
    return 0, {
        "command": "explore",
        "input": a,
        "fragment": frag,
    }


def _run_normalize_degenerate(args) -> tuple[int, dict]:
    p = path_from_json(_load(args.input), degenerate=True)
    q = normalize_path(p, max_rounds=args.bound)
    report = {
        "command": "normalize-degenerate",
        "input": path_to_json(p, degenerate=True, encode=_as_is),
        "normalized": path_to_json(q, degenerate=True, encode=_as_is),
    }
    if p.base.is_boolean and all(e.is_boolean for e, _ in p.steps):
        same = equal_codes(
            compose_path(to_strict_path(restrict_path_to_cores(p))),
            compose_path(to_strict_path(q)),
        )
        report["composite_agrees_on_cores"] = same
        return (0 if same else 1), report
    return 0, report


def _run_gsft_bar(args) -> tuple[int, dict]:
    a = gsft_matrix_from_json(_load(args.input))
    return 0, {
        "command": "gsft-bar",
        "input": gsft_matrix_to_json(a),
        "bar": bar(a),
    }


def _run_gsft_hat(args) -> tuple[int, dict]:
    group, e, (m, n) = hat_input_from_json(_load(args.input))
    a = hat(e, group, (m, n))
    return 0, {
        "command": "gsft-hat",
        "input": {"matrix": e, "shape": [m, n]},
        "hat": gsft_matrix_to_json(a),
    }


def _run_freudenthal_check(args) -> tuple[int, dict]:
    check = check_subdivision(args.dimension, args.trials, args.seed)
    return (0 if check.ok else 1), {
        "command": "freudenthal-check",
        "dimension": args.dimension,
        "cells": check.cells,
        "vertices": check.vertices,
        "counts_ok": check.counts_ok,
        "chain_map_identity": check.chain_map_identity,
        "chain_homotopy": check.chain_homotopy,
        "trials": args.trials,
        "seed": args.seed,
    }


def _run_refine_axioms(args) -> tuple[int, dict]:
    codes, echo = axiom_input_from_json(_load(args.input), args.seed)
    report = verify_refinement_axioms(codes, trials=args.trials, seed=args.seed)
    payload = report_to_json(report)
    ok = payload["all_passed"]
    return (0 if ok else 1), {
        "command": "refine-axioms",
        "input": echo,
        "seed": args.seed,
        "trials": args.trials,
        **payload,
    }


def _run_cayley_schedule(args) -> tuple[int, dict]:
    w = window_from_json(_load(args.input))
    steps = reduction_schedule(w)
    ok = verify_schedule(w, steps)
    return (0 if ok else 1), {
        "command": "cayley-schedule",
        "input": window_to_json(w),
        "schedule": schedule_to_json(w, steps),
        "verified": ok,
    }


_COMMANDS = {
    "verify-edge": _run_verify_edge,
    "verify-triangle": _run_verify_triangle,
    "code": _run_code,
    "extract": _run_extract,
    "decompose": _run_decompose,
    "compose-path": _run_compose_path,
    "homotopic": _run_homotopic,
    "explore": _run_explore,
    "normalize-degenerate": _run_normalize_degenerate,
    "gsft-bar": _run_gsft_bar,
    "gsft-hat": _run_gsft_hat,
    "freudenthal-check": _run_freudenthal_check,
    "refine-axioms": _run_refine_axioms,
    "cayley-schedule": _run_cayley_schedule,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: building
    it costs far more than a parse, and a parse leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ssecalc",
        description="Exact calculus of strong shift equivalences (batch JSON).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        if name != "freudenthal-check":
            p.add_argument("--input", required=True, help="input JSON file")
        p.add_argument("--output", help="write the JSON report here")
        if name in ("freudenthal-check", "refine-axioms"):
            p.add_argument("--seed", type=int, default=0, help="seed for random suites")
            p.add_argument("--trials", type=int, default=5, help="random trials")
        if name == "explore":
            p.add_argument("--max-inner", type=int, default=4)
            p.add_argument("--max-size", type=int, default=6)
            p.add_argument("--depth", type=int, default=1)
            p.add_argument("--bound", type=int, default=20000)
            p.add_argument(
                "--experimental-counts",
                action="store_true",
                help="slow search over Z>=0 entries instead of {0,1}",
            )
        if name == "normalize-degenerate":
            p.add_argument("--bound", type=int, default=None)
        if name == "freudenthal-check":
            p.add_argument("--dimension", type=int, required=True)
    return parser


def _run(args) -> tuple[int, dict]:
    start = time.monotonic()
    try:
        status, report = _COMMANDS[args.command](args)
    except (ResourceBoundError, IterationBoundError) as exc:
        return 3, {"command": args.command, "error": str(exc), "kind": "bound"}
    except (SseError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        return 2, {"command": args.command, "error": str(exc), "kind": "input"}
    report["elapsed_seconds"] = round(time.monotonic() - start, 6)
    return status, report


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.output:
            # only tried here, so an unwritable --output runs no command;
            # append mode leaves an --output that names the --input intact
            open(args.output, "a").close()
        status, report = _run(args)
        text = _encode(report)
        if args.output:
            with open(args.output, "w") as out:
                out.write(text + "\n")
        else:
            print(text)
    except OSError as exc:
        # an unwritable --output is an input error, reported on stdout
        print(_encode({"command": args.command, "error": str(exc), "kind": "input"}))
        return 2
    return status

if __name__ == "__main__":
    sys.exit(main())
