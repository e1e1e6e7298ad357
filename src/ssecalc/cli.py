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
import os
import sys
import time
from itertools import chain, islice, repeat
from operator import attrgetter

from . import __version__
from .cayley import (
    reduction_schedule,
    schedule_to_json,
    verify_schedule,
    window_from_json,
    window_to_json,
)
from .codes import code_from_json, code_to_json, normalize
from .complexes import (
    ComplexFragment,
    SSEPath,
    _fold,
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
    failed_triangle_equations,
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
from .matrices import NonnegMatrix, matrix_from_json, matrix_value, unpack_row
from .refinement import axiom_input_from_json, report_to_json, verify_refinement_axioms
from .williams import decompose


def _load(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:
            raise ValueError("input nests deeper than the JSON decoder allows") from exc


# records per %-template of a listing: a template per block, not per
# listing, keeps the transient text of a listing to one block's
_BLOCK = 512


class _RowTexts(dict):
    """(cols, mask) -> the text of the {0,1} row of cols entries with that
    mask, in a matrix written at one pad; written on first lookup."""

    __slots__ = ("head", "entry", "tail")

    def __init__(self, pad: str):
        self.head, self.entry, self.tail = f"[\n{pad}      ", f",\n{pad}      ", f"\n{pad}    ]"

    def __missing__(self, key: tuple[int, int]) -> str:
        cols, mask = key
        t = self[key] = self.head + self.entry.join(format(mask, f"0{cols}b")[::-1]) + self.tail
        return t


class _MatrixTexts(dict):
    """matrix_value(m) -> json.dumps(matrix_to_json(m), indent=2,
    sort_keys=True) with pad after every newline; written on first
    lookup, the rows of a {0,1} matrix from the row table of the pad."""

    __slots__ = ("rows", "sep", "template")

    def __init__(self, pad: str):
        self.rows = _RowTexts(pad)
        self.sep = f",\n{pad}    "
        self.template = (
            f'{{\n{pad}  "cols": %d,\n{pad}  "entries": [\n{pad}    %s'
            f'\n{pad}  ],\n{pad}  "rows": %d\n{pad}}}'
        )

    def __missing__(self, value: tuple) -> str:
        cols, width, packed = value
        rows = self.rows
        if width == 1:
            texts = map(rows.__getitem__, zip(repeat(cols), packed))
        else:
            texts = (
                rows.head + rows.entry.join(map(str, unpack_row(r, cols, width))) + rows.tail
                for r in packed
            )
        t = self[value] = self.template % (cols, self.sep.join(texts), len(packed))
        return t


class _Texts(dict):
    """The matrix texts of one report: pad -> its _MatrixTexts, made on
    first lookup, so a report writes each distinct matrix and each
    distinct {0,1} row once per pad."""

    __slots__ = ()

    def __missing__(self, pad: str) -> _MatrixTexts:
        t = self[pad] = _MatrixTexts(pad)
        return t


def _listing(parts: list, record: str, width: int, fields, count: int, item: str, inner: str):
    """Append to parts a list of count records as json.dumps writes it at
    indent 2, with inner before its closing bracket and item before each
    record.  record is the %-template of one record of width fields, and
    fields runs over all their values, record after record; each block of
    up to _BLOCK records is filled as one template."""
    if not count:
        parts.append("[]")
        return
    sep = f",\n{item}"
    parts.append(f"[\n{item}")
    fields = iter(fields)
    template, size = "", 0
    for start in range(0, count, _BLOCK):
        n = min(count - start, _BLOCK)
        if n != size:
            template, size = sep.join([record] * n), n
        if start:
            parts.append(sep)
        parts.append(template % tuple(islice(fields, n * width)))
    parts.append(f"\n{inner}]")


def _fragment_parts(f: ComplexFragment, pad: str, texts: _Texts, parts: list):
    """Append to parts the fragment of an explore report as json.dumps
    writes its dict at indent 2 with pad after every newline, without
    building the dict.

    Each listing is written by _listing, a %-template per block of
    records, from fields that C-level maps gather: every R, S and vertex
    text is a lookup in the report's matrix texts, and every endpoint a
    lookup of its matrix value in the vertex index, so no Python code runs
    per edge or per triangle, and the cost is about that of formatting
    the bytes."""
    inner = pad + "  "
    item, field = inner + "  ", inner + "    "  # indents of a record and of its fields
    edges = f.edges
    vindex = {v: i for i, v in enumerate(map(matrix_value, f.vertices))}
    field_texts = texts[field]

    def values(name: str):
        return map(matrix_value, map(attrgetter(name), edges))

    edge_fields = zip(
        map(field_texts.__getitem__, values("r")),
        map(field_texts.__getitem__, values("s")),
        map(vindex.__getitem__, values("a")),
        map(vindex.__getitem__, values("b")),
    )
    parts.append(f'{{\n{inner}"depth": {f.depth},\n{inner}"edges": ')
    edge_record = (
        f'{{\n{field}"R": %s,\n{field}"S": %s,\n'
        f'{field}"source": %d,\n{field}"target": %d\n{item}}}'
    )
    _listing(parts, edge_record, 4, chain.from_iterable(edge_fields), len(edges), item, inner)
    parts.append(f',\n{inner}"max_inner": {f.max_inner},\n{inner}"triangles": ')
    triangle_record = f'{{\n{field}"e1": %d,\n{field}"e2": %d,\n{field}"e3": %d\n{item}}}'
    triangles = f.triangles
    _listing(parts, triangle_record, 3, chain.from_iterable(triangles), len(triangles), item, inner)
    parts.append(f',\n{inner}"vertices": ')
    vertex_texts = map(texts[item].__getitem__, map(matrix_value, f.vertices))
    _listing(parts, "%s", 1, vertex_texts, len(f.vertices), item, inner)
    parts.append(f"\n{pad}}}")


_string_text = json.encoder.encode_basestring_ascii


def _as_is(m: NonnegMatrix) -> NonnegMatrix:
    """The matrix encoder of every report builder: _text writes the
    matrix itself, from its rows."""
    return m


def _text(v, pad: str) -> str:
    """json.dumps(v, indent=2, sort_keys=True) with pad after every
    newline: the parts _parts writes, with one table of matrix texts,
    joined once."""
    parts: list[str] = []
    _parts(v, pad, _Texts(), parts)
    return "".join(parts)


def _parts(v, pad: str, texts: _Texts, parts: list):
    """Append to parts the text of v as json.dumps(v, indent=2,
    sort_keys=True) writes it, with pad after every newline.

    Plain strings, ints, lists, tuples and dicts with string keys are
    written here, a list of plain ints in one join; a NonnegMatrix as
    matrix_to_json writes it, from texts; a ComplexFragment by
    _fragment_parts.  Everything else (subclasses, non-string keys, NaN
    and infinities) is json.dumps of its subtree.  The text is joined
    once, by the caller, so no part is copied into a larger one."""
    t = type(v)
    if t is list or t is tuple:
        if not v:
            parts.append("[]")
            return
        inner = pad + "  "
        if {*map(type, v)} == {int}:
            parts.append(f"[\n{inner}" + f",\n{inner}".join(map(int.__repr__, v)) + f"\n{pad}]")
            return
        lead, sep = f"[\n{inner}", f",\n{inner}"
        for x in v:
            parts.append(lead)
            lead = sep
            _parts(x, inner, texts, parts)
        parts.append(f"\n{pad}]")
    elif t is int:
        parts.append(int.__repr__(v))
    elif t is str:
        parts.append(_string_text(v))
    elif t is dict and all(type(k) is str for k in v):
        if not v:
            parts.append("{}")
            return
        inner = pad + "  "
        lead, sep = f"{{\n{inner}", f",\n{inner}"
        for k in sorted(v):
            parts.append(f"{lead}{_string_text(k)}: ")
            lead = sep
            _parts(v[k], inner, texts, parts)
        parts.append(f"\n{pad}}}")
    elif t is NonnegMatrix:
        parts.append(texts[pad][matrix_value(v)])
    elif v is True:
        parts.append("true")
    elif v is False:
        parts.append("false")
    elif v is None:
        parts.append("null")
    elif t is float and math.isfinite(v):
        parts.append(float.__repr__(v))
    elif t is ComplexFragment:
        _fragment_parts(v, pad, texts, parts)
    else:
        parts.append(json.dumps(v, indent=2, sort_keys=True).replace("\n", "\n" + pad))


def _encode(report: dict) -> str:
    """json.dumps(report, indent=2, sort_keys=True), written by _text:
    before Python 3.13 json's C encoder runs only without indent, and its
    Python encoder is several times slower; on 3.13 json.dumps of the
    report's plain JSON objects, once built, is still slower.  One table
    of matrix texts serves the whole report, so a matrix that recurs at
    the same indent is written once."""
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
    report = {
        "command": "verify-triangle",
        "input": triangle_to_json(t, encode=_as_is),
        "verified": ok,
    }
    if not ok:
        report["failed_equations"] = failed_triangle_equations(t)
    return (0 if ok else 1), report


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
    ok = _fold(path) == normalize(f)
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
        # normalize_path keeps the nondegenerate endpoints, which are
        # their own cores
        same = homotopic(to_strict_path(restrict_path_to_cores(p)), to_strict_path(q))
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
    report = {
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
    # a witness only on the false branch, so a true report is unchanged
    if check.chain_map_witness is not None:
        report["chain_map_witness"] = check.chain_map_witness
    if check.homotopy_witness is not None:
        report["homotopy_witness"] = check.homotopy_witness
    return (0 if check.ok else 1), report


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


def _stdout_failed(exc: OSError) -> int:
    """Exit 2, with one line on stderr, for a report that stdout did not
    take (a pipe whose reader has gone, say).  Standard output is pointed
    at os.devnull, so the flush at exit finds nothing left to fail on."""
    print(f"ssecalc: the report could not be written to stdout: {exc}", file=sys.stderr)
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # no file descriptor, so no flush at exit can fail
        return 2
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)
    return 2


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
                print(text, file=out)
            return status
    except OSError as exc:
        # an unwritable --output is an input error, reported on stdout
        status, text = 2, _encode({"command": args.command, "error": str(exc), "kind": "input"})
    try:
        print(text, flush=True)
    except OSError as exc:
        return _stdout_failed(exc)
    return status


if __name__ == "__main__":
    sys.exit(main())
