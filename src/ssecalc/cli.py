"""Batch JSON front-end.

Every subcommand reads JSON, writes a JSON report echoing the validated
input, and exits 0 on verified-true, 1 on verified-false, 2 on input
errors, 3 when a resource or iteration bound was exceeded.
"""

from __future__ import annotations

import argparse
import json
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
    fragment_to_text,
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
    Triangle,
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
from .matrices import matrix_from_json, matrix_to_json
from .refinement import axiom_input_from_json, report_to_json, verify_refinement_axioms
from .williams import decompose


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def _encode(report: dict) -> str:
    """json.dumps(report, indent=2, sort_keys=True).

    An explore report holds its ComplexFragment, which fragment_to_text
    writes directly: the same bytes, several times faster on large
    fragments than encoding the dict of fragment_to_json."""
    frag = report.get("fragment")
    if not isinstance(frag, ComplexFragment):
        return json.dumps(report, indent=2, sort_keys=True)
    text = json.dumps({**report, "fragment": None}, indent=2, sort_keys=True)
    head, tail = text.split('\n  "fragment": null', 1)
    return f'{head}\n  "fragment": {fragment_to_text(frag, "  ")}{tail}'


def _emit(args, report: dict) -> None:
    text = _encode(report)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _run_verify_edge(args) -> tuple[int, dict]:
    obj = _load(args.input)
    edge = edge_from_json(obj)
    f = code_from_edge(edge, verify=True)
    ok = edge_from_code(f) == edge
    return (0 if ok else 1), {
        "command": "verify-edge",
        "input": edge_to_json(edge),
        "verified": ok,
        "code": code_to_json(normalize(f)),
    }


def _run_verify_triangle(args) -> tuple[int, dict]:
    t = triangle_from_json(_load(args.input))
    ok = check_triangle(t)
    return (0 if ok else 1), {
        "command": "verify-triangle",
        "input": triangle_to_json(t),
        "verified": ok,
    }


def _run_code(args) -> tuple[int, dict]:
    edge = edge_from_json(_load(args.input))
    f = code_from_edge(edge, verify=True)
    return 0, {
        "command": "code",
        "input": edge_to_json(edge),
        "code": code_to_json(f),
    }


def _run_extract(args) -> tuple[int, dict]:
    f = code_from_json(_load(args.input))
    edge = edge_from_code(f)
    return 0, {
        "command": "extract",
        "input": code_to_json(f),
        "edge": edge_to_json(edge),
    }


def _run_decompose(args) -> tuple[int, dict]:
    f = code_from_json(_load(args.input))
    steps = decompose(f)
    path = SSEPath(f.domain.matrix, tuple((s.edge, s.sign) for s in steps))
    ok = equal_codes(compose_path(path), f)
    return (0 if ok else 1), {
        "command": "decompose",
        "input": code_to_json(f),
        "path": path_to_json(path),
        "sides": [s.side for s in steps],
        "recomposes": ok,
    }


def _run_compose_path(args) -> tuple[int, dict]:
    p = path_from_json(_load(args.input))
    f = compose_path(p)
    return 0, {
        "command": "compose-path",
        "input": path_to_json(p),
        "code": code_to_json(f),
    }


def _run_homotopic(args) -> tuple[int, dict]:
    p, q = path_pair_from_json(_load(args.input))
    ok = homotopic(p, q)
    return (0 if ok else 1), {
        "command": "homotopic",
        "input": {"p": path_to_json(p), "q": path_to_json(q)},
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
        "input": matrix_to_json(a),
        "fragment": frag,
    }


def _run_normalize_degenerate(args) -> tuple[int, dict]:
    p = path_from_json(_load(args.input), degenerate=True)
    q = normalize_path(p, max_rounds=args.bound)
    report = {
        "command": "normalize-degenerate",
        "input": path_to_json(p, degenerate=True),
        "normalized": path_to_json(q, degenerate=True),
    }
    if all(e.is_boolean for e, _ in p.steps):
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
        "bar": matrix_to_json(bar(a)),
    }


def _run_gsft_hat(args) -> tuple[int, dict]:
    group, e, (m, n) = hat_input_from_json(_load(args.input))
    a = hat(e, group, (m, n))
    return 0, {
        "command": "gsft-hat",
        "input": {"matrix": matrix_to_json(e), "shape": [m, n]},
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


def build_parser() -> argparse.ArgumentParser:
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        status, report = _COMMANDS[args.command](args)
    except (ResourceBoundError, IterationBoundError) as exc:
        _emit(args, {"command": args.command, "error": str(exc), "kind": "bound"})
        return 3
    except (SseError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        _emit(args, {"command": args.command, "error": str(exc), "kind": "input"})
        return 2
    report["elapsed_seconds"] = round(time.monotonic() - start, 6)
    _emit(args, report)
    return status


if __name__ == "__main__":
    sys.exit(main())
