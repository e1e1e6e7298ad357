import copy
import functools
import hashlib
import io
import json
import operator
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ssecalc
from ssecalc.cli import _COMMANDS, _encode, _text, build_parser, main
from ssecalc.codes import code_to_json, shift_code
from ssecalc.complexes import SSEPath, path_from_json, path_to_json
from ssecalc.elementary import SSEEdge, Triangle, edge_to_json, triangle_to_json
from ssecalc.errors import MAX_TRIALS, InvalidEdgeError
from ssecalc.matrices import NonnegMatrix, matrix_to_json, mul
from ssecalc.shifts import VertexShift, higher_block

GM = NonnegMatrix([[1, 1], [1, 0]])
I2 = NonnegMatrix.identity(2)
# an edge between 3-symbol bases, RS = A and SR = B: 3 symbols pack into
# 2 bits each, one symbol code left unused
TRI_EDGE = SSEEdge(
    NonnegMatrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]]),
    NonnegMatrix([[1, 0, 1], [1, 1, 0], [0, 1, 1]]),
    NonnegMatrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]]),
    NonnegMatrix([[1, 1, 0], [1, 0, 1], [0, 1, 1]]),
)


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def run(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main([*argv, "--output", str(out)])
    return code, json.loads(out.read_text())


def test_verify_edge(tmp_path):
    e = SSEEdge(GM, GM, GM, I2)
    path = write(tmp_path, "edge.json", edge_to_json(e))
    code, rep = run(tmp_path, "verify-edge", "--input", path)
    assert code == 0 and rep["verified"]
    assert rep["input"]["A"] == matrix_to_json(GM)
    assert "elapsed_seconds" in rep


def test_the_readme_verify_edge_example(tmp_path, capsys):
    """README.md's example, from its `cat > gm-edge.json` line to its
    `ssecalc verify-edge` line, run through main."""
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme) as f:
        lines = f.read().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("cat > gm-edge.json"))
    stop = next(i for i in range(start, len(lines)) if lines[i].startswith("ssecalc verify-edge"))
    assert lines[start] == "cat > gm-edge.json <<'EOF'" and lines[stop - 1] == "EOF"
    assert lines[stop] == "ssecalc verify-edge --input gm-edge.json"
    path = tmp_path / "gm-edge.json"
    path.write_text("\n".join(lines[start + 1 : stop - 1]))
    code = main(["verify-edge", "--input", str(path)])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0 and rep["verified"] is True


def test_verify_edge_bad_input(tmp_path):
    path = write(tmp_path, "edge.json", {"A": matrix_to_json(GM)})
    code, rep = run(tmp_path, "verify-edge", "--input", path)
    assert code == 2 and rep["kind"] == "input"


def test_verify_triangle(tmp_path):
    e = SSEEdge(GM, GM, I2, GM)
    t = Triangle(e, e, e)
    path = write(tmp_path, "tri.json", triangle_to_json(t))
    code, rep = run(tmp_path, "verify-triangle", "--input", path)
    assert code == 0 and rep["verified"]
    bad = Triangle(e, e, SSEEdge(GM, GM, GM, I2))
    path = write(tmp_path, "tri2.json", triangle_to_json(bad))
    code, rep = run(tmp_path, "verify-triangle", "--input", path)
    assert code == 1 and not rep["verified"]


_SW = NonnegMatrix([[0, 1], [1, 0]])
_ALL_ONES = NonnegMatrix([[1, 1], [1, 1]])
# GM -> [[0, 1], [1, 1]], its symbols swapped, and a loop at GM
_GM_SWAP = SSEEdge(GM, NonnegMatrix([[0, 1], [1, 1]]), _SW, NonnegMatrix([[1, 0], [1, 1]]))
_GM_LOOP = SSEEdge(GM, GM, I2, GM)


@pytest.mark.parametrize(
    "edges, error",
    [
        ((_GM_SWAP, _GM_LOOP, _GM_SWAP), "e1 target != e2 source"),
        ((_GM_LOOP, _GM_LOOP, _GM_SWAP.reversed()), "e1 source != e3 source"),
        ((_GM_LOOP, _GM_LOOP, _GM_SWAP), "e2 target != e3 target"),
    ],
    ids=["e1-e2", "e1-e3", "e2-e3"],
)
def test_a_triangle_with_unmatched_endpoints_is_refused(tmp_path, edges, error):
    with pytest.raises(InvalidEdgeError, match=error):
        Triangle(*edges)
    obj = dict(zip(("e1", "e2", "e3"), map(edge_to_json, edges)))
    code, rep = run(tmp_path, "verify-triangle", "--input", write(tmp_path, "tri.json", obj))
    assert code == 2 and rep["kind"] == "input" and rep["error"] == error, rep
_R_SWAP = SSEEdge(_ALL_ONES, _ALL_ONES, _SW, _ALL_ONES)
_S_SWAP = SSEEdge(_ALL_ONES, _ALL_ONES, _ALL_ONES, _SW)
_SWAP_SWAP = SSEEdge(I2, I2, _SW, _SW)


@pytest.mark.parametrize(
    "edges",
    [
        (_SWAP_SWAP, _SWAP_SWAP, SSEEdge(I2, I2, I2, I2)),
        (_R_SWAP, _R_SWAP, _R_SWAP),
        (_R_SWAP, _S_SWAP, _S_SWAP),
        (_S_SWAP, _R_SWAP, _S_SWAP),
        (_SWAP_SWAP,) * 3,
    ],
    ids=["true", "first", "third", "second", "all"],
)
def test_verify_triangle_names_the_equations_that_fail(tmp_path, edges):
    """A false report lists the failing equations, each recomputed here
    with mul; a true report keeps its keys."""
    e1, e2, e3 = edges
    want = [
        name
        for name, (x, y, z) in {
            "R1R2=R3": (e1.r, e2.r, e3.r),
            "R2S3=S1": (e2.r, e3.s, e1.s),
            "S3R1=S2": (e3.s, e1.r, e2.s),
        }.items()
        if mul(x, y) != z
    ]
    path = write(tmp_path, "tri.json", triangle_to_json(Triangle(*edges)))
    code, rep = run(tmp_path, "verify-triangle", "--input", path)
    if want:
        assert code == 1 and rep["verified"] is False and rep["failed_equations"] == want
    else:
        assert code == 0 and set(rep) == {"command", "input", "verified", "elapsed_seconds"}


def test_code_and_extract_roundtrip(tmp_path):
    for e in (SSEEdge(GM, GM, GM, I2), TRI_EDGE):
        path = write(tmp_path, "edge.json", edge_to_json(e))
        code, rep = run(tmp_path, "code", "--input", path)
        assert code == 0
        path2 = write(tmp_path, "code.json", rep["code"])
        code, rep2 = run(tmp_path, "extract", "--input", path2)
        assert code == 0
        assert rep2["edge"] == edge_to_json(e)
        code, rep3 = run(tmp_path, "decompose", "--input", path2)
        assert code == 0 and rep3["recomposes"] is True


def test_decompose_and_compose_path(tmp_path):
    sigma = shift_code(VertexShift(GM), 1)
    path = write(tmp_path, "code.json", code_to_json(sigma))
    code, rep = run(tmp_path, "decompose", "--input", path)
    assert code == 0 and rep["recomposes"]
    path2 = write(tmp_path, "path.json", rep["path"])
    code, rep2 = run(tmp_path, "compose-path", "--input", path2)
    assert code == 0
    # out along an edge and back composes to the identity on window [0, 0]
    loop = SSEPath(TRI_EDGE.a, ((TRI_EDGE, 1), (TRI_EDGE, -1)))
    code, rep = run(tmp_path, "compose-path", "--input", write(tmp_path, "loop.json",
                                                                path_to_json(loop)))
    assert code == 0 and rep["code"]["window"] == [0, 0]
    assert rep["code"]["table"] == [[[1], 1], [[2], 2], [[3], 3]]


def test_homotopic(tmp_path):
    e = SSEEdge(GM, GM, GM, I2)
    p = SSEPath(GM, ((e, 1),))
    q = SSEPath(GM, ((e, 1), (e, -1), (e, 1)))
    path = write(tmp_path, "pair.json", {"p": path_to_json(p), "q": path_to_json(q)})
    code, rep = run(tmp_path, "homotopic", "--input", path)
    assert code == 0 and rep["homotopic"]
    # loops at the full 2-shift: the swap edge (R, S) = (P, F) is homotopic
    # to itself after a backtrack along the identity edge (I, F), and not
    # to the identity edge
    swap = SSEEdge(FULL2, FULL2, NonnegMatrix([[0, 1], [1, 0]]), FULL2)
    ident = SSEEdge(FULL2, FULL2, I2, FULL2)
    p = path_to_json(SSEPath(FULL2, ((swap, 1),)))
    for steps, status in ((((ident, 1), (ident, -1), (swap, 1)), 0), (((ident, 1),), 1)):
        q = path_to_json(SSEPath(FULL2, steps))
        code, rep = run(tmp_path, "homotopic", "--input", write(tmp_path, "pair.json",
                                                                {"p": p, "q": q}))
        assert code == status and rep["homotopic"] is (status == 0), rep


def test_explore(tmp_path):
    path = write(tmp_path, "m.json", matrix_to_json(GM))
    code, rep = run(tmp_path, "explore", "--input", path, "--max-inner", "3")
    assert code == 0
    assert len(rep["fragment"]["edges"]) > 0
    code, rep = run(tmp_path, "explore", "--input", path, "--max-inner", "3", "--bound", "2")
    assert code == 3 and rep["kind"] == "bound"


@pytest.mark.parametrize(
    "flag, value, name",
    [
        ("--max-inner", "-3", "max_inner"),
        ("--max-inner", "0", "max_inner"),
        ("--max-size", "0", "max_size"),
        ("--depth", "-1", "depth"),
        ("--bound", "-5", "max_edges"),
    ],
)
def test_explore_arguments_out_of_range(tmp_path, flag, value, name):
    path = write(tmp_path, "m.json", matrix_to_json(GM))
    code, rep = run(tmp_path, "explore", "--input", path, flag, value)
    assert code == 2 and rep["kind"] == "input", rep
    assert rep["error"].startswith(f"{name} must be an int >= ")


def test_explore_ordered_bound_message(tmp_path):
    path = write(tmp_path, "m.json", matrix_to_json(GM))
    code, rep = run(tmp_path, "explore", "--input", path, "--bound", "0")
    assert code == 3 and rep["kind"] == "bound"
    assert rep["error"] == "more than 0 ordered factorizations"


@pytest.mark.parametrize(
    "input_name, extra",
    [("m.json", ["--max-inner", "2"]), ("missing.json", []), ("m.json", ["--bound", "0"])],
    ids=["report", "input-error", "bound-error"],
)
def test_an_unwritable_output_is_an_input_error(tmp_path, capsys, input_name, extra):
    write(tmp_path, "m.json", matrix_to_json(GM))
    out = tmp_path / "missing-dir" / "x.json"
    code = main(["explore", "--input", str(tmp_path / input_name), *extra, "--output", str(out)])
    rep = json.loads(capsys.readouterr().out)
    assert code == 2 and rep["command"] == "explore" and rep["kind"] == "input"
    assert str(out) in rep["error"] and not out.parent.exists()


def test_an_unwritable_output_runs_no_command(tmp_path, capsys, monkeypatch):
    def refuse(args):
        pytest.fail("the command ran although its output cannot be written")

    monkeypatch.setitem(_COMMANDS, "explore", refuse)
    out = tmp_path / "missing-dir" / "x.json"
    code = main(["explore", "--input", write(tmp_path, "m.json", matrix_to_json(GM)),
                 "--output", str(out)])
    rep = json.loads(capsys.readouterr().out)
    assert code == 2 and rep["kind"] == "input" and str(out) in rep["error"]


def test_an_output_that_names_the_input_is_read_first(tmp_path):
    path = write(tmp_path, "e.json", edge_to_json(SSEEdge(GM, GM, GM, I2)))
    code = main(["verify-edge", "--input", path, "--output", path])
    text = (tmp_path / "e.json").read_text()
    rep = json.loads(text)
    assert code == 0 and rep["verified"] and rep["input"]["A"] == matrix_to_json(GM)
    assert text == _encode(rep) + "\n"


@pytest.mark.parametrize(
    "argv, status",
    [
        (["explore", "--max-inner", "3"], 0),
        (["explore", "--bound", "0"], 3),
        (["verify-triangle"], 1),
    ],
    ids=["report", "bound-error", "verified-false"],
)
def test_an_output_that_is_not_a_regular_file_keeps_the_status(tmp_path, capsys, argv, status):
    e = SSEEdge(GM, GM, I2, GM)
    obj = (triangle_to_json(Triangle(e, e, SSEEdge(GM, GM, GM, I2)))
           if argv[0] == "verify-triangle" else matrix_to_json(GM))
    path = write(tmp_path, "in.json", obj)
    code = main([argv[0], "--input", path, *argv[1:], "--output", os.devnull])
    assert code == status and capsys.readouterr().out == ""


def test_explore_report_is_canonical_json(tmp_path):
    for a, argv, counts in (
        (GM, ["--max-inner", "3", "--depth", "2"], (8, 104, 960)),
        # entries above 9, with their edges from the Z>=0 search
        (NonnegMatrix([[12]]), ["--max-inner", "2", "--experimental-counts"], (54, 166, 357)),
    ):
        path = write(tmp_path, "m.json", matrix_to_json(a))
        out = tmp_path / "out.json"
        assert main(["explore", "--input", path, *argv, "--output", str(out)]) == 0
        text = out.read_text()
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        fragment = json.loads(text)["fragment"]
        assert tuple(len(fragment[k]) for k in ("vertices", "edges", "triangles")) == counts
        # triangles name their edges by position: e1: A -> B, e2: B -> C, e3: A -> C
        edges = fragment["edges"]
        for t in fragment["triangles"]:
            e1, e2, e3 = (edges[t[k]] for k in ("e1", "e2", "e3"))
            assert e1["target"] == e2["source"] and e1["source"] == e3["source"], t
            assert e2["target"] == e3["target"], t


def test_explore_stops_when_a_round_finds_no_new_vertex(tmp_path):
    """The golden mean's fragment is whole after 2 rounds, so 10^12 rounds
    end at once with the same fragment, and the report echoes the depth."""
    path = write(tmp_path, "m.json", matrix_to_json(GM))
    src = os.path.dirname(os.path.dirname(ssecalc.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "ssecalc.cli", "explore", "--input", path, "--max-inner", "3",
         "--depth", str(10**12)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    fragment = json.loads(proc.stdout)["fragment"]
    assert tuple(len(fragment[k]) for k in ("vertices", "edges", "triangles")) == (8, 104, 960)
    assert fragment["depth"] == 10**12


@pytest.mark.parametrize("written", [False, True], ids=["small", "large"])
def test_a_report_that_stdout_does_not_take_exits_2(tmp_path, written):
    """Standard output is a pipe whose reader has gone.  The small report
    (an input error on a missing file) fits the buffer, so it fails only
    on the flush; the large one (about 150 KB) fails on its first write.
    Either is exit 2 with one line on stderr and no traceback, and nothing
    is left to fail at exit.  The child's stdout is block-buffered, as in
    a shell."""
    path = tmp_path / "m.json"
    if written:
        path.write_text(json.dumps(matrix_to_json(GM)))
    src = os.path.dirname(os.path.dirname(ssecalc.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    reader, writer = os.pipe()
    os.close(reader)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ssecalc.cli", "explore", "--input", str(path),
             "--max-inner", "3", "--depth", "2"],
            env=dict(env, PYTHONPATH=src), stdout=writer, stderr=subprocess.PIPE, text=True,
            timeout=60,
        )
    finally:
        os.close(writer)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("\n") == 1 and "Broken pipe" in proc.stderr, proc.stderr


def test_a_report_that_an_in_process_stdout_refuses_exits_2(tmp_path, capsys, monkeypatch):
    """An in-process stdout without a file descriptor whose write fails."""

    class Refusing(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    path = write(tmp_path, "edge.json", edge_to_json(SSEEdge(GM, GM, GM, I2)))
    monkeypatch.setattr(sys, "stdout", Refusing())
    assert main(["verify-edge", "--input", path]) == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_explore_pinned_results(tmp_path):
    path = write(tmp_path, "m.json", matrix_to_json(NonnegMatrix([[1, 0], [0, 0]])))
    code, rep = run(tmp_path, "explore", "--input", path, "--max-inner", "3")
    assert code == 2 and rep["kind"] == "input"
    assert rep["error"] == "A must be nondegenerate"
    path = write(tmp_path, "m.json", matrix_to_json(NonnegMatrix([[0]])))
    code, rep = run(tmp_path, "explore", "--input", path, "--max-inner", "3")
    assert code == 0
    assert rep["fragment"]["edges"] == [] and rep["fragment"]["triangles"] == []
    assert rep["fragment"]["vertices"] == [matrix_to_json(NonnegMatrix([[0]]))]


def _degenerate_path():
    """Out from GM to B = SR, which has a zero row, and back."""
    r = NonnegMatrix([[1, 0, 1], [0, 1, 0]])
    s = NonnegMatrix([[1, 1], [1, 0], [0, 0]])
    m = mul(s, r)
    return {
        "base": matrix_to_json(GM),
        "steps": [
            {
                "edge": {
                    "A": matrix_to_json(GM),
                    "B": matrix_to_json(m),
                    "R": matrix_to_json(r),
                    "S": matrix_to_json(s),
                },
                "sign": 1,
            },
            {
                "edge": {
                    "A": matrix_to_json(m),
                    "B": matrix_to_json(GM),
                    "R": matrix_to_json(s),
                    "S": matrix_to_json(r),
                },
                "sign": 1,
            },
        ],
    }


def test_normalize_degenerate(tmp_path):
    path = write(tmp_path, "degpath.json", _degenerate_path())
    code, rep = run(tmp_path, "normalize-degenerate", "--input", path)
    assert code == 0 and rep["composite_agrees_on_cores"]
    assert rep["input"]["degenerate"] is True and rep["normalized"]["steps"]
    # the normalized path, read back, is accepted and echoed as it was
    again = write(tmp_path, "normalized.json", rep["normalized"])
    code, rep2 = run(tmp_path, "normalize-degenerate", "--input", again)
    assert code == 0 and rep2["composite_agrees_on_cores"]
    assert rep2["input"] == rep["normalized"]
    # the bound counts rounds: a negative one is an input error, and 0
    # rounds leave the degenerate midpoint
    for bound in ("-1", "-7"):
        code, rep = run(tmp_path, "normalize-degenerate", "--input", path, "--bound", bound)
        assert code == 2 and rep["kind"] == "input", rep
        assert rep["error"] == f"max_rounds must be an int >= 0, not {bound}"
    code, rep = run(tmp_path, "normalize-degenerate", "--input", path, "--bound", "0")
    assert code == 3 and rep["kind"] == "bound", rep


Z3 = {"elements": ["e", "a", "a^2"], "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}
Z3_MATRIX = {
    "group": Z3,
    "rows": 2,
    "cols": 2,
    "entries": [[["e", "a"], ["a"]], [["a^2"], ["a^2"]]],
}


def test_gsft_bar_and_hat(tmp_path):
    path = write(tmp_path, "gr.json", Z3_MATRIX)
    code, rep = run(tmp_path, "gsft-bar", "--input", path)
    assert code == 0
    assert rep["bar"]["rows"] == 6
    back = write(
        tmp_path, "hat.json", {"group": Z3, "matrix": rep["bar"], "shape": [2, 2]}
    )
    code, rep2 = run(tmp_path, "gsft-hat", "--input", back)
    assert code == 0
    assert rep2["hat"]["entries"] == [[["a", "e"], ["a"]], [["a^2"], ["a^2"]]]


def test_freudenthal_check(tmp_path):
    # dimension n has 2^n cells on (n + 1)(n + 2)/2 vertices
    for dimension, trials, cells, vertices in (("3", "5", 8, 10), ("6", "2", 64, 28),
                                               ("10", "1", 1024, 66)):
        code, rep = run(tmp_path, "freudenthal-check", "--dimension", dimension,
                        "--trials", trials)
        assert code == 0
        assert (rep["cells"], rep["vertices"]) == (cells, vertices)
        assert rep["chain_map_identity"] is True and rep["chain_homotopy"] is True


def test_negative_trials_are_input_errors(tmp_path):
    for dimension, trials in (("3", "-2"), ("6", "-1")):
        code, rep = run(tmp_path, "freudenthal-check", "--dimension", dimension,
                        "--trials", trials)
        assert code == 2 and rep["kind"] == "input" and "trials" in rep["error"]
    path = write(tmp_path, "ax.json", {"base": matrix_to_json(GM), "tuple_size": 2})
    code, rep = run(tmp_path, "refine-axioms", "--input", path, "--trials", "-1")
    assert code == 2 and rep["kind"] == "input" and "trials" in rep["error"]


def test_trial_counts_above_the_cap_are_bound_errors(tmp_path):
    # a count above MAX_TRIALS is refused before any work, not run until killed
    path = write(tmp_path, "ax.json", {"base": matrix_to_json(GM), "tuple_size": 2})
    over = str(MAX_TRIALS + 1)
    for argv in (("freudenthal-check", "--dimension", "3"), ("refine-axioms", "--input", path)):
        start = time.monotonic()
        code, rep = run(tmp_path, *argv, "--trials", over)
        assert time.monotonic() - start < 5
        assert code == 3 and rep["kind"] == "bound"
        assert f"MAX_TRIALS = {MAX_TRIALS}" in rep["error"]


def test_parser_is_built_once_and_keeps_no_state(tmp_path):
    assert build_parser() is build_parser()
    path = write(tmp_path, "ax.json", {"base": matrix_to_json(GM), "tuple_size": 2})
    code, rep = run(tmp_path, "freudenthal-check", "--dimension", "2", "--trials", "1",
                    "--seed", "9")
    assert code == 0 and (rep["trials"], rep["seed"]) == (1, 9)
    code, rep = run(tmp_path, "refine-axioms", "--input", path)
    assert code == 0 and (rep["trials"], rep["seed"]) == (5, 0)
    code, rep = run(tmp_path, "freudenthal-check", "--dimension", "3")
    assert code == 0 and (rep["dimension"], rep["trials"], rep["seed"]) == (3, 5, 0)
    assert "input" not in rep
    args = build_parser().parse_args(["freudenthal-check", "--dimension", "2"])
    assert args.output is None and not hasattr(args, "input")


def test_refine_axioms(tmp_path):
    path = write(tmp_path, "ax.json", {"base": matrix_to_json(GM), "tuple_size": 2})
    code, rep = run(tmp_path, "refine-axioms", "--input", path, "--trials", "2", "--seed", "5")
    assert code == 0 and rep["all_passed"]
    path = write(tmp_path, "ax3.json", {"base": matrix_to_json(TRI_EDGE.a), "tuple_size": 3})
    code, rep = run(tmp_path, "refine-axioms", "--input", path)
    assert code == 0 and rep["all_passed"] is True
    assert all(axiom["checked"] > 0 for axiom in rep["axioms"]), rep["axioms"]


def test_cayley_schedule(tmp_path):
    obj = {
        "group": {"type": "Z^d", "dim": 2},
        "generators": [[0, 0], [1, 0], [0, 1]],
        "window": [[0, 0], [1, 0], [1, 1]],
    }
    path = write(tmp_path, "w.json", obj)
    code, rep = run(tmp_path, "cayley-schedule", "--input", path)
    assert code == 0 and rep["verified"]
    assert len(rep["schedule"]) == 2


def test_reports_are_reproducible(tmp_path):
    path = write(tmp_path, "ax.json", {"base": matrix_to_json(GM), "tuple_size": 2})
    _, rep1 = run(tmp_path, "refine-axioms", "--input", path, "--seed", "3")
    rep1.pop("elapsed_seconds")
    _, rep2 = run(tmp_path, "refine-axioms", "--input", path, "--seed", "3")
    rep2.pop("elapsed_seconds")
    assert rep1 == rep2


@pytest.mark.parametrize(
    "command, obj",
    [
        ("refine-axioms", {"base": [[1, 1, 0], [0, 1, 1], [1, 0, 1]], "tuple_size": 3}),
        ("verify-edge", dict(edge_to_json(SSEEdge(GM, GM, GM, I2)), A=[[1]])),
    ],
    ids=["refine-axioms-base-rows", "verify-edge-a-rows"],
)
def test_a_matrix_that_is_not_an_object_is_an_input_error(tmp_path, command, obj):
    code, rep = run(tmp_path, command, "--input", write(tmp_path, "in.json", obj))
    assert code == 2 and rep["kind"] == "input", rep
    assert rep["error"] == 'a matrix must be a JSON object with "rows", "cols" and "entries"'


_GM_CODE = code_to_json(shift_code(VertexShift(GM), 1))
_CODE_TEXT = 'a block code must be a JSON object with "domain", "codomain", "window" and "table"'


@pytest.mark.parametrize(
    "command, obj, error",
    [
        ("verify-edge", [1, 2], 'an edge must be a JSON object with "A", "B", "R" and "S"'),
        ("verify-triangle", [1], 'a triangle must be a JSON object with "e1", "e2" and "e3"'),
        ("compose-path", "x", 'a path must be a JSON object with "base" and "steps"'),
        (
            "compose-path",
            {"base": matrix_to_json(GM), "steps": [1]},
            'a path step must be a JSON object with "edge" and "sign"',
        ),
        ("extract", 5, _CODE_TEXT),
        ("decompose", dict(_GM_CODE, inverse=[1]), _CODE_TEXT),
        ("gsft-bar", [1], 'a group-ring matrix must be a JSON object with "group" and "entries"'),
        (
            "gsft-bar",
            {"group": [1], "entries": []},
            'a group must be a JSON object with "elements" and "table"',
        ),
        (
            "cayley-schedule",
            [1],
            'a window must be a JSON object with "group", "generators" and "window"',
        ),
    ],
    ids=[
        "verify-edge-list",
        "verify-triangle-list",
        "compose-path-string",
        "compose-path-step-int",
        "extract-int",
        "decompose-inverse-list",
        "gsft-bar-list",
        "gsft-bar-group-list",
        "cayley-schedule-list",
    ],
)
def test_a_value_that_is_not_an_object_is_named_as_such(tmp_path, command, obj, error):
    code, rep = run(tmp_path, command, "--input", write(tmp_path, "in.json", obj))
    assert code == 2 and rep["kind"] == "input", rep
    assert rep["error"] == error


def test_homotopic_non_object_input(tmp_path):
    path = write(tmp_path, "pair.json", [1, 2])
    code, rep = run(tmp_path, "homotopic", "--input", path)
    assert code == 2 and rep["kind"] == "input"


def test_gsft_hat_bad_shape(tmp_path):
    groupobj = {"elements": ["e"], "table": [[0]]}
    matrix = matrix_to_json(NonnegMatrix([[1]]))
    for shape in (5, [1], [1, 1.5], [True, 1], [0, 1]):
        path = write(tmp_path, "hat.json", {"group": groupobj, "matrix": matrix, "shape": shape})
        code, rep = run(tmp_path, "gsft-hat", "--input", path)
        assert code == 2 and rep["kind"] == "input", shape
    path = write(tmp_path, "hat.json", [groupobj])
    code, rep = run(tmp_path, "gsft-hat", "--input", path)
    assert code == 2 and rep["kind"] == "input"


def test_refine_axioms_malformed_input(tmp_path):
    for obj in ([1, 2], 5, None, {"codes": 5}, {"codes": []},
                {"base": matrix_to_json(GM), "tuple_size": 0}):
        path = write(tmp_path, "ax.json", obj)
        code, rep = run(tmp_path, "refine-axioms", "--input", path)
        assert code == 2 and rep["kind"] == "input", obj


def test_refine_axioms_refuses_unknown_keys(tmp_path):
    gm = matrix_to_json(GM)
    codes = [_code_obj()]
    for obj, key in (
        ({"base": gm, "steps": 5}, "steps"),
        ({"base": gm, "tuple_size": 2, "trials": 9}, "trials"),
        ({"codes": codes, "base": gm}, "base"),
        ({"codes": codes, "tuple_size": 2}, "tuple_size"),
    ):
        path = write(tmp_path, "ax.json", obj)
        code, rep = run(tmp_path, "refine-axioms", "--input", path)
        assert code == 2 and rep["kind"] == "input", obj
        assert f"unexpected axiom input key {key!r}" in rep["error"], rep
    for obj in ({"base": gm}, {"base": gm, "tuple_size": 2}, {"codes": codes}):
        path = write(tmp_path, "ax.json", obj)
        code, rep = run(tmp_path, "refine-axioms", "--input", path, "--trials", "1")
        assert code == 0 and rep["all_passed"], obj


def test_cayley_schedule_non_object_group(tmp_path):
    obj = {"group": 1, "generators": [[0, 0]], "window": [[0, 0]]}
    path = write(tmp_path, "w.json", obj)
    code, rep = run(tmp_path, "cayley-schedule", "--input", path)
    assert code == 2 and rep["kind"] == "input"


def _code_obj(**changes):
    return dict(code_to_json(shift_code(VertexShift(GM), 1)), **changes)


def _signed_path(sign):
    """A one-step path at GM whose step has the given sign."""
    step = {"edge": edge_to_json(SSEEdge(GM, GM, I2, GM)), "sign": sign}
    return {"base": matrix_to_json(GM), "steps": [step]}


@pytest.mark.parametrize("command", ["extract", "decompose"])
@pytest.mark.parametrize("right", [1500, 39])
def test_a_wide_code_window_is_an_input_error(tmp_path, command, right):
    """The golden-mean identity table on a window of right + 1 coordinates
    is refused before its allowed words are built."""
    obj = code_to_json(shift_code(VertexShift(GM), 1), include_inverse=False)
    path = write(tmp_path, "code.json", dict(obj, window=[0, right]))
    start = time.monotonic()
    code, rep = run(tmp_path, command, "--input", path)
    assert time.monotonic() - start < 0.5
    assert code == 2 and rep["kind"] == "input", rep
    assert rep["error"].startswith(f"table must be total on allowed {right + 1}-words")


# signs that are not the integer 1 or -1, each through every path decoder
_BAD_SIGN_INPUTS = [
    (command, obj)
    for sign in (1.5, "1", "-1", True, 1.0)
    for command, obj in (
        ("compose-path", _signed_path(sign)),
        ("homotopic", {"p": _signed_path(sign), "q": _signed_path(1)}),
        ("normalize-degenerate", _signed_path(sign)),
    )
]


@pytest.mark.parametrize(
    "command, obj",
    [
        ("extract", _code_obj(window=["a", 0])),
        ("extract", _code_obj(table=[[[1], 1.0], [[2], 2]])),
        ("decompose", _code_obj(table=[[[1.0], 1], [[2], 2]])),
        ("refine-axioms", {"codes": [_code_obj(window=[1, "b"])]}),
        ("explore", {"rows": 1, "cols": 1, "entries": 5}),
        ("refine-axioms", {"base": {"rows": 1, "cols": 1, "entries": [5]}}),
        (
            "cayley-schedule",
            {"group": {"type": "Z^d", "dim": 1}, "generators": [[0], [1]], "window": [[[1]]]},
        ),
        *_BAD_SIGN_INPUTS,
        # a true inverse that carries an inverse of its own
        ("extract", _code_obj(inverse=code_to_json(shift_code(VertexShift(GM), -1)))),
        ("decompose", _code_obj(inverse=code_to_json(shift_code(VertexShift(GM), -1)))),
        # declared shapes that equal the shape but are not ints
        ("explore", {"rows": True, "cols": True, "entries": [[1]]}),
        ("explore", {"rows": 1.0, "cols": 1, "entries": [[1]]}),
        ("gsft-bar", dict(Z3_MATRIX, rows=2.0)),
        ("gsft-bar", dict(Z3_MATRIX, cols=True, rows=True, entries=[[["e"]]])),
        ("verify-edge", dict(edge_to_json(SSEEdge(GM, GM, GM, I2)),
                             A=dict(matrix_to_json(GM), rows=True))),
    ],
    # fixed ids, so a case inserted anywhere renames no other test; they
    # keep the positional names pytest first gave these cases
    ids=[
        "extract-obj0", "extract-obj1", "decompose-obj2",
        "refine-axioms-obj3", "explore-obj4", "refine-axioms-obj5",
        "cayley-schedule-obj6", "compose-path-obj7", "homotopic-obj8",
        "normalize-degenerate-obj9", "compose-path-obj10", "homotopic-obj11",
        "normalize-degenerate-obj12", "compose-path-obj13", "homotopic-obj14",
        "normalize-degenerate-obj15", "compose-path-obj16", "homotopic-obj17",
        "normalize-degenerate-obj18", "compose-path-obj19", "homotopic-obj20",
        "normalize-degenerate-obj21", "extract-obj22", "decompose-obj23",
        "explore-obj24", "explore-obj25", "gsft-bar-obj26",
        "gsft-bar-obj27", "verify-edge-obj28",
    ],
)
def test_malformed_json_is_an_input_error(tmp_path, command, obj):
    path = write(tmp_path, "in.json", obj)
    code, rep = run(tmp_path, command, "--input", path)
    assert code == 2 and rep["kind"] == "input", rep


def test_malformed_input_cases_have_fixed_ids():
    # positional ids of dict cases renumber every later test on an insertion
    (mark,) = test_malformed_json_is_an_input_error.pytestmark
    ids = mark.kwargs.get("ids")
    assert ids is not None and len(ids) == len(set(ids)) == len(mark.args[1])
    assert all(name.startswith(command + "-") for name, (command, _) in zip(ids, mark.args[1]))


def _zd_window(dim, generators, window):
    return {"group": {"type": "Z^d", "dim": dim}, "generators": generators, "window": window}


@pytest.mark.parametrize(
    "obj",
    [
        _zd_window("2", [[0, 0], [1, 0]], [[0, 0]]),
        _zd_window(2.9, [[0, 0], [1, 0]], [[0, 0]]),
        _zd_window(True, [[0], [1]], [[0]]),
        _zd_window(0, [[]], [[]]),
        _zd_window(2, [[0, 0], [True, 0]], [[0, 0]]),
        _zd_window(1, [[0], [1]], [[0], [True]]),
    ],
    ids=["dim-str", "dim-float", "dim-bool", "dim-zero", "bool-generator", "bool-element"],
)
def test_cayley_schedule_rejects_non_integer_z_d(tmp_path, obj):
    path = write(tmp_path, "w.json", obj)
    code, rep = run(tmp_path, "cayley-schedule", "--input", path)
    assert code == 2 and rep["kind"] == "input", rep


def test_cayley_schedule_names_the_first_bad_element_under_any_hash_seed(tmp_path):
    """Elements are checked in input order, so the report does not depend
    on the set order of PYTHONHASHSEED."""
    obj = _zd_window(2, [[0, 0], [1, 0]], [[0, 0], [1, 1.5], "ea"])
    path = write(tmp_path, "w.json", obj)
    src = os.path.dirname(os.path.dirname(ssecalc.__file__))
    reports = []
    for seed in ("1", "6"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "ssecalc.cli", "cayley-schedule", "--input", path],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        reports.append(json.loads(proc.stdout))
    assert reports[0] == reports[1] == {
        "command": "cayley-schedule",
        "error": "(1, 1.5) is not an element of Z^2",
        "kind": "input",
    }


def test_cayley_schedule_refuses_an_empty_generating_set_before_the_identity(tmp_path):
    """Z^d's identity is a d-tuple; with no element to bound d it is never built."""
    obj = _zd_window(10**20, [], [])
    code, rep = run(tmp_path, "cayley-schedule", "--input", write(tmp_path, "w.json", obj))
    assert code == 2 and rep["kind"] == "input", rep
    assert rep["error"] == "generating set must contain the identity"


def test_refine_axioms_large_tuple(tmp_path):
    path = write(tmp_path, "ax.json", {"base": matrix_to_json(GM), "tuple_size": 12})
    code, rep = run(tmp_path, "refine-axioms", "--input", path, "--trials", "3")
    assert code == 0 and rep["all_passed"]


FULL2 = NonnegMatrix([[1, 1], [1, 1]])


def _code_json(domain, codomain, window, table, inverse=None):
    """A block code object with 1-based symbols."""
    obj = {
        "domain": matrix_to_json(domain),
        "codomain": matrix_to_json(codomain),
        "window": list(window),
        "table": [[list(w), v] for w, v in table],
    }
    if inverse is not None:
        obj["inverse"] = inverse
    return obj


# the identity of the full 2-shift with the swap stored as its inverse
IDENTITY_WITH_SWAP = _code_json(
    FULL2, FULL2, (0, 0), [((1,), 1), ((2,), 2)],
    _code_json(FULL2, FULL2, (0, 0), [((1,), 2), ((2,), 1)]),
)
# a golden-mean to full-2-shift 2-block code with a constant inverse
TWO_BLOCK_WITH_CONSTANT = _code_json(
    GM, FULL2, (0, 1), [((1, 1), 1), ((1, 2), 2), ((2, 1), 2)],
    _code_json(FULL2, GM, (0, 0), [((1,), 1), ((2,), 1)]),
)


@pytest.mark.parametrize(
    "code_obj", [IDENTITY_WITH_SWAP, TWO_BLOCK_WITH_CONSTANT], ids=["swap", "constant"]
)
def test_refine_axioms_refuses_a_false_stored_inverse(tmp_path, code_obj):
    path = write(tmp_path, "ax.json", {"codes": [code_obj]})
    code, rep = run(tmp_path, "refine-axioms", "--input", path)
    assert code == 2 and rep["kind"] == "input", rep
    assert rep["error"] == "stored inverse failed verification"


# phi of the edge (R, S) = (F, P) at the full 2-shift F, P the swap, with
# the shift back stored as its inverse; read as a true inverse it gives
# the edge (F, I), whose conjugacy is the plain shift
SWAP_EDGE_WITH_SHIFT_BACK = _code_json(
    FULL2, FULL2, (0, 1), [((1, 1), 2), ((1, 2), 1), ((2, 1), 2), ((2, 2), 1)],
    _code_json(FULL2, FULL2, (-1, 0), [((1, 1), 1), ((1, 2), 1), ((2, 1), 2), ((2, 2), 2)]),
)


def test_extract_refuses_a_false_stored_inverse(tmp_path):
    path = write(tmp_path, "code.json", SWAP_EDGE_WITH_SHIFT_BACK)
    code, rep = run(tmp_path, "extract", "--input", path)
    assert code == 2 and rep["kind"] == "input", rep
    assert rep["error"] == "stored inverse failed verification"


def test_refine_axioms_on_listed_codes(tmp_path):
    sigma = code_to_json(shift_code(VertexShift(GM), 1))
    path = write(tmp_path, "ax.json", {"codes": [sigma, sigma]})
    code, rep = run(tmp_path, "refine-axioms", "--input", path, "--trials", "2")
    assert code == 0 and rep["all_passed"] and rep["input"] == {"codes": 2}


@pytest.mark.parametrize(
    "command",
    [name for name in _COMMANDS if name not in ("freudenthal-check", "refine-axioms")],
)
@pytest.mark.parametrize("flag", ["--seed", "--trials"])
def test_seed_and_trials_belong_to_the_random_suites(tmp_path, capsys, command, flag):
    path = write(tmp_path, "in.json", {})
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", path, flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def _group_input(command, names, table=((0, 1), (1, 0))):
    """A valid gsft-hat, gsft-bar or cayley-schedule input over a two-element
    group, with the given element names and table."""
    group = {"elements": list(names), "table": [list(row) for row in table]}
    if command == "gsft-hat":
        matrix = matrix_to_json(NonnegMatrix([[1, 1], [1, 1]]))
        return {"group": group, "matrix": matrix, "shape": [1, 1]}
    if command == "gsft-bar":
        return {"group": group, "rows": 1, "cols": 1, "entries": [[list(names)]]}
    return {"group": {"type": "table", **group}, "generators": list(names), "window": list(names)}


@pytest.mark.parametrize("command", ["gsft-hat", "gsft-bar", "cayley-schedule"])
def test_group_element_names_must_be_strings(tmp_path, command):
    path = write(tmp_path, "in.json", _group_input(command, ["e", "a"]))
    code, rep = run(tmp_path, command, "--input", path)
    assert code == 0, rep
    names = ["e", 0] if command == "gsft-hat" else ["e", 1]
    path = write(tmp_path, "in.json", _group_input(command, names))
    code, rep = run(tmp_path, command, "--input", path)
    assert code == 2 and rep["kind"] == "input", rep
    assert rep["error"] == "element names must be strings"


def test_group_table_entries_must_be_integers(tmp_path):
    obj = _group_input("gsft-bar", ["e", "a"], table=[[0, True], [True, 0]])
    path = write(tmp_path, "in.json", obj)
    code, rep = run(tmp_path, "gsft-bar", "--input", path)
    assert code == 2 and rep["kind"] == "input", rep
    assert rep["error"] == "table entry True is not an integer"


def test_gsft_bar_refuses_a_cell_that_lists_an_element_twice(tmp_path):
    group = {"elements": ["e", "a"], "table": [[0, 1], [1, 0]]}
    path = write(tmp_path, "in.json", {"group": group, "entries": [[["e", "e", "a"]]]})
    code, rep = run(tmp_path, "gsft-bar", "--input", path)
    assert code == 2 and rep["kind"] == "input", rep
    assert rep["error"] == "coefficient >= 2 at cell (1,1): element 'e' is listed more than once"


_HAT = _group_input("gsft-hat", ["e", "a"])


@pytest.mark.parametrize(
    "command, obj, error",
    [
        ("homotopic", {}, "malformed path pair object: 'p'"),
        ("homotopic", {"p": _signed_path(1)}, "malformed path pair object: 'q'"),
        ("refine-axioms", {}, "malformed axiom input object: 'base'"),
        ("gsft-hat", {}, "malformed hat input object: 'group'"),
        ("gsft-hat", {"group": _HAT["group"]}, "malformed hat input object: 'matrix'"),
        (
            "gsft-hat",
            {"group": _HAT["group"], "matrix": _HAT["matrix"]},
            "malformed hat input object: 'shape'",
        ),
        (
            "compose-path",
            {"base": matrix_to_json(GM), "steps": [{"edge": _signed_path(1)["steps"][0]["edge"]}]},
            "malformed path step object: 'sign'",
        ),
        (
            "normalize-degenerate",
            {"base": matrix_to_json(GM), "steps": [{"sign": 1}]},
            "malformed path step object: 'edge'",
        ),
    ],
    ids=["homotopic-empty", "homotopic-q", "refine-axioms-empty", "gsft-hat-empty",
         "gsft-hat-matrix", "gsft-hat-shape", "compose-path-step-sign",
         "normalize-degenerate-step-edge"],
)
def test_a_missing_key_is_named_by_its_decoder(tmp_path, command, obj, error):
    code, rep = run(tmp_path, command, "--input", write(tmp_path, "in.json", obj))
    assert code == 2 and rep["kind"] == "input", rep
    assert rep["error"] == error


@pytest.mark.parametrize(
    "command, obj, error",
    [
        (
            "gsft-bar",
            {"group": dict(_HAT["group"], elements="ea"), "entries": [["ea", "e"], ["a", "ea"]]},
            "group elements must be a JSON list, not 'ea'",
        ),
        (
            "gsft-hat",
            dict(_HAT, group=dict(_HAT["group"], elements="ea")),
            "group elements must be a JSON list, not 'ea'",
        ),
        (
            "gsft-bar",
            {"group": _HAT["group"], "entries": "ea"},
            "group-ring entries must be a JSON list, not 'ea'",
        ),
        (
            "gsft-bar",
            {"group": _HAT["group"], "entries": ["ea"]},
            "a group-ring row must be a JSON list, not 'ea'",
        ),
        (
            "gsft-bar",
            {"group": _HAT["group"], "entries": [[{"e": 0, "a": 1}]]},
            "a group-ring cell must be a JSON list, not {'e': 0, 'a': 1}",
        ),
        (
            "cayley-schedule",
            dict(_group_input("cayley-schedule", ["e", "a"]), generators="ea"),
            "generators must be a JSON list, not 'ea'",
        ),
        (
            "cayley-schedule",
            dict(_group_input("cayley-schedule", ["e", "a"]), window="ea"),
            "window must be a JSON list, not 'ea'",
        ),
        (
            "compose-path",
            dict(_signed_path(1), steps=3),
            "path steps must be a JSON list, not 3",
        ),
        (
            "cayley-schedule",
            _zd_window(1, "ab", [[0]]),
            "generators must be a JSON list, not 'ab'",
        ),
        (
            "cayley-schedule",
            _zd_window(1, [[0], [1]], {"a": 1}),
            "window must be a JSON list, not {'a': 1}",
        ),
    ],
    ids=["gsft-bar-elements", "gsft-hat-elements", "gsft-bar-entries", "gsft-bar-row",
         "gsft-bar-cell", "cayley-schedule-generators", "cayley-schedule-window",
         "compose-path-steps", "cayley-schedule-zd-generators", "cayley-schedule-zd-window"],
)
def test_a_string_or_object_is_not_read_as_a_list(tmp_path, command, obj, error):
    code, rep = run(tmp_path, command, "--input", write(tmp_path, "in.json", obj))
    assert code == 2 and rep["kind"] == "input", rep
    assert rep["error"] == error


@pytest.mark.parametrize(
    "table",
    [[[["a"], 1], [[2], 2]], [[[1], "a"], [[2], 2]], [[{"a": 1}, 1], [[2], 2]]],
    ids=["word", "image", "object-word"],
)
def test_table_symbols_are_checked_before_they_are_read(tmp_path, table):
    path = write(tmp_path, "code.json", _code_obj(table=table))
    code, rep = run(tmp_path, "extract", "--input", path)
    assert code == 2 and rep["kind"] == "input", rep
    assert rep["error"] == "window and table symbols must be integers, not 'a'"


def _path_with_a_two():
    """The edge R = [1], S = [2] from [2] to itself, which has no {0,1}
    composite."""
    two = matrix_to_json(NonnegMatrix([[2]]))
    edge = {"A": two, "B": two, "R": matrix_to_json(NonnegMatrix([[1]])), "S": two}
    return {"base": two, "steps": [{"edge": edge, "sign": 1}]}


def test_normalize_degenerate_with_an_entry_above_one(tmp_path):
    # no {0,1} composite, so the report carries no core comparison; with
    # no steps the base alone has the entry above one
    for obj in (_path_with_a_two(), dict(_path_with_a_two(), steps=[])):
        path = write(tmp_path, "p.json", obj)
        code, rep = run(tmp_path, "normalize-degenerate", "--input", path)
        assert code == 0, rep
        assert "composite_agrees_on_cores" not in rep
        assert rep["input"]["degenerate"] is True


def test_explore_edge_cap(tmp_path):
    # the factorization searches stay under the cap; the fragment's edges pass it
    path = write(tmp_path, "m.json", matrix_to_json(GM))
    argv = ("--max-inner", "3", "--depth", "2", "--bound", "100")
    code, rep = run(tmp_path, "explore", "--input", path, *argv)
    assert code == 3 and rep["kind"] == "bound", rep
    assert rep["error"] == "more than 100 edges; tighten the bounds"


# one valid input per subcommand that reads one, with its extra arguments
_SWEEP_INPUTS = [
    ("verify-edge", edge_to_json(SSEEdge(GM, GM, GM, I2)), ()),
    ("verify-triangle", triangle_to_json(Triangle(*[SSEEdge(GM, GM, I2, GM)] * 3)), ()),
    ("code", edge_to_json(SSEEdge(GM, GM, GM, I2)), ()),
    ("extract", _code_obj(), ()),
    ("decompose", _code_obj(), ()),
    ("compose-path", _signed_path(1), ()),
    ("homotopic", {"p": _signed_path(1), "q": _signed_path(1)}, ()),
    ("explore", matrix_to_json(GM), ("--max-inner", "2", "--max-size", "3")),
    ("normalize-degenerate", _degenerate_path(), ()),
    ("gsft-bar", Z3_MATRIX, ()),
    ("gsft-hat", _group_input("gsft-hat", ["e", "a"]), ()),
    ("refine-axioms", {"base": matrix_to_json(GM), "tuple_size": 2}, ("--trials", "1")),
    ("cayley-schedule", _zd_window(2, [[0, 0], [1, 0], [0, 1]], [[0, 0], [1, 0], [1, 1]]), ()),
    ("cayley-schedule", _group_input("cayley-schedule", ["e", "a"]), ()),
    # the 3-block presentation of the golden mean: step matrices up to 5x5
    ("decompose", code_to_json(higher_block(VertexShift(GM), 3)[1]), ()),
    ("normalize-degenerate", _path_with_a_two(), ()),
]
# the report key of each subcommand that can exit 1, false when it does
_VERDICTS = {
    "verify-edge": "verified",
    "verify-triangle": "verified",
    "decompose": "recomposes",
    "homotopic": "homotopic",
    "normalize-degenerate": "composite_agrees_on_cores",
    "refine-axioms": "all_passed",
    "cayley-schedule": "verified",
}
_VALUES = [-1, 0, 1, 2, 3, 1500, 10**20, 1.5, True, None, "x", [], {}]


def _slots(obj, path=()):
    """The path of every value nested in obj."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _slots(value, path + (key,))


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("sweep")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_inputs_keep_the_exit_contract(sweep_dir, data):
    """One or two keys deleted or renamed, or values replaced, in a valid
    input never escape main, and never read as a false verdict."""
    command, obj, extra = data.draw(st.sampled_from(_SWEEP_INPUTS))
    obj = copy.deepcopy(obj)
    for _ in range(data.draw(st.integers(1, 2))):
        *head, last = data.draw(st.sampled_from(list(_slots(obj))))
        parent = functools.reduce(operator.getitem, head, obj)
        change = data.draw(st.sampled_from(["delete", "rename", "replace"]))
        if isinstance(parent, dict) and change == "delete":
            del parent[last]
        elif isinstance(parent, dict) and change == "rename":
            names = {p[-1] for p in _slots(obj) if isinstance(p[-1], str)}
            parent[data.draw(st.sampled_from(sorted(names | {"x"})))] = parent.pop(last)
        else:
            parent[last] = copy.deepcopy(data.draw(st.sampled_from(_VALUES)))
    code, rep = run(sweep_dir, command, "--input", write(sweep_dir, "in.json", obj), *extra)
    assert code in (0, 1, 2, 3), rep
    if code == 2:
        assert rep["kind"] == "input", rep
    if code == 1:
        assert rep[_VERDICTS[command]] is False, rep


_INPUT_COMMANDS = [name for name in _COMMANDS if name != "freudenthal-check"]

_EDGE_TEXTS = (
    'an edge must be a JSON object with "A", "B", "R" and "S"',
    "malformed edge object: 'A'",
)
_PATH_TEXTS = (
    'a path must be a JSON object with "base" and "steps"',
    "malformed path object: 'base'",
)
# the refusal of a value that is not an object, and of an object without
# its first key, by the reader of each subcommand's input
_READER_TEXTS = {
    "verify-edge": _EDGE_TEXTS,
    "verify-triangle": (
        'a triangle must be a JSON object with "e1", "e2" and "e3"',
        "malformed triangle object: 'e1'",
    ),
    "code": _EDGE_TEXTS,
    "extract": (_CODE_TEXT, "malformed block code object: 'domain'"),
    "decompose": (_CODE_TEXT, "malformed block code object: 'domain'"),
    "compose-path": _PATH_TEXTS,
    "homotopic": (
        'a path pair must be a JSON object with "p" and "q"',
        "malformed path pair object: 'p'",
    ),
    "explore": (
        'a matrix must be a JSON object with "rows", "cols" and "entries"',
        "malformed matrix object: 'rows'",
    ),
    "normalize-degenerate": _PATH_TEXTS,
    "gsft-bar": (
        'a group-ring matrix must be a JSON object with "group" and "entries"',
        "malformed group-ring matrix object: 'group'",
    ),
    "gsft-hat": (
        'a hat input must be a JSON object with "group", "matrix" and "shape"',
        "malformed hat input object: 'group'",
    ),
    # the two forms of an axiom input are told apart before the reader runs
    "refine-axioms": ("axiom input must be a JSON object", "malformed axiom input object: 'base'"),
    "cayley-schedule": (
        'a window must be a JSON object with "group", "generators" and "window"',
        "malformed window object: 'group'",
    ),
}
_NON_OBJECTS = {"list": [], "string": "x", "int": 5, "null": None, "empty": {}}


@pytest.mark.parametrize(
    "command, obj, error",
    [
        (command, obj, _READER_TEXTS[command][name == "empty"])
        for command in _INPUT_COMMANDS
        for name, obj in _NON_OBJECTS.items()
    ],
    ids=[f"{command}-{name}" for command in _INPUT_COMMANDS for name in _NON_OBJECTS],
)
def test_every_input_reader_refuses_a_non_object_and_a_missing_key(tmp_path, command, obj, error):
    code, rep = run(tmp_path, command, "--input", write(tmp_path, "in.json", obj))
    assert code == 2 and rep["kind"] == "input", rep
    assert rep["error"] == error


_TOO_DEEP = "input nests deeper than the JSON decoder allows"


@pytest.mark.parametrize("command", _INPUT_COMMANDS)
@pytest.mark.parametrize(
    "text, error",
    [
        ("[" * 5000 + "]" * 5000, None),
        ('{"a": ' * 3000 + "1" + "}" * 3000, None),
        ("[" * 100_000 + "]" * 100_000, _TOO_DEEP),
        ('{"a": ' * 100_000 + "1" + "}" * 100_000, _TOO_DEEP),
    ],
    ids=["5000-deep-list", "3000-deep-object", "100000-deep-list", "100000-deep-object"],
)
def test_deeply_nested_input_is_an_input_error(tmp_path, command, text, error):
    """Deep nesting is an input error on every Python.  Whether the decoder
    or the reader refuses it depends on the version (3.13's C decoder takes
    5,000 levels, earlier ones raise RecursionError), but every version's
    decoder refuses 100,000 levels with the one message for it."""
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, rep = run(tmp_path, command, "--input", str(path))
    assert code == 2 and rep["kind"] == "input", rep
    if error is not None:
        assert rep["error"] == error


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    dimension=st.sampled_from([*range(-1, 7), 11]),
    trials=st.integers(-2, 3),
    seed=st.integers(),
)
def test_freudenthal_check_flags_keep_the_exit_contract(sweep_dir, dimension, trials, seed):
    """Out-of-range dimensions and trials are input errors, a dimension above
    the subdivision bound is a bound error, and nothing escapes main."""
    argv = ["--dimension", str(dimension), "--trials", str(trials), "--seed", str(seed)]
    code, rep = run(sweep_dir, "freudenthal-check", *argv)
    assert code in (0, 2, 3), rep
    if code == 0:
        assert "kind" not in rep and rep["chain_homotopy"] is True, rep
    if code == 2:
        assert rep["kind"] == "input", rep
    if code == 3:
        assert rep["kind"] == "bound", rep


@pytest.mark.parametrize(
    "command, obj, extra",
    [*_SWEEP_INPUTS, ("freudenthal-check", None, ("--dimension", "3", "--trials", "1"))],
    ids=[
        "verify-edge",
        "verify-triangle",
        "code",
        "extract",
        "decompose",
        "compose-path",
        "homotopic",
        "explore",
        "normalize-degenerate",
        "gsft-bar",
        "gsft-hat",
        "refine-axioms",
        "cayley-schedule0",
        "cayley-schedule1",
        "decompose-three-block",
        "normalize-degenerate-entry-2",
        "freudenthal-check",
    ],
)
def test_reports_are_canonical_json(tmp_path, command, obj, extra):
    argv = [command, *extra]
    if obj is not None:
        argv += ["--input", write(tmp_path, "in.json", obj)]
    out = tmp_path / "out.json"
    assert main([*argv, "--output", str(out)]) == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    # exit 0 is a true verdict, where the report has one (normalize-degenerate
    # on an entry above one has no core comparison)
    assert json.loads(text).get(_VERDICTS.get(command), True) is True


class _Int(int):
    pass


class _Str(str):
    pass


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats()
    | st.text()
    | st.integers().map(_Int)
    | st.text().map(_Str)
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (
        st.lists(inner)
        | st.lists(inner).map(tuple)
        | st.lists(st.integers())
        | st.dictionaries(st.text(), inner)
        | st.dictionaries(st.text() | st.text().map(_Str), inner)
        | st.dictionaries(st.integers() | st.booleans() | st.floats(), inner)
        | st.dictionaries(st.none(), inner)
    ),
    max_leaves=20,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_report_writer_is_json_dumps(value):
    assert _encode(value) == json.dumps(value, indent=2, sort_keys=True)


@st.composite
def _matrices(draw):
    """1 to 70 rows and columns, entries 0 to 3, some rows all zero."""
    rows, cols = draw(st.integers(1, 70)), draw(st.integers(1, 70))
    top = draw(st.integers(1, 3))
    rng = draw(st.randoms(use_true_random=False))
    zero_rows = {i for i in range(rows) if rng.random() < 0.2}
    return NonnegMatrix(
        [[0 if i in zero_rows else rng.randint(0, top) for _ in range(cols)] for i in range(rows)]
    )


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_matrices(), st.sampled_from(["", "  ", "      "]))
def test_a_matrix_is_written_as_json_dumps_writes_its_object(m, pad):
    expected = json.dumps(matrix_to_json(m), indent=2, sort_keys=True)
    assert _text(m, pad) == expected.replace("\n", "\n" + pad)


def test_report_builders_give_plain_json_by_default():
    """Library callers and input files get dicts of lists of ints; only the
    CLI passes its matrices through the builders unencoded."""
    e, loop = SSEEdge(GM, GM, GM, I2), SSEEdge(GM, GM, I2, GM)
    deg = path_from_json(_degenerate_path(), degenerate=True)
    built = [
        matrix_to_json(NonnegMatrix([[0, 3], [2, 0]])),
        edge_to_json(e),
        edge_to_json(e, degenerate=True),
        triangle_to_json(Triangle(loop, loop, loop)),
        path_to_json(SSEPath(GM, ((e, 1), (e, -1)))),
        path_to_json(deg, degenerate=True),
        code_to_json(higher_block(VertexShift(GM), 3)[1]),
    ]
    for obj in built:
        assert obj == json.loads(json.dumps(obj))
    assert built[1]["A"] == {"rows": 2, "cols": 2, "entries": [[1, 1], [1, 0]]}
    assert built[5]["steps"][0]["edge"]["B"]["entries"][2] == [0, 0, 0]  # a zero row


# the child that runs one command in-process and prints its own peak RSS
# in KiB on stderr: VmHWM, which starts afresh at exec (ru_maxrss keeps
# the forking process's peak across exec)
_PEAK_CHILD = """
import sys
from ssecalc.cli import main
status = main(sys.argv[1:])
with open("/proc/self/status") as f:
    print(next(line.split()[1] for line in f if line.startswith("VmHWM:")), file=sys.stderr)
sys.exit(status)
"""


def _long_window_code() -> dict:
    """A 3-cycle code on the window [0, 19999] that reads its first
    symbol, with its identity inverse on [0, 0]: about 180 KB of JSON."""
    cycle = matrix_to_json(NonnegMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))
    length = 20000
    table = [[[(s + k) % 3 + 1 for k in range(length)], s + 1] for s in range(3)]
    inverse = {"domain": cycle, "codomain": cycle, "window": [0, 0],
               "table": [[[s + 1], s + 1] for s in range(3)]}
    return {"domain": cycle, "codomain": cycle, "window": [0, length - 1], "table": table,
            "inverse": inverse}


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
@pytest.mark.parametrize(
    "command, digest",
    [
        ("extract", "782037cf64b23f4edaebdebf44dde5795be49a756655bc83a4df08de8faa2a66"),
        ("decompose", "875e55d76c853a219761526b619186c82de9f0eeaf9070b1bc9930e8b2312a69"),
    ],
    ids=["extract", "decompose"],
)
def test_a_long_window_runs_in_bounded_memory(tmp_path, command, digest):
    """Checking the stored inverse steps the code's words through all
    20,000 lengths; only the last one may stay in the shift's word cache.
    Keeping every length peaked at about 183 MB; the child now peaks
    near 25 MB.  The report is pinned by the sha256 of its bytes without the
    elapsed_seconds line."""
    path = write(tmp_path, "code.json", _long_window_code())
    out = tmp_path / "out.json"
    src = os.path.dirname(os.path.dirname(ssecalc.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_CHILD, command, "--input", path, "--output", str(out)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    peak_mb = int(proc.stderr.split()[-1]) / 1024
    assert peak_mb < 60, peak_mb
    text = re.sub(r'\n  "elapsed_seconds": [^\n]*', "", out.read_text())
    assert hashlib.sha256(text.encode()).hexdigest() == digest
