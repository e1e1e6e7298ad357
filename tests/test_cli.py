import json

import pytest

from ssecalc.cli import main
from ssecalc.codes import code_to_json, shift_code
from ssecalc.complexes import SSEPath, path_to_json
from ssecalc.elementary import SSEEdge, Triangle, edge_to_json, triangle_to_json
from ssecalc.matrices import NonnegMatrix, matrix_to_json, mul
from ssecalc.shifts import VertexShift

GM = NonnegMatrix([[1, 1], [1, 0]])
I2 = NonnegMatrix.identity(2)


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


def test_code_and_extract_roundtrip(tmp_path):
    e = SSEEdge(GM, GM, GM, I2)
    path = write(tmp_path, "edge.json", edge_to_json(e))
    code, rep = run(tmp_path, "code", "--input", path)
    assert code == 0
    path2 = write(tmp_path, "code.json", rep["code"])
    code, rep2 = run(tmp_path, "extract", "--input", path2)
    assert code == 0
    assert rep2["edge"] == edge_to_json(e)


def test_decompose_and_compose_path(tmp_path):
    sigma = shift_code(VertexShift(GM), 1)
    path = write(tmp_path, "code.json", code_to_json(sigma))
    code, rep = run(tmp_path, "decompose", "--input", path)
    assert code == 0 and rep["recomposes"]
    path2 = write(tmp_path, "path.json", rep["path"])
    code, rep2 = run(tmp_path, "compose-path", "--input", path2)
    assert code == 0


def test_homotopic(tmp_path):
    e = SSEEdge(GM, GM, GM, I2)
    p = SSEPath(GM, ((e, 1),))
    q = SSEPath(GM, ((e, 1), (e, -1), (e, 1)))
    path = write(tmp_path, "pair.json", {"p": path_to_json(p), "q": path_to_json(q)})
    code, rep = run(tmp_path, "homotopic", "--input", path)
    assert code == 0 and rep["homotopic"]


def test_explore(tmp_path):
    path = write(tmp_path, "m.json", matrix_to_json(GM))
    code, rep = run(tmp_path, "explore", "--input", path, "--max-inner", "3")
    assert code == 0
    assert len(rep["fragment"]["edges"]) > 0
    code, rep = run(tmp_path, "explore", "--input", path, "--max-inner", "3", "--bound", "2")
    assert code == 3 and rep["kind"] == "bound"


def test_explore_report_is_canonical_json(tmp_path):
    path = write(tmp_path, "m.json", matrix_to_json(GM))
    out = tmp_path / "out.json"
    assert main(["explore", "--input", path, "--max-inner", "3", "--depth", "2",
                 "--output", str(out)]) == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


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


def test_normalize_degenerate(tmp_path):
    r = NonnegMatrix([[1, 0, 1], [0, 1, 0]])
    s = NonnegMatrix([[1, 1], [1, 0], [0, 0]])
    m = mul(s, r)
    obj = {
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
    path = write(tmp_path, "degpath.json", obj)
    code, rep = run(tmp_path, "normalize-degenerate", "--input", path)
    assert code == 0 and rep["composite_agrees_on_cores"]


def test_gsft_bar_and_hat(tmp_path):
    groupobj = {
        "elements": ["e", "a", "a^2"],
        "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
    }
    aobj = {
        "group": groupobj,
        "rows": 2,
        "cols": 2,
        "entries": [[["e", "a"], ["a"]], [["a^2"], ["a^2"]]],
    }
    path = write(tmp_path, "gr.json", aobj)
    code, rep = run(tmp_path, "gsft-bar", "--input", path)
    assert code == 0
    assert rep["bar"]["rows"] == 6
    back = write(
        tmp_path, "hat.json", {"group": groupobj, "matrix": rep["bar"], "shape": [2, 2]}
    )
    code, rep2 = run(tmp_path, "gsft-hat", "--input", back)
    assert code == 0
    assert rep2["hat"]["entries"] == [[["a", "e"], ["a"]], [["a^2"], ["a^2"]]]


def test_freudenthal_check(tmp_path):
    code, rep = run(tmp_path, "freudenthal-check", "--dimension", "3", "--trials", "5")
    assert code == 0
    assert rep["cells"] == 8 and rep["chain_map_identity"] and rep["chain_homotopy"]


def test_refine_axioms(tmp_path):
    path = write(tmp_path, "ax.json", {"base": matrix_to_json(GM), "tuple_size": 2})
    code, rep = run(tmp_path, "refine-axioms", "--input", path, "--trials", "2", "--seed", "5")
    assert code == 0 and rep["all_passed"]


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
    ],
)
def test_malformed_json_is_an_input_error(tmp_path, command, obj):
    path = write(tmp_path, "in.json", obj)
    code, rep = run(tmp_path, command, "--input", path)
    assert code == 2 and rep["kind"] == "input", rep


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


def test_refine_axioms_large_tuple(tmp_path):
    path = write(tmp_path, "ax.json", {"base": matrix_to_json(GM), "tuple_size": 12})
    code, rep = run(tmp_path, "refine-axioms", "--input", path, "--trials", "3")
    assert code == 0 and rep["all_passed"]
