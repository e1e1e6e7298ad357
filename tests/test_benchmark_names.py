"""The names of ``ssecalc`` that the benchmark under ``perfbench/`` reaches.

The harness probes functions by name (``tracer.PROBES``), calls the
library through module aliases (``workloads.py``) and clears the pool
cache by name (``run.py``, ``freeze.py``).  A name removed from ``src/``
breaks the benchmark without breaking any other test, so these tests
resolve every such name.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from ssecalc import sampling

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _resolve(module: str, dotted: str):
    """The object at the dotted attribute path in ssecalc.<module>."""
    obj = importlib.import_module(f"ssecalc.{module}")
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def _probes():
    # tracer.py imports only the standard library, so it loads by path
    # without the harness's sys.path set-up
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.PROBES


@pytest.mark.parametrize("probe", _probes(), ids=lambda p: f"{p[0]}.{p[1]}")
def test_every_traced_name_resolves(probe):
    module, attribute, _kind, _metric = probe
    assert callable(_resolve(module, attribute))


def library_reads(source: str) -> list[tuple[str, str]]:
    """(module, dotted attribute path) of every attribute chain read off a
    module imported as ``from ssecalc import <module> [as <alias>]``."""
    tree = ast.parse(source)
    aliases = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "ssecalc"
        for alias in node.names
    }
    reads = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in aliases:
            reads.add((aliases[node.id], ".".join(reversed(parts))))
    return sorted(reads)


def test_every_name_the_workloads_read_exists():
    reads = library_reads((PERFBENCH / "workloads.py").read_text())
    assert {module for module, _ in reads} >= {"factorize", "sampling", "cli"}
    missing = []
    for module, dotted in reads:
        try:
            _resolve(module, dotted)
        except AttributeError:
            missing.append(f"{module}.{dotted}")
    assert missing == []


def test_a_missing_library_name_is_found():
    source = (
        "from ssecalc import matrices as mx\n"
        "x = mx.NonnegMatrix.identity(2)\n"
        "y = mx.no_such_name\n"
    )
    reads = library_reads(source)
    assert reads == [
        ("matrices", "NonnegMatrix"),
        ("matrices", "NonnegMatrix.identity"),
        ("matrices", "no_such_name"),
    ]
    with pytest.raises(AttributeError):
        _resolve(*reads[-1])


def test_the_pool_cache_is_a_dict():
    # run.py and freeze.py clear it, and run.py sums len() over its pools
    assert type(sampling._FACTOR_CACHE) is dict
