"""Every name a module or test file imports is read somewhere in it, and
every module-level private name the package defines is read in the package.

No linter ships with the test dependencies, so this walks the syntax
tree of each file.  ``__init__.py`` is left out of the import check: its
imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p
    for p in [*(ROOT / "src" / "ssecalc").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_an_unread_import_is_found():
    source = "from typing import Optional, Sequence\nimport os\nx: Optional[int] = os.sep\n"
    assert unused_imports(source) == ["Sequence (line 1)"]


def unread_private_names(sources: dict) -> list[str]:
    """The module-level ``_names`` defined in the sources, a dict from
    module name to text, that no source reads, as ``module.name``.  A name
    counts as read wherever it is loaded, bare or as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            private = [n for n in names if n.startswith("_") and not n.startswith("__")]
            unread += [f"{module}.{n}" for n in private if n not in read]
    return unread


def test_every_private_name_of_the_package_is_read_in_it():
    # a helper kept only for the tests belongs in tests/
    sources = {p.stem: p.read_text() for p in (ROOT / "src" / "ssecalc").glob("*.py")}
    assert unread_private_names(sources) == []


def test_an_unread_private_name_is_found():
    sources = {
        "a": "_CAP = 3\n_unused, _cache = 0, {}\ndef _helper():\n    return _CAP\n",
        "b": "import a\n_x: int = a._cache\n__all__ = []\n",
    }
    assert unread_private_names(sources) == ["a._unused", "a._helper", "b._x"]
