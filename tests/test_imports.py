"""The package's own imports sit at module level and form no cycle.

The source of src/plugflow is parsed with ast; nothing of it is imported.
An import inside a function hides a dependency from the module's head, and
is the usual way a cycle between two modules is papered over.
"""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "plugflow"


def _package_imports():
    """{module: [(line, imported module, at module level)]} for each `from .` import."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = set(map(id, tree.body))
        found = out[path.stem] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets = [node.module] if node.module else [a.name for a in node.names]
                found += [(node.lineno, t, id(node) in top) for t in targets]
    return out


def test_package_imports_are_at_module_level():
    nested = sorted({f"{mod}:{line}" for mod, found in _package_imports().items()
                     for line, _, top in found if not top})
    assert not nested, f"`from .` imports below module level: {nested}"


def test_module_import_graph_is_acyclic():
    graph = {mod: {t for _, t, _ in found} for mod, found in _package_imports().items()}
    try:
        tuple(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")
