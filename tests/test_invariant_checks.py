"""Invariant checks in the package are explicit raises, never `assert`.

`python -O` strips assert statements, so an invariant written as one goes
unchecked there.  An explicit `raise AssertionError` survives -O, and
cli.main maps it to exit 3.  The source of src/plugflow is parsed with ast;
nothing of it is imported.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "plugflow"


def test_no_assert_statements():
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements, which python -O strips: {found}"
