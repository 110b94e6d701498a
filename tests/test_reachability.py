"""Every function, class and method of plugflow has a caller outside the tests.

The source of src/plugflow is parsed with ast and the set of reached
definitions is closed from the CLI entry point (`cli.main` and the parser's
`error` hook), from the module-level statements, which run at import, and
from ROOTS, the public names that an acceptance criterion or the benchmark
calls from outside the package.  A reached definition reaches what its body
names, annotations left out:

- a bare name resolves in its own module, or through a `from .` import;
- `alias.attr`, with `alias` an imported plugflow module, resolves there;
- any other `expr.attr` reaches every method called `attr` of a reached
  class (receiver types are not inferred);
- a reached class reaches its bases, its class body and its dunder methods.

Names resolve by spelling, so the closure over-approximates what runs.  A
definition outside it, a private helper included, is reached only by unit
tests or by nothing: delete it, or move it to tests/oracles.py if a test
needs it as a reference.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "plugflow"

ENTRY = ("cli.main", "cli._Parser.error")

#: public names called from outside the package -> the file that calls them
ROOTS = {
    "plug.genus_of_surface": "tests/test_acceptance.py",             # criterion 01
    "plug.sigma_annulus": "tests/test_acceptance.py",                # criterion 02
    "plug.PlugSpec.torus": "tests/test_acceptance.py",               # criterion 02
    "gluing.annulus_intersection_pattern": "tests/test_acceptance.py",  # criterion 03
    "model_torus.TorusPoint": "tests/test_acceptance.py",            # criterion 04
    "model_torus.tau": "tests/test_acceptance.py",                   # criterion 04
    "model_torus.theta": "tests/test_acceptance.py",                 # criterion 04
    "model_torus.norm_mod": "tests/test_acceptance.py",              # criterion 04
    "model_torus.leaf_through": "tests/test_acceptance.py",          # criterion 05
    "orbit_space.attachment_sites": "tests/test_acceptance.py",      # criterion 08
    "distinguisher.non_r_covered_certificate": "tests/test_acceptance.py",  # criterion 11
    "plug.plug_from_json": "bench/client.py",
    # the benchmark's plug round trip; the CLI streams plug_document instead
    "plug.plug_to_json": "bench/client.py",
}


class _Def:
    def __init__(self, module, node, cls=None):
        self.module, self.node, self.cls = module, node, cls
        self.short = node.name


class _Uses(ast.NodeVisitor):
    """Loaded names and (receiver name or None, attribute) pairs, no annotations."""

    def __init__(self):
        self.names, self.attrs = set(), set()

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self.names.add(node.id)

    def visit_Attribute(self, node):
        base = node.value.id if isinstance(node.value, ast.Name) else None
        self.attrs.add((base, node.attr))
        self.generic_visit(node)

    def visit_arg(self, node):
        pass

    def visit_FunctionDef(self, node):
        for child in (*node.decorator_list, node.args, *node.body):
            self.visit(child)

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self.visit(node.value)


def _uses(nodes):
    v = _Uses()
    for node in nodes:
        v.visit(node)
    return v


def _parse():
    """Definitions by qualified name, each module's import bindings, and each
    module's top-level statements other than definitions."""
    defs, imports, module_level = {}, {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        mod = path.stem
        tree = ast.parse(path.read_text())
        module_level[mod] = [s for s in tree.body
                             if not isinstance(s, (ast.FunctionDef, ast.ClassDef))]
        binds = imports[mod] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    target = (alias.name if node.module is None
                              else f"{node.module}.{alias.name}")
                    binds[alias.asname or alias.name] = target
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{mod}.{node.name}"] = _Def(mod, node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defs[f"{mod}.{node.name}.{item.name}"] = _Def(
                            mod, item, cls=f"{mod}.{node.name}")
    return defs, imports, module_level


def _body(d):
    if isinstance(d.node, ast.ClassDef):
        return [*d.node.bases, *d.node.decorator_list,
                *(s for s in d.node.body if not isinstance(s, ast.FunctionDef))]
    return [d.node]


def reachable(defs, imports, roots, module_level):
    """Qualified names reached from `roots` and from the module-level statements."""
    reached, attrs = set(), set()
    todo = list(roots)

    def resolve(mod, uses):
        binds = imports[mod]
        for name in uses.names:
            todo.append(f"{mod}.{name}" if f"{mod}.{name}" in defs
                        else binds.get(name, ""))
        for base, attr in uses.attrs:
            if base in binds and binds[base] in imports:
                todo.append(f"{binds[base]}.{attr}")
            else:
                attrs.add(attr)

    for mod, nodes in module_level.items():
        resolve(mod, _uses(nodes))
    while todo:
        while todo:
            q = todo.pop()
            if q in defs and q not in reached:
                reached.add(q)
                resolve(defs[q].module, _uses(_body(defs[q])))
        todo = [q for q, d in defs.items()
                if d.cls in reached and q not in reached
                and (d.short in attrs or d.short.startswith("__"))]
    return reached


def test_every_public_definition_is_reachable():
    defs, imports, module_level = _parse()
    reached = reachable(defs, imports, [*ENTRY, *ROOTS], module_level)
    unreached = sorted(q for q in defs if q not in reached)
    assert not unreached, ("reached only by tests or by nothing (delete them, or "
                           f"move test references to tests/oracles.py): {unreached}")


def test_roots_exist_and_are_called_where_listed():
    defs = _parse()[0]
    for q, caller in ROOTS.items():
        assert q in defs, f"ROOTS names {q}, which no longer exists"
        assert caller == "tests/test_acceptance.py" or caller.startswith("bench/"), (
            f"ROOTS lists {q} for {caller}: only an acceptance criterion or the "
            "benchmark may keep a name alive; move test references to tests/oracles.py")
        call = re.compile(rf"\b{defs[q].short}\(")
        assert call.search((ROOT / caller).read_text()), f"{caller} does not call {q}"
    for q in ENTRY:
        assert q in defs, q
