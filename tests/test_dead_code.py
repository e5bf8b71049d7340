"""Dead code in the library: imports a module never reads, and private
top-level names and private methods that nothing references.

Read with the standard `ast` module.  `__init__.py` is skipped, since its
imports are the package's re-exports.  A private name counts as referenced
when its own module reads it outside its definition, or when any other
library, test or benchmark module names it, so a reference implementation
that only the tests call stays.  A private method (`_name` in a class body)
counts as referenced when any module, its own outside the method, names it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted(p for p in (ROOT / "src" / "superext").glob("*.py") if p.name != "__init__.py")
READERS = [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py"),
           *(ROOT / "perfbench").glob("*.py")]


def _loads(node):
    """The bare names read in a node."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _mentions(tree):
    """Every name a module reads: bare names, attribute names and names imported by name."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def _dead_code(path, tree, others):
    loads = [_loads(node) for node in tree.body]
    reads = set().union(*loads)
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                if (alias.asname or alias.name).split(".")[0] not in reads:
                    yield f"{path.name}: unused import {alias.asname or alias.name}"
    for k, node in enumerate(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if (name.startswith("_") and not name.startswith("__")
                    and not any(name in read for j, read in enumerate(loads) if j != k)
                    and not any(name in mentioned for mentioned in others)):
                yield f"{path.name}: {name} is never referenced"
    for node in tree.body:
        for item in node.body if isinstance(node, ast.ClassDef) else []:
            name = getattr(item, "name", "")
            if not name.startswith("_") or name.startswith("__"):
                continue
            rest = [n for n in tree.body if n is not node] + [i for i in node.body if i is not item]
            if not any(name in _mentions(n) for n in rest) and not any(name in m for m in others):
                yield f"{path.name}: {node.name}.{name} is never referenced"


def test_library_has_no_unused_imports_or_unreferenced_private_names():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in READERS}
    mentions = {path: _mentions(tree) for path, tree in trees.items()}
    dead = [line for path in LIBRARY for line in _dead_code(
        path, trees[path], [m for other, m in mentions.items() if other != path])]
    assert dead == []


def test_library_fills_kept_answers_only_through_private_names():
    """`_kept`'s `record` is called on private names only: the benchmark's
    tracer swaps each public function for a wrapper that has no `record`."""
    public = [f"{path.name}:{node.lineno}" for path in LIBRARY
              for node in ast.walk(ast.parse(path.read_text(), str(path)))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "record"
              and not (isinstance(node.func.value, ast.Name) and node.func.value.id.startswith("_"))]
    assert public == []
