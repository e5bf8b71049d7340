"""Dead code in the library: imports a module never reads, private
top-level names that nothing references, and methods and properties, public
or private, that nothing names.

Read with the standard `ast` module.  `__init__.py` is skipped, since its
imports are the package's re-exports.  A private name counts as referenced
when its own module reads it outside its definition, or when any other
library, test or benchmark module names it, so a reference implementation
that only the tests call stays.  A private method (`_name` in a class body)
counts as referenced when any module, its own outside the method, names it.
A public method or property (dunders aside) counts as referenced when any
module, its own outside the method, reads it as an attribute: a local
variable or a string of the same name does not count.  A parameter of a
library function (`self` and `cls` aside) that its body never reads is
reported too, except in functions decorated with `_kept`, whose memo passes
every answer the same `(f, ext)` arguments.

Stale names in the documentation are reported as well: a backticked dotted
name in README.md or in the docstrings and comments of the library, whose
head is `superext`, one of its modules or a class a module defines, must
resolve attribute by attribute.  A backticked call form `name(p, q=…)` whose
name is a public function, class or method of the library must list its
parameter names (`self` and `cls` aside) in the order of `inspect.signature`;
a form written `name(...)` is not checked.
"""

import ast
import functools
import importlib
import inspect
import re
from pathlib import Path

import superext

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted(p for p in (ROOT / "src" / "superext").glob("*.py") if p.name != "__init__.py")
DOCUMENTS = [ROOT / "README.md", *sorted((ROOT / "src" / "superext").glob("*.py"))]
# a backticked dotted name, written `head.attr` or `head.attr(...)`
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)[`(]")
# a backticked call form, `name(p, q=…)` or `head.attr(p)`, and its argument list
CALL = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)\(([^()`]*)\)")
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


def _attributes(tree):
    """The attribute names a module reads."""
    return {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def _dead_code(path, tree, others, other_attributes=()):
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
            if not name or name.startswith("__"):
                continue
            rest = [n for n in tree.body if n is not node] + [i for i in node.body if i is not item]
            names, readers = (_mentions, others) if name.startswith("_") else (_attributes, other_attributes)
            if not any(name in names(n) for n in rest) and not any(name in m for m in readers):
                yield f"{path.name}: {node.name}.{name} is never referenced"


def _unread_parameters(path, tree):
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or any(
                isinstance(d, ast.Name) and d.id == "_kept" for d in node.decorator_list):
            continue
        args = node.args
        reads = set().union(*map(_loads, node.body))
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]:
            if arg is not None and arg.arg not in ("self", "cls") and arg.arg not in reads:
                yield f"{path.name}: {node.name} never reads its parameter {arg.arg}"


def test_library_functions_read_every_parameter():
    unread = [line for path in LIBRARY
              for line in _unread_parameters(path, ast.parse(path.read_text(), str(path)))]
    assert unread == []


def test_unread_parameters_are_reported():
    # `flag` is only assigned and `unused` never named; `_kept` functions,
    # `self` and parameters read by a nested function are exempt
    tree = ast.parse("def f(x, flag, *, unused=None):\n    flag = x\n"
                     "@_kept\ndef g(f, ext): return f\n"
                     "class C:\n    def m(self, y):\n        return lambda: y\n")
    assert list(_unread_parameters(Path("m.py"), tree)) == [
        "m.py: f never reads its parameter flag", "m.py: f never reads its parameter unused"]


def test_library_has_no_unused_imports_or_unreferenced_private_names():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in READERS}
    mentions = {path: _mentions(tree) for path, tree in trees.items()}
    attributes = {path: _attributes(tree) for path, tree in trees.items()}
    dead = [line for path in LIBRARY for line in _dead_code(
        path, trees[path], [m for other, m in mentions.items() if other != path],
        [a for other, a in attributes.items() if other != path])]
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


def test_unnamed_methods_are_reported_public_or_private():
    # `row` is named only as a local variable and `entry` only in a string, so
    # both are reported; `used` and `_kept` are called; dunders are exempt
    tree = ast.parse("class C:\n    def used(self): return self._kept()\n"
                     "    def _kept(self): pass\n    def row(self): pass\n"
                     "    def _orphan(self): pass\n    def __neg__(self): pass\n"
                     "    def entry(self): pass\n")
    caller = ast.parse("def f(c, row):\n    return c.used(row), 'entry'")
    dead = list(_dead_code(Path("m.py"), tree, [_mentions(caller)], [_attributes(caller)]))
    assert dead == ["m.py: C.row is never referenced", "m.py: C._orphan is never referenced",
                    "m.py: C.entry is never referenced"]


def _library_names():
    """The package, its modules and the classes they define, by name."""
    names = {"superext": superext}
    for path in LIBRARY:
        module = names[path.stem] = importlib.import_module(f"superext.{path.stem}")
        names.update((node.name, getattr(module, node.name)) for node in ast.parse(path.read_text()).body
                     if isinstance(node, ast.ClassDef))
    return names


def _stale_names(where, text, names):
    """The backticked dotted names in text whose head is one of `names` and
    which do not resolve by `getattr`; file names such as `cli.py` aside."""
    for match in DOTTED.finditer(text):
        head, *attrs = match[1].split(".")
        if head in names and attrs[-1] not in ("py", "json", "md"):
            try:
                functools.reduce(getattr, attrs, names[head])
            except AttributeError:
                yield f"{where}: `{match[1]}` does not resolve"


def _library_callables():
    """`_library_names` and the public functions the modules define, by name."""
    names = _library_names()
    for path in LIBRARY:
        names.update((node.name, getattr(names[path.stem], node.name))
                     for node in ast.parse(path.read_text()).body
                     if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"))
    return names


def _stale_signatures(where, text, names):
    """The backticked call forms in text whose name resolves to a public
    callable of the library and whose parameters are not its own, in order."""
    for match in CALL.finditer(text):
        (head, *attrs), args = match[1].split("."), match[2].strip()
        if head not in names or args in ("...", "…") or match[1].split(".")[-1].startswith("_"):
            continue
        try:
            target = functools.reduce(getattr, attrs, names[head])
        except AttributeError:
            continue  # reported by `_stale_names`
        if inspect.ismodule(target) or not callable(target):
            continue
        documented = [a.split("=")[0].strip().lstrip("*") for a in args.split(",")] if args else []
        actual = [p for p in inspect.signature(target).parameters if p not in ("self", "cls")]
        if documented != actual:
            yield f"{where}: `{match[1]}({args})` does not list the parameters ({', '.join(actual)})"


def test_documented_library_names_resolve():
    names, callables = _library_names(), _library_callables()
    stale = [line for path in DOCUMENTS for text in [path.read_text()]
             for line in [*_stale_names(path.name, text, names),
                          *_stale_signatures(path.name, text, callables)]]
    assert stale == []


def test_stale_documented_names_are_reported():
    # a removed function and a removed property are reported, named plain or
    # called; live names, file names and names of other heads are not
    text = ("`algebra._swapped`, `algebra._dense_view`, `Cochain2.tensor(i)`, `Cochain2.from_upper`,"
            " `SparseMat.T`, `cli.py`, `c.tensor`, `perfbench.tracing`")
    assert list(_stale_names("m.md", text, _library_names())) == [
        "m.md: `algebra._dense_view` does not resolve", "m.md: `Cochain2.tensor` does not resolve"]


def test_stale_documented_signatures_are_reported():
    # a removed parameter and a swapped pair are reported; a full list,
    # `(...)`, a method called on the class, a class, a call followed by an
    # attribute, private names and names outside the library are not
    text = ("`map_from_coords(domain, codomain, coords, degree=0)`,"
            " `map_from_coords(domain, codomain, coords)`, `GradedLinearMap(...)`,"
            " `Cochain2.from_upper(target, source, entries)`, `Cochain2.from_upper(source, target, entries)`,"
            " `GradedLinearMap(domain, codomain, matrix)`, `classify_endomorphism(f, ext).fixes_quotient`,"
            " `superext.h2(g, m)`, `_view()`, `End_g(a)`, `diag(2, 1)`")
    assert list(_stale_signatures("m.md", text, _library_callables())) == [
        "m.md: `map_from_coords(domain, codomain, coords, degree=0)` does not list the parameters"
        " (domain, codomain, coords)",
        "m.md: `Cochain2.from_upper(target, source, entries)` does not list the parameters"
        " (source, target, entries)"]
