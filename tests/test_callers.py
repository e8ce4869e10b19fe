"""Every public name in ``src/framewatt`` has a caller in the package or
the benchmark, and the underscore is the one mark of what is public.

A public module-level function, class or constant, and a public method or
property of a public class, must be referenced from code in ``src/`` or
``perfbench/``: a ``Name``, an ``Attribute`` or a ``from``
import.  A public field of a public class (an annotated name in its body)
must be read there as an ``Attribute``, unless the class is an output
record, whose fields are all written out whole: a class that defines
``to_dict``, a class whose ``_fields`` some code reads, and the declared
type of an output record's field.  Strings and comments are not references.
The match is by name alone, which can only let a name through, never fail
a used one.

Every option has a caller too: each defaulted parameter of a function or
method in ``src/framewatt`` must be passed by some call of that name in
``src/`` or ``perfbench/``, by keyword, by position or through ``*args`` or
``**kwargs``.

The dev tools in ``tools/`` and the tests are not callers: code that only
they use lives with them, not in the package.

A name is imported from the module that defines it: no module keeps an
``__all__`` list or a module ``__getattr__``/``__dir__``, the package
``__init__`` binds only ``__version__``, and no module imports a sibling's
underscore name.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

#: Names kept without a caller, each with its reason.
ALLOWED = {
    "timeline.WindowTimeline.check_coverage":
        "acceptance criterion 4 calls it to re-derive every template from its records",
}


def _trees(root: Path, *dirs: str) -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for d in dirs for path in sorted((root / d).rglob("*.py"))}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _bindings(tree: ast.Module) -> list[str]:
    """Every name a module's top-level statements bind, imports included."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [(alias.asname or alias.name).partition(".")[0] for alias in node.names]
        else:
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            names += [target.id for target in targets if isinstance(target, ast.Name)]
    return names


def _definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, bare name) of each public definition in a module."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        found += [(name, name) for name in names if _public(name)]
        if isinstance(node, ast.ClassDef) and _public(node.name):
            found += [(f"{node.name}.{item.name}", item.name) for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and _public(item.name)]
    return found


def _references(tree: ast.Module) -> set[str]:
    """Every name a module's code reads: loaded names and attributes, and
    the names it imports from other modules."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def _fields(cls: ast.ClassDef) -> dict[str, set[str]]:
    """Each field a class body annotates, with the names its type mentions."""
    return {item.target.id: {n.id for n in ast.walk(item.annotation) if isinstance(n, ast.Name)}
            for item in cls.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}


def _unread_fields(classes: dict[str, tuple[str, ast.ClassDef]],
                   code: list[ast.Module]) -> list[str]:
    """Public fields of the public ``classes`` (by name: module stem and
    node) that no ``code`` reads as an attribute, output records aside."""
    nodes = [node for tree in code for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)]
    read = {node.attr for node in nodes}
    fields = {name: _fields(cls) for name, (_, cls) in classes.items()}
    output = {name for name, (_, cls) in classes.items() if any(
        isinstance(item, ast.FunctionDef) and item.name == "to_dict" for item in cls.body)}
    output |= {node.value.id for node in nodes if node.attr == "_fields"
               and isinstance(node.value, ast.Name) and node.value.id in classes}
    todo = list(output)
    while todo:  # the declared types of an output record's fields are output too
        for types in fields[todo.pop()].values():
            found = (types & fields.keys()) - output
            output |= found
            todo += found
    return [f"{classes[name][0]}.{name}.{field}" for name in classes if name not in output
            for field in fields[name] if _public(field) and field not in read]


def unreferenced(root: Path) -> list[str]:
    """Public names under ``root/src/framewatt`` that no code references,
    and public record fields that no code reads."""
    code = list(_trees(root, "src", "perfbench").values())
    refs = set().union(*map(_references, code))
    trees = _trees(root, "src/framewatt")
    classes = {node.name: (path.stem, node) for path, tree in trees.items()
               for node in tree.body if isinstance(node, ast.ClassDef) and _public(node.name)}
    return sorted([f"{path.stem}.{qualified}" for path, tree in trees.items()
                   for qualified, bare in _definitions(tree) if bare not in refs]
                  + _unread_fields(classes, code))


def _defaulted(fn: ast.FunctionDef | ast.AsyncFunctionDef,
               method: bool) -> list[tuple[str, int | None]]:
    """Each defaulted parameter of ``fn`` with its position among the
    arguments a call passes (None if keyword-only); a method's ``self`` or
    ``cls`` is not passed."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args]
    bound = method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                               for d in fn.decorator_list)
    first = len(positional) - len(args.defaults)
    found = [(arg.arg, i - bound) for i, arg in enumerate(positional) if i >= first]
    return found + [(arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None]


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` passes the parameter: by keyword, by position, or
    through ``*args`` or ``**kwargs``."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return any(isinstance(arg, ast.Starred) for arg in call.args) or position < len(call.args)


def unpassed_options(root: Path) -> list[str]:
    """Defaulted parameters of the functions and methods under
    ``root/src/framewatt`` that no call of that name in ``src/`` or
    ``perfbench/`` passes, as ``module.function(parameter)``.  A class's
    ``__init__`` is called by the class's name."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in _trees(root, "src", "perfbench").values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    found = []
    for path, tree in _trees(root, "src/framewatt").items():
        functions = [(node.name, node.name, node, False) for node in tree.body
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        functions += [(f"{node.name}.{item.name}",
                       node.name if item.name == "__init__" else item.name, item, True)
                      for node in tree.body if isinstance(node, ast.ClassDef)
                      for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        found += [f"{path.stem}.{qualified}({param})"
                  for qualified, called, fn, method in functions
                  for param, position in _defaulted(fn, method)
                  if not any(_passes(call, param, position) for call in calls.get(called, []))]
    return sorted(found)


def test_every_public_name_in_src_has_a_caller_outside_the_tests():
    assert unreferenced(REPO) == sorted(ALLOWED)


def test_every_defaulted_parameter_in_src_is_passed_outside_the_tests():
    assert unpassed_options(REPO) == []


def test_the_option_scan_counts_keywords_positions_and_unpacking(tmp_path):
    pkg = tmp_path / "src" / "framewatt"
    pkg.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (pkg / "m.py").write_text(
        "def run(cfg, n=None, *, fast=False, slow=False, quiet=False):\n    pass\n"
        "def spread(a=1, b=2, c=3):\n    pass\n"
        "def packed(a=1, *, b=2):\n    pass\n"
        "class Box:\n    def __init__(self, size=1, tag=''):\n        pass\n"
        "    def put(self, item, many=False):\n        pass\n"
        "    @staticmethod\n    def make(kind='a'):\n        pass\n"
        "def inner(x=0):\n    run(None, fast=True)\n    spread(0, *[1])\n"
        "    packed(**{})\n    Box(2).put(1)\n    Box.make('b')\n",
        encoding="utf-8")
    (tmp_path / "perfbench" / "t.py").write_text(
        "from framewatt.m import run\nrun(None, 4, slow=True)\n'quiet'\n", encoding="utf-8")
    assert unpassed_options(tmp_path) == ["m.Box.__init__(tag)", "m.Box.put(many)",
                                          "m.inner(x)", "m.run(quiet)"]


def test_the_scan_sees_definitions_and_ignores_strings_and_stores(tmp_path):
    pkg = tmp_path / "src" / "framewatt"
    pkg.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (pkg / "m.py").write_text(
        "LIMIT = 3\nUNUSED = 4\n__all__ = ['UNUSED', 'lonely']\n"
        "def lonely():\n    pass  # called by LIMIT\n"
        "def used():\n    return LIMIT\n"
        "class Box:\n    def read(self):\n        self.write = used()\n"
        "    def write(self):\n        pass\n    def _own(self):\n        pass\n",
        encoding="utf-8")
    (tmp_path / "perfbench" / "t.py").write_text(
        "from framewatt.m import Box\nBox().read()\n'used'\n", encoding="utf-8")
    assert unreferenced(tmp_path) == ["m.Box.write", "m.UNUSED", "m.lonely"]


def test_no_module_lists_or_resolves_names_besides_defining_them():
    trees = _trees(REPO, "src/framewatt")
    assert [f"{path.stem}.{name}" for path, tree in trees.items() for name in _bindings(tree)
            if name in ("__all__", "__getattr__", "__dir__")] == []
    assert _bindings(trees[REPO / "src" / "framewatt" / "__init__.py"]) == ["__version__"]


def test_no_module_imports_a_private_name_from_a_sibling():
    found = [f"{path.stem}: {node.module}.{alias.name}"
             for path, tree in _trees(REPO, "src/framewatt").items()
             for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             and (node.level or (node.module or "").partition(".")[0] == "framewatt")
             for alias in node.names
             if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert found == []


def test_the_scan_needs_an_attribute_read_of_each_field_not_written_out_whole(tmp_path):
    pkg = tmp_path / "src" / "framewatt"
    pkg.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    module = ("from typing import NamedTuple\n"
              "class Part(NamedTuple):\n    size: int\n    _own: int\n"
              "class Report(NamedTuple):\n    part: Part\n    total: float\n"
              "    def to_dict(self):\n        return {}\n"
              "class Row(NamedTuple):\n    cells: int\n"
              "class Plain(NamedTuple):\n    used: int\n    stored: int\n    named: int\n"
              "def touch(p, named):\n    p.stored = p.used\n"
              "    return named, Report(Part(1, 2), 0.0).to_dict(), Row._fields\n")
    (pkg / "m.py").write_text(module, encoding="utf-8")
    (tmp_path / "perfbench" / "t.py").write_text(
        "from framewatt.m import Plain, touch\ntouch(Plain(1, 2, 3), 'stored')\n",
        encoding="utf-8")
    assert unreferenced(tmp_path) == ["m.Plain.named", "m.Plain.stored"]
    # Without its ``to_dict``, the report and the type of its field need readers.
    (pkg / "m.py").write_text(module.replace("to_dict", "as_dict"), encoding="utf-8")
    assert unreferenced(tmp_path) == ["m.Part.size", "m.Plain.named", "m.Plain.stored",
                                      "m.Report.part", "m.Report.total"]


def test_a_name_or_option_only_the_tools_use_has_no_caller(tmp_path):
    pkg = tmp_path / "src" / "framewatt"
    pkg.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "tools").mkdir()
    (pkg / "m.py").write_text(
        "def run(cfg, fast=False):\n    pass\ndef helper():\n    pass\n", encoding="utf-8")
    (tmp_path / "perfbench" / "b.py").write_text(
        "from framewatt.m import run\nrun(None)\n", encoding="utf-8")
    (tmp_path / "tools" / "t.py").write_text(
        "from framewatt.m import helper, run\nhelper()\nrun(None, fast=True)\n",
        encoding="utf-8")
    assert unreferenced(tmp_path) == ["m.helper"]
    assert unpassed_options(tmp_path) == ["m.run(fast)"]
