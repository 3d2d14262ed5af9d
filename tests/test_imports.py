"""No module of gbei imports a name it never uses, or defines a private
name that nothing reads.

Stdlib-`ast` checks in place of a linter.  Every name bound by an import
in `src/gbei/*.py` must be read somewhere in that module.  `__init__.py`
is skipped, since its imports are the package's re-exports, and so is an
import marked `# noqa: F401`, a name kept for the benchmark tracer to
patch.  Every `_`-prefixed, non-dunder function, class or assigned name at
module or class level must be read somewhere in `src/gbei` outside its own
definition, as a name or as an attribute.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gbei"


def _unused_imports(source):
    """The names an import binds in source and nothing reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported.append(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_no_module_imports_a_name_it_never_uses():
    unused = {path.name: _unused_imports(path.read_text())
              for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}


def test_the_check_sees_an_unused_name_and_honours_noqa():
    source = ("import os\n"
              "import os.path\n"
              "from math import (pi,\n"
              "                  tau)\n"
              "from json import dumps  # noqa: F401\n"
              "from itertools import chain as joined\n"
              "print(pi, joined)\n")
    assert _unused_imports(source) == ["os", "os", "tau"]


def _reads(node):
    """How often each name is read under node, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute))
                   and isinstance(n.ctx, ast.Load))


def _private_definitions(tree):
    """(name, node) for each private name defined at module or class level."""
    found = []
    for scope in [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef)]:
        for node in scope.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found.append((node.name, node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [(n.id, node) for t in targets for n in ast.walk(t)
                          if isinstance(n, ast.Name)]
    return [(name, node) for name, node in found if name.startswith("_")
            and not (name.startswith("__") and name.endswith("__"))]


def _orphans(sources):
    """module:name for each private definition in sources (module name to
    source text) that no code outside the definition itself reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = sum((_reads(tree) for tree in trees.values()), Counter())
    return [f"{module}:{name}" for module, tree in trees.items()
            for name, node in _private_definitions(tree)
            if read[name] == _reads(node)[name]]


def test_no_private_name_is_orphaned():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _orphans(sources) == []


def test_the_orphan_check_sees_unread_private_names():
    sources = {
        "a.py": ("def _used(): pass\n"
                 "def _orphan(): pass\n"
                 "def _recursive(n): return _recursive(n - 1)\n"
                 "_CONSTANT = 2\n"
                 "class C:\n"
                 "    _slot: int = 1\n"
                 "    def __init__(self): self._unset = _used()\n"
                 "    def _method(self): pass\n"),
        "b.py": ("from a import C\n"
                 "class _Unused(C): pass\n"
                 "C()._method()\n"),
    }
    assert _orphans(sources) == ["a.py:_orphan", "a.py:_recursive",
                                 "a.py:_CONSTANT", "a.py:_slot",
                                 "b.py:_Unused"]
