"""No module of gbei imports a name it never uses.

A stdlib-`ast` check in place of a linter: every name bound by an import
in `src/gbei/*.py` must be read somewhere in that module.  `__init__.py`
is skipped, since its imports are the package's re-exports, and so is an
import marked `# noqa: F401`, a name kept for the benchmark tracer to
patch.
"""

import ast
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
