"""Every module-level import in the package, the tests and the demos is
used: each name an import binds at the top of a file must be read
somewhere in that file.  `__future__` imports are directives, not
names, and are skipped."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src/selfsimilar", "tests", "demos")
               for p in (ROOT / d).rglob("*.py"))


def idle_imports(tree):
    """(line, name) of each module-level import binding that the module
    never reads."""
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_no_module_level_import_is_idle():
    assert {p.relative_to(ROOT).parts[0] for p in FILES} == {
        "src", "tests", "demos"}
    idle = {str(p.relative_to(ROOT)): found for p in FILES
            if (found := idle_imports(ast.parse(p.read_text(), str(p))))}
    assert idle == {}


def test_an_idle_import_is_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import math, os.path\nimport numpy as np\n"
                     "from json import dumps, loads as ld\n"
                     "print(np.pi, os, dumps)\n")
    assert idle_imports(tree) == [(2, "math"), (4, "ld")]
