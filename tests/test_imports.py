"""Every import in the package, the tests and the demos is used: each
name that an import at the top of a file binds must be read somewhere in
that file, and each name that an import inside a function binds must be
read inside that function (its nested functions included).
`__future__` imports are directives, not names, and are skipped."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src/selfsimilar", "tests", "demos")
               for p in (ROOT / d).rglob("*.py"))
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _idle(scope, stmts):
    """(line, name) of each binding of the import statements in stmts
    that nothing in the scope's tree reads."""
    bound = []
    for node in stmts:
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def idle_imports(tree):
    """(line, name) of each module-level import binding that the module
    never reads."""
    return _idle(tree, tree.body)


def _own_imports(fn):
    """The import statements of a function: its body and the blocks in
    it, not the functions or classes it defines."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (*_DEFS, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def idle_local_imports(tree):
    """(line, name) of each import binding in a function body that the
    function never reads, in line order."""
    return sorted(found for fn in ast.walk(tree) if isinstance(fn, _DEFS)
                  for found in _idle(fn, _own_imports(fn)))


def scan(find):
    """{file: what `find` reports on its tree} over every scanned file
    where it reports something."""
    assert {p.relative_to(ROOT).parts[0] for p in FILES} == {
        "src", "tests", "demos"}
    return {str(p.relative_to(ROOT)): found for p in FILES
            if (found := find(ast.parse(p.read_text(), str(p))))}


def test_no_module_level_import_is_idle():
    assert scan(idle_imports) == {}


def test_no_function_level_import_is_idle():
    assert scan(idle_local_imports) == {}


def test_an_idle_import_is_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import math, os.path\nimport numpy as np\n"
                     "from json import dumps, loads as ld\n"
                     "print(np.pi, os, dumps)\n")
    assert idle_imports(tree) == [(2, "math"), (4, "ld")]
    # a function's import must be read in that function, a nested one
    # included; a read elsewhere in the module does not count
    tree = ast.parse("def f(x):\n"
                     "    import math\n"
                     "    if x:\n"
                     "        from json import dumps, loads\n"
                     "    def g():\n"
                     "        return dumps(x)\n"
                     "    return g\n"
                     "def h():\n"
                     "    import random\n"
                     "    return random.random(), math.pi, loads\n")
    assert idle_imports(tree) == []
    assert idle_local_imports(tree) == [(2, "math"), (4, "loads")]


def test_the_package_imports_neither_dataclasses_nor_fractions():
    # each costs milliseconds at start-up: dataclasses loads inspect and
    # ast, fractions loads decimal; records are NamedTuples instead
    found = []
    for p in FILES:
        if p.relative_to(ROOT).parts[0] != "src":
            continue
        for node in ast.walk(ast.parse(p.read_text(), str(p))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(p.name, node.lineno) for name in names
                      if name.split(".")[0] in ("dataclasses", "fractions")]
    assert found == []
