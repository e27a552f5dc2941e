"""Source hygiene: every name a qvlab module or test module imports is used in it.

An AST scan, so it needs no linter: it collects the names each import
statement binds (leaving out `from __future__ import ...`) and the names
the module reads anywhere, annotations included. The package's
`__init__.py` is left out, since its imports are the package's re-exports.
"""

import ast
import os

import qvlab

SRC = os.path.dirname(os.path.abspath(qvlab.__file__))
TESTS = os.path.dirname(os.path.abspath(__file__))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scanner_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom typing import Callable, Optional\n"
              "def f(x: Callable) -> np.ndarray:\n    return np.zeros(1)\n")
    assert unused_imports(source) == [(2, "os"), (4, "Optional")]


def _unused_in(directory, skip=()):
    found = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py") and name not in skip:
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                unused = unused_imports(fh.read())
            if unused:
                found[name] = unused
    return found


def test_src_modules_import_no_unused_names():
    assert _unused_in(SRC, skip=("__init__.py",)) == {}


def test_test_modules_import_no_unused_names():
    assert _unused_in(TESTS) == {}
