"""Source hygiene: every name a qvlab module or test module imports is used in it,
and only variational._two_resolution reruns a check at a refined quadrature.

AST scans, so they need no linter. The import scan collects the names each
import statement binds (leaving out `from __future__ import ...`) and the
names the module reads anywhere, annotations included. The package's
`__init__.py` is left out, since its imports are the package's re-exports.
The refinement scan finds every call of a `.refined` attribute in `src`
outside `_two_resolution` in variational.py, so each two-sided check keeps
taking its second route from that one helper. The closed-form scan keeps
that route independent of the evaluation kernels: no function of
radial.py, and no function in `src` whose name contains `closed_form`,
names a field's `values_fn` or `gradients_fn`, `integrate_region` or
`sphere_integral`. The tracer scan reads the TARGETS table of
perfbench/tracer.py without importing it and checks that every
(module, attribute) in it names a callable of qvlab: the tracer skips a
missing target without a word, so a rename in `src` would quietly shrink
the traced metrics.
"""

import ast
import importlib
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


def refined_calls(source: str, allowed=()) -> list:
    """Lines that call `.refined(...)` outside the functions named in allowed."""
    tree = ast.parse(source)
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name in allowed
              for node in ast.walk(fn)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "refined" and id(node) not in inside)


def test_refined_scanner_flags_calls_outside_the_helper():
    source = ("def _two_resolution(run, quad):\n    return run(quad.refined())\n"
              "def check(quad):\n    return quad.refined().meta()\n")
    assert refined_calls(source, allowed=("_two_resolution",)) == [4]
    assert refined_calls(source) == [2, 4]


def test_only_two_resolution_refines_in_src():
    found = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                allowed = ("_two_resolution",) if name == "variational.py" else ()
                lines = refined_calls(fh.read(), allowed)
            if lines:
                found[name] = lines
    assert found == {}


KERNEL_NAMES = ("values_fn", "gradients_fn", "polar", "integrate_region", "sphere_integral")


def kernel_references(source: str, whole_module: bool = False) -> list:
    """(line, name) of each kernel name read inside a function whose name
    contains closed_form, or anywhere in the module when whole_module."""
    tree = ast.parse(source)
    scopes = [tree] if whole_module else [
        fn for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.Lambda)) and "closed_form" in getattr(fn, "name", "")]
    found = set()
    for scope in scopes:
        for node in ast.walk(scope):
            name = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else None
            if name in KERNEL_NAMES:
                found.add((node.lineno, name))
    return sorted(found)


def test_kernel_scanner_flags_only_the_closed_form_scopes():
    source = ("def check(f, q):\n    return integrate_region(f, q)\n"
              "def check_closed_form(f):\n    return f.values_fn(0)\n"
              "def _carleman_closed_form(spec):\n    def integrand(r):\n"
              "        return sphere_integral(r)\n    return integrand\n")
    assert kernel_references(source) == [(4, "values_fn"), (7, "sphere_integral")]
    assert kernel_references(source, whole_module=True) == [
        (2, "integrate_region"), (4, "values_fn"), (7, "sphere_integral")]


def test_kernel_scanner_flags_the_polar_grid_in_a_closed_form_scope():
    source = ("def spectrum_closed_form(f, rr, dirs):\n"
              "    vals, _ = f.polar(rr, dirs, True, False)\n    return vals\n"
              "def integrand(f, rr, dirs):\n    return f.polar(rr, dirs, True, True)\n")
    assert kernel_references(source) == [(2, "polar")]


def test_closed_form_route_never_evaluates_the_field():
    found = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                refs = kernel_references(fh.read(), whole_module=name == "radial.py")
            if refs:
                found[name] = refs
    assert found == {}


def tracer_targets(source: str) -> list:
    """The (module, attribute) pairs of the module-level TARGETS table."""
    for node in ast.parse(source).body:
        if "TARGETS" in [getattr(target, "id", None) for target in getattr(node, "targets", ())]:
            return [tuple(entry[:2]) for entry in ast.literal_eval(node.value)]
    return []


def test_tracer_targets_resolve_to_callables():
    with open(os.path.join(os.path.dirname(TESTS), "perfbench", "tracer.py"),
              encoding="utf-8") as fh:
        targets = tracer_targets(fh.read())
    assert ("qvlab.variational", "integrate_region") in targets
    assert [(module, attr) for module, attr in targets
            if not callable(getattr(importlib.import_module(module), attr, None))] == []
