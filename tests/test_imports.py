"""Every module of the package uses each name it imports, and imports only
what it runs.

The modules are parsed, not imported.  ``__init__.py`` is exempt: its
imports are the public API.  The package's modules import one another
without a cycle, and the command line loads none of the standard library's
exact-arithmetic modules, which only the tests use.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quadmate"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """The names the module's imports bind, with the line of each import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree: ast.AST) -> set[str]:
    """The names the module reads, in code and in quoted annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [
        node.annotation for node in ast.walk(tree) if isinstance(node, (ast.arg, ast.AnnAssign))
    ] + [node.returns for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    for annotation in annotations:
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_its_imports(path):
    tree = ast.parse(path.read_text())
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert unused == {}, f"{path.name} imports names it never uses (name: line)"


def test_an_unused_import_is_found():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import pi, tau as turn\n"
        "def f(x: 'Fraction') -> 'list[int]':\n"
        "    from fractions import Fraction\n"
        "    return os.sep, pi\n"
    )
    unused = set(imported_names(tree)) - used_names(tree)
    assert unused == {"turn"}


def package_imports(tree: ast.AST) -> set[str]:
    """The package modules that ``tree`` imports relatively, function bodies
    included."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module] if node.module else [a.name for a in node.names]
            out.update(name.partition(".")[0] for name in names)
    return out


def test_package_imports_form_no_cycle():
    trees = {p.stem: ast.parse(p.read_text()) for p in MODULES}
    graph = {name: sorted(package_imports(tree)) for name, tree in trees.items()}
    done = set()

    def visit(name, path):
        if name in path:
            cycle = path[path.index(name):] + [name]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if name not in done:
            for target in graph.get(name, ()):
                visit(target, path + [name])
            done.add(name)

    for name in graph:
        visit(name, [])
    # a cycle hidden in a function body would load lazily; none is needed
    lazy = {
        (name, fn.name)
        for name, tree in trees.items()
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and package_imports(fn)
    }
    assert lazy == set(), "functions that import package modules (module, function)"


def test_the_cli_loads_no_exact_arithmetic():
    # -S keeps site hooks, and whatever they import, out of the child
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import quadmate.cli; "
        "print(' '.join(sorted({'fractions', 'decimal'} & set(sys.modules))))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.split() == []
