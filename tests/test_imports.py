"""The package runs on the standard library alone, imported up front.

``pyproject.toml`` declares no runtime dependencies; numpy and scipy are
test extras, used only as reference solvers.  Every absolute import in
``src/bushgeo`` must therefore name a standard-library module.  No module
imports inside a function: every dependency shows at the top of its file.
A bush is stored as runs, and only `shift_bush` and the ``gauge-eval``
command read its dense ``levels`` view.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bushgeo"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), str(path))


def _absolute_imports(path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_module_is_found():
    assert {"bushes.py", "gauge.py", "spaces.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_imports_only_the_standard_library(path):
    outside = sorted(
        name for name in _absolute_imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names
    )
    assert outside == [], f"{path.name} imports {outside}"


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_function_local_imports(path):
    local = sorted(
        f"{fn.name}:{node.lineno}"
        for fn in ast.walk(_tree(path))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    )
    assert local == [], f"{path.name} imports inside functions at {local}"


DENSE_READERS = {("bushes", "shift_bush"), ("cli", "cmd_gauge_eval")}


def _levels_reads(node, function=None):
    """(innermost enclosing function, line) of every read of an attribute
    ``levels`` below ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _levels_reads(child, child.name)
            continue
        if (isinstance(child, ast.Attribute) and child.attr == "levels"
                and isinstance(child.ctx, ast.Load)):
            yield function, child.lineno
        yield from _levels_reads(child, function)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_dense_levels_are_read_only_where_allowed(path):
    reads = sorted(
        f"{function}:{line}" for function, line in _levels_reads(_tree(path))
        if (path.stem, function) not in DENSE_READERS
    )
    assert reads == [], f"{path.name} reads the dense levels at {reads}"
