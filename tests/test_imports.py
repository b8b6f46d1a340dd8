"""The package runs on the standard library alone, imported up front.

``pyproject.toml`` declares no runtime dependencies; numpy and scipy are
test extras, used only as reference solvers.  Every absolute import in
``src/bushgeo`` must therefore name a standard-library module.  No module
imports inside a function: every dependency shows at the top of its file.
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
