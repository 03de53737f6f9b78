"""The package has no runtime dependencies: every absolute import in
`src/rideshare` names the standard library or the package itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rideshare"


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = [
        f"{path.name}: {name}"
        for path in sources
        for name in _absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names | {"rideshare"}
    ]
    assert not foreign


# (importing module, name) pairs allowed to cross a module boundary: the
# tracer in bench/tracer.py wraps `_feasible` under that name in
# `allocation`, and `simulate` checks settled utilities with payments'
# `_finite`.
PRIVATE_IMPORTS = {("allocation", "_feasible"), ("simulate", "_finite")}


def _package_imports(path):
    """The names `path` imports from other modules of the package."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "rideshare"):
            yield from (alias.name for alias in node.names)


def test_modules_import_no_private_name_of_another():
    private = {
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _package_imports(path)
        if name.startswith("_")
    }
    assert private == PRIVATE_IMPORTS
