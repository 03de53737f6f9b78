"""The package's imports and names: every absolute import in
`src/rideshare` names the standard library or the package itself, no module
imports what it does not use, every private name a module defines is read,
and importing a module loads only the modules it imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import rideshare

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rideshare"


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _absolute_imports(path):
    for node in ast.walk(_tree(path)):
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
# `allocation`.
PRIVATE_IMPORTS = {("allocation", "_feasible")}


def _package_imports(path):
    """The names `path` imports from other modules of the package."""
    for node in ast.walk(_tree(path)):
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


# (importing module, name) pairs imported but not used: bench/tracer.py
# wraps `efficient_allocation` and `efficient_allocation_excluding` under
# these names in `payments` and `audit` to count allocation searches, so
# they stay until the bench reads library counters instead.
UNUSED_IMPORTS = {
    ("payments", "efficient_allocation"),
    ("payments", "efficient_allocation_excluding"),
    ("audit", "efficient_allocation"),
    ("audit", "efficient_allocation_excluding"),
}


def _unused_imports(path):
    """The names `path` binds by an import and never reads."""
    tree = _tree(path)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


def test_modules_use_every_name_they_import():
    """No module re-exports what it imports, the package root included."""
    unused = {
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _unused_imports(path)
    }
    assert unused == UNUSED_IMPORTS


def _private_names(tree):
    """The private, non-dunder names bound at the top level of `tree`."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            names = [n.id for n in ast.walk(node)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def test_every_private_name_is_read():
    """A private helper that nothing reads is dead code: each one defined at
    a module's top level is read, as a name or an attribute, somewhere in
    the package."""
    trees = {path.stem: _tree(path) for path in sorted(PACKAGE.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = {(module, name) for module, tree in trees.items()
              for name in _private_names(tree) if name not in read}
    assert unread == set()


def _loaded_by(statement):
    """The package's modules a fresh interpreter holds after `statement`."""
    src = Path(rideshare.__file__).resolve().parents[1]
    probe = (f"import sys; {statement}; "
             "print(*sorted(m for m in sys.modules if m.startswith('rideshare.')))")
    result = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    return result.stdout.split()


def test_the_package_root_loads_no_module():
    """The root exports nothing, so callers import each module by name and
    load only what that module imports."""
    assert _loaded_by("import rideshare") == []
    assert _loaded_by("import rideshare.scenario_io") == [
        "rideshare.model", "rideshare.scenario_io", "rideshare.valuation"]
