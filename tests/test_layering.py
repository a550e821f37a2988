"""The package's modules import each other only along the layer order, and
import nothing they leave unread.

Each module's intra-package imports are read from its source with ``ast``, in
both the ``from .x import y`` and the ``from . import x`` forms, and must stay
within the modules it is allowed to depend on.
"""

import ast
from pathlib import Path

import gateway_games

PACKAGE = Path(gateway_games.__file__).resolve().parent

ALLOWED = {
    "errors": set(),
    "graphs": {"errors"},
    "_engine": {"errors"},
    "game": {"_engine", "errors", "graphs"},
    "dynamics": {"_engine", "errors", "game", "graphs"},
    "optimization": {"_engine", "errors", "game", "graphs"},
    "constructions": {"errors", "game", "graphs"},
}
UNRESTRICTED = {"cli", "__init__", "__main__"}


def package_imports(path: Path) -> set[str]:
    """Names of the sibling modules that ``path`` imports."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom) or node.level == 0:
            continue
        if node.module:
            found.add(node.module.split(".")[0])
        else:
            found.update(alias.name for alias in node.names if alias.name in modules)
    return found


def test_modules_import_only_lower_layers():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(ALLOWED) | UNRESTRICTED
    for name, allowed in ALLOWED.items():
        imported = package_imports(PACKAGE / f"{name}.py")
        assert imported <= allowed, f"{name} imports {sorted(imported - allowed)}"


def test_module_imports_are_all_read():
    """Every name a module other than ``__init__`` imports at module level is
    read somewhere in it, unless its line is marked ``# noqa: F401``."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                marked = "# noqa: F401" in lines[alias.lineno - 1]
                assert name in read or marked, f"{path.name} imports {name} and never reads it"


def test_only_the_engine_reads_the_packed_layout():
    """The word of a packed set and its in-word toggle masks are read only in
    ``_engine``, which owns the layout: by name or as an ``_engine`` attribute."""
    layout = {"_STAY", "_SHIFT", "_WORD"}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "_engine":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not read & layout, f"{path.name} reads {sorted(read & layout)}"
