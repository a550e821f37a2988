"""The package's modules import each other only along the layer order.

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
