"""Source hygiene of the package, read with ``ast``: no module imports a
name it never uses, so deleting code cannot leave its imports behind."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "degcalc"
#: ``__init__.py`` imports the public names in order to export them
MODULES = sorted(p.name for p in PACKAGE.glob("*.py")
                 if p.name != "__init__.py")


def imported_names(tree):
    """The names that the import statements anywhere in ``tree`` bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_every_module_is_checked():
    assert "diffop.py" in MODULES and len(MODULES) >= 8


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    tree = ast.parse((PACKAGE / name).read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(imported_names(tree)) - used)
    assert not unused, f"{name} imports names it never uses: {unused}"
