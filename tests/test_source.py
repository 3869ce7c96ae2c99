"""Source hygiene of the package, read with ``ast``: no module imports a
name it never uses, and no module-level private function or class goes
unreferenced, so deleting code cannot leave its imports or helpers behind."""

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


def private_definitions(tree):
    """Module-level functions and classes whose names start with ``_``."""
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")}


def referenced_names(tree):
    """The names that ``tree`` reads, bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_module_is_checked():
    assert "diffop.py" in MODULES and len(MODULES) >= 8


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    tree = ast.parse((PACKAGE / name).read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(imported_names(tree)) - used)
    assert not unused, f"{name} imports names it never uses: {unused}"


@pytest.mark.parametrize("name", MODULES)
def test_no_orphaned_private_definitions(name):
    referenced = {ref for path in PACKAGE.glob("*.py")
                  for ref in referenced_names(ast.parse(path.read_text()))}
    defined = private_definitions(ast.parse((PACKAGE / name).read_text()))
    orphans = sorted(defined - referenced)
    assert not orphans, f"{name} defines private names nothing uses: {orphans}"
