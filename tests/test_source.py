"""Source hygiene of the package, read with ``ast``: no module imports a
name it never uses, and no module-level private function or class goes
unreferenced, so deleting code cannot leave its imports or helpers behind.
Every exported name, and every public method or property of an exported
class, has a reader besides the unit tests, so the public API is what the
commands, demos and benchmark use.  Only ``cli.py`` touches the
file system, so every output file is written in one place."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "degcalc"
#: ``__init__.py`` imports the public names in order to export them
MODULES = sorted(p.name for p in PACKAGE.glob("*.py")
                 if p.name != "__init__.py")
#: where an exported name must be read: the package, the demos, the
#: benchmark and the acceptance gate
READERS = ([PACKAGE / name for name in MODULES]
           + sorted((ROOT / "demos").glob("*.py"))
           + sorted((ROOT / "perfbench").glob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])


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


def references_by_owner(tree):
    """(owner, name) for each name that ``tree`` reads, where ``owner`` is
    the module-level function or class that the reference sits in, if any."""
    for top in tree.body:
        owner = getattr(top, "name", None)
        for ref in referenced_names(top):
            yield owner, ref


def imported_modules(tree):
    """The top-level names of the absolute modules that ``tree`` imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


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


def test_every_export_has_a_reader():
    """A reference counts unless it sits in the name's own definition or in
    that of another export without a reader, so a chain of exports that
    only the unit tests call is unread as a whole."""
    exports = set(imported_names(ast.parse(
        (PACKAGE / "__init__.py").read_text())))
    refs = [(owner, name) for path in READERS
            for owner, name in references_by_owner(ast.parse(path.read_text()))
            if owner != name]
    unread = set()
    while True:
        read = {name for owner, name in refs if owner not in unread}
        if exports - read == unread:
            break
        unread = exports - read
    assert not unread, f"exported names only the unit tests read: " \
        f"{sorted(unread)}"


#: public members that only the unit tests read, each with its reason
KEPT_MEMBERS = {
    "CylinderFunction.harmonic": "the tests build angular functions with it",
    "Flow.F_inverse": "the tests reach inside apply, which returns early at 0 "
                      "and at the power branch's base point",
    "GPhiElement.inverse": "the test of the inverse law",
    "HPsiElement.is_unit": "the test of the unit law",
    "DiffOp.order": "the tests of the commutator's and the top term's order",
    "PoweredSymbol.order": "the tests of the parametrix orders; the fix of "
                           "ParametrixExpansion.remainder_order reads it",
}


def public_members(tree, classes):
    """(class, member, definition) for each public method or property of
    the classes in ``classes`` that ``tree`` defines."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in classes:
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield node.name, item.name, item


def attribute_reads(tree):
    """How often ``tree`` reads each name as an attribute."""
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute))


def test_every_public_member_has_a_reader():
    """Each public method or property of an exported class is read as an
    attribute in ``READERS`` outside its own definition, unless kept above;
    a kept member that gains a reader or goes comes off the list."""
    exports = set(imported_names(ast.parse(
        (PACKAGE / "__init__.py").read_text())))
    trees = {path: ast.parse(path.read_text()) for path in READERS}
    reads = sum((attribute_reads(tree) for tree in trees.values()), Counter())
    members = [(f"{cls}.{name}", name, definition) for module in MODULES
               for cls, name, definition in public_members(
                   trees[PACKAGE / module], exports)]
    unread = {key for key, name, definition in members
              if reads[name] == attribute_reads(definition)[name]}
    assert unread == set(KEPT_MEMBERS), \
        f"public members only the unit tests read: " \
        f"{sorted(unread - set(KEPT_MEMBERS))}; kept members with a " \
        f"reader or gone: {sorted(set(KEPT_MEMBERS) - unread)}"


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "cli.py"))
def test_only_the_cli_writes_files(name):
    tree = ast.parse((PACKAGE / name).read_text())
    file_modules = sorted(set(imported_modules(tree)) & {"csv", "os"})
    assert not file_modules, f"{name} imports {file_modules}"
    assert "open" not in {node.id for node in ast.walk(tree)
                          if isinstance(node, ast.Name)}, f"{name} reads open"
