"""Source hygiene of the package, read with ``ast``: no module imports a
name it never uses, no module-level private function or class goes
unreferenced and no upper-case module constant goes unread, so deleting
code cannot leave its imports, helpers or constants behind.
Every exported name, and every public method or property of an exported
class, has a reader besides the unit tests, so the public API is what the
commands, demos and benchmark use.  Only ``powerfun.py`` reads the
stored form of a ring function.  Only ``cli.py`` touches the file system,
so every output file is written in one place.  No function changes module
state, so every cache lives on the object it serves and dies with it.  The
symbol layer holds no complex literal, ``complex(`` call or float division,
so the parametrix symbols stay exact in zeta = i xi.  Every third-party
module the tests import is declared in ``pyproject.toml``."""

import ast
import re
import sys
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


def module_constants(tree):
    """The upper-case names that the statements at the top of ``tree`` bind,
    imports aside."""
    return {node.id for top in tree.body
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef,
                                    ast.Import, ast.ImportFrom))
            for node in ast.walk(top) if isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Store) and node.id.isupper()}


def unread_constants(trees):
    """The module constants of ``trees`` that none of them reads."""
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) or (
                isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))}
    return set().union(*map(module_constants, trees)) - read


def test_the_constant_check_sees_a_leftover():
    tree = ast.parse("CHUNK = 256\nSTEP = 0.8\nN: int = 3\n"
                     "def f(u):\n    return u + STEP\n")
    assert module_constants(tree) == {"CHUNK", "STEP", "N"}
    assert unread_constants([tree]) == {"CHUNK", "N"}


def test_every_module_constant_is_read():
    """Every upper-case name bound at the top of a module is read somewhere
    in the package, so a constant cannot outlive its last reader."""
    trees = [ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")]
    assert len(set().union(*map(module_constants, trees))) >= 30
    unread = unread_constants(trees)
    assert not unread, f"module constants nothing reads: {sorted(unread)}"


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


def test_every_test_import_is_declared():
    """A third-party module that a test imports is a dependency or in an
    extra of ``pyproject.toml``, so ``pip install -e ".[test]"`` brings
    everything the suite needs; the tests' own modules and the package are
    not third-party."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = [*project["dependencies"],
                    *sum(project["optional-dependencies"].values(), [])]
    declared = {re.match(r"[\w.-]+", r)[0].lower().replace("-", "_")
                for r in requirements}
    tests = sorted((ROOT / "tests").glob("*.py"))
    imported = {name for path in tests
                for name in imported_modules(ast.parse(path.read_text()))}
    assert {"numpy", "pytest"} <= imported
    undeclared = sorted(imported - set(sys.stdlib_module_names) - declared
                        - {project["name"]} - {path.stem for path in tests})
    assert not undeclared, f"tests import undeclared modules: {undeclared}"


#: public members that only the unit tests read, each with its reason
KEPT_MEMBERS = {
    "CylinderFunction.harmonic": "the tests build angular functions with it",
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


def test_only_powerfun_reads_the_stored_ring_form():
    """The private fields of ``RadialFunction`` (its integer exponents and
    coefficient numerators and their denominators) are read only in
    ``powerfun.py``, so its representation can change in one module."""
    tree = ast.parse((PACKAGE / "powerfun.py").read_text())
    slots, = (ast.literal_eval(item.value) for node in tree.body
              if isinstance(node, ast.ClassDef)
              and node.name == "RadialFunction"
              for item in node.body if isinstance(item, ast.Assign)
              and item.targets[0].id == "__slots__")
    private = {name for name in slots if name.startswith("_")}
    assert {"_terms", "_den", "_cden"} <= private
    readers = {path.name: sorted(private & set(attribute_reads(
        ast.parse(path.read_text())))) for path in READERS
        if path != PACKAGE / "powerfun.py"}
    assert not any(readers.values()), \
        f"RadialFunction's stored form read outside powerfun.py: " \
        f"{ {name: r for name, r in readers.items() if r} }"


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "cli.py"))
def test_only_the_cli_writes_files(name):
    tree = ast.parse((PACKAGE / name).read_text())
    file_modules = sorted(set(imported_modules(tree)) & {"csv", "os"})
    assert not file_modules, f"{name} imports {file_modules}"
    assert "open" not in {node.id for node in ast.walk(tree)
                          if isinstance(node, ast.Name)}, f"{name} reads open"


#: method calls that change a list, dict or set in place
MUTATING_METHODS = {"append", "extend", "insert", "add", "discard", "remove",
                    "update", "setdefault", "pop", "popitem", "clear"}


def module_names(tree):
    """The names that the statements at the top of a module bind."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            yield top.name
        else:
            yield from (node.id for node in ast.walk(top)
                        if isinstance(node, ast.Name)
                        and isinstance(node.ctx, ast.Store))
    yield from imported_names(tree)


def local_names(function):
    """The names that ``function`` binds itself: its arguments and stores."""
    args = function.args
    for arg in args.posonlyargs + args.args + args.kwonlyargs + [
            args.vararg, args.kwarg]:
        if arg is not None:
            yield arg.arg
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.id


def module_state_changes(tree):
    """(function, line, what) for each ``global`` statement in a function,
    and each subscript store or delete, or mutating method call, on a
    module-level name that the function does not bind itself."""
    shared = set(module_names(tree))
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.Lambda)):
            continue
        name = getattr(function, "name", "<lambda>")
        outer = shared - set(local_names(function))
        for node in ast.walk(function):
            if isinstance(node, ast.Global):
                yield name, node.lineno, f"global {', '.join(node.names)}"
            elif (isinstance(node, ast.Subscript)
                  and isinstance(node.ctx, (ast.Store, ast.Del))
                  and isinstance(node.value, ast.Name)
                  and node.value.id in outer):
                yield name, node.lineno, f"stores into {node.value.id}[...]"
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in MUTATING_METHODS
                  and isinstance(node.func.value, ast.Name)
                  and node.func.value.id in outer):
                yield name, node.lineno, \
                    f"calls {node.func.value.id}.{node.func.attr}"


def test_the_guard_sees_module_state_changes():
    tree = ast.parse("CACHE = {}\nSEEN = []\nN = 0\n"
                     "def f(k, v):\n    CACHE[k] = v\n    del CACHE[k]\n"
                     "    SEEN.append(k)\n    global N\n"
                     "def g(CACHE):\n    CACHE[1] = 2\n    local = {}\n"
                     "    local[1] = SEEN[0]\n")
    assert sorted(module_state_changes(tree)) == [
        ("f", 5, "stores into CACHE[...]"), ("f", 6, "stores into CACHE[...]"),
        ("f", 7, "calls SEEN.append"), ("f", 8, "global N")]


@pytest.mark.parametrize("name", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_function_changes_module_state(name):
    changes = list(module_state_changes(ast.parse(
        (PACKAGE / name).read_text())))
    assert not changes, f"{name} changes module state: {changes}"


#: the symbol layer of ``diffop.py``, exact in zeta = i xi: these functions
#: and every ``PoweredSymbol`` method but ``evaluate``, which reads zeta as
#: i xi
EXACT_SYMBOL_FUNCTIONS = ("radial_symbol", "parametrix_1d", "_trim_poly",
                          "_poly_add", "_poly_mul")


def inexact_operations(function):
    """(line, what) for each complex literal, ``complex(`` call and float
    division in ``function``."""
    for node in ast.walk(function):
        if isinstance(node, ast.Constant) and isinstance(node.value, complex):
            yield node.lineno, f"literal {node.value!r}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "complex"):
            yield node.lineno, "complex("
        elif (isinstance(node, (ast.BinOp, ast.AugAssign))
              and isinstance(node.op, ast.Div)):
            yield node.lineno, "/"


def test_the_exactness_check_sees_complex_and_division():
    tree = ast.parse("def f(a, b):\n    c = a * 1j + complex(b)\n"
                     "    c /= 2\n    return c / 3 + a // b\n")
    assert sorted(inexact_operations(tree.body[0])) == [
        (2, "complex("), (2, "literal 1j"), (3, "/"), (4, "/")]


def test_the_symbol_layer_is_exact():
    tree = ast.parse((PACKAGE / "diffop.py").read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    symbol, = (node for node in tree.body if isinstance(node, ast.ClassDef)
               and node.name == "PoweredSymbol")
    methods = [item for item in symbol.body
               if isinstance(item, ast.FunctionDef) and item.name != "evaluate"]
    assert len(methods) >= 5
    found = {f.name: list(inexact_operations(f)) for f in
             [functions[name] for name in EXACT_SYMBOL_FUNCTIONS] + methods}
    assert not any(found.values()), \
        f"inexact operations in the symbol layer: " \
        f"{ {name: ops for name, ops in found.items() if ops} }"
