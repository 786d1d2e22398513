"""Source hygiene, checked with the standard library's ast: the package has
no unused import, no unused module-private top-level name, no import of
another module's private name, no import of dataclasses, no record
identity defined outside ``messages.Record`` and ``messages.Hashed``, one
limit path, and nothing public that only code outside it reaches; the tests
and tools have no
unused import.  A fresh import of the command line and the interpreter
loads every package module and neither dataclasses nor inspect, and the
command line alone does not load the interpreter."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "lifeguard"
# __init__.py imports names to re-export them.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py")) + sorted((TESTS.parent / "tools").glob("*.py"))


def _loaded(tree: ast.Module) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _bound_names(node: ast.stmt) -> list[str]:
    """Names a top-level statement binds: imports (except __future__),
    private functions, classes and assignments."""
    if isinstance(node, ast.Import):
        return [a.asname or a.name.split(".")[0] for a in node.names]
    if isinstance(node, ast.ImportFrom):
        return [] if node.module == "__future__" else [a.asname or a.name for a in node.names]
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        return []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports_or_private_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    loaded = _loaded(tree)
    unused = [name for node in tree.body for name in _bound_names(node) if name not in loaded]
    assert unused == [], f"{path.name}: unused {unused}"
    private = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or node.module.split(".")[0] == "lifeguard")
               for alias in node.names if alias.name.startswith("_")]
    assert private == [], f"{path.name}: imports another module's private {private}"


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: p.name)
def test_tests_have_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    loaded = _loaded(tree)
    unused = [name for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
              for name in _bound_names(node) if name not in loaded]
    assert unused == [], f"{path.name}: unused {unused}"


def _package_uses(trees: dict[str, ast.Module]) -> tuple[set[tuple[str, str]], set[str]]:
    """The (module, name) pairs that the package's modules use, each by
    loading its own name, importing another module's or reading module.name
    through an imported module, and every attribute name the package reads."""
    used, attributes = set(), set()
    for module, tree in trees.items():
        used |= {(module, name) for name in _loaded(tree)}
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                for alias in node.names:
                    if node.module is None:
                        aliases[alias.asname or alias.name] = alias.name
                    else:
                        used.add((node.module, alias.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and not _on_self(node):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in aliases:
                    used.add((aliases[node.value.id], node.attr))
    return used, attributes


def _on_self(node: ast.Attribute) -> bool:
    return isinstance(node.value, ast.Name) and node.value.id == "self"


def _self_reads(trees: dict[str, ast.Module]) -> dict[str, set[str]]:
    """Per class of the package, the attribute names read on self in it or
    in a class that extends it, where an inherited method is read."""
    classes = [cls for tree in trees.values() for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef)]
    bases = {cls.name: {b.id for b in cls.bases if isinstance(b, ast.Name)} for cls in classes}
    reads = {cls.name: set() for cls in classes}
    for cls in classes:
        names = {n.attr for n in ast.walk(cls) if isinstance(n, ast.Attribute) and _on_self(n)}
        pending = [cls.name]
        while pending:
            name = pending.pop()
            reads[name] |= names
            pending += [b for b in bases.get(name, ()) if b in reads]
    return reads


def _is_property(node: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list)


def test_nothing_public_is_reached_only_from_outside_the_package():
    """Every public top-level function or class is used in the package, even
    one listed in lifeguard.__all__ (the package's own __init__ imports only
    to re-export, so it does not count), and every public method other than
    a property is read as an attribute somewhere in the package; a read on
    self counts only for its own class and the classes it extends.  A name
    that only tests reach belongs in tests/."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    used, attributes = _package_uses(trees)
    self_reads = _self_reads(trees)
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
                    and (module, node.name) not in used):
                unused.append(f"{module}.{node.name}")
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                unused += [f"{module}.{cls.name}.{node.name}" for node in cls.body
                           if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                           and not _is_property(node) and node.name not in attributes
                           and node.name not in self_reads[cls.name]]
    assert unused == [], f"reached only from outside the package: {unused}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dataclasses_import(path):
    """Records are slotted classes: ``@dataclass`` costs about 1 ms per class
    at every start, and importing dataclasses loads inspect, ast and dis."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "dataclasses" not in imported, path.name


IDENTITY = {"__eq__", "__hash__", "_key"}


def test_only_record_defines_identity():
    """Record keys each class by the slots it declares itself, so no other
    class of the package defines __eq__, __hash__ or _key; Hashed only
    stores the hash that key gives and reads it first in __eq__."""
    defined = []
    for path in MODULES:
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(cls, ast.ClassDef):
                names = {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}
                names |= {t.id for n in cls.body if isinstance(n, ast.Assign)
                          for t in n.targets if isinstance(t, ast.Name)}
                if names & IDENTITY:
                    defined.append(f"{path.stem}.{cls.name}")
    others = sorted(set(defined) - {"messages.Record", "messages.Hashed"})
    assert others == [], f"{len(others)} classes define their own identity: {', '.join(others)}"


LIMIT_WORDS = re.compile(r"\b(timeout|cap)\b")


def _text(node: ast.expr) -> str:
    """The constant strings in an expression, such as an f-string's text."""
    return " ".join(n.value for n in ast.walk(node)
                    if isinstance(n, ast.Constant) and isinstance(n.value, str))


def _name(node: ast.expr) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def test_one_limit_path():
    """Only dfa, the lowest layer to stop on a limit, reads the clock, and
    every raise whose message speaks of a timeout or a cap raises
    dfa.LimitExceeded or a class that extends it."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    clocks = sorted(module for module, tree in trees.items() for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "monotonic")
    assert set(clocks) == {"dfa"}, f"modules that read the clock: {clocks}"
    classes = [cls for tree in trees.values() for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef)]
    limits, grown = {"LimitExceeded"}, True
    while grown:
        more = {cls.name for cls in classes if limits & set(map(_name, cls.bases))}
        grown, limits = not more <= limits, limits | more
    raised = [(module, _name(node.exc.func)) for module, tree in trees.items()
              for node in ast.walk(tree) if isinstance(node, ast.Raise)
              and isinstance(node.exc, ast.Call) and node.exc.args
              and LIMIT_WORDS.search(_text(node.exc.args[0]))]
    assert raised and all(name in limits for _, name in raised), raised


def _fresh_modules(imports: str) -> set[str]:
    code = f"import sys, {imports}; print(' '.join(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    return set(subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                              capture_output=True, text=True).stdout.split())


def test_cli_import_loads_the_package_and_no_dataclasses():
    # The interpreter is imported on first use, so the command line and
    # the interpreter together cover every module.
    loaded = _fresh_modules("lifeguard.cli, lifeguard.interp")
    assert {f"lifeguard.{path.stem}" for path in MODULES} <= loaded
    assert not {"dataclasses", "inspect"} & loaded
    assert "lifeguard.interp" not in _fresh_modules("lifeguard.cli")
