"""Source hygiene, checked with the standard library's ast: the package has
no unused import, no unused module-private top-level name, no import of
another module's private name, no import of dataclasses, and nothing
public that only code outside it reaches; the tests and tools have no
unused import.  A fresh import of the command line and the interpreter
loads every package module and neither dataclasses nor inspect, and the
command line alone does not load the interpreter."""

import ast
import os
import pathlib
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


def _exported() -> set[str]:
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {name for node in tree.body if isinstance(node, ast.Assign)
            and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__all__"]
            for name in ast.literal_eval(node.value)}


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
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in aliases:
                    used.add((aliases[node.value.id], node.attr))
    return used, attributes


def _is_property(node: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list)


def test_nothing_public_is_reached_only_from_outside_the_package():
    """Every public top-level function or class is used in the package or
    listed in lifeguard.__all__ (the package's own __init__ imports only
    to re-export), and every public method other than a property is read
    as an attribute somewhere in the package.  A name that only tests
    reach belongs in tests/."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    used, attributes = _package_uses(trees)
    exported = _exported()
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
                    and (module, node.name) not in used and node.name not in exported):
                unused.append(f"{module}.{node.name}")
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                unused += [f"{module}.{cls.name}.{node.name}" for node in cls.body
                           if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                           and not _is_property(node) and node.name not in attributes]
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
