"""Source hygiene, checked with the standard library's ast: the package has
no unused import, no unused module-private top-level name, and no import
of another module's private name; the tests and tools have no unused
import."""

import ast
import pathlib

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
