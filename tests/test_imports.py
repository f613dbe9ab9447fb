"""Every name a module under src/codim, tests/ or scripts/ imports is used in
that module, and every module-level private name a module under src/codim
defines is referenced elsewhere in it."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "codim"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def dead_private_names(source: str) -> list[str]:
    """Module-level ``_name`` functions, classes and constants that no other
    top-level statement of the module reads."""
    tree = ast.parse(source)
    defined = {}  # name -> (line, defining statement)
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            targets = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            nodes = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            targets = [n.id for n in nodes if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = (stmt.lineno, stmt)
    dead = []
    for name, (line, own) in defined.items():
        readers = (node for stmt in tree.body if stmt is not own
                   for node in ast.walk(stmt))
        if not any(isinstance(n, ast.Name) and n.id == name for n in readers):
            dead.append(f"line {line}: {name}")
    return dead


def test_detects_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "line 1: os", "line 2: b"]


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    + sorted((ROOT / "scripts").glob("*.py")),
    ids=lambda p: p.name if p.parent == SRC else f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_dead_private_name():
    source = ("def _used():\n    return 1\n\n"
              "def _dead():\n    return _dead()\n\n"
              "_LIMIT = 3\n_UNREAD = 4\n\n"
              "def run():\n    return _used() + _LIMIT\n")
    assert dead_private_names(source) == ["line 4: _dead", "line 8: _UNREAD"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dead_private_names(path):
    assert dead_private_names(path.read_text(encoding="utf-8")) == []
