"""Static checks on the package source."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "strainamp"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by import statements that the module never reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


def _private_defs(tree: ast.Module) -> dict[str, int]:
    """Module-level functions, classes and assignments named _x (not dunder)."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defs[name] = node.lineno
    return defs


def _reads(tree: ast.Module) -> set[str]:
    """Names a module reads: loaded names, attributes and imported names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names of `sources` (file name -> text) that no
    module of the set reads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set().union(*(_reads(t) for t in trees.values()))
    return sorted(f"{name}: {d} (line {line})" for name, t in trees.items()
                  for d, line in _private_defs(t).items() if d not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_detects_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau as t\nprint(os.sep, t)\n")
    assert unused_imports(tree) == ["pi (line 2)"]


def test_no_dead_private_names():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert dead_private_names(sources) == []


def test_detects_dead_private_name():
    sources = {
        "a.py": "def _kept(): pass\ndef _dead(): pass\n_X = 1\n_Y: int = 2\n"
                "class _Gone: pass\n__all__ = []\n",
        "b.py": "from .a import _kept\nimport a\nprint(a._X)\n_Y = 3\n",
    }
    assert dead_private_names(sources) == [
        "a.py: _Gone (line 5)",
        "a.py: _Y (line 4)",
        "a.py: _dead (line 2)",
        "b.py: _Y (line 4)",
    ]
