"""Static checks on the library source: no unused imports, and no private
module-level function that nothing in the library calls. A trim that leaves
either behind fails here."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mfbm"
# the package __init__ re-exports what it imports
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def referenced(tree):
    """Every name and attribute name the module uses."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def bound_imports(tree):
    """(bound name, line) for every import of the module, __future__ aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    tree = parse(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{path.name}:{line} {name}" for name, line in bound_imports(tree) if name not in used]
    assert not unused, f"unused imports: {unused}"


def test_every_private_function_is_referenced():
    trees = {path: parse(path) for path in SRC.glob("*.py")}
    names = set().union(*(referenced(tree) for tree in trees.values()))
    dead = [f"{path.name}:{node.lineno} {node.name}"
            for path, tree in trees.items() for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and node.name not in names]
    assert not dead, f"private functions nothing references: {dead}"


def test_montecarlo_runs_the_library_selection():
    """Replications go through select_k: the harness builds no grid and no
    spectrum of its own."""
    imported = {name for name, _ in bound_imports(parse(SRC / "montecarlo.py"))}
    assert "select_k" in imported
    assert not imported & {"build_grid", "spectrum"}
