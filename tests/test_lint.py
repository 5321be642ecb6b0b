"""Static checks on the library source: no unused imports, no private
module-level function that nothing in the library calls, and no import of
scipy.integrate. A trim that leaves either of the first two behind fails
here, and so does a second quadrature route beside the band rule."""

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


def test_no_scipy_integrate():
    """Every wavelet integral goes through the one band rule
    (wavelet._band_integral): no module imports scipy.integrate or reaches it
    as an attribute of scipy."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            else:
                continue
            if any(name == "scipy.integrate" or name.startswith("scipy.integrate.") for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"scipy.integrate used at {found}"
