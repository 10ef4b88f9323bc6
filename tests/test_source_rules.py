"""Rules every module of the package keeps."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lpmax"


def test_no_assert_statements():
    # guarantees must still be checked under `python -O`, which strips asserts
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_listed_products():
    # enumerations run on the chunked oracle._mesh_rows, never a full list
    found = [path.name for path in sorted(SRC.glob("*.py"))
             if "list(itertools.product(" in path.read_text(encoding="utf-8")]
    assert found == []


def test_oracle_imports_no_solver():
    # the oracles check the solvers' certificates, so they share no code with them
    tree = ast.parse((SRC / "oracle.py").read_text(encoding="utf-8"))
    parts = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            parts.update(part for alias in node.names for part in alias.name.split("."))
    assert "holder_dual" in parts  # the walk sees the imports
    assert parts.isdisjoint({"mlopt", "hpopt", "sampler", "estimators", "cli"})
