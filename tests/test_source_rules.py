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


def test_lines_fit_in_100_columns():
    found = [f"{path.name}:{i}"
             for path in sorted(SRC.glob("*.py"))
             for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if len(line) > 100]
    assert found == []


def test_one_first_slot_contraction():
    # every one-vector contraction goes through tensor.contract_first (slot j via
    # np.moveaxis), the same gemv as tensordot without its set-up; the only
    # tensordot left is slot_bounds' product of a row block with the unfolding
    calls = [(path.name, func.name)
             for path in sorted(SRC.glob("*.py"))
             for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(func, ast.FunctionDef)
             for node in ast.walk(func)
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None)) == "tensordot"]
    assert calls == [("tensor.py", "slot_bounds")]


def test_only_the_relaxation_raises_convergence_errors():
    # exit 5 means a relaxation solve did not converge, and nothing else
    raisers = sorted({path.name
                      for path in SRC.glob("*.py")
                      for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
                      if isinstance(node, ast.Raise) and node.exc is not None
                      and "ConvergenceError" in ast.dump(node.exc)})
    assert raisers == ["mlopt.py", "pqnorm.py"]


def _import_parts(path):
    """Every dotted part of every name the module at path imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    parts = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            parts.update((node.module or "").split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            parts.update(part for alias in node.names for part in alias.name.split("."))
    return parts


def test_oracle_imports_no_solver():
    # the oracles check the solvers' certificates, so they import no solver module;
    # what they share with the solvers (the Holder dual, the bounds) sits in tensor
    parts = _import_parts(SRC / "oracle.py")
    assert "holder_rows" in parts  # the walk sees the imports
    assert parts.isdisjoint({"pqnorm", "mlopt", "hpopt", "sampler", "estimators", "cli"})


def test_cli_reads_the_sample_budget_from_the_certificate():
    # whether max_samples capped the draws is solve_ml's decision, which its
    # certificate states; the report prints it and works nothing out again
    parts = _import_parts(SRC / "cli.py")
    assert "mlopt" in parts  # the walk sees the imports
    assert "sampler" not in parts


def test_shared_bound_sits_in_the_base_layer():
    # the solver prunes by the oracle scans' bound, so it lives in tensor, which
    # both may import, and the solver never reaches into the oracle; both take
    # the whole bound from its one kernel and never build it from matrix_bounds
    modules = {path.stem for path in SRC.glob("*.py")}
    mlopt_parts, oracle_parts = _import_parts(SRC / "mlopt.py"), _import_parts(SRC / "oracle.py")
    assert "oracle" not in mlopt_parts
    tensor_parts = _import_parts(SRC / "tensor.py")
    assert "slot_bounds" in mlopt_parts & oracle_parts
    assert "matrix_bounds" not in mlopt_parts | oracle_parts
    assert "validation" in tensor_parts  # the walk sees the imports
    assert tensor_parts & modules <= {"errors", "validation"}


def test_every_echo_names_its_stream():
    # click.echo without file= caches a wrapper keyed by the current sys.stdout
    # or sys.stderr that keeps the stream alive, which leaks every in-process
    # call's output (CliRunner, the benchmark) for the life of the interpreter
    calls = [(path.name, node)
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "echo"]
    assert calls  # the walk sees the calls
    assert [f"{name}:{node.lineno}" for name, node in calls
            if "file" not in {kw.arg for kw in node.keywords}] == []


def test_one_module_builds_generators():
    # the RNG streams are part of every certificate, and sampler.draw_candidates
    # reproduces numpy's seeding bit for bit, so only sampler builds generators
    names = {"SeedSequence", "PCG64", "Generator", "default_rng"}
    calls = [(path.name, node)
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None)) in names]
    assert calls  # the walk sees the calls
    assert [f"{name}:{node.lineno}" for name, node in calls if name != "sampler.py"] == []


def test_tests_import_no_conftest():
    # pytest imports tests/conftest.py and bench/tests/conftest.py under the one
    # name "conftest", so a test importing from it gets whichever came first;
    # the helpers the tests share live in tests/supersym.py
    parts = {path.name: _import_parts(path)
             for path in sorted(Path(__file__).resolve().parent.glob("*.py"))}
    assert "supersym" in parts["test_tensor.py"]  # the walk sees the imports
    assert [name for name, found in parts.items() if "conftest" in found] == []
