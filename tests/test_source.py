import ast
from pathlib import Path

import pytest

import mgt_inverse

MODULES = sorted(path for path in Path(mgt_inverse.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")     # __init__ only re-exports


def unused_imports(source: str) -> list:
    """Names a module imports and never reads, with their line numbers."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_finds_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(os.sep, pi)\n") == [
        (2, "tau")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


# top-level definitions that no library module reads, with their outside caller
REACHED_FROM_OUTSIDE = {
    "carleman_lhs_rhs": "perfbench/tracing.py wraps it",
    "weighted_data_norms": "perfbench/tracing.py wraps it",
    "v_norm_sq": "perfbench/workloads.py calls it",
    "minimize_J": "perfbench/workloads.py calls it",
    "evaluate_J": "perfbench/workloads.py calls it",
    "minimizer_difference_check": "perfbench/workloads.py calls it",
    "run_scale_sweep": "perfbench/workloads.py calls it",
}


def unreached_definitions(sources: dict) -> list:
    """(module, name) of each top-level function and class that no top-level
    statement of ``sources`` but its own definition reads by name."""
    statements = [(module, node) for module, source in sources.items()
                  for node in ast.parse(source).body]
    reads = [{node.id for node in ast.walk(statement)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
             for _, statement in statements]
    return [(module, statement.name) for k, (module, statement) in enumerate(statements)
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef))
            and not any(statement.name in read for j, read in enumerate(reads) if j != k)]


def test_the_check_finds_a_definition_only_its_own_body_reads():
    sources = {"a": "def f(n):\n    return f(n - 1)\n\nclass C:\n    pass\n",
               "b": "from a import C\n\ndef g():\n    return C()\n\ng()\n"}
    assert unreached_definitions(sources) == [("a", "f")]


def test_library_code_is_reached_from_the_library_or_named_callers():
    found = unreached_definitions({path.name: path.read_text() for path in MODULES})
    assert sorted(name for _, name in found) == sorted(REACHED_FROM_OUTSIDE)
