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
