"""The runtime dependencies stay numpy and pyyaml, in the package
metadata and in what the source imports."""
import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUNTIME = {"numpy", "yaml"}


def test_declared_dependencies_are_numpy_and_pyyaml():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert sorted(project["dependencies"]) == ["numpy", "pyyaml"]


def test_source_imports_only_the_stdlib_and_the_runtime_dependencies():
    allowed = set(sys.stdlib_module_names) | RUNTIME
    found = {}
    for path in sorted((ROOT / "src" / "tabtext").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], path.name)
    assert {top: where for top, where in found.items() if top not in allowed} == {}
    # The scan sees every import, also those inside a function.
    assert RUNTIME <= set(found)
