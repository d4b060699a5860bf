"""A StageError means an unexpected failure inside a stage, so one function
makes it: errors.stage. Input faults are ValidationErrors raised where the
file that carries them is read, and every input file is read in formats."""
import ast
from pathlib import Path

import pytest

from tabtext.errors import BackendError, StageError, ValidationError, stage

SRC = Path(__file__).resolve().parents[1] / "src" / "tabtext"


class _Calls(ast.NodeVisitor):
    """The enclosing function of every call in a module to a name in ``names``,
    a plain name or an attribute."""

    def __init__(self, names):
        self.names = names
        self.scope: list[str] = []
        self.found: list[str] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        if getattr(func, "id", getattr(func, "attr", None)) in self.names:
            self.found.append(".".join(self.scope) or "<module>")
        self.generic_visit(node)


def calls_in_src(*names):
    """'module.function' of every call to one of ``names`` in src/tabtext."""
    calls = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _Calls(names)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        calls.extend(f"{path.stem}.{scope}" for scope in visitor.found)
    return calls


def test_stage_error_is_made_only_in_errors_stage():
    assert calls_in_src("StageError") == ["errors.stage"]


def test_input_files_are_read_only_in_formats():
    """Outside formats, only the output digest opens a file."""
    reads = calls_in_src("open", "read_text", "read_bytes", "reader", "DictReader")
    assert {c for c in reads if not c.startswith("formats.")} == {"pipeline._digest"}


def test_stage_wraps_only_an_unexpected_failure():
    with pytest.raises(StageError, match="^stage 'parse': boom$"):
        with stage("parse"):
            raise RuntimeError("boom")
    for error in (ValidationError("bad input"), BackendError("down")):
        with pytest.raises(type(error)):
            with stage("parse"):
                raise error
