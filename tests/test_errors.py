"""A StageError means an unexpected failure inside a stage, so one function
makes it: errors.stage. Input faults are ValidationErrors raised where the
file that carries them is read."""
import ast
from pathlib import Path

import pytest

from tabtext.errors import BackendError, StageError, ValidationError, stage

SRC = Path(__file__).resolve().parents[1] / "src" / "tabtext"


class _StageErrorCalls(ast.NodeVisitor):
    """The enclosing function of every ``StageError(...)`` call in a module."""

    def __init__(self):
        self.scope: list[str] = []
        self.found: list[str] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        if getattr(func, "id", getattr(func, "attr", None)) == "StageError":
            self.found.append(".".join(self.scope) or "<module>")
        self.generic_visit(node)


def test_stage_error_is_made_only_in_errors_stage():
    calls = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _StageErrorCalls()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        calls.extend(f"{path.stem}.{scope}" for scope in visitor.found)
    assert calls == ["errors.stage"]


def test_stage_wraps_only_an_unexpected_failure():
    with pytest.raises(StageError, match="^stage 'parse': boom$"):
        with stage("parse"):
            raise RuntimeError("boom")
    for error in (ValidationError("bad input"), BackendError("down")):
        with pytest.raises(type(error)):
            with stage("parse"):
                raise error
