"""Exception hierarchy shared across the pipeline."""


class TabTextError(Exception):
    """Base class for all pipeline errors."""


class ValidationError(TabTextError):
    """Bad configuration or inputs detected before any work starts."""


class SchemaError(ValidationError):
    """A schema document is internally inconsistent."""


class SchemaMismatchError(ValidationError):
    """Input data does not match the declared schema."""


class RowParseError(ValidationError):
    """A single data row could not be parsed; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class BackendError(TabTextError):
    """An embedding backend failed (service unreachable, bad reply, cache unusable)."""


class StageError(TabTextError):
    """A pipeline stage failed; carries stage context for the CLI."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage '{stage}': {message}")
        self.stage = stage
