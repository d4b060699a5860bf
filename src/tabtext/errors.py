"""Exception hierarchy shared across the pipeline, and :func:`stage`, the one
place that turns an unexpected failure into a :class:`StageError`."""
from __future__ import annotations

import logging
import time
from contextlib import contextmanager
from typing import Optional

log = logging.getLogger("tabtext")


class TabTextError(Exception):
    """Base class for all pipeline errors."""


class ValidationError(TabTextError):
    """A bad input: an option, a config value, or a file that cannot be read
    or breaks a rule of its format."""


class BackendError(TabTextError):
    """An embedding backend failed (service unreachable, bad reply, cache
    unusable). Raised inside a stage, its message is led by that stage's name."""

    stage: Optional[str] = None


class StageError(TabTextError):
    """A pipeline stage failed; the message names the stage."""


@contextmanager
def stage(name: str, items: Optional[int] = None):
    """Log one line per stage with wall time. A TabTextError passes through,
    a BackendError led by the name of the innermost stage it crossed; any
    other exception becomes the StageError of ``name``."""
    start = time.perf_counter()
    try:
        yield
    except BackendError as exc:
        if exc.stage is None:
            exc.stage, exc.args = name, (f"stage '{name}': {exc}",)
        raise
    except TabTextError:
        raise
    except Exception as exc:
        raise StageError(f"stage '{name}': {exc}") from exc
    elapsed = time.perf_counter() - start
    suffix = f", {items} items" if items is not None else ""
    log.info("stage %s done in %.2fs%s", name, elapsed, suffix)
