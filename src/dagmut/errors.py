"""Exception types shared across the package."""
from __future__ import annotations

from typing import Iterable


class ModelError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ModelError):
    """Malformed graph file, term text, or mutation script."""

    def __init__(self, message: str, *, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CycleError(ModelError):
    """The graph contains a directed cycle; carries one witness path."""

    def __init__(self, witness: Iterable[str]):
        self.witness = tuple(witness)
        super().__init__("cycle detected: " + " -> ".join(self.witness))


class OperationError(ModelError):
    """A mutation operator's precondition failed."""


class InsertionCycleError(OperationError):
    """An arc insertion would close a directed cycle."""


class ScriptError(ModelError):
    """A script aborted; ``index`` is the 1-based position of the failing operator."""

    def __init__(self, index: int, notation: str, cause: Exception):
        self.index = index
        self.notation = notation
        super().__init__(f"op {index} ({notation}): {cause}")
