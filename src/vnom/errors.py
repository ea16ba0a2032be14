"""Exception types shared across the package."""


class VnomError(Exception):
    """Base class for all package errors."""


class InputError(VnomError, ValueError):
    """Invalid argument or precondition violation."""


class UndefinedDensityError(InputError):
    """Relative density requested for a vertex set with fewer than two vertices."""


class DegenerateConditioningError(InputError):
    """Conditional distribution requested for an impossible conditioning event."""


class NoRedCandidatesError(InputError):
    """Evaluation requested against an empty set of true positives."""


class EmptyProfileError(InputError):
    """Topic profile requested for a vertex set that induces no edges."""


class RecordError(InputError):
    """A graph record breaks a validity rule: ``kind`` is "edge", named by its
    input position, or "vertex", named by its id; ``reason`` is the rule."""

    def __init__(self, kind: str, index: int, reason: str):
        self.kind, self.index, self.reason = kind, index, reason
        super().__init__(f"{kind} {index}: {reason}")


class GraphFormatError(InputError):
    """Malformed or invalid graph file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
