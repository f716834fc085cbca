"""Exception hierarchy shared by every oadeval module.

The CLI maps these onto exit codes: any :class:`EvaluationError` exits
with code 1, plain I/O failures exit with code 2.
"""

from __future__ import annotations


class EvaluationError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(EvaluationError):
    """Input breaks a documented invariant (bad interval, grid mismatch...)."""


class DegenerateInputError(ValidationError):
    """Input is structurally valid but yields an empty computation.

    Raised when a timeline produces zero slots, when an evaluation
    instant precedes the first slot boundary, or when an aggregate is
    requested over an empty video set.
    """


class VocabularyError(ValidationError):
    """A label is not part of the declared vocabulary."""


class CausalityError(ValidationError):
    """A prediction stream tried to revise a past slot or peek ahead."""


class ParseError(EvaluationError):
    """A file could not be parsed; carries the offending location."""

    def __init__(self, message: str, *, path: str | None = None,
                 line: int | None = None, field: str | None = None):
        self.path = path
        self.line = line
        self.field = field
        where = []
        if path is not None:
            where.append(str(path))
        if line is not None:
            where.append(f"line {line}")
        if field is not None:
            where.append(f"field {field!r}")
        prefix = ", ".join(where)
        super().__init__(f"{prefix}: {message}" if prefix else message)
