"""Exception types shared across the library."""

from __future__ import annotations


class GroupMatchError(Exception):
    """Base class for all library-specific errors."""


class NotAGroup(GroupMatchError):
    """Cayley-table validation failed.

    ``reason`` is one of ``"wrong-identity"``, ``"not-latin-square"``,
    ``"not-associative"``; ``detail`` holds the first violating index
    triple (its exact shape depends on the reason).  For
    ``"not-associative"`` it is ``(x, g, y)`` with (x*g)*y != x*(g*y).
    """

    def __init__(self, reason: str, detail: tuple, message: str | None = None):
        self.reason = reason
        self.detail = tuple(detail)
        super().__init__(message or f"{reason} at {self.detail}")


class SizeLimit(GroupMatchError):
    """An operation was asked to exceed its configured size cap."""

    def __init__(self, what: str, size: int, cap: int):
        self.what = what
        self.size = size
        self.cap = cap
        super().__init__(f"{what}: size {size} exceeds cap {cap}")


class MixedGroups(GroupMatchError):
    """Operands belong to different groups."""


class NotInA(GroupMatchError):
    """An element required to lie in the left subset A does not."""


class EmptyInput(GroupMatchError):
    """A subset that must be nonempty is empty."""


class SizeMismatch(GroupMatchError):
    """|A| != |B|, so no bijection (hence no matching) can exist."""


class IdentityInB(GroupMatchError):
    """The identity lies in B, so no matching can exist."""


class NotApplicable(GroupMatchError):
    """The requested construction has no instance for this group."""


class CrossValidationError(GroupMatchError):
    """Independent routes that must agree returned different answers."""


class ParseError(GroupMatchError):
    """Input text failed to parse; carries a 1-based position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None and column is not None:
            where = f" (line {line}, column {column})"
        elif line is not None:
            where = f" (line {line})"
        elif column is not None:
            where = f" (column {column})"
        super().__init__(message + where)
