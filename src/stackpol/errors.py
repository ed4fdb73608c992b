"""Exception types shared across the toolkit.

Every user-facing failure funnels through one of these so the CLI can map
them onto stable exit codes (input problems vs. resource exhaustion).
"""

from __future__ import annotations


class StackpolError(Exception):
    """Base class for all toolkit errors."""


class ModelError(StackpolError):
    """A program model is malformed or internally inconsistent.

    Carries an optional source line number when raised by the parser.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class PolicyError(StackpolError):
    """A policy file could not be parsed or refers to unknown entities."""


class CapacityError(StackpolError):
    """A configured resource bound was exceeded (weight width, etc.)."""


class EnumerationLimitError(StackpolError):
    """A path enumeration request would be too large."""
