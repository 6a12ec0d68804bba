"""Positioned diagnostics shared by every compiler stage."""

from __future__ import annotations

from typing import NamedTuple


class Pos(NamedTuple):
    """A 1-based line and column in the source text."""

    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


# Placeholder for nodes built programmatically (tests, synthesized fragments).
NO_POS = Pos(0, 0)


class SandalError(Exception):
    """Base class for all diagnostics. Always carries a source position."""

    def __init__(self, message: str, pos: Pos = NO_POS) -> None:
        super().__init__(message)
        self.message = message
        self.pos = pos

    def render(self, filename: str = "<input>") -> str:
        return f"{filename}:{self.pos.line}:{self.pos.col}: {self.message}"


class LexError(SandalError):
    """Illegal character or malformed token."""


class ParseError(SandalError):
    """Token stream does not form a model."""


class NameResolutionError(SandalError):
    """Reference to an identifier that is not in scope."""


class TypeCheckError(SandalError):
    """Expression or statement violates the typing rules."""


class ArityError(SandalError):
    """Wrong number of arguments, payload values or receive targets."""
