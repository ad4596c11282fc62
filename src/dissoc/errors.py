"""Exceptions shared across the package."""

from __future__ import annotations


class ParseError(ValueError):
    """An edge-list document cannot be turned into a forest."""


class GuardExceeded(RuntimeError):
    """An input is larger than the configured limit of an exhaustive routine."""


class TheoremViolation(RuntimeError):
    """A fact that must hold on every tree failed; the message is the witness."""

    def __init__(self, message: str):
        super().__init__(message)
        self.witness = message
