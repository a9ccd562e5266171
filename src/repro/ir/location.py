"""Source locations attached to IR objects.

Mirrors MLIR's location hierarchy in a simplified form: every operation
carries a :class:`Location` used by diagnostics. Locations are immutable
and hashable so they can be freely shared between cloned operations.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Location:
    """Base class for all locations."""

    def __str__(self) -> str:  # pragma: no cover - overridden
        return "loc(unknown)"


@dataclass(frozen=True)
class UnknownLoc(Location):
    """An unknown location; the default for programmatically built IR."""

    def __str__(self) -> str:
        return "loc(unknown)"


@dataclass(frozen=True)
class FileLineColLoc(Location):
    """A location inside a source file."""

    filename: str
    line: int
    col: int

    def __str__(self) -> str:
        return f'loc("{self.filename}":{self.line}:{self.col})'


@dataclass(frozen=True)
class CallSiteLoc(Location):
    """A location resulting from inlining: callee location at a caller."""

    callee: Location
    caller: Location

    def __str__(self) -> str:
        return f"loc(callsite({self.callee} at {self.caller}))"


#: Shared unknown-location singleton used as the default everywhere.
UNKNOWN_LOC = UnknownLoc()
