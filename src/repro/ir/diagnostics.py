"""Diagnostics: errors, warnings, remarks emitted during compilation.

The engine collects diagnostics instead of raising immediately so that
passes, verifiers and the transform interpreter can report several
problems at once. Raising behaviour is configurable per engine.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List

from .location import Location, UNKNOWN_LOC


class Severity(enum.Enum):
    """Severity of a diagnostic."""

    ERROR = "error"
    WARNING = "warning"
    REMARK = "remark"
    NOTE = "note"


@dataclass
class Diagnostic:
    """A single diagnostic message with a location and optional notes."""

    severity: Severity
    message: str
    location: Location = UNKNOWN_LOC
    notes: List["Diagnostic"] = field(default_factory=list)

    def attach_note(self, message: str, location: Location = UNKNOWN_LOC) -> "Diagnostic":
        """Attach an explanatory note to this diagnostic and return it."""
        self.notes.append(Diagnostic(Severity.NOTE, message, location))
        return self

    def __str__(self) -> str:
        lines = [f"{self.location}: {self.severity.value}: {self.message}"]
        for note in self.notes:
            lines.append(f"  {note.location}: note: {note.message}")
        return "\n".join(lines)


class DiagnosticEngine:
    """Collects diagnostics emitted during a compilation activity."""

    def __init__(self):
        self.diagnostics: List[Diagnostic] = []

    def emit(self, diagnostic: Diagnostic) -> Diagnostic:
        """Record ``diagnostic``."""
        self.diagnostics.append(diagnostic)
        return diagnostic

    def error(self, message: str, location: Location = UNKNOWN_LOC) -> Diagnostic:
        return self.emit(Diagnostic(Severity.ERROR, message, location))

    def warning(self, message: str, location: Location = UNKNOWN_LOC) -> Diagnostic:
        return self.emit(Diagnostic(Severity.WARNING, message, location))

    def remark(self, message: str, location: Location = UNKNOWN_LOC) -> Diagnostic:
        return self.emit(Diagnostic(Severity.REMARK, message, location))

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    def has_errors(self) -> bool:
        return bool(self.errors)

    def clear(self) -> None:
        self.diagnostics.clear()

    def render(self) -> str:
        """Render all collected diagnostics as a single string."""
        return "\n".join(str(d) for d in self.diagnostics)
