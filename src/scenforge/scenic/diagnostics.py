"""Compiler diagnostics: location-carrying errors."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

ERROR = "error"


@dataclass(frozen=True)
class Diagnostic:
    """One compiler message, anchored to a (line, col) in the source."""

    severity: str
    message: str
    line: int
    col: int
    snippet: str = ""

    def render(self) -> str:
        text = f"line {self.line}, col {self.col}: {self.severity}: {self.message}"
        if self.snippet:
            text += f"\n    {self.snippet}"
        return text


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    return any(d.severity == ERROR for d in diagnostics)


def render_diagnostics(diagnostics: Iterable[Diagnostic]) -> str:
    """Multi-line rendering used verbatim in repair prompts."""
    return "\n".join(d.render() for d in diagnostics)
