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


def located(message: str, line: int, col: int, lines: list[str], first_line: int = 1) -> Diagnostic:
    """An error at program line ``line``, reported at its line in a source
    of ``lines`` that starts on program line ``first_line``."""
    own = line - first_line + 1
    snippet = lines[own - 1] if 1 <= own <= len(lines) else ""
    return Diagnostic(ERROR, message, own, col, snippet)


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    return any(d.severity == ERROR for d in diagnostics)


def render_diagnostics(diagnostics: Iterable[Diagnostic]) -> str:
    """Multi-line rendering used verbatim in repair prompts."""
    return "\n".join(d.render() for d in diagnostics)
