"""Per-section compilation and stitching.

A generated program travels through the pipeline as three independently
compiled text sections. ``stitch`` concatenates them in canonical order
(constants, behaviors, spatial) once every section compiles clean;
``section_first_line`` says where it puts a section's first line.
"""

from __future__ import annotations

from typing import Mapping

from .ast import SECTION_KINDS
from .diagnostics import Diagnostic
from .parser import parse_section
from .tokens import source_lines
from .validator import ModelRegistry, validate_section


def compile_section(
    source: str,
    kind: str,
    registry: ModelRegistry,
    env=(),
    known_behaviors: dict | None = None,
    first_line: int = 1,
) -> tuple[list | None, list[Diagnostic]]:
    """Parse and validate one section; the stand-in for feeding a program
    part to the compiler. Returns (statements, diagnostics); statements
    is None when the part did not even parse. Statements carry program
    lines, ``source`` starting on ``first_line``; diagnostics its own.
    """
    result = parse_section(source, kind, first_line)
    if not result.ok:
        return None, result.diagnostics
    return result.statements, result.diagnostics + validate_section(
        result.statements, kind, registry, env, known_behaviors, first_line
    )


def stitch(texts: Mapping[str, str]) -> str:
    """Join section texts, keyed by kind, into one program: constants
    first, then behaviors, then spatial statements, separated by blank
    lines. Missing and blank sections are skipped.
    """
    chunks = [texts[k].strip("\n") for k in SECTION_KINDS if texts.get(k, "").strip()]
    return "\n\n".join(chunks) + "\n" if chunks else "\n"


def section_first_line(texts: Mapping[str, str], kind: str, source: str) -> int:
    """The line of ``stitch`` output that holds line 1 of ``source`` as
    section ``kind``, after the earlier sections in ``texts``. Each
    leading newline, which ``stitch`` strips, moves it one line up."""
    before = SECTION_KINDS[:SECTION_KINDS.index(kind)]
    head = stitch({k: texts[k] for k in before if k in texts})
    start = len(source_lines(head)) + 1 if head != "\n" else 1
    return start - (len(source) - len(source.lstrip("\n")))
