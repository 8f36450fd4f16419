"""Per-section compilation and stitching.

A generated program travels through the pipeline as three independently
compiled text sections. ``stitch`` concatenates them in canonical order
(constants, behaviors, spatial) once every section compiles clean.
"""

from __future__ import annotations

from typing import Mapping

from .ast import SECTION_KINDS
from .diagnostics import Diagnostic
from .parser import parse_section
from .validator import ModelRegistry, validate_section


def compile_section(
    source: str,
    kind: str,
    registry: ModelRegistry,
    env=(),
    known_behaviors: dict | None = None,
) -> tuple[list | None, list[Diagnostic]]:
    """Parse and validate one section; the stand-in for feeding a program
    part to the compiler. Returns (statements, diagnostics); statements
    is None when the part did not even parse.
    """
    result = parse_section(source, kind)
    if not result.ok:
        return None, result.diagnostics
    diagnostics = list(result.diagnostics)
    diagnostics.extend(
        validate_section(result.statements, kind, registry, env, known_behaviors)
    )
    return result.statements, diagnostics


def stitch(texts: Mapping[str, str]) -> str:
    """Join section texts, keyed by kind, into one program: constants
    first, then behaviors, then spatial statements, separated by blank
    lines. Missing and blank sections are skipped.
    """
    chunks = [texts[k].strip("\n") for k in SECTION_KINDS if texts.get(k, "").strip()]
    return "\n\n".join(chunks) + "\n" if chunks else "\n"
