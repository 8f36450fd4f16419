"""Program parts: per-section compile state and stitching.

A generated program travels through the pipeline as three independently
compiled text sections. ``stitch`` concatenates them in canonical order
(constants, behaviors, spatial) once every part is clean.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import StitchError
from .diagnostics import Diagnostic, has_errors
from .parser import parse_section
from .validator import ModelRegistry, validate_section


@dataclass
class SectionPart:
    kind: str
    text: str = ""
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def has_errors(self) -> bool:
        return has_errors(self.diagnostics)


@dataclass
class ProgramParts:
    constants: SectionPart
    behaviors: SectionPart
    spatial: SectionPart

    @classmethod
    def empty(cls) -> "ProgramParts":
        return cls(
            SectionPart("constants"), SectionPart("behaviors"), SectionPart("spatial")
        )

    def part(self, kind: str) -> SectionPart:
        return getattr(self, kind)

    def ordered(self) -> tuple:
        return (self.constants, self.behaviors, self.spatial)


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


def stitch(parts: ProgramParts) -> str:
    """Join compiled parts into one program text, constants first, then
    behaviors, then spatial statements, separated by blank lines.
    """
    for part in parts.ordered():
        if part.has_errors:
            first = next(d for d in part.diagnostics if d.severity == "error")
            raise StitchError(
                f"{part.kind} part has unresolved errors: {first.message}"
            )
    chunks = [part.text.strip("\n") for part in parts.ordered() if part.text.strip()]
    return "\n\n".join(chunks) + "\n" if chunks else "\n"
