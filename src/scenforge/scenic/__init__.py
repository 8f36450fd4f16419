"""Scenario DSL toolchain: lexer, parser, validator, formatter, stitcher."""

from . import ast
from .diagnostics import ERROR, Diagnostic, has_errors, render_diagnostics
from .formatter import format_expr, format_program, format_section, format_statement
from .parser import ParseResult, SectionResult, parse_expression, parse_program, parse_section
from .sections import compile_section, section_first_line, stitch
from .tokens import KEYWORDS, Token, TokenKind, tokenize
from .validator import (
    BUILTIN_ACTIONS,
    BUILTIN_BEHAVIORS,
    BUILTIN_FUNCTIONS,
    BUILTIN_NAMES,
    BUILTIN_VALUES,
    ModelRegistry,
    default_registry,
    load_registry,
    section_behaviors,
    section_names,
    validate,
    validate_section,
)

SECTION_KINDS = ast.SECTION_KINDS

__all__ = [
    "ast",
    "Diagnostic", "ERROR", "has_errors", "render_diagnostics",
    "Token", "TokenKind", "KEYWORDS", "tokenize",
    "ParseResult", "SectionResult", "parse_expression", "parse_program", "parse_section",
    "format_expr", "format_program", "format_section", "format_statement",
    "ModelRegistry", "default_registry", "load_registry",
    "validate", "validate_section", "section_behaviors", "section_names",
    "BUILTIN_ACTIONS", "BUILTIN_BEHAVIORS", "BUILTIN_FUNCTIONS",
    "BUILTIN_NAMES", "BUILTIN_VALUES",
    "compile_section", "section_first_line", "stitch",
    "SECTION_KINDS",
]
