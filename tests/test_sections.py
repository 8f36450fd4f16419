from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenforge.bundled import bundled_registry
from scenforge.scenic import (
    SECTION_KINDS,
    ast,
    compile_section,
    parse_program,
    parse_section,
    section_first_line,
    stitch,
)
from scenforge.scenic.tokens import source_lines


def parts_with(constants="", behaviors="", spatial=""):
    return {"constants": constants, "behaviors": behaviors, "spatial": spatial}


def test_minimal_composition_parses():
    parts = parts_with(constants="SPEED = 5\n", spatial="ego = new Car at (0, 0)\n")
    program = stitch(parts)
    assert program == "SPEED = 5\n\nego = new Car at (0, 0)\n"
    result = parse_program(program)
    assert result.ok
    assert len(result.program.constants) == 1
    assert len(result.program.spatial) == 1


def test_output_order_is_fixed_regardless_of_fill_order():
    parts = {}
    parts["spatial"] = "ego = new Car at (0, 0)\n"
    parts["behaviors"] = "behavior B():\n    wait\n"
    parts["constants"] = "SPEED = 5\n"
    program = stitch(parts)
    assert program.index("SPEED") < program.index("behavior") < program.index("ego")


def test_blank_line_separates_sections():
    parts = parts_with(
        constants="A = 1\n",
        behaviors="behavior B():\n    wait\n",
        spatial="ego = new Car at (0, 0)\n",
    )
    assert "\n\n" in stitch(parts)
    assert stitch(parts).endswith("\n")


def test_empty_parts_are_skipped():
    parts = parts_with(spatial="ego = new Car at (0, 0)\n")
    assert stitch(parts) == "ego = new Car at (0, 0)\n"


def test_missing_kinds_are_skipped():
    assert stitch({"spatial": "ego = new Car at (0, 0)\n"}) == "ego = new Car at (0, 0)\n"
    assert stitch({}) == "\n"


def test_stitch_strips_outer_newlines_only():
    parts = parts_with(constants="\n\nA = 1\n\n\n", spatial="  \n", behaviors="")
    assert stitch(parts) == "A = 1\n"
    parts = parts_with(constants="  A = 1  ", spatial="ego = new Car at (0, 0)")
    assert stitch(parts) == "  A = 1  \n\nego = new Car at (0, 0)\n"


# --- where stitch puts each section ------------------------------------------------

BODIES = {
    "constants": ["A = 1", "B = Normal(A, 2)"],
    "behaviors": ["behavior Go(s):", "    do FollowLaneBehavior(s)", "", "behavior Stop():", "    wait"],
    "spatial": ["x = A", "ego = new Car at (x, 0),", "    with behavior Go(B)", "require B > 0"],
}
BREAKS = ["\n", "\r\n", "\r"]


@st.composite
def section_texts(draw) -> dict:
    """Sections with blank lines around them and any line break style;
    a section may be missing or blank."""
    texts = {}
    for kind in SECTION_KINDS:
        shape = draw(st.sampled_from(["text", "text", "blank", "missing"]))
        if shape == "missing":
            continue
        edges = st.lists(st.sampled_from(BREAKS + [""]), max_size=3).map("".join)
        body = "" if shape == "blank" else draw(st.sampled_from(BREAKS)).join(BODIES[kind])
        texts[kind] = draw(edges) + body + draw(edges)
    return texts


def positions(program: ast.Program) -> list:
    return [(type(s).__name__, s.line, s.col) for s in program.statements()]


@given(section_texts())
@settings(max_examples=200, deadline=None)
def test_a_section_parsed_at_its_first_line_has_the_stitched_lines(texts):
    program = stitch(texts)
    lines = source_lines(program)
    statements = []
    for kind in SECTION_KINDS:
        text = texts.get(kind, "")
        if not text.strip():
            continue
        line = section_first_line(texts, kind, text)
        own = source_lines(text)
        result = parse_section(text, kind, line)
        assert result.ok, result.diagnostics
        for stmt in result.statements:
            assert lines[stmt.line - 1] == own[stmt.line - line]
        statements += result.statements
    parsed = parse_program(program)
    assert parsed.ok
    assert positions(ast.program_of(statements)) == positions(parsed.program)


@pytest.mark.parametrize(
    "texts, kind, source, expected",
    [
        ({}, "constants", "A = 1\n", 1),
        ({}, "constants", "\n\nA = 1\n", -1),
        ({"constants": "A = 1\n"}, "behaviors", "behavior B():\n    wait\n", 3),
        # stitch strips "\n" only: "A = 1\r\n\r" keeps two line breaks
        ({"constants": "A = 1\r\n\r\n"}, "spatial", "\nego = new Car at (0, 0)", 3),
        ({"constants": "A = 1\r\rB = 2", "behaviors": "  \n"}, "spatial", "x = 1", 5),
        # only the sections before kind are read
        ({"spatial": "x = 1\n" * 9}, "behaviors", "behavior B():\n    wait\n", 1),
    ],
)
def test_section_first_line(texts, kind, source, expected):
    assert section_first_line(texts, kind, source) == expected


def test_an_ego_less_spatial_section_after_blank_lines_reports_line_one():
    # the single-ego diagnostic belongs to no node; it stays at (1, 1)
    source = "\n\n\nx = 1\n"
    line = section_first_line({}, "spatial", source)
    assert line == -2
    statements, diagnostics = compile_section(source, "spatial", bundled_registry(), first_line=line)
    assert [(d.message, d.line, d.col) for d in diagnostics] == [
        ("spatial section does not declare an object named 'ego'", 1, 1)
    ]
    (stmt,) = statements
    assert isinstance(stmt, ast.Assign) and stmt.line == 1  # where stitch puts it
