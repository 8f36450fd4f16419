from __future__ import annotations

from scenforge.scenic import parse_program, stitch


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
