from __future__ import annotations

import pytest

from scenforge.scene import check_validity
from scenforge.scenic import ast, parse_program, parse_section


def program_of(source: str):
    result = parse_program(source)
    assert result.ok, [d.message for d in result.diagnostics]
    return result.program


def test_distribution_constant():
    program = program_of("BIKE_SPEED = Normal(10, 1)")
    (decl,) = program.constants
    assert decl.name == "BIKE_SPEED"
    assert decl.value == ast.Call(
        func=ast.Name("Normal"), args=(ast.NumberLit(10), ast.NumberLit(1))
    )


def test_minimal_object_declaration_binds_ego():
    program = program_of("ego = new Car at (0, 0)")
    (decl,) = program.spatial
    assert isinstance(decl, ast.ObjectDecl)
    assert decl.name == "ego"
    assert decl.value.class_name == "Car"
    (spec,) = decl.value.specifiers
    assert isinstance(spec, ast.AtSpecifier)


def test_degenerate_input_reports_position():
    result = parse_program("= 5")
    assert not result.ok
    (diag,) = result.diagnostics
    assert (diag.line, diag.col) == (1, 1)
    assert diag.snippet == "= 5"


def test_error_recovery_reports_multiple_errors():
    result = parse_program("= 5\nX = )\nY = 3\nrequire\n")
    assert not result.ok
    assert len(result.diagnostics) == 3


def test_constant_vs_spatial_grouping_is_shape_based():
    source = "SPEED = 10\nDOUBLE = SPEED * 2\nego = new Car at (0, 0)\n"
    program = program_of(source)
    assert [c.name for c in program.constants] == ["SPEED"]
    # name references are not constant-grade, so DOUBLE lands in spatial
    names = [s.name for s in program.spatial if isinstance(s, ast.Assign)]
    assert names == ["DOUBLE"]


def test_behavior_with_interrupt_block():
    source = (
        "behavior Stop():\n"
        "    do FollowLaneBehavior(5)\n"
        "    interrupt when simulation_time > 3:\n"
        "        take SetBrakeAction(1.0)\n"
    )
    program = program_of(source)
    (behavior,) = program.behaviors
    assert behavior.name == "Stop"
    do_stmt, interrupt = behavior.body
    assert isinstance(do_stmt, ast.DoStmt)
    assert do_stmt.target == "FollowLaneBehavior"
    assert isinstance(interrupt, ast.InterruptWhen)
    assert isinstance(interrupt.body[0], ast.TakeStmt)


def test_take_accepts_multiple_actions():
    source = "behavior B():\n    take SetSpeedAction(1), SetSteerAction(0.2)\n"
    program = program_of(source)
    (behavior,) = program.behaviors
    assert len(behavior.body[0].actions) == 2


def test_multiline_object_declaration_after_comma():
    source = (
        "ego = new Car following roadDirection from pt for D,\n"
        "    with behavior EgoBehavior(trajectory = traj)\n"
    )
    program = program_of(source)
    (decl,) = program.spatial
    following, with_spec = decl.value.specifiers
    assert isinstance(following, ast.FollowingSpecifier)
    assert isinstance(with_spec, ast.WithSpecifier)
    assert with_spec.name == "behavior"
    (kwarg,) = with_spec.value.kwargs
    assert kwarg.name == "trajectory"


def test_lambda_and_starred_call():
    program = program_of("x = Uniform(*filter(lambda i: i.is4Way, network.intersections))")
    (assign,) = program.spatial
    (starred,) = assign.value.args
    assert isinstance(starred, ast.Starred)
    inner = starred.value
    assert isinstance(inner.args[0], ast.Lambda)


def test_chained_comparison_rejected():
    result = parse_program("require 1 < 2 < 3")
    assert not result.ok
    assert any("chained comparisons" in d.message for d in result.diagnostics)


def test_unknown_section_kind_raises():
    with pytest.raises(ValueError):
        parse_section("X = 1", "prelude")


def test_constants_section_accepts_declarations():
    result = parse_section("TRUCK_SPEED = 10", "constants")
    assert result.ok
    (decl,) = result.statements
    assert isinstance(decl, ast.ConstantDecl)


def test_constants_section_rejects_object_declaration():
    result = parse_section("ego = new Car at (0,0)", "constants")
    assert not result.ok
    assert any(
        "not allowed in the constants section" in d.message
        for d in result.diagnostics
    )


def test_constants_section_rejects_require():
    result = parse_section("require True", "constants")
    assert not result.ok


def test_behaviors_section_accepts_behavior_only():
    good = parse_section("behavior Stop():\n    take SetBrakeAction(1.0)\n", "behaviors")
    assert good.ok
    (behavior,) = good.statements
    assert behavior.name == "Stop"
    bad = parse_section("X = 1", "behaviors")
    assert not bad.ok
    assert any(
        "not allowed in the behaviors section" in d.message for d in bad.diagnostics
    )


def test_spatial_section_rejects_behavior_definition():
    bad = parse_section("behavior B():\n    wait\n", "spatial")
    assert not bad.ok


def test_spatial_section_coerces_constant_shaped_assignments():
    result = parse_section("GAP = 4\nego = new Car at (GAP, 0)\n", "spatial")
    assert result.ok
    first = result.statements[0]
    assert isinstance(first, ast.Assign)


def test_snippet_matches_cited_line():
    source = "GOOD = 1\nbad bad bad\n"
    result = parse_program(source)
    diag = result.diagnostics[0]
    assert diag.snippet == source.split("\n")[diag.line - 1]


@pytest.mark.parametrize(
    "literal, message",
    [
        ("2²", "illegal character '²'"),
        ("1" * 5000, "integer literal too long (5000 digits)"),
    ],
    ids=["superscript-digit", "5000-digit-integer"],
)
def test_unreadable_number_literal_is_a_diagnostic(literal, message, registry, cross4):
    source = f"X = {literal}\n"
    results = [
        parse_section(source, "constants").diagnostics,
        parse_program(source).diagnostics,
        check_validity(source, registry, cross4, seed=1).diagnostics,
    ]
    for diagnostics in results:
        assert [(d.message, d.line) for d in diagnostics] == [(message, 1)]


def test_parser_never_crashes_on_fuzz_bytes():
    import random

    rng = random.Random(99)
    for _ in range(25):
        blob = bytes(rng.randrange(256) for _ in range(4096)).decode("latin-1")
        result = parse_program(blob)
        assert result.program is not None or result.diagnostics


def test_parser_handles_64kib_input():
    import random

    rng = random.Random(7)
    blob = bytes(rng.randrange(256) for _ in range(64 * 1024)).decode("latin-1")
    result = parse_program(blob)
    assert result.program is not None or result.diagnostics


from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@given(st.text(max_size=2000))
@settings(max_examples=200, deadline=None)
def test_fuzzed_diagnostics_stay_inside_the_source(source):
    result = parse_program(source)
    lines = source.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for diag in result.diagnostics:
        assert 1 <= diag.line <= max(1, len(lines))
        assert diag.col >= 1
        if diag.snippet:
            assert diag.snippet == lines[diag.line - 1]
