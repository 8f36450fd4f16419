from __future__ import annotations

import pytest

from scenforge.scene import check_validity
from scenforge.scenic import ast, format_program, parse_expression, parse_program, parse_section
from scenforge.scenic.parser import _MAX_DEPTH


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


def test_node_equality_ignores_positions():
    # the parser's nodes compare by structure; their positions differ here
    spaced = parse_program("X = 1 +  2\n\nego = new Car at (0, X)\n").program
    packed = parse_program("X = 1 + 2\nego = new Car at (0,X)\n").program
    assert spaced == packed
    assert repr(spaced) != repr(packed)
    assert spaced != parse_program("X = 1 + 3\nego = new Car at (0, X)\n").program
    assert ast.Name("x", line=1, col=1) == ast.Name("x", line=7, col=9)
    assert not hasattr(ast.Name("x"), "__dict__")  # slotted


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
    assert isinstance(decl, ast.Assign)  # ast.program_of classifies it by value


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
        ("1e999", "number literal out of range"),
    ],
    ids=["superscript-digit", "5000-digit-integer", "infinite-float"],
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


def test_non_finite_literal_no_longer_places_ego_at_nan(registry, cross4):
    report = check_validity("X = 1e999\nego = new Car at (0, X - X)\n", registry, cross4, seed=1)
    assert not report.valid
    assert [(d.message, d.line, d.col) for d in report.diagnostics] == [
        ("number literal out of range", 1, 5),
    ]


def test_parse_expression_takes_exactly_one_expression():
    assert parse_expression("Normal(10, 1)") == ast.Call(
        ast.Name("Normal"), (ast.NumberLit(10), ast.NumberLit(1))
    )
    assert parse_expression("lambda v: v  # note") == ast.Lambda("v", ast.Name("v"))
    for source in ["", "1 = 2", "Normal(1, 2) x", "new Car", "1,", "'open", "1e999", "(" * 200]:
        assert parse_expression(source) is None, source


# --- the nesting limit ----------------------------------------------------------

TOO_DEEP = f"too deeply nested (more than {_MAX_DEPTH} levels)"

# each builds an expression exactly n levels deep, and names the token whose
# node crosses the limit at n + 1 with its occurrence on the line
DEEP_SHAPES = {
    "parentheses": ("(", 0, lambda n: "(" * (n - 1) + "1" + ")" * (n - 1)),
    "sum": ("+", 0, lambda n: " + ".join(["1"] * n)),
    "comparison-and": ("and", -1, lambda n: " and ".join(["a < b"] * (n - 1))),
    # the group counts a level, so its height adds to the outer chain's
    "grouped-sum": ("+", -1, lambda n: "(" + " + ".join(["1"] * (n // 2)) + ")"
                    + " + 1" * (n - n // 2 - 1)),
    "not": ("not", 0, lambda n: "not " * (n - 1) + "a"),
    "minus": ("-", 0, lambda n: "-" * (n - 1) + "1"),
    "attributes": (".", 0, lambda n: "a" + ".b" * (n - 1)),
    "calls": ("(", 0, lambda n: "f" + "()" * (n - 1)),
    "indexes": ("[", 0, lambda n: "a" + "[0]" * (n - 1)),
    "lists": ("[", 0, lambda n: "[" * (n - 1) + "1" + "]" * (n - 1)),
    "empty-lists": ("[", 0, lambda n: "[" * n + "]" * n),
    "lambdas": ("lambda", 0, lambda n: "lambda x: " * (n - 1) + "x"),
    # f(*a) is three levels (call, starred argument, name); the outermost
    # call is the one that crosses
    "starred": ("(", 1 - _MAX_DEPTH, lambda n: "-" * ((n - 1) % 2) + "f(*" * ((n - 1) // 2)
                + "a" + ")" * ((n - 1) // 2)),
}


def nth_col(line: str, token: str, n: int) -> int:
    col = -1
    for _ in range(n):
        col = line.index(token, col + 1)
    return col + 1


@pytest.mark.parametrize("shape", DEEP_SHAPES)
def test_expression_at_the_limit_parses_and_round_trips(shape):
    _, _, build = DEEP_SHAPES[shape]
    source = f"X = {build(_MAX_DEPTH)}\n"
    first = parse_program(source)
    assert first.ok, [d.message for d in first.diagnostics]
    assert parse_program(format_program(first.program)).program == first.program


@pytest.mark.parametrize("shape", DEEP_SHAPES)
def test_one_level_past_the_limit_is_one_diagnostic_at_the_crossing_token(
    shape, registry, cross4
):
    token, offset, build = DEEP_SHAPES[shape]
    line = f"X = {build(_MAX_DEPTH + 1)}"
    expected = [(TOO_DEEP, 1, nth_col(line, token, _MAX_DEPTH + offset))]
    source = line + "\n"
    for diagnostics in (
        parse_section(source, "constants").diagnostics,
        parse_program(source).diagnostics,
        check_validity(source, registry, cross4, seed=1).diagnostics,
    ):
        assert [(d.message, d.line, d.col) for d in diagnostics] == expected


def nested_interrupts(blocks: int) -> str:
    lines = ["behavior B():"]
    for level in range(1, blocks + 1):
        lines.append("    " * level + "interrupt when True:")
    lines.append("    " * (blocks + 1) + "wait")
    return "\n".join(lines) + "\n"


def test_depth_starts_afresh_after_a_failed_statement():
    at_limit = DEEP_SHAPES["sum"][2](_MAX_DEPTH)
    result = parse_program(f"X = ((((f(1 +)))))\nY = {at_limit}\n")
    assert [(d.message, d.line) for d in result.diagnostics] == [
        ("expected an expression, found ')'", 1),
    ]


def test_600_nested_interrupt_blocks_do_not_overflow(registry, cross4):
    source = nested_interrupts(600)
    for diagnostics in (
        parse_section(source, "behaviors").diagnostics,
        parse_program(source).diagnostics,
        check_validity(source, registry, cross4, seed=1).diagnostics,
    ):
        assert diagnostics[0].message == TOO_DEEP


def test_interrupt_blocks_count_toward_the_limit():
    at_limit = parse_section(nested_interrupts(_MAX_DEPTH - 1), "behaviors")
    assert at_limit.ok
    assert parse_program(format_program(parse_program(nested_interrupts(_MAX_DEPTH - 1)).program)).ok
    past = parse_section(nested_interrupts(_MAX_DEPTH), "behaviors")
    # recovery then skips past the open blocks, as after any error there
    assert [(d.message, d.line) for d in past.diagnostics] == [(TOO_DEEP, _MAX_DEPTH + 1)]
    # an expression inside nested blocks has the remaining levels only
    deepest = nested_interrupts(_MAX_DEPTH - 1)
    assert parse_section(deepest.replace("wait", "take a"), "behaviors").ok
    inside = parse_section(deepest.replace("wait", "take (a)"), "behaviors")
    assert [(d.message, d.line) for d in inside.diagnostics] == [(TOO_DEEP, _MAX_DEPTH + 1)]


REPROS = {
    "100-parentheses": "X = " + "(" * 100 + "1" + ")" * 100,
    "1500-term-sum": "X = " + " + ".join(["1"] * 1500),
    "500-term-sum": "X = " + " + ".join(["1"] * 500),
    "2000-nots": "X = " + "not " * 2000 + "a",
    "2000-minuses": "X = " + "-" * 2000 + "1",
}


@pytest.mark.parametrize("name", REPROS)
def test_deep_input_is_one_diagnostic_everywhere(name, registry, cross4):
    source = REPROS[name] + "\n"
    section = parse_section(source, "constants")
    program = parse_program(source)
    validity = check_validity(source, registry, cross4, seed=1)
    for diagnostics in (section.diagnostics, program.diagnostics, validity.diagnostics):
        assert [d.message for d in diagnostics] == [TOO_DEEP]
    assert not validity.valid


@pytest.mark.parametrize(
    "source",
    [
        "X = [" + ", ".join(str(i) for i in range(5000)) + "]",
        "X = f(" + ", ".join(f"a{i}" for i in range(300)) + ")",
        "X = f(" + ", ".join(f"k{i}=(1 + 2) * 3" for i in range(300)) + ")",
    ],
    ids=["5000-element-list", "300-argument-call", "300-keyword-call"],
)
def test_wide_shallow_input_parses(source, registry, cross4):
    first = parse_program(source)
    assert first.ok, [d.message for d in first.diagnostics][:3]
    assert parse_program(format_program(first.program)).program == first.program
    validity = check_validity(source + "\nego = new Car at (0, 0)\n", registry, cross4, seed=1)
    assert validity.syntactic


# --- equivalence with the reference parser ----------------------------------------

from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

from hypothesis import assume, example  # noqa: E402
from reference_parser import reference_parse_program, reference_parse_section  # noqa: E402

from scenforge.bundled import example_program_paths  # noqa: E402
from support import has_non_finite_literal  # noqa: E402

from scenforge.scenic import SECTION_KINDS  # noqa: E402

CORPUS = [
    path.read_text(encoding="utf-8")
    for path in sorted((Path(__file__).parent / "golden").glob("*.scenic"))
    + example_program_paths()
]

ATOMS = ["1", "2.5", "1e3", "'s'", "True", "False", "a", "b", "ego", "Normal", "f"]
INFIX = ["or", "and", "==", "!=", "<=", ">=", "<", ">", "+", "-", "*", "/"]
PREFIX = ["not", "-", "+", "- -", "not not"]

# operands and operators without parentheses, so that the parsers must agree
# on precedence, associativity, where `not` may stand and chained comparisons
operand = st.tuples(st.lists(st.sampled_from(PREFIX), max_size=2), st.sampled_from(ATOMS)).map(
    lambda t: " ".join(t[0] + [t[1]])
)
operator_chains = st.tuples(
    operand, st.lists(st.tuples(st.sampled_from(INFIX), operand).map(" ".join), max_size=6)
).map(lambda t: " ".join([t[0]] + t[1]))

# expression text over the DSL alphabet
dsl_expressions = st.recursive(
    st.one_of(st.sampled_from(ATOMS), operator_chains),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(INFIX), inner).map(" ".join),
        st.tuples(st.sampled_from(PREFIX), inner).map(" ".join),
        inner.map("({})".format),
        st.lists(inner, max_size=3).map(lambda xs: "[" + ", ".join(xs) + "]"),
        st.lists(inner, min_size=1, max_size=3).map(lambda xs: "(" + ", ".join(xs) + ",)"),
        st.tuples(inner, st.lists(inner, max_size=3)).map(
            lambda t: f"{t[0]}({', '.join(t[1])})"
        ),
        st.tuples(inner, inner).map(lambda t: f"f(*{t[0]}, k={t[1]})"),
        st.tuples(inner, inner).map(lambda t: f"{t[0]}[{t[1]}]"),
        inner.map("{}.y".format),
        inner.map("lambda x: {}".format),
    ),
    max_leaves=14,
)

STATEMENT_FORMS = [
    "X = {}",
    "require {}",
    "terminate when {}",
    "ego = new Car at {}, with speed {}",
    "behavior B(x):\n    take {}\n    interrupt when {}:\n        do f({})\n    wait",
]


@st.composite
def dsl_programs(draw):
    statements = []
    for _ in range(draw(st.integers(1, 3))):
        form = draw(st.sampled_from(STATEMENT_FORMS))
        statements.append(form.format(*draw(st.lists(dsl_expressions, min_size=3, max_size=3))))
    return "\n".join(statements) + "\n"


TOKENS = ATOMS + INFIX + [
    "not", "lambda", "new", "at", "with", "require", "terminate", "when", "behavior",
    "take", "wait", "do", "interrupt", "following", "from", "for", "on", "roadDirection",
    "(", ")", "[", "]", ",", ":", ".", "=", "*", "\n", "\n    ", "X =", "1e999",
]
token_soup = st.lists(st.sampled_from(TOKENS), max_size=40).map(" ".join)


@st.composite
def corpus_slices(draw):
    text = draw(st.sampled_from(CORPUS))
    start = draw(st.integers(0, len(text)))
    chars = list(text[start:draw(st.integers(start, len(text)))])
    for _ in range(draw(st.integers(0, 3))):
        if chars:
            chars[draw(st.integers(0, len(chars) - 1))] = draw(st.sampled_from(TOKENS))
    return "".join(chars)


def parses(program_parser, section_parser, source):
    """Every public parse of source."""
    return [program_parser(source)] + [section_parser(source, kind) for kind in SECTION_KINDS]


def outcomes(program_parser, section_parser, source):
    """Every public parse of source, AST positions and diagnostics included."""
    return [repr(result) for result in parses(program_parser, section_parser, source)]


@given(st.one_of(operator_chains.map("X = {}\n".format), dsl_programs(), token_soup, corpus_slices()))
@example("require 1 < 2 < 3\nX = a == not b\nY = not a and - b * c or d\n")
@example("X = - a . b ( 1 ) [ 2 ] * + 3 - not\nrequire not not a != b\n")
@example("ego = new Car at (1, 2,), with speed f(*a, k = [], )\n")
@settings(max_examples=500, deadline=None)
def test_same_asts_and_diagnostics_as_the_reference_parser(source):
    """The reference recovers inside an open block and reports each later line
    of it; this parser skips past the block, so after the first diagnostic it
    reports a subsequence of the reference's."""
    assume(not has_non_finite_literal(source))
    new = parses(parse_program, parse_section, source)
    assume(TOO_DEEP not in repr(new[0]))
    for ours, theirs in zip(new, parses(reference_parse_program, reference_parse_section, source)):
        assert repr(replace(ours, diagnostics=[])) == repr(replace(theirs, diagnostics=[]))
        mine, reference = map(repr, ours.diagnostics), iter(map(repr, theirs.diagnostics))
        assert next(mine, None) == next(reference, None)
        assert all(diagnostic in reference for diagnostic in mine)


def test_an_error_inside_a_block_gives_one_diagnostic():
    source = (
        "behavior B():\n    interrupt when True:\n        take )\n        wait\n        wait\n"
        "    wait\n"
    )
    assert [(d.message, d.line) for d in parse_section(source, "behaviors").diagnostics] == [
        ("expected an expression, found ')'", 3)
    ]


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_corpus_files_parse_as_the_reference_does(index):
    source = CORPUS[index]
    assert outcomes(parse_program, parse_section, source) == outcomes(
        reference_parse_program, reference_parse_section, source
    )


# --- the two deliberate differences from the reference parser --------------------


def test_reference_overflows_where_the_limit_reports(registry, cross4):
    source = REPROS["100-parentheses"] + "\n"
    with pytest.raises(RecursionError):
        reference_parse_program(source)
    assert [d.message for d in parse_program(source).diagnostics] == [TOO_DEEP]


def test_reference_reads_an_infinite_float():
    (decl,) = reference_parse_program("X = 1e999\n").program.constants
    assert decl.value == ast.NumberLit(float("inf"))
    assert [d.message for d in parse_program("X = 1e999\n").diagnostics] == [
        "number literal out of range"
    ]


# --- the line origin -------------------------------------------------------------

import dataclasses  # noqa: E402

from scenforge.bundled import bundled_registry  # noqa: E402
from scenforge.scenic import compile_section, tokenize  # noqa: E402

REGISTRY = bundled_registry()
BREAKS = ["", "\n", "\r\n", "\r", "\n\n\r\n", "\r\r"]
EOF_ERRORS = ["", "X = (", "X = (1,\n\n", "behavior B(", "take )", "'open", "\n    wait\n"]


def positions(node) -> list:
    """(type, line, col) of every AST node under node, depth first."""
    if isinstance(node, (list, tuple)):
        return [p for item in node for p in positions(item)]
    if not dataclasses.is_dataclass(node):
        return []
    return [(type(node).__name__, node.line, node.col)] + [
        p for f in dataclasses.fields(node) if f.compare for p in positions(getattr(node, f.name))
    ]


@given(
    st.sampled_from(BREAKS), corpus_slices(), st.sampled_from(BREAKS),
    st.sampled_from(EOF_ERRORS), st.sampled_from(SECTION_KINDS), st.integers(-3, 50),
)
@example("\n\n", "x = 1", "", "", "spatial", -1)
@example("\r\n", "A = 1\rB = (", "\r", "", "constants", 7)
@example("", "behavior B():\n    take )\n    wait", "\n\n", "", "behaviors", 3)
@settings(max_examples=300, deadline=None)
def test_the_first_line_moves_nodes_and_never_diagnostics(before, text, after, tail, kind, first_line):
    source = before + text + after + tail
    shift = first_line - 1
    tokens, lex_diagnostics = tokenize(source)
    moved_tokens, moved_lex_diagnostics = tokenize(source, first_line)
    assert moved_lex_diagnostics == lex_diagnostics
    assert [(t.kind, t.text, t.line + shift, t.col) for t in tokens] == [
        (t.kind, t.text, t.line, t.col) for t in moved_tokens
    ]
    statements, diagnostics = compile_section(source, kind, REGISTRY)
    moved, moved_diagnostics = compile_section(source, kind, REGISTRY, first_line=first_line)
    assert moved_diagnostics == diagnostics
    assert (moved is None) == (statements is None)
    assert positions(moved) == [(name, line + shift, col) for name, line, col in positions(statements)]
