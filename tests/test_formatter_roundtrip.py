from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenforge.bundled import example_program_paths
from scenforge.scenic import ast, format_expr, format_program, parse_expression, parse_program

GOLDEN_DIR = Path(__file__).parent / "golden"


def golden_corpus() -> list[Path]:
    """Round-trip corpus: stress fixtures plus every bundled example
    (which include the bicycle-collision transcription and the
    four-way-intersection idiom)."""
    return sorted(GOLDEN_DIR.glob("*.scenic")) + example_program_paths()


def test_corpus_is_large_enough():
    assert len(golden_corpus()) >= 20


@pytest.mark.parametrize("path", golden_corpus(), ids=lambda p: p.stem)
def test_parse_format_parse_round_trip(path):
    source = path.read_text(encoding="utf-8")
    first = parse_program(source)
    assert first.ok, [d.message for d in first.diagnostics]
    rendered = format_program(first.program)
    second = parse_program(rendered)
    assert second.ok, [d.message for d in second.diagnostics]
    assert second.program == first.program


@pytest.mark.parametrize("path", golden_corpus(), ids=lambda p: p.stem)
def test_formatting_is_idempotent(path):
    source = path.read_text(encoding="utf-8")
    program = parse_program(source).program
    once = format_program(program)
    twice = format_program(parse_program(once).program)
    assert once == twice


def test_canonical_spacing_for_distribution_calls():
    program = parse_program("X = Normal( 10 ,1 )").program
    assert format_program(program) == "X = Normal(10, 1)\n"


def test_identity_on_canonical_constant():
    program = parse_program("EGO_SPEED = 10").program
    assert format_program(program) == "EGO_SPEED = 10\n"


def test_sections_emitted_in_canonical_order():
    source = (
        "ego = new Car at (0, 0)\n"
        "SPEED = 5\n"
        "behavior B():\n    wait\n"
    )
    rendered = format_program(parse_program(source).program)
    lines = [l for l in rendered.splitlines() if l]
    assert lines[0].startswith("SPEED")
    assert lines[1].startswith("behavior")
    assert lines[-1].startswith("ego")


# --- randomized round-trip ------------------------------------------------------

_names = st.sampled_from(["alpha", "beta_2", "GAMMA", "delta_x", "EGO_SPEED"])


def _exprs():
    leaves = st.one_of(
        st.integers(min_value=0, max_value=1000).map(ast.NumberLit),
        st.floats(
            min_value=0.001, max_value=999.0,
            allow_nan=False, allow_infinity=False,
        ).map(ast.NumberLit),
        st.sampled_from(["red", "a b", "it's", 'say "hi"', "x\ny"]).map(ast.StringLit),
        st.booleans().map(ast.BoolLit),
        _names.map(ast.Name),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*", "/"]), children, children).map(
                lambda t: ast.BinOp(t[0], t[1], t[2])
            ),
            st.tuples(st.sampled_from(["-", "+", "not"]), children).map(
                lambda t: ast.UnaryOp(t[0], t[1])
            ),
            st.tuples(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]), children, children).map(
                lambda t: ast.BinOp(t[0], t[1], t[2])
            ),
            st.tuples(_names, st.lists(children, max_size=3)).map(
                lambda t: ast.Call(ast.Name(t[0]), tuple(t[1]))
            ),
            st.tuples(children, _names).map(lambda t: ast.Attribute(t[0], t[1])),
            st.tuples(children, children).map(lambda t: ast.Index(t[0], t[1])),
            st.lists(children, min_size=2, max_size=3).map(
                lambda items: ast.TupleExpr(tuple(items))
            ),
            st.lists(children, max_size=3).map(
                lambda items: ast.ListExpr(tuple(items))
            ),
        )

    return st.recursive(leaves, extend, max_leaves=12)


_statements = st.one_of(
    st.tuples(_names, _exprs()).map(lambda t: ast.Assign(t[0], t[1])),
    _exprs().map(ast.RequireStmt),
    _exprs().map(ast.TerminateWhen),
)


@given(st.lists(_statements, min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_random_ast_round_trips(statements):
    program = ast.Program((), (), tuple(statements))
    rendered = format_program(program)
    reparsed = parse_program(rendered)
    assert reparsed.ok, (rendered, [d.message for d in reparsed.diagnostics])
    assert reparsed.program.statements() == _normalized(statements)


def _normalized(statements):
    # the parser regroups constant-grade assignments into the constants
    # section; mirror that for comparison
    constants = []
    spatial = []
    for stmt in statements:
        if isinstance(stmt, ast.Assign) and ast.is_constant_expr(stmt.value):
            constants.append(ast.ConstantDecl(stmt.name, stmt.value))
        else:
            spatial.append(stmt)
    return tuple(constants) + tuple(spatial)


_LAMBDA = ast.Lambda("v", ast.Name("v"))


@pytest.mark.parametrize(
    "node, text",
    [
        (ast.BinOp("or", _LAMBDA, ast.Name("y")), "(lambda v: v) or y"),
        (ast.BinOp("or", ast.Name("y"), _LAMBDA), "y or (lambda v: v)"),
        (ast.Lambda("v", ast.BinOp("or", ast.Name("v"), ast.Name("y"))), "lambda v: v or y"),
        (ast.UnaryOp("not", _LAMBDA), "not (lambda v: v)"),
        (ast.Call(ast.Name("f"), (_LAMBDA,)), "f(lambda v: v)"),
        (ast.BinOp("<", ast.BinOp("<", ast.Name("a"), ast.Name("b")), ast.Name("c")),
         "(a < b) < c"),
        (ast.BinOp("-", ast.Name("a"), ast.BinOp("-", ast.Name("b"), ast.Name("c"))),
         "a - (b - c)"),
        (ast.UnaryOp("-", ast.BinOp("*", ast.Name("a"), ast.Name("b"))), "-(a * b)"),
    ],
    ids=["lambda-or", "or-lambda", "lambda-body", "not-lambda", "call-arg",
         "comparison", "right-nested", "negated-product"],
)
def test_parenthesization_round_trips(node, text):
    assert format_expr(node) == text
    assert parse_expression(text) == node
