from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from reference_lexer import reference_tokenize

from scenforge.bundled import example_program_paths
from scenforge.scenic.tokens import Token, TokenKind, source_lines, tokenize


def kinds(tokens):
    return [t.kind for t in tokens]


def test_simple_assignment_token_stream():
    tokens, diagnostics = tokenize("EGO_SPEED = 10")
    assert diagnostics == []
    assert kinds(tokens) == [
        TokenKind.IDENT, TokenKind.OP, TokenKind.NUMBER, TokenKind.EOF,
    ]
    assert tokens[0].text == "EGO_SPEED"
    assert tokens[1].text == "="
    assert tokens[2].text == "10"


def test_token_equality_includes_its_position():
    token = Token(TokenKind.IDENT, "x", 1, 1)
    assert token == Token(TokenKind.IDENT, "x", 1, 1)
    assert token != Token(TokenKind.IDENT, "x", 2, 1)
    assert not hasattr(token, "__dict__")  # slotted


def test_empty_source_is_just_eof():
    tokens, diagnostics = tokenize("")
    assert diagnostics == []
    assert kinds(tokens) == [TokenKind.EOF]


def test_unterminated_string_reports_lex_error():
    tokens, diagnostics = tokenize("'unterminated")
    assert len(diagnostics) == 1
    assert diagnostics[0].severity == "error"
    assert "unterminated string" in diagnostics[0].message
    assert diagnostics[0].line == 1


def test_illegal_character_reported_and_skipped():
    tokens, diagnostics = tokenize("X = 1 @ 2")
    assert any("illegal character" in d.message for d in diagnostics)
    # scanning continued past the bad character
    assert [t.text for t in tokens if t.kind is TokenKind.NUMBER] == ["1", "2"]


def test_comments_are_stripped():
    tokens, diagnostics = tokenize("# a comment\nX = 1  # trailing\n")
    assert diagnostics == []
    assert all("comment" not in t.text for t in tokens)
    assert kinds(tokens)[:3] == [TokenKind.IDENT, TokenKind.OP, TokenKind.NUMBER]


def test_indentation_produces_indent_dedent_pairs():
    source = "behavior A():\n    wait\nX = 1\n"
    tokens, diagnostics = tokenize(source)
    assert diagnostics == []
    assert kinds(tokens).count(TokenKind.INDENT) == 1
    assert kinds(tokens).count(TokenKind.DEDENT) == 1


def test_dedent_to_unknown_level_is_an_error():
    source = "behavior A():\n        wait\n    wait\n"
    _, diagnostics = tokenize(source)
    assert any("unindent" in d.message for d in diagnostics)


def test_newline_suppressed_inside_parens_and_after_comma():
    source = "X = f(1,\n    2)\nego = new Car at (0, 0),\n    with color 'red'\n"
    tokens, diagnostics = tokenize(source)
    assert diagnostics == []
    newlines = kinds(tokens).count(TokenKind.NEWLINE)
    assert newlines == 2  # one per logical statement
    assert TokenKind.INDENT not in kinds(tokens)


def test_line_and_col_point_inside_source():
    source = "A = 1\nB = 'two'\n"
    tokens, _ = tokenize(source)
    lines = source.split("\n")
    for token in tokens:
        assert 1 <= token.line <= len(lines)
        assert token.col >= 1


def test_keywords_are_recognized():
    tokens, _ = tokenize("new behavior require lambda True")
    assert all(t.kind is TokenKind.KEYWORD for t in tokens[:-1])


def test_number_forms():
    tokens, diagnostics = tokenize("A = 1 + 2.5 + 1e-06 + 2.5e3")
    assert diagnostics == []
    numbers = [t.text for t in tokens if t.kind is TokenKind.NUMBER]
    assert numbers == ["1", "2.5", "1e-06", "2.5e3"]


def test_string_escapes_decoded():
    tokens, _ = tokenize(r"A = 'a\nb\tc\'d'")
    value = next(t.text for t in tokens if t.kind is TokenKind.STRING)
    assert value == "a\nb\tc'd"


def test_arbitrary_bytes_do_not_crash():
    import random

    rng = random.Random(1234)
    for _ in range(20):
        blob = bytes(rng.randrange(256) for _ in range(2048)).decode("latin-1")
        tokens, _ = tokenize(blob)
        assert tokens[-1].kind is TokenKind.EOF


# --- equivalence with the reference lexer ------------------------------------

CORPUS = [
    path.read_text(encoding="utf-8")
    for path in sorted((Path(__file__).parent / "golden").glob("*.scenic"))
    + example_program_paths()
]

# single characters and whole fragments the DSL is written in, plus a few
# characters the lexer must reject
FRAGMENTS = list(" \t\n\r#'\"\\()[],:.=!<>+-*/_0123456789eEaxZ") + [
    "\r\n", "    ", "new", "behavior", "with", "1.5", "1e-3", "==", "é", "½",
    "\x0c", "@", "٣",
]
dsl_text = st.lists(st.sampled_from(FRAGMENTS), max_size=80).map("".join)


@st.composite
def corpus_slices(draw):
    text = draw(st.sampled_from(CORPUS))
    start = draw(st.integers(0, len(text)))
    chars = list(text[start:draw(st.integers(start, len(text)))])
    for _ in range(draw(st.integers(0, 3))):
        if chars:
            chars[draw(st.integers(0, len(chars) - 1))] = draw(st.sampled_from(FRAGMENTS))
    return "".join(chars)


def stream(result):
    tokens, diagnostics = result
    return (
        [(t.kind, t.text, t.line, t.col) for t in tokens],
        [(d.message, d.line, d.col, d.snippet) for d in diagnostics],
    )


def reference_stream(source):
    """The reference lexer's output, with its end-of-input overrun undone.

    When an unterminated string ends in a backslash at the end of input,
    the reference steps one column past the end, so its trailing dedent
    and eof tokens sit one column too far right.
    """
    tokens, diagnostics = stream(reference_tokenize(source))
    if tokens[-1][3] == len(source_lines(source)[-1]) + 2:
        assert source.endswith("\\")
        assert diagnostics[-1][0] == "unterminated string literal"
        end = len(tokens)
        while tokens[end - 1][0] in (TokenKind.DEDENT, TokenKind.EOF):
            end -= 1
        tokens[end:] = [(kind, text, line, col - 1) for kind, text, line, col in tokens[end:]]
    return tokens, diagnostics


def has_non_decimal_digit(source):
    return any(c.isdigit() and not c.isdecimal() for c in source)


@given(st.one_of(dsl_text, corpus_slices()))
@example("behavior B():\n\twait\n    wait\n  \t  wait\n")  # tab stops every 4 columns
@example("X = 'a\\\nb\\\nc' + 1\nY = 2\n")  # escaped newlines inside a string
@example("f(1,\n\n  # note\n  2)\nego = new Car at (0, 0),\n\n    with speed 3\n")
@example("behavior B():\n        wait\n    wait\n")  # unindent to an unknown level
@example("if:\n    x = 'ab\\")  # the reference's end-of-input overrun
@example("a = b != c <= d >= e == f ! g\r\nh½i @ j\x0ck")
@settings(max_examples=400, deadline=None)
def test_same_tokens_and_diagnostics_as_the_reference_lexer(source):
    assume(not has_non_decimal_digit(source))
    assert stream(tokenize(source)) == reference_stream(source)


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_corpus_files_lex_as_the_reference_does(index):
    source = CORPUS[index]
    assert stream(tokenize(source)) == reference_stream(source)


@given(st.one_of(dsl_text, corpus_slices(), st.text(max_size=200)))
@settings(max_examples=300, deadline=None)
def test_tokens_sit_where_they_say_and_layout_balances(source):
    tokens, _ = tokenize(source)
    lines = source_lines(source)
    for tok in tokens:
        if tok.kind in (TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.NUMBER, TokenKind.OP):
            assert lines[tok.line - 1][tok.col - 1:].startswith(tok.text)
    depth = 0
    for tok in tokens:
        depth += (tok.kind is TokenKind.INDENT) - (tok.kind is TokenKind.DEDENT)
        assert depth >= 0
    assert depth == 0
    assert tokens[-1].kind is TokenKind.EOF
    assert kinds(tokens).count(TokenKind.EOF) == 1


# --- the two deliberate differences from the reference lexer -----------------


def test_non_decimal_digit_is_an_illegal_character():
    # '²' passes str.isdigit() but int() rejects it; the reference lexed
    # "2²" as one number and the parser then crashed on it
    tokens, diagnostics = tokenize("X = 2²")
    assert [(t.kind, t.text) for t in tokens[2:]] == [
        (TokenKind.NUMBER, "2"), (TokenKind.EOF, ""),
    ]
    assert [(d.message, d.col) for d in diagnostics] == [("illegal character '²'", 6)]
    reference_tokens, reference_diagnostics = reference_tokenize("X = 2²")
    assert reference_tokens[2].text == "2²" and reference_diagnostics == []


def test_backslash_ending_unterminated_string_keeps_eof_on_the_line():
    source = "behavior B():\n    x = 'ab\\"
    tokens, diagnostics = tokenize(source)
    end = len(source_lines(source)[-1]) + 1
    assert [(t.kind, t.line, t.col) for t in tokens[-2:]] == [
        (TokenKind.DEDENT, 2, end), (TokenKind.EOF, 2, end),
    ]
    assert [d.message for d in diagnostics] == ["unterminated string literal"]
    reference_tokens, _ = reference_tokenize(source)
    assert [t.col for t in reference_tokens[-2:]] == [end + 1, end + 1]


def test_numeric_non_letter_is_skipped_one_character():
    # '½' is a word character to the regex engine but not a letter
    tokens, diagnostics = tokenize("½x")
    assert [(t.kind, t.text, t.col) for t in tokens[:-1]] == [(TokenKind.IDENT, "x", 2)]
    assert [d.message for d in diagnostics] == ["illegal character '½'"]
    assert stream((tokens, diagnostics)) == reference_stream("½x")
