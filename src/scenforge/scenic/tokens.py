"""Lexer for the scenario DSL.

`tokenize` is one loop over a single compiled pattern, `_SCAN`, whose
named alternatives are tried at the current offset: whitespace, comment,
newline, string, number, word, operator, and one illegal character as
the catch-all. A token's line is counted at newlines and its column is
its offset from the start of that line, so nothing steps character by
character.

Indentation follows Python: at the start of each line that does not
continue the previous one, the leading spaces and tabs (tab stops every
4 columns) become indent/dedent tokens, and blank or comment-only lines
are skipped. A line continues the previous one while a parenthesis or
bracket is open or when the previous line ended in a comma, which is how
multi-line object declarations are written; a continued line emits no
newline token and measures no indentation.

Lexical problems never raise: they are reported as diagnostics and
scanning continues, so a single pass can surface several errors and the
lexer is safe on arbitrary text.

Tokens are slotted dataclasses, immutable by convention: nothing assigns
to a token after the lexer makes it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .diagnostics import Diagnostic, located


class TokenKind(str, Enum):
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    KEYWORD = "keyword"
    OP = "operator"
    NEWLINE = "newline"
    INDENT = "indent"
    DEDENT = "dedent"
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "new", "behavior", "require", "terminate", "when", "take", "wait",
        "do", "interrupt", "at", "on", "following", "from", "for", "with",
        "lambda", "and", "or", "not", "True", "False",
    }
)

_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", "'": "'", '"': '"'}


@dataclass(slots=True)
class Token:
    kind: TokenKind
    text: str
    line: int  # 1-based
    col: int   # 1-based

    def is_op(self, text: str) -> bool:
        return self.kind is TokenKind.OP and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == text


def source_lines(source: str) -> list[str]:
    return source.replace("\r\n", "\n").replace("\r", "\n").split("\n")


_SCAN = re.compile(
    r"""
      (?P<space>[ \t]+)
    | (?P<comment>\#[^\n]*)
    | (?P<newline>\n)
    | (?P<string>'(?:\\[\s\S]?|[^\\\n'])*(?P<sq>')?|"(?:\\[\s\S]?|[^\\\n"])*(?P<dq>")?)
    | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    | (?P<word>[^\W\d]\w*)
    | (?P<op>[=!<>]=|[-=<>+*/()\[\],:.])
    | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)
_INDENT = re.compile(r"([ \t]*)(\#[^\n]*)?")
_ESCAPE = re.compile(r"\\([\s\S]?)")
_LAYOUT = (TokenKind.NEWLINE, TokenKind.INDENT, TokenKind.DEDENT)


def tokenize(source: str, first_line: int = 1) -> tuple[list[Token], list[Diagnostic]]:
    """Tokenize source text that starts on program line ``first_line``.

    Always returns a token stream ending in an eof token, in program
    lines, plus any lexical diagnostics, in the lines of ``source``.
    Indentation becomes indent/dedent tokens and comments are stripped.
    """
    src = source.replace("\r\n", "\n").replace("\r", "\n")
    lines = src.split("\n")
    tokens: list[Token] = []
    diagnostics: list[Diagnostic] = []
    indents = [0]
    depth = 0  # open parentheses and brackets
    line, line_start, pos, n = first_line, 0, 0, len(src)
    at_line_start = True

    def error(message: str, col: int) -> None:
        diagnostics.append(located(message, line, col, lines, first_line))

    def continued() -> bool:
        return depth > 0 or bool(tokens) and tokens[-1].is_op(",")

    while pos < n:
        if at_line_start:
            at_line_start = False
            if not continued():
                m = _INDENT.match(src, pos)
                pos = m.end()
                if pos == n:
                    break
                if src[pos] == "\n":  # blank or comment-only line
                    pos += 1
                    line, line_start, at_line_start = line + 1, pos, True
                    continue
                width, col = len(m[1].expandtabs(4)), pos - line_start + 1
                if width > indents[-1]:
                    indents.append(width)
                    tokens.append(Token(TokenKind.INDENT, "", line, col))
                while width < indents[-1]:
                    indents.pop()
                    tokens.append(Token(TokenKind.DEDENT, "", line, col))
                if width != indents[-1]:
                    error("unindent does not match any outer indentation level", col)
        m = _SCAN.match(src, pos)
        kind, text, col = m.lastgroup, m[0], pos - line_start + 1
        pos = m.end()
        if kind == "newline":
            if tokens and tokens[-1].kind not in _LAYOUT and not continued():
                tokens.append(Token(TokenKind.NEWLINE, "\n", line, col))
            line, line_start, at_line_start = line + 1, pos, True
        elif kind == "string":
            closed = m["sq"] or m["dq"]
            if not closed:
                error("unterminated string literal", col)
            body = text[1:-1] if closed else text[1:]
            value = _ESCAPE.sub(lambda e: _ESCAPES.get(e[1], "\\" + e[1]), body)
            tokens.append(Token(TokenKind.STRING, value, line, col))
            if "\n" in text:  # an escaped newline continues the string
                line += text.count("\n")
                line_start = m.start() + text.rindex("\n") + 1
        elif kind == "number":
            tokens.append(Token(TokenKind.NUMBER, text, line, col))
        elif kind == "word":
            if text[0].isalpha() or text[0] == "_":
                word_kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
                tokens.append(Token(word_kind, text, line, col))
            else:  # \w also admits numeric characters such as '½'
                error(f"illegal character {text[0]!r}", col)
                pos = m.start() + 1
        elif kind == "op":
            if text in ("(", "["):
                depth += 1
            elif text in (")", "]"):
                depth = max(0, depth - 1)
            tokens.append(Token(TokenKind.OP, text, line, col))
        elif kind == "bad":
            error(f"illegal character {text!r}", col)
    col = n - line_start + 1
    tokens.extend(Token(TokenKind.DEDENT, "", line, col) for _ in indents[1:])
    tokens.append(Token(TokenKind.EOF, "", line, col))
    return tokens, diagnostics
