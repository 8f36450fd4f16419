"""The character-stepping lexer that `scenforge.scenic.tokens` replaced.

Kept verbatim as a reference oracle: the differential tests in
`test_tokens.py` require the master-regex scanner to produce the same
tokens and diagnostics as this one, apart from two documented
differences.
"""

from __future__ import annotations

from scenforge.scenic.diagnostics import ERROR, Diagnostic
from scenforge.scenic.tokens import KEYWORDS, Token, TokenKind

# longest first so '==' wins over '='
_OPERATORS = (
    "==", "!=", "<=", ">=",
    "=", "<", ">", "+", "-", "*", "/", "(", ")", "[", "]", ",", ":", ".",
)

_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", "'": "'", '"': '"'}


class _Lexer:
    def __init__(self, source: str):
        self.src = source.replace("\r\n", "\n").replace("\r", "\n")
        self.lines = self.src.split("\n")
        self.n = len(self.src)
        self.pos = 0
        self.line = 1
        self.col = 1
        self.tokens: list[Token] = []
        self.diagnostics: list[Diagnostic] = []
        self.indents = [0]
        self.paren_depth = 0
        self.at_line_start = True

    # -- helpers ----------------------------------------------------

    def _snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def _error(self, message: str, line: int, col: int) -> None:
        self.diagnostics.append(
            Diagnostic(ERROR, message, line, col, self._snippet(line))
        )

    def _emit(self, kind: TokenKind, text: str, line: int, col: int) -> None:
        self.tokens.append(Token(kind, text, line, col))

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos < self.n and self.src[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def _peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.src[i] if i < self.n else ""

    def _last_significant(self) -> Token | None:
        for tok in reversed(self.tokens):
            if tok.kind not in (TokenKind.NEWLINE, TokenKind.INDENT, TokenKind.DEDENT):
                return tok
        return None

    def _line_has_content(self) -> bool:
        # content since the last newline-ish token
        for tok in reversed(self.tokens):
            if tok.kind in (TokenKind.NEWLINE, TokenKind.INDENT, TokenKind.DEDENT):
                return False
            return True
        return False

    def _in_continuation(self) -> bool:
        last = self._last_significant()
        return (
            self.paren_depth > 0
            or (last is not None and last.is_op(",") and self._line_has_content())
        )

    # -- indentation ------------------------------------------------

    def _measure_indent(self) -> int | None:
        """Consume leading whitespace; return width, or None for blank lines."""
        width = 0
        while True:
            ch = self._peek()
            if ch == " ":
                width += 1
                self._advance()
            elif ch == "\t":
                width += 4 - (width % 4)
                self._advance()
            else:
                break
        ch = self._peek()
        if ch == "#":
            while self._peek() not in ("", "\n"):
                self._advance()
            ch = self._peek()
        if ch == "\n":
            self._advance()
            return None
        if ch == "":
            return None
        return width

    def _apply_indent(self, width: int) -> None:
        line, col = self.line, self.col
        if width > self.indents[-1]:
            self.indents.append(width)
            self._emit(TokenKind.INDENT, "", line, col)
            return
        while width < self.indents[-1]:
            self.indents.pop()
            self._emit(TokenKind.DEDENT, "", line, col)
        if width != self.indents[-1]:
            self._error("unindent does not match any outer indentation level", line, col)

    # -- token scanners ----------------------------------------------

    def _scan_string(self) -> None:
        quote = self._peek()
        line, col = self.line, self.col
        self._advance()
        value: list[str] = []
        while True:
            ch = self._peek()
            if ch in ("", "\n"):
                self._error("unterminated string literal", line, col)
                break
            if ch == "\\":
                esc = self._peek(1)
                value.append(_ESCAPES.get(esc, "\\" + esc))
                self._advance(2)
                continue
            if ch == quote:
                self._advance()
                break
            value.append(ch)
            self._advance()
        self._emit(TokenKind.STRING, "".join(value), line, col)

    def _scan_number(self) -> None:
        line, col = self.line, self.col
        start = self.pos
        while self._peek().isdigit():
            self._advance()
        if self._peek() == "." and self._peek(1).isdigit():
            self._advance()
            while self._peek().isdigit():
                self._advance()
        if self._peek() in ("e", "E") and (
            self._peek(1).isdigit()
            or (self._peek(1) in ("+", "-") and self._peek(2).isdigit())
        ):
            self._advance()
            if self._peek() in ("+", "-"):
                self._advance()
            while self._peek().isdigit():
                self._advance()
        self._emit(TokenKind.NUMBER, self.src[start:self.pos], line, col)

    def _scan_word(self) -> None:
        line, col = self.line, self.col
        start = self.pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        word = self.src[start:self.pos]
        kind = TokenKind.KEYWORD if word in KEYWORDS else TokenKind.IDENT
        self._emit(kind, word, line, col)

    def _scan_operator(self) -> bool:
        for op in _OPERATORS:
            if self.src.startswith(op, self.pos):
                line, col = self.line, self.col
                if op in ("(", "["):
                    self.paren_depth += 1
                elif op in (")", "]"):
                    self.paren_depth = max(0, self.paren_depth - 1)
                self._advance(len(op))
                self._emit(TokenKind.OP, op, line, col)
                return True
        return False

    # -- main loop ----------------------------------------------------

    def run(self) -> tuple[list[Token], list[Diagnostic]]:
        while self.pos < self.n:
            if self.at_line_start:
                self.at_line_start = False
                if not self._in_continuation():
                    width = self._measure_indent()
                    if width is None:
                        self.at_line_start = True
                        continue
                    self._apply_indent(width)
                continue
            ch = self._peek()
            if ch in (" ", "\t"):
                self._advance()
            elif ch == "\n":
                if self.paren_depth == 0 and self._line_has_content() and not self._in_continuation():
                    self._emit(TokenKind.NEWLINE, "\n", self.line, self.col)
                self._advance()
                self.at_line_start = True
            elif ch == "#":
                while self._peek() not in ("", "\n"):
                    self._advance()
            elif ch in ("'", '"'):
                self._scan_string()
            elif ch.isdigit():
                self._scan_number()
            elif ch.isalpha() or ch == "_":
                self._scan_word()
            elif self._scan_operator():
                pass
            else:
                self._error(f"illegal character {ch!r}", self.line, self.col)
                self._advance()
        while self.indents[-1] > 0:
            self.indents.pop()
            self._emit(TokenKind.DEDENT, "", self.line, self.col)
        self._emit(TokenKind.EOF, "", self.line, self.col)
        return self.tokens, self.diagnostics


def reference_tokenize(source: str) -> tuple[list[Token], list[Diagnostic]]:
    return _Lexer(source).run()
