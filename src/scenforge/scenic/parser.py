"""Parser for the scenario DSL.

Statements are parsed by recursive descent. Expressions are parsed by
precedence climbing (Pratt's top-down operator precedence): one loop,
`binary`, reads each operator's binding power from `_INFIX` or
`_PREFIX`, tables keyed by token kind and text. Loosest first, the
levels are ``lambda`` and ``or``, ``and``, prefix ``not``, the six
comparisons, ``+ -``, ``* /`` and prefix ``+ -``; calls, indexing and
attributes bind tighter still. The binary operators are
left-associative, except the comparisons, which share one level and do
not associate: a second comparison after the first is the diagnostic
"chained comparisons are not supported". A prefix operator is accepted
only where its level is, so ``not`` inside a comparison or arithmetic
operand, or ``lambda`` inside any operand, is "expected an expression".

Nesting is limited to `_MAX_DEPTH` levels. Every AST node on the way
down to a leaf counts one level, as does every parenthesized group and
every interrupt block around it. So the parser's own recursion
(brackets, prefix operators, lambdas, blocks) and the height of the
trees the recursive walkers descend (`ast.is_constant_expr`, the
validator, the scene evaluator, the formatter) stay well inside the
interpreter's recursion limit, also on a worker thread. Past the limit,
the token that crossed it gets one diagnostic.

The parser never raises on bad input. Errors are collected as
diagnostics; recovery skips past any open block to the next top-level
statement, so a compile reports each broken statement once.

Section parsing (parse_section) enforces which statement forms are
legal in each of the three program sections:

* ``constants``  - plain assignments only (no ``new``).
* ``behaviors``  - behavior definitions only.
* ``spatial``    - assignments, object declarations, require and
  terminate-when statements.

A section is parsed at ``first_line``, its first line in the stitched
program: nodes carry program lines, diagnostics the section's own lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import ast
from .diagnostics import Diagnostic, has_errors, located
from .tokens import Token, TokenKind, source_lines, tokenize

_MAX_DIAGNOSTICS = 200
_MAX_DEPTH = 100
_TOO_DEEP = f"too deeply nested (more than {_MAX_DEPTH} levels)"

# binding powers, loosest first; 0 marks a token that is no such operator
_OR, _AND, _NOT, _CMP, _ADD, _MUL, _UNARY = range(1, 8)
_KW, _OP = TokenKind.KEYWORD, TokenKind.OP
_INFIX = {
    (_KW, "or"): _OR,
    (_KW, "and"): _AND,
    **{(_OP, op): _CMP for op in ("==", "!=", "<=", ">=", "<", ">")},
    (_OP, "+"): _ADD, (_OP, "-"): _ADD,
    (_OP, "*"): _MUL, (_OP, "/"): _MUL,
}
_PREFIX = {(_KW, "lambda"): _OR, (_KW, "not"): _NOT, (_OP, "-"): _UNARY, (_OP, "+"): _UNARY}


class _ParseError(Exception):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic


@dataclass
class ParseResult:
    program: ast.Program | None
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.program is not None


@dataclass
class SectionResult:
    kind: str
    statements: list | None
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.statements is not None


def _describe(tok: Token) -> str:
    if tok.kind is TokenKind.EOF:
        return "end of input"
    if tok.kind is TokenKind.NEWLINE:
        return "end of line"
    if tok.kind is TokenKind.INDENT:
        return "indent"
    if tok.kind is TokenKind.DEDENT:
        return "dedent"
    if tok.kind is TokenKind.STRING:
        return "string literal"
    return f"'{tok.text}'"


class _Parser:
    def __init__(self, tokens: list[Token], lines: list[str], first_line: int = 1):
        self.tokens = tokens
        self.lines = lines
        self.first_line = first_line  # the program line of lines[0]
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []
        self.depth = 0  # open brackets, prefix operators, lambdas and interrupt blocks
        self.height = 0  # levels in the expression parsed last
        self.blocks = 0  # indented blocks open around the current token

    # -- token access -------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        if offset:
            return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if self.pos < len(self.tokens) - 1:
            self.pos += 1
        return tok

    def check(self, kind: TokenKind, text: str | None = None) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind is kind and (text is None or tok.text == text)

    def match(self, kind: TokenKind, text: str | None = None) -> Token | None:
        if self.check(kind, text):
            return self.advance()
        return None

    def fail(self, message: str, tok: Token | None = None) -> _ParseError:
        tok = tok or self.peek()
        return _ParseError(located(message, tok.line, tok.col, self.lines, self.first_line))

    def expect(self, kind: TokenKind, text: str | None = None, what: str = "") -> Token:
        tok = self.match(kind, text)
        if tok is None:
            wanted = what or (f"'{text}'" if text else kind.value)
            raise self.fail(f"expected {wanted}, found {_describe(self.peek())}")
        return tok

    def enter(self, tok: Token) -> None:
        """Go one level below `tok`; the caller comes back with depth -= 1."""
        self.depth += 1
        if self.depth >= _MAX_DEPTH:  # the leaf inside would be one level more
            raise self.fail(_TOO_DEEP, tok)

    def grow(self, height: int, tok: Token) -> int:
        """The height of the node `tok` makes of a subtree `height` tall and
        the expression parsed last; past the limit, a diagnostic at `tok`."""
        height = max(height, self.height) + 1
        if self.depth + height > _MAX_DEPTH:
            raise self.fail(_TOO_DEEP, tok)
        return height

    def record(self, err: _ParseError) -> None:
        if len(self.diagnostics) < _MAX_DIAGNOSTICS:
            self.diagnostics.append(err.diagnostic)

    def synchronize(self) -> None:
        """Skip past the end of the line and the blocks open around it."""
        depth, self.blocks = self.blocks, 0
        line_ended = False
        while not self.check(TokenKind.EOF):
            tok = self.advance()
            if tok.kind is TokenKind.INDENT:
                depth += 1
            elif tok.kind is TokenKind.DEDENT:
                depth = max(0, depth - 1)
            elif tok.kind is TokenKind.NEWLINE:
                line_ended = True
            if line_ended and depth == 0:
                return

    # -- statements -----------------------------------------------------

    def parse_statements(self) -> list:
        stmts = []
        while not self.check(TokenKind.EOF):
            if self.match(TokenKind.NEWLINE):
                continue
            if self.check(TokenKind.INDENT):
                self.record(self.fail("unexpected indent"))
                self.advance()
                self.synchronize()
                continue
            if self.check(TokenKind.DEDENT):
                self.advance()
                continue
            try:
                stmts.append(self.statement())
            except _ParseError as err:
                self.record(err)
                self.depth = 0
                self.synchronize()
        return stmts

    def statement(self):
        tok = self.peek()
        if tok.is_keyword("behavior"):
            return self.behavior_def()
        if tok.is_keyword("require"):
            self.advance()
            cond = self.expression()
            self.end_of_statement()
            return ast.RequireStmt(cond, line=tok.line, col=tok.col)
        if tok.is_keyword("terminate"):
            self.advance()
            self.expect(TokenKind.KEYWORD, "when")
            cond = self.expression()
            self.end_of_statement()
            return ast.TerminateWhen(cond, line=tok.line, col=tok.col)
        if tok.kind is TokenKind.IDENT and self.peek(1).is_op("="):
            return self.assignment()
        raise self.fail(f"expected a statement, found {_describe(tok)}")

    def end_of_statement(self) -> None:
        if self.match(TokenKind.NEWLINE):
            return
        if self.check(TokenKind.EOF) or self.check(TokenKind.DEDENT):
            return
        raise self.fail(f"expected end of line, found {_describe(self.peek())}")

    def assignment(self):
        name_tok = self.advance()
        self.expect(TokenKind.OP, "=")
        if self.check(TokenKind.KEYWORD, "new"):
            value = self.new_expr()
            self.end_of_statement()
            return ast.ObjectDecl(name_tok.text, value, line=name_tok.line, col=name_tok.col)
        value = self.expression()
        self.end_of_statement()
        return ast.Assign(name_tok.text, value, line=name_tok.line, col=name_tok.col)

    def behavior_def(self) -> ast.BehaviorDef:
        start = self.expect(TokenKind.KEYWORD, "behavior")
        name = self.expect(TokenKind.IDENT, what="behavior name")
        self.expect(TokenKind.OP, "(")
        params: list[str] = []
        if not self.check(TokenKind.OP, ")"):
            params.append(self.expect(TokenKind.IDENT, what="parameter name").text)
            while self.match(TokenKind.OP, ","):
                params.append(self.expect(TokenKind.IDENT, what="parameter name").text)
        self.expect(TokenKind.OP, ")")
        self.expect(TokenKind.OP, ":")
        body = self.indented_block()
        return ast.BehaviorDef(
            name.text, tuple(params), tuple(body), line=start.line, col=start.col
        )

    def indented_block(self) -> list:
        self.expect(TokenKind.NEWLINE, what="end of line before an indented block")
        while self.match(TokenKind.NEWLINE):
            pass
        self.expect(TokenKind.INDENT, what="an indented block")
        self.blocks += 1
        body = []
        while not self.check(TokenKind.DEDENT) and not self.check(TokenKind.EOF):
            if self.match(TokenKind.NEWLINE):
                continue
            body.append(self.behavior_stmt())
        self.match(TokenKind.DEDENT)
        self.blocks -= 1
        if not body:
            raise self.fail("behavior body must contain at least one statement")
        return body

    def behavior_stmt(self):
        tok = self.peek()
        if tok.is_keyword("take"):
            self.advance()
            actions = [self.expression()]
            while self.match(TokenKind.OP, ","):
                actions.append(self.expression())
            self.end_of_statement()
            return ast.TakeStmt(tuple(actions), line=tok.line, col=tok.col)
        if tok.is_keyword("wait"):
            self.advance()
            self.end_of_statement()
            return ast.WaitStmt(line=tok.line, col=tok.col)
        if tok.is_keyword("do"):
            self.advance()
            call = self.postfix_expr()
            if not self._is_do_target(call):
                raise self.fail("do target must be a behavior name or behavior call", tok)
            self.end_of_statement()
            return ast.DoStmt(call, line=tok.line, col=tok.col)
        if tok.is_keyword("interrupt"):
            self.advance()
            self.expect(TokenKind.KEYWORD, "when")
            cond = self.expression()
            self.expect(TokenKind.OP, ":")
            self.enter(tok)
            body = self.indented_block()
            self.depth -= 1
            return ast.InterruptWhen(cond, tuple(body), line=tok.line, col=tok.col)
        raise self.fail(
            f"expected a behavior statement (take, wait, do, interrupt), found {_describe(tok)}"
        )

    @staticmethod
    def _is_do_target(node) -> bool:
        if isinstance(node, ast.Name):
            return True
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name)

    # -- the new-expression and specifiers ------------------------------

    def new_expr(self) -> ast.NewExpr:
        start = self.expect(TokenKind.KEYWORD, "new")
        cls = self.expect(TokenKind.IDENT, what="object class name")
        specifiers = []
        if not self._at_statement_end():
            specifiers.append(self.specifier())
            while self.match(TokenKind.OP, ","):
                specifiers.append(self.specifier())
        return ast.NewExpr(cls.text, tuple(specifiers), line=start.line, col=start.col)

    def _at_statement_end(self) -> bool:
        return (
            self.check(TokenKind.NEWLINE)
            or self.check(TokenKind.EOF)
            or self.check(TokenKind.DEDENT)
        )

    def specifier(self):
        tok = self.peek()
        if tok.is_keyword("at"):
            self.advance()
            return ast.AtSpecifier(self.expression(), line=tok.line, col=tok.col)
        if tok.is_keyword("on"):
            self.advance()
            return ast.OnSpecifier(self.expression(), line=tok.line, col=tok.col)
        if tok.is_keyword("following"):
            self.advance()
            field_tok = self.expect(TokenKind.IDENT, what="'roadDirection'")
            if field_tok.text != "roadDirection":
                raise self.fail("expected 'roadDirection' after 'following'", field_tok)
            self.expect(TokenKind.KEYWORD, "from")
            start = self.expression()
            self.expect(TokenKind.KEYWORD, "for")
            distance = self.expression()
            return ast.FollowingSpecifier(start, distance, line=tok.line, col=tok.col)
        if tok.is_keyword("with"):
            self.advance()
            prop = self.match(TokenKind.IDENT) or self.match(TokenKind.KEYWORD, "behavior")
            if prop is None:
                raise self.fail("expected a property name after 'with'")
            return ast.WithSpecifier(prop.text, self.expression(), line=tok.line, col=tok.col)
        raise self.fail(
            f"expected a specifier (at, on, following, with), found {_describe(tok)}"
        )

    # -- expressions ------------------------------------------------------

    def binary(self, min_bp: int = _OR):
        """An expression whose operators all bind at least as tightly as min_bp."""
        tok = self.tokens[self.pos]
        prefix_bp = _PREFIX.get((tok.kind, tok.text), 0)
        if prefix_bp >= min_bp:
            self.advance()
            self.enter(tok)
            if tok.text == "lambda":
                param = self.expect(TokenKind.IDENT, what="lambda parameter")
                self.expect(TokenKind.OP, ":")
                node = ast.Lambda(param.text, self.binary(), line=tok.line, col=tok.col)
            else:
                node = ast.UnaryOp(tok.text, self.binary(prefix_bp), line=tok.line, col=tok.col)
            self.depth -= 1
            height = self.height + 1
        else:
            node = self.postfix_expr()
            height = self.height
        while True:
            tok = self.tokens[self.pos]
            bp = _INFIX.get((tok.kind, tok.text), 0)
            if bp < min_bp:
                self.height = height
                return node
            self.advance()
            right = self.binary(bp + 1)
            height = self.grow(height, tok)
            node = ast.BinOp(tok.text, node, right, line=tok.line, col=tok.col)
            nxt = self.tokens[self.pos]
            if bp == _CMP and _INFIX.get((nxt.kind, nxt.text)) == _CMP:
                raise self.fail("chained comparisons are not supported")

    expression = binary  # at the loosest binding power, where a lambda may start

    def postfix_expr(self):
        node = self.atom()
        height = self.height
        while True:
            tok = self.tokens[self.pos]
            if tok.kind is not _OP or tok.text not in ("(", "[", "."):
                self.height = height
                return node
            self.advance()
            self.enter(tok)
            if tok.text == "(":
                args, kwargs = self.call_args()
                node = ast.Call(node, tuple(args), tuple(kwargs), line=tok.line, col=tok.col)
            elif tok.text == "[":
                index = self.expression()
                self.expect(TokenKind.OP, "]")
                node = ast.Index(node, index, line=tok.line, col=tok.col)
            else:
                attr = self.expect(TokenKind.IDENT, what="attribute name")
                node = ast.Attribute(node, attr.text, line=tok.line, col=tok.col)
                self.height = 0  # the name is no subtree
            self.depth -= 1
            height = self.grow(height, tok)

    def call_args(self) -> tuple[list, list]:
        args: list = []
        kwargs: list = []
        height = 0  # of the tallest argument, its `*` or `name=` included
        if self.match(TokenKind.OP, ")"):
            self.height = height
            return args, kwargs
        while True:
            if self.check(TokenKind.OP, "*"):
                tok = self.advance()
                args.append(ast.Starred(self.expression(), line=tok.line, col=tok.col))
                self.height += 1
            elif self.check(TokenKind.IDENT) and self.peek(1).is_op("="):
                name = self.advance()
                self.advance()
                kwargs.append(
                    ast.KeywordArg(name.text, self.expression(), line=name.line, col=name.col)
                )
                self.height += 1
            else:
                args.append(self.expression())
            height = max(height, self.height)
            if not self.match(TokenKind.OP, ","):
                break
        self.expect(TokenKind.OP, ")")
        self.height = height
        return args, kwargs

    def atom(self):
        tok = self.tokens[self.pos]
        self.height = 1
        if tok.kind is TokenKind.NUMBER:
            self.advance()
            text = tok.text
            try:
                value = float(text) if ("." in text or "e" in text or "E" in text) else int(text)
            except ValueError:  # an integer with more digits than int() converts
                raise self.fail(f"integer literal too long ({len(text)} digits)", tok) from None
            if value == math.inf:  # a float literal past the largest double
                raise self.fail("number literal out of range", tok)
            return ast.NumberLit(value, line=tok.line, col=tok.col)
        if tok.kind is TokenKind.STRING:
            self.advance()
            return ast.StringLit(tok.text, line=tok.line, col=tok.col)
        if tok.is_keyword("True") or tok.is_keyword("False"):
            self.advance()
            return ast.BoolLit(tok.text == "True", line=tok.line, col=tok.col)
        if tok.kind is TokenKind.IDENT:
            self.advance()
            return ast.Name(tok.text, line=tok.line, col=tok.col)
        if tok.is_op("(") or tok.is_op("["):
            self.advance()
            close = ")" if tok.text == "(" else "]"
            items, trailing, height = [], False, 0
            if close == ")" or not self.check(TokenKind.OP, "]"):  # `[]` holds no level
                self.enter(tok)
                items.append(self.expression())
                height = self.height
                while self.match(TokenKind.OP, ","):
                    if self.check(TokenKind.OP, close):
                        trailing = True
                        break
                    items.append(self.expression())
                    height = max(height, self.height)
                self.depth -= 1
            self.expect(TokenKind.OP, close)
            self.height = height + 1  # a parenthesized group counts a level too
            if close == "]":
                return ast.ListExpr(tuple(items), line=tok.line, col=tok.col)
            if len(items) == 1 and not trailing:
                return items[0]
            return ast.TupleExpr(tuple(items), line=tok.line, col=tok.col)
        raise self.fail(f"expected an expression, found {_describe(tok)}")


def _run_parser(source: str, first_line: int = 1) -> tuple[list, list[Diagnostic]]:
    tokens, lex_diags = tokenize(source, first_line)
    parser = _Parser(tokens, source_lines(source), first_line)
    stmts = parser.parse_statements()
    return stmts, lex_diags + parser.diagnostics


def parse_expression(source: str):
    """Parse source that holds exactly one expression.

    Returns the expression's AST, or None when the source has a lexical
    or syntax error, is nested too deeply, or goes on after the
    expression.
    """
    tokens, lex_diags = tokenize(source)
    if lex_diags:
        return None
    parser = _Parser(tokens, source_lines(source))
    try:
        expr = parser.expression()
    except _ParseError:
        return None
    return expr if parser.check(TokenKind.EOF) else None


def parse_program(source: str) -> ParseResult:
    """Parse a full program into its canonical three-section form.

    On any error the result carries diagnostics and no program; recovery
    still reports every statement-level error found.
    """
    stmts, diagnostics = _run_parser(source)
    if has_errors(diagnostics):
        return ParseResult(None, diagnostics)
    return ParseResult(ast.program_of(stmts), diagnostics)


def parse_section(source: str, kind: str, first_line: int = 1) -> SectionResult:
    """Parse one program section, accepting only statements legal there.
    Nodes carry program lines from ``first_line`` on, diagnostics the lines
    of ``source``; ``ast.program_of``, not this, classifies assignments."""
    if kind not in ast.SECTION_KINDS:
        raise ValueError(f"unknown section kind: {kind!r}")
    stmts, diagnostics = _run_parser(source, first_line)
    lines = source_lines(source)
    for stmt in stmts:
        misplaced = _section_violation(stmt, kind)
        if misplaced:
            diagnostics.append(located(misplaced, stmt.line, stmt.col, lines, first_line))
    return SectionResult(kind, None if has_errors(diagnostics) else stmts, diagnostics)


def _section_violation(stmt, kind: str) -> str | None:
    label = {
        ast.Assign: "assignment",
        ast.ObjectDecl: "object declaration",
        ast.BehaviorDef: "behavior definition",
        ast.RequireStmt: "require statement",
        ast.TerminateWhen: "terminate statement",
    }[type(stmt)]
    if kind == "constants" and not isinstance(stmt, ast.Assign):
        return f"{label} is not allowed in the constants section"
    if kind == "behaviors" and not isinstance(stmt, ast.BehaviorDef):
        return f"{label} is not allowed in the behaviors section"
    if kind == "spatial" and isinstance(stmt, ast.BehaviorDef):
        return f"{label} is not allowed in the spatial section"
    return None

