"""The recursive-descent expression parser that `scenforge.scenic.parser`
replaced with precedence climbing.

`_Parser` is kept verbatim as a reference oracle: the differential tests
in `test_parser.py` require the new parser to produce the same ASTs,
source positions and diagnostics as this one, apart from two documented
differences (the nesting limit and non-finite number literals).
`reference_parse_program` and `reference_parse_section` are the entry
points of the module it came from, running this `_Parser`.
"""

from __future__ import annotations

from scenforge.scenic import ast
from scenforge.scenic.diagnostics import ERROR, Diagnostic, has_errors
from scenforge.scenic.parser import (
    ParseResult,
    SectionResult,
    _describe,
    _ParseError,
    _section_violation,
)
from scenforge.scenic.tokens import Token, TokenKind, source_lines, tokenize

_MAX_DIAGNOSTICS = 200
_COMPARISONS = ("==", "!=", "<=", ">=", "<", ">")


class _Parser:
    def __init__(self, tokens: list[Token], lines: list[str]):
        self.tokens = tokens
        self.lines = lines
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []

    # -- token access -------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        i = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[i]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if self.pos < len(self.tokens) - 1:
            self.pos += 1
        return tok

    def check(self, kind: TokenKind, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind is kind and (text is None or tok.text == text)

    def match(self, kind: TokenKind, text: str | None = None) -> Token | None:
        if self.check(kind, text):
            return self.advance()
        return None

    def _snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def fail(self, message: str, tok: Token | None = None) -> _ParseError:
        tok = tok or self.peek()
        return _ParseError(
            Diagnostic(ERROR, message, tok.line, tok.col, self._snippet(tok.line))
        )

    def expect(self, kind: TokenKind, text: str | None = None, what: str = "") -> Token:
        tok = self.match(kind, text)
        if tok is None:
            wanted = what or (f"'{text}'" if text else kind.value)
            raise self.fail(f"expected {wanted}, found {_describe(self.peek())}")
        return tok

    def record(self, err: _ParseError) -> None:
        if len(self.diagnostics) < _MAX_DIAGNOSTICS:
            self.diagnostics.append(err.diagnostic)

    def synchronize(self) -> None:
        """Skip to the next statement boundary at indent level zero."""
        depth = 0
        while not self.check(TokenKind.EOF):
            tok = self.advance()
            if tok.kind is TokenKind.INDENT:
                depth += 1
            elif tok.kind is TokenKind.DEDENT:
                depth = max(0, depth - 1)
            elif tok.kind is TokenKind.NEWLINE and depth == 0:
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
        if ast.is_constant_expr(value):
            return ast.ConstantDecl(name_tok.text, value, line=name_tok.line, col=name_tok.col)
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
        body = []
        while not self.check(TokenKind.DEDENT) and not self.check(TokenKind.EOF):
            if self.match(TokenKind.NEWLINE):
                continue
            body.append(self.behavior_stmt())
        self.match(TokenKind.DEDENT)
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
            body = self.indented_block()
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

    def expression(self):
        if self.check(TokenKind.KEYWORD, "lambda"):
            tok = self.advance()
            param = self.expect(TokenKind.IDENT, what="lambda parameter")
            self.expect(TokenKind.OP, ":")
            body = self.expression()
            return ast.Lambda(param.text, body, line=tok.line, col=tok.col)
        return self.or_expr()

    def or_expr(self):
        node = self.and_expr()
        while self.check(TokenKind.KEYWORD, "or"):
            tok = self.advance()
            node = ast.BinOp("or", node, self.and_expr(), line=tok.line, col=tok.col)
        return node

    def and_expr(self):
        node = self.not_expr()
        while self.check(TokenKind.KEYWORD, "and"):
            tok = self.advance()
            node = ast.BinOp("and", node, self.not_expr(), line=tok.line, col=tok.col)
        return node

    def not_expr(self):
        if self.check(TokenKind.KEYWORD, "not"):
            tok = self.advance()
            return ast.UnaryOp("not", self.not_expr(), line=tok.line, col=tok.col)
        return self.comparison()

    def comparison(self):
        node = self.arith()
        for op in _COMPARISONS:
            if self.check(TokenKind.OP, op):
                tok = self.advance()
                node = ast.BinOp(op, node, self.arith(), line=tok.line, col=tok.col)
                for chained in _COMPARISONS:
                    if self.check(TokenKind.OP, chained):
                        raise self.fail("chained comparisons are not supported")
                return node
        return node

    def arith(self):
        node = self.term()
        while self.check(TokenKind.OP, "+") or self.check(TokenKind.OP, "-"):
            tok = self.advance()
            node = ast.BinOp(tok.text, node, self.term(), line=tok.line, col=tok.col)
        return node

    def term(self):
        node = self.factor()
        while self.check(TokenKind.OP, "*") or self.check(TokenKind.OP, "/"):
            tok = self.advance()
            node = ast.BinOp(tok.text, node, self.factor(), line=tok.line, col=tok.col)
        return node

    def factor(self):
        if self.check(TokenKind.OP, "-") or self.check(TokenKind.OP, "+"):
            tok = self.advance()
            return ast.UnaryOp(tok.text, self.factor(), line=tok.line, col=tok.col)
        return self.postfix_expr()

    def postfix_expr(self):
        node = self.atom()
        while True:
            if self.check(TokenKind.OP, "("):
                tok = self.advance()
                args, kwargs = self.call_args()
                node = ast.Call(node, tuple(args), tuple(kwargs), line=tok.line, col=tok.col)
            elif self.check(TokenKind.OP, "["):
                tok = self.advance()
                index = self.expression()
                self.expect(TokenKind.OP, "]")
                node = ast.Index(node, index, line=tok.line, col=tok.col)
            elif self.check(TokenKind.OP, "."):
                tok = self.advance()
                attr = self.expect(TokenKind.IDENT, what="attribute name")
                node = ast.Attribute(node, attr.text, line=tok.line, col=tok.col)
            else:
                return node

    def call_args(self) -> tuple[list, list]:
        args: list = []
        kwargs: list = []
        if self.match(TokenKind.OP, ")"):
            return args, kwargs
        while True:
            if self.check(TokenKind.OP, "*"):
                tok = self.advance()
                args.append(ast.Starred(self.expression(), line=tok.line, col=tok.col))
            elif self.check(TokenKind.IDENT) and self.peek(1).is_op("="):
                name = self.advance()
                self.advance()
                kwargs.append(
                    ast.KeywordArg(name.text, self.expression(), line=name.line, col=name.col)
                )
            else:
                args.append(self.expression())
            if not self.match(TokenKind.OP, ","):
                break
        self.expect(TokenKind.OP, ")")
        return args, kwargs

    def atom(self):
        tok = self.peek()
        if tok.kind is TokenKind.NUMBER:
            self.advance()
            text = tok.text
            try:
                value = float(text) if ("." in text or "e" in text or "E" in text) else int(text)
            except ValueError:  # an integer with more digits than int() converts
                raise self.fail(f"integer literal too long ({len(text)} digits)", tok) from None
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
        if tok.is_op("("):
            self.advance()
            items = [self.expression()]
            trailing = False
            while self.match(TokenKind.OP, ","):
                if self.check(TokenKind.OP, ")"):
                    trailing = True
                    break
                items.append(self.expression())
            self.expect(TokenKind.OP, ")")
            if len(items) == 1 and not trailing:
                return items[0]
            return ast.TupleExpr(tuple(items), line=tok.line, col=tok.col)
        if tok.is_op("["):
            self.advance()
            items = []
            if not self.check(TokenKind.OP, "]"):
                items.append(self.expression())
                while self.match(TokenKind.OP, ","):
                    if self.check(TokenKind.OP, "]"):
                        break
                    items.append(self.expression())
            self.expect(TokenKind.OP, "]")
            return ast.ListExpr(tuple(items), line=tok.line, col=tok.col)
        raise self.fail(f"expected an expression, found {_describe(tok)}")


def _run_parser(source: str) -> tuple[list, list[Diagnostic]]:
    tokens, lex_diags = tokenize(source)
    parser = _Parser(tokens, source_lines(source))
    stmts = parser.parse_statements()
    return stmts, lex_diags + parser.diagnostics


def reference_parse_program(source: str) -> ParseResult:
    stmts, diagnostics = _run_parser(source)
    if has_errors(diagnostics):
        return ParseResult(None, diagnostics)
    constants = tuple(s for s in stmts if isinstance(s, ast.ConstantDecl))
    behaviors = tuple(s for s in stmts if isinstance(s, ast.BehaviorDef))
    spatial = tuple(
        s for s in stmts
        if isinstance(s, (ast.Assign, ast.ObjectDecl, ast.RequireStmt, ast.TerminateWhen))
    )
    return ParseResult(ast.Program(constants, behaviors, spatial), diagnostics)


def reference_parse_section(source: str, kind: str) -> SectionResult:
    stmts, diagnostics = _run_parser(source)
    lines = source_lines(source)
    checked: list = []
    for stmt in stmts:
        if isinstance(stmt, ast.ConstantDecl):  # sections keep the parser's Assigns
            stmt = ast.Assign(stmt.name, stmt.value, line=stmt.line, col=stmt.col)
        misplaced = _section_violation(stmt, kind)
        if misplaced:
            snippet = lines[stmt.line - 1] if 1 <= stmt.line <= len(lines) else ""
            diagnostics.append(Diagnostic(ERROR, misplaced, stmt.line, stmt.col, snippet))
            continue
        checked.append(stmt)
    if has_errors(diagnostics):
        return SectionResult(kind, None, diagnostics)
    return SectionResult(kind, checked, diagnostics)
