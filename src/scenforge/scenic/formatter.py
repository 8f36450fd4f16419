"""Canonical rendering of scenario-program ASTs.

The output is deterministic: one statement per line, four-space blocks,
single spaces around binary operators, sections separated by a single
blank line. Formatting then reparsing yields a structurally equal AST.
"""

from __future__ import annotations

from . import ast
from .parser import _CMP, _INFIX, _NOT, _UNARY

# precedence levels, loosest to tightest: the parser's binding powers,
# with lambda below them all and postfix forms and atoms above
_BINARY_BP = {text: bp for (_, text), bp in _INFIX.items()}
_PREC_LAMBDA = 0
_PREC_POSTFIX = _UNARY + 1
_PREC_ATOM = _UNARY + 2


def _string_literal(value: str) -> str:
    if "'" in value and '"' not in value:
        quote = '"'
    else:
        quote = "'"
    escaped = (
        value.replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace("\t", "\\t")
        .replace(quote, "\\" + quote)
    )
    return f"{quote}{escaped}{quote}"


def _number_literal(value) -> str:
    if isinstance(value, bool):  # defensive; bools never reach NumberLit
        return str(value)
    if isinstance(value, int):
        return str(value)
    return repr(value)


def _prec(node) -> int:
    if isinstance(node, ast.BinOp):
        return _BINARY_BP[node.op]
    if isinstance(node, ast.UnaryOp):
        return _NOT if node.op == "not" else _UNARY
    if isinstance(node, ast.Lambda):
        return _PREC_LAMBDA
    if isinstance(node, (ast.Call, ast.Attribute, ast.Index)):
        return _PREC_POSTFIX
    return _PREC_ATOM


def format_expr(node, parent_prec: int = 0) -> str:
    text = _format_expr(node)
    if _prec(node) < parent_prec:
        return f"({text})"
    return text


def _format_expr(node) -> str:
    if isinstance(node, ast.NumberLit):
        return _number_literal(node.value)
    if isinstance(node, ast.StringLit):
        return _string_literal(node.value)
    if isinstance(node, ast.BoolLit):
        return "True" if node.value else "False"
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{format_expr(node.base, _PREC_POSTFIX)}.{node.attr}"
    if isinstance(node, ast.Index):
        return f"{format_expr(node.base, _PREC_POSTFIX)}[{format_expr(node.index)}]"
    if isinstance(node, ast.Call):
        parts = [
            f"*{format_expr(a.value, _UNARY)}" if isinstance(a, ast.Starred)
            else format_expr(a)
            for a in node.args
        ]
        parts.extend(f"{kw.name}={format_expr(kw.value)}" for kw in node.kwargs)
        return f"{format_expr(node.func, _PREC_POSTFIX)}({', '.join(parts)})"
    if isinstance(node, ast.Lambda):
        return f"lambda {node.param}: {format_expr(node.body)}"
    if isinstance(node, ast.UnaryOp):
        if node.op == "not":
            return f"not {format_expr(node.operand, _NOT)}"
        return f"{node.op}{format_expr(node.operand, _UNARY)}"
    if isinstance(node, ast.BinOp):
        prec = _BINARY_BP[node.op]
        # comparisons do not chain, so both operands must bind tighter
        left_prec = prec + 1 if prec == _CMP else prec
        left = format_expr(node.left, left_prec)
        right = format_expr(node.right, prec + 1)
        return f"{left} {node.op} {right}"
    if isinstance(node, ast.TupleExpr):
        if len(node.items) == 1:
            return f"({format_expr(node.items[0])},)"
        return f"({', '.join(format_expr(i) for i in node.items)})"
    if isinstance(node, ast.ListExpr):
        return f"[{', '.join(format_expr(i) for i in node.items)}]"
    if isinstance(node, ast.NewExpr):
        return _format_new(node)
    raise TypeError(f"cannot format node of type {type(node).__name__}")


def _format_specifier(spec) -> str:
    if isinstance(spec, ast.AtSpecifier):
        return f"at {format_expr(spec.position)}"
    if isinstance(spec, ast.OnSpecifier):
        return f"on {format_expr(spec.region)}"
    if isinstance(spec, ast.FollowingSpecifier):
        return (
            f"following roadDirection from {format_expr(spec.start)} "
            f"for {format_expr(spec.distance)}"
        )
    if isinstance(spec, ast.WithSpecifier):
        return f"with {spec.name} {format_expr(spec.value)}"
    raise TypeError(f"cannot format specifier of type {type(spec).__name__}")


def _format_new(node: ast.NewExpr) -> str:
    head = f"new {node.class_name}"
    if not node.specifiers:
        return head
    return head + " " + ", ".join(_format_specifier(s) for s in node.specifiers)


def _format_behavior_stmt(stmt, indent: int) -> list[str]:
    pad = " " * indent
    if isinstance(stmt, ast.TakeStmt):
        return [pad + "take " + ", ".join(format_expr(a) for a in stmt.actions)]
    if isinstance(stmt, ast.WaitStmt):
        return [pad + "wait"]
    if isinstance(stmt, ast.DoStmt):
        return [pad + "do " + format_expr(stmt.call)]
    if isinstance(stmt, ast.InterruptWhen):
        lines = [pad + f"interrupt when {format_expr(stmt.condition)}:"]
        for inner in stmt.body:
            lines.extend(_format_behavior_stmt(inner, indent + 4))
        return lines
    raise TypeError(f"cannot format behavior statement {type(stmt).__name__}")


def format_statement(stmt) -> str:
    if isinstance(stmt, (ast.ConstantDecl, ast.Assign)):
        return f"{stmt.name} = {format_expr(stmt.value)}"
    if isinstance(stmt, ast.ObjectDecl):
        return f"{stmt.name} = {_format_new(stmt.value)}"
    if isinstance(stmt, ast.RequireStmt):
        return f"require {format_expr(stmt.condition)}"
    if isinstance(stmt, ast.TerminateWhen):
        return f"terminate when {format_expr(stmt.condition)}"
    if isinstance(stmt, ast.BehaviorDef):
        lines = [f"behavior {stmt.name}({', '.join(stmt.params)}):"]
        for inner in stmt.body:
            lines.extend(_format_behavior_stmt(inner, 4))
        return "\n".join(lines)
    raise TypeError(f"cannot format statement of type {type(stmt).__name__}")


def format_section(statements) -> str:
    return "\n".join(format_statement(s) for s in statements)


def format_program(program: ast.Program) -> str:
    """Render a program canonically: constants, behaviors, then spatial
    statements, separated by blank lines, trailing newline."""
    sections = [
        format_section(program.constants),
        format_section(program.behaviors),
        format_section(program.spatial),
    ]
    text = "\n\n".join(s for s in sections if s)
    return text + "\n" if text else ""
