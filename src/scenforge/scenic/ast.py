"""AST for the scenario DSL.

All nodes are slotted dataclasses, which are cheaper to build than
frozen ones. They are immutable by convention: nothing assigns to a node
after the parser makes it, and nothing hashes one. Source positions are
carried on every node but excluded from equality, so a parse -> format
-> parse round trip compares structurally equal.

A program groups statements into the three canonical sections: constant
declarations, behavior definitions, and spatial (scene) statements.
Whether a top-level assignment is a constant is decided purely from the
shape of its right-hand side (program_of, is_constant_expr), never from
declaration context, which keeps the grouping stable under reformatting.

The distribution constructors are defined here once, for the validator,
specs and scene alike: DISTRIBUTIONS and their rules, distribution_errors.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Union

# Distribution constructors and their parameters; Uniform takes one or more options.
DISTRIBUTIONS = {
    "Normal": ("mean", "stddev"),
    "TruncatedNormal": ("mean", "stddev", "low", "high"),
    "Range": ("low", "high"),
    "Uniform": None,
}
DIST_FUNCTIONS = frozenset(DISTRIBUTIONS)

SECTION_KINDS = ("constants", "behaviors", "spatial")

ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _pos():
    return field(default=0, compare=False, kw_only=True)


# --- expressions ---------------------------------------------------------


@dataclass(slots=True)
class NumberLit:
    value: Union[int, float]
    line: int = _pos()
    col: int = _pos()


@dataclass(slots=True)
class StringLit:
    value: str
    line: int = _pos()
    col: int = _pos()


@dataclass(slots=True)
class BoolLit:
    value: bool
    line: int = _pos()
    col: int = _pos()


@dataclass(slots=True)
class Name:
    id: str
    line: int = _pos()
    col: int = _pos()


@dataclass(slots=True)
class Attribute:
    base: "Expr"
    attr: str
    line: int = _pos()
    col: int = _pos()


@dataclass(slots=True)
class Index:
    base: "Expr"
    index: "Expr"
    line: int = _pos()
    col: int = _pos()


@dataclass(slots=True)
class Starred:
    value: "Expr"
    line: int = _pos()
    col: int = _pos()


@dataclass(slots=True)
class KeywordArg:
    name: str
    value: "Expr"
    line: int = _pos()
    col: int = _pos()


@dataclass(slots=True)
class Call:
    func: "Expr"
    args: tuple = ()
    kwargs: tuple = ()
    line: int = _pos()
    col: int = _pos()


@dataclass(slots=True)
class Lambda:
    param: str
    body: "Expr"
    line: int = _pos()
    col: int = _pos()


@dataclass(slots=True)
class UnaryOp:
    op: str
    operand: "Expr"
    line: int = _pos()
    col: int = _pos()


@dataclass(slots=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"
    line: int = _pos()
    col: int = _pos()


@dataclass(slots=True)
class TupleExpr:
    items: tuple = ()
    line: int = _pos()
    col: int = _pos()


@dataclass(slots=True)
class ListExpr:
    items: tuple = ()
    line: int = _pos()
    col: int = _pos()


# --- specifiers and the new-expression ------------------------------------


@dataclass(slots=True)
class AtSpecifier:
    position: "Expr"
    line: int = _pos()
    col: int = _pos()


@dataclass(slots=True)
class OnSpecifier:
    region: "Expr"
    line: int = _pos()
    col: int = _pos()


@dataclass(slots=True)
class FollowingSpecifier:
    start: "Expr"
    distance: "Expr"
    line: int = _pos()
    col: int = _pos()


@dataclass(slots=True)
class WithSpecifier:
    name: str
    value: "Expr"
    line: int = _pos()
    col: int = _pos()


@dataclass(slots=True)
class NewExpr:
    class_name: str
    specifiers: tuple = ()
    line: int = _pos()
    col: int = _pos()


Expr = Union[
    NumberLit, StringLit, BoolLit, Name, Attribute, Index, Starred,
    Call, Lambda, UnaryOp, BinOp, TupleExpr, ListExpr, NewExpr,
]


# --- statements ------------------------------------------------------------


@dataclass(slots=True)
class ConstantDecl:
    name: str
    value: Expr
    line: int = _pos()
    col: int = _pos()


@dataclass(slots=True)
class TakeStmt:
    actions: tuple
    line: int = _pos()
    col: int = _pos()


@dataclass(slots=True)
class WaitStmt:
    line: int = _pos()
    col: int = _pos()


@dataclass(slots=True)
class DoStmt:
    call: Expr  # Name or Call of a Name
    line: int = _pos()
    col: int = _pos()

    @property
    def target(self) -> str:
        node = self.call
        if isinstance(node, Call) and isinstance(node.func, Name):
            return node.func.id
        if isinstance(node, Name):
            return node.id
        return ""


@dataclass(slots=True)
class InterruptWhen:
    condition: Expr
    body: tuple
    line: int = _pos()
    col: int = _pos()


@dataclass(slots=True)
class BehaviorDef:
    name: str
    params: tuple
    body: tuple
    line: int = _pos()
    col: int = _pos()


@dataclass(slots=True)
class Assign:
    name: str
    value: Expr
    line: int = _pos()
    col: int = _pos()


@dataclass(slots=True)
class ObjectDecl:
    name: str
    value: NewExpr
    line: int = _pos()
    col: int = _pos()


@dataclass(slots=True)
class RequireStmt:
    condition: Expr
    line: int = _pos()
    col: int = _pos()


@dataclass(slots=True)
class TerminateWhen:
    condition: Expr
    line: int = _pos()
    col: int = _pos()


@dataclass(slots=True)
class Program:
    constants: tuple = ()
    behaviors: tuple = ()
    spatial: tuple = ()

    def statements(self) -> tuple:
        return self.constants + self.behaviors + self.spatial


def program_of(statements) -> Program:
    """Group top-level statements into a Program by the one rule, for text
    and compiled sections alike: an assignment is a ConstantDecl when its
    value is constant-grade, else an Assign, whatever its section."""
    constants, behaviors, spatial = [], [], []
    for stmt in statements:
        if isinstance(stmt, Assign) and is_constant_expr(stmt.value):
            stmt = ConstantDecl(stmt.name, stmt.value, line=stmt.line, col=stmt.col)
        {ConstantDecl: constants, BehaviorDef: behaviors}.get(type(stmt), spatial).append(stmt)
    return Program(tuple(constants), tuple(behaviors), tuple(spatial))


def is_constant_expr(expr: Expr) -> bool:
    """True when an expression is constant-grade: literals, arithmetic
    over constants, and distribution calls with constant arguments.

    Name references are deliberately not constant-grade so the decision
    depends only on local shape.
    """
    if isinstance(expr, (NumberLit, StringLit, BoolLit)):
        return True
    if isinstance(expr, UnaryOp):
        return expr.op in ("+", "-") and is_constant_expr(expr.operand)
    if isinstance(expr, BinOp):
        return expr.op in ("+", "-", "*", "/") and (
            is_constant_expr(expr.left) and is_constant_expr(expr.right)
        )
    if isinstance(expr, Call):
        return (
            isinstance(expr.func, Name)
            and expr.func.id in DIST_FUNCTIONS
            and not expr.kwargs
            and all(
                not isinstance(a, Starred) and is_constant_expr(a)
                for a in expr.args
            )
        )
    return False


def distribution_errors(name: str, values) -> list[str]:
    """The message of every rule that the positional ``values`` of constructor
    ``name`` break, in order; a None value is not known, and breaks no rule."""
    params = DISTRIBUTIONS[name]
    if params is None:
        return [] if values else [f"{name} requires at least one option"]
    if len(values) != len(params):
        return [f"{name} expects {len(params)} arguments ({', '.join(params)})"]
    errors = []
    if name != "Range" and values[1] is not None and values[1] <= 0:
        errors.append("standard deviation must be positive")
    low, high = values[-2:]
    known = low is not None and high is not None
    if name == "Range" and known and low > high:
        errors.append("range bounds inverted (low must not exceed high)")
    if name == "TruncatedNormal" and known and low >= high:
        errors.append("truncation bounds inverted (low must be less than high)")
    return errors


def fold_number(expr: Expr, names: dict | None = None, _depth: int = 0) -> float | None:
    """Fold constant arithmetic to a float when statically possible.

    ``names`` maps already-folded constant names to their values. The
    result is None past depth 32, for a name not in ``names``, for a
    zero divisor, for an integer literal too large for a float, for a
    result that is not finite (``1e308 * 10``), and for anything that is
    not ``+ - * /`` arithmetic over numbers.
    """
    if _depth > 32:
        return None
    if isinstance(expr, NumberLit):
        try:
            return float(expr.value)
        except OverflowError:
            return None
    if isinstance(expr, Name):
        return names.get(expr.id) if names else None
    if isinstance(expr, UnaryOp) and expr.op in ("+", "-"):
        inner = fold_number(expr.operand, names, _depth + 1)
        if inner is None:
            return None
        return inner if expr.op == "+" else -inner
    if isinstance(expr, BinOp) and expr.op in ARITHMETIC:
        left = fold_number(expr.left, names, _depth + 1)
        right = fold_number(expr.right, names, _depth + 1)
        if left is None or right is None or (expr.op == "/" and right == 0):
            return None
        value = ARITHMETIC[expr.op](left, right)
        return value if math.isfinite(value) else None
    return None
