"""Static checks on parsed programs: name resolution, distribution
parameters (``ast.distribution_errors`` over the arguments that fold),
registry membership, and the single-ego rule.

Validation exceeds what the real target language enforces at compile
time, on purpose: every extra diagnostic caught here is one the repair
loop can fix before a scene is ever sampled. Messages are phrased the
way the backing compiler phrases them ("name 'x' is not defined") so
they drop straight into repair prompts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from . import ast
from .diagnostics import ERROR, Diagnostic

BUILTIN_VALUES = frozenset({"network", "roadDirection", "road", "simulation_time"})
BUILTIN_FUNCTIONS = frozenset({"filter", "distance"}) | ast.DIST_FUNCTIONS
BUILTIN_ACTIONS = frozenset(
    {
        "SetBrakeAction", "SetThrottleAction", "SetSpeedAction",
        "SetSteerAction", "SetTurnSignalAction", "SetReverseAction",
    }
)
BUILTIN_BEHAVIORS = frozenset(
    {
        "FollowLaneBehavior", "FollowTrajectoryBehavior", "LaneChangeBehavior",
        "StayStillBehavior", "WalkForwardBehavior",
    }
)

BUILTIN_NAMES = BUILTIN_VALUES | BUILTIN_FUNCTIONS | BUILTIN_ACTIONS | BUILTIN_BEHAVIORS

# string literals with these prefixes are simulator asset ids and must
# appear in the registry
_MODEL_PREFIXES = ("vehicle.", "walker.")

_DEFAULT_VEHICLE_MODELS = (
    "vehicle.lincoln.mkz_2017",
    "vehicle.tesla.model3",
    "vehicle.audi.tt",
    "vehicle.toyota.prius",
    "vehicle.mini.cooper_s",
    "vehicle.carlamotors.carlacola",
    "vehicle.mercedes.sprinter",
    "vehicle.diamondback.century",
    "vehicle.kawasaki.ninja",
    "walker.pedestrian.0001",
)
_DEFAULT_OBJECT_CLASSES = (
    "car", "truck", "van", "bus", "bicycle", "motorcycle", "pedestrian",
)


@dataclass(frozen=True)
class ModelRegistry:
    """Known simulator assets; all entries lowercase for matching."""

    vehicle_models: frozenset
    object_classes: frozenset

    @classmethod
    def create(cls, vehicle_models: Iterable[str], object_classes: Iterable[str]) -> "ModelRegistry":
        models = frozenset(m.lower() for m in vehicle_models)
        classes = frozenset(c.lower() for c in object_classes)
        if not models or not classes:
            raise ValueError("registry requires at least one model and one object class")
        return cls(models, classes)


def default_registry() -> ModelRegistry:
    return ModelRegistry.create(_DEFAULT_VEHICLE_MODELS, _DEFAULT_OBJECT_CLASSES)


def load_registry(path) -> ModelRegistry:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return ModelRegistry.create(data["vehicle_models"], data["object_classes"])


class _Checker:
    def __init__(self, registry: ModelRegistry, first_line: int = 1):
        self.registry = registry
        self.offset = first_line - 1  # program lines of the nodes -> source lines
        self.diagnostics: list[Diagnostic] = []
        self.scope: set[str] = set(BUILTIN_NAMES)
        self.behaviors: dict[str, tuple] = {}  # name -> params
        self.const_values: dict[str, float] = {}
        self.ego_count = 0

    def error(self, message: str, node) -> None:
        self.diagnostics.append(Diagnostic(ERROR, message, node.line - self.offset, node.col))

    # -- expression walking ------------------------------------------

    def check_expr(self, node, local: set[str] | None = None) -> None:
        scope = self.scope if local is None else local
        if isinstance(node, ast.Name):
            if node.id not in scope:
                self.error(f"name '{node.id}' is not defined", node)
        elif isinstance(node, ast.StringLit):
            self._check_model_string(node)
        elif isinstance(node, ast.Attribute):
            self.check_expr(node.base, local)
        elif isinstance(node, ast.Index):
            self.check_expr(node.base, local)
            self.check_expr(node.index, local)
        elif isinstance(node, ast.Starred):
            self.check_expr(node.value, local)
        elif isinstance(node, ast.Call):
            self.check_expr(node.func, local)
            for arg in node.args:
                self.check_expr(arg, local)
            for kw in node.kwargs:
                self.check_expr(kw.value, local)
            self._check_distribution(node)
        elif isinstance(node, ast.Lambda):
            inner = set(scope)
            inner.add(node.param)
            self.check_expr(node.body, inner)
        elif isinstance(node, ast.UnaryOp):
            self.check_expr(node.operand, local)
        elif isinstance(node, ast.BinOp):
            self.check_expr(node.left, local)
            self.check_expr(node.right, local)
        elif isinstance(node, (ast.TupleExpr, ast.ListExpr)):
            for item in node.items:
                self.check_expr(item, local)
        # literals need no checking

    def _check_model_string(self, node: ast.StringLit) -> None:
        value = node.value.lower()
        if any(value.startswith(p) for p in _MODEL_PREFIXES):
            if value not in self.registry.vehicle_models:
                self.error(f"unknown vehicle model '{node.value}'", node)

    def _fold(self, node) -> float | None:
        return ast.fold_number(node, self.const_values)

    def _check_distribution(self, node: ast.Call) -> None:
        if not isinstance(node.func, ast.Name) or node.func.id not in ast.DIST_FUNCTIONS:
            return
        name = node.func.id
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        if ast.DISTRIBUTIONS[name] and (starred or node.kwargs):
            self.error(f"{name} takes positional numeric arguments only", node)
        elif node.kwargs:
            self.error(f"{name} takes no keyword arguments", node)
        elif not starred:
            for message in ast.distribution_errors(name, [self._fold(a) for a in node.args]):
                self.error(message, node)

    # -- statement walking ---------------------------------------------

    def declare_constant(self, stmt: ast.ConstantDecl | ast.Assign) -> None:
        self.check_expr(stmt.value)
        folded = self._fold(stmt.value)
        if folded is not None:
            self.const_values[stmt.name] = folded
        self.scope.add(stmt.name)

    def declare_behavior(self, stmt: ast.BehaviorDef) -> None:
        if stmt.name in self.behaviors:
            self.error(f"behavior '{stmt.name}' is defined more than once", stmt)
        self.behaviors[stmt.name] = stmt.params
        self.scope.add(stmt.name)
        local = set(self.scope) | set(stmt.params)
        self._check_behavior_body(stmt.body, local)

    def _check_behavior_body(self, body, local: set[str]) -> None:
        for stmt in body:
            if isinstance(stmt, ast.TakeStmt):
                for action in stmt.actions:
                    self.check_expr(action, local)
            elif isinstance(stmt, ast.DoStmt):
                target = stmt.target
                if target not in self.behaviors and target not in BUILTIN_BEHAVIORS:
                    self.error(f"behavior '{target}' is not defined", stmt)
                if isinstance(stmt.call, ast.Call):
                    for arg in stmt.call.args:
                        self.check_expr(arg, local)
                    for kw in stmt.call.kwargs:
                        self.check_expr(kw.value, local)
                    self._check_behavior_arity(target, stmt.call, stmt)
            elif isinstance(stmt, ast.InterruptWhen):
                self.check_expr(stmt.condition, local)
                self._check_behavior_body(stmt.body, local)
            # wait has nothing to check

    def _check_behavior_arity(self, target: str, call: ast.Call, site) -> None:
        params = self.behaviors.get(target)
        if params is None:
            return  # builtin or undefined (already reported)
        if any(isinstance(a, ast.Starred) for a in call.args):
            return
        supplied = len(call.args) + len(call.kwargs)
        if supplied != len(params):
            self.error(
                f"behavior '{target}' expects {len(params)} argument(s), got {supplied}",
                site,
            )
            return
        for kw in call.kwargs:
            if kw.name not in params:
                self.error(
                    f"behavior '{target}' has no parameter '{kw.name}'", site
                )

    def check_section(self, kind: str, statements) -> None:
        """Check one section's statements in order, extending the scope."""
        check = {
            "constants": self.declare_constant,
            "behaviors": self.declare_behavior,
            "spatial": self.check_spatial,
        }[kind]
        for stmt in statements:
            check(stmt)

    def check_ego(self, subject: str) -> None:
        """The single-ego rule, over every spatial statement checked so far."""
        if self.ego_count != 1:
            message = (
                "multiple object declarations bind 'ego'" if self.ego_count
                else f"{subject} does not declare an object named 'ego'"
            )
            self.diagnostics.append(Diagnostic(ERROR, message, 1, 1))

    def check_spatial(self, stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self.check_expr(stmt.value)
            self.scope.add(stmt.name)
        elif isinstance(stmt, ast.ObjectDecl):
            self._check_object(stmt)
            self.scope.add(stmt.name)
            if stmt.name == "ego":
                self.ego_count += 1
        elif isinstance(stmt, (ast.RequireStmt, ast.TerminateWhen)):
            self.check_expr(stmt.condition)
        else:
            self.error(f"unexpected statement {type(stmt).__name__}", stmt)

    def _check_object(self, stmt: ast.ObjectDecl) -> None:
        new = stmt.value
        if new.class_name.lower() not in self.registry.object_classes:
            self.error(f"'{new.class_name}' is not a registered object class", stmt)
        for spec in new.specifiers:
            if isinstance(spec, ast.AtSpecifier):
                self.check_expr(spec.position)
            elif isinstance(spec, ast.OnSpecifier):
                self.check_expr(spec.region)
            elif isinstance(spec, ast.FollowingSpecifier):
                self.check_expr(spec.start)
                self.check_expr(spec.distance)
            elif isinstance(spec, ast.WithSpecifier):
                self.check_expr(spec.value)
                if spec.name == "behavior":
                    self._check_behavior_spec(spec)

    def _check_behavior_spec(self, spec: ast.WithSpecifier) -> None:
        value = spec.value
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            target = value.func.id
        elif isinstance(value, ast.Name):
            target = value.id
        else:
            self.error("behavior property must be a behavior name or call", spec)
            return
        if target not in self.behaviors and target not in BUILTIN_BEHAVIORS:
            self.error(f"behavior '{target}' is not defined", spec)
        elif isinstance(value, ast.Call):
            self._check_behavior_arity(target, value, spec)


def validate(program: ast.Program, registry: ModelRegistry) -> list[Diagnostic]:
    """Validate a whole program. Empty result means: all names resolve,
    model strings are registered, distribution parameters are legal, the
    program declares exactly one ego, and behavior references check out.
    """
    checker = _Checker(registry)
    for kind in ast.SECTION_KINDS:
        checker.check_section(kind, getattr(program, kind))
    checker.check_ego("program")
    return checker.diagnostics


def validate_section(
    statements,
    kind: str,
    registry: ModelRegistry,
    env: Iterable[str] = (),
    known_behaviors: dict | None = None,
    first_line: int = 1,
) -> list[Diagnostic]:
    """Validate one parsed section. ``env`` lists names declared by the
    sections compiled before this one; ``known_behaviors`` maps behavior
    names from earlier sections to their parameter tuples (or None when
    the signature is unknown). The spatial section must declare exactly
    one ego; the other sections have no ego requirement. Statements carry
    program lines from ``first_line`` on; diagnostics the section's own.
    """
    if kind not in ast.SECTION_KINDS:
        raise ValueError(f"unknown section kind: {kind!r}")
    checker = _Checker(registry, first_line)
    checker.scope.update(env)
    if known_behaviors:
        checker.behaviors.update(known_behaviors)
        checker.scope.update(known_behaviors)
    checker.check_section(kind, statements)
    if kind == "spatial":
        checker.check_ego("spatial section")
    return checker.diagnostics


def section_names(statements) -> set[str]:
    """Names a compiled section contributes to later sections' scope."""
    names: set[str] = set()
    for stmt in statements:
        if isinstance(stmt, (ast.Assign, ast.ObjectDecl, ast.BehaviorDef)):
            names.add(stmt.name)
    return names


def section_behaviors(statements) -> dict:
    """Behavior signatures a compiled behaviors section exposes."""
    return {
        s.name: s.params for s in statements if isinstance(s, ast.BehaviorDef)
    }
