"""Scene instantiation on a road network.

This is the execution check for generated programs: all constants are
sampled, spatial statements are evaluated in order against map geometry,
and require statements gate the sample. Failed requirements trigger a
fresh sampling round, up to the rejection budget. Behaviors are bound
and arity-checked but never stepped in time; there are no dynamics here.

Geometry conventions: positions are planar (x, y) in meters, headings in
radians from atan2. "following roadDirection from P for D" walks a
signed D meters along the centerline of the lane containing P,
extrapolating past either end along the terminal segment.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import random
from dataclasses import dataclass, field
from pathlib import Path

from .distributions import DistributionSpec, sample_value
from .errors import (
    MalformedMap,
    RejectionBudgetExhausted,
    SceneEvaluationError,
    UnplaceableObject,
)
from .scenic import ast
from .scenic.diagnostics import ERROR, Diagnostic
from .scenic.parser import parse_program
from .scenic.validator import BUILTIN_BEHAVIORS, ModelRegistry, validate

# how close (meters) a point must sit to a centerline to count as on it
_PLACEMENT_TOLERANCE = 1.0

DEFAULT_MAX_REJECTIONS = 1_000

# the longest list, tuple or string that '+' or '*' may build
_MAX_SEQUENCE = 100_000
_SEQUENCES = (list, tuple, str)

# binary operators other than the short-circuiting 'and' and 'or'
_BINOPS = {
    **ast.ARITHMETIC,
    "==": operator.eq, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


# --- road network ----------------------------------------------------------


@dataclass(frozen=True)
class Lane:
    id: str
    centerline: tuple  # ((x, y), ...) in meters, at least two points
    incoming_of: str | None = None


@dataclass(frozen=True)
class Intersection:
    id: str
    is_4way: bool
    incoming_lanes: tuple  # lane ids


@dataclass(frozen=True)
class RoadNetwork:
    lanes: tuple
    intersections: tuple

    def lane(self, lane_id: str) -> Lane:
        for lane in self.lanes:
            if lane.id == lane_id:
                return lane
        raise KeyError(lane_id)


def load_map(path) -> RoadNetwork:
    """Load a road-network file, checking every structural invariant."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise MalformedMap(f"map file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise MalformedMap("map file must contain a JSON object")
    raw_lanes = data.get("lanes")
    if not isinstance(raw_lanes, list) or not raw_lanes:
        raise MalformedMap("map must declare at least one lane")
    lanes = []
    seen = set()
    for i, raw in enumerate(raw_lanes):
        lane_id = raw.get("id")
        if not isinstance(lane_id, str) or not lane_id:
            raise MalformedMap(f"lane {i} is missing a string id")
        if lane_id in seen:
            raise MalformedMap(f"duplicate lane id '{lane_id}'")
        seen.add(lane_id)
        centerline = raw.get("centerline")
        if not isinstance(centerline, list) or len(centerline) < 2:
            raise MalformedMap(f"lane '{lane_id}' needs a centerline of at least 2 points")
        points = []
        for point in centerline:
            if (
                not isinstance(point, (list, tuple))
                or len(point) != 2
                or not all(isinstance(c, (int, float)) for c in point)
            ):
                raise MalformedMap(f"lane '{lane_id}' has a malformed centerline point")
            points.append((float(point[0]), float(point[1])))
        lanes.append(Lane(lane_id, tuple(points), raw.get("incoming_of")))
    intersections = []
    seen_intersections = set()
    for i, raw in enumerate(data.get("intersections", [])):
        inter_id = raw.get("id")
        if not isinstance(inter_id, str) or not inter_id:
            raise MalformedMap(f"intersection {i} is missing a string id")
        if inter_id in seen_intersections:
            raise MalformedMap(f"duplicate intersection id '{inter_id}'")
        seen_intersections.add(inter_id)
        incoming = raw.get("incoming_lanes", [])
        for lane_id in incoming:
            if lane_id not in seen:
                raise MalformedMap(
                    f"intersection '{inter_id}' references missing lane '{lane_id}'"
                )
        intersections.append(
            Intersection(inter_id, bool(raw.get("is_4way", False)), tuple(incoming))
        )
    for lane in lanes:
        if lane.incoming_of is not None and lane.incoming_of not in seen_intersections:
            raise MalformedMap(
                f"lane '{lane.id}' references missing intersection '{lane.incoming_of}'"
            )
    return RoadNetwork(tuple(lanes), tuple(intersections))


def filter_four_way(network: RoadNetwork) -> list:
    """Intersections with four incoming roads, in declaration order."""
    return [i for i in network.intersections if i.is_4way]


# --- polyline geometry ------------------------------------------------------


def _segment_lengths(points) -> list[float]:
    return [
        math.dist(points[i], points[i + 1]) for i in range(len(points) - 1)
    ]


def _polyline_length(points) -> float:
    return sum(_segment_lengths(points))


def _project_onto_polyline(points, p) -> tuple[float, float]:
    """Project p onto the polyline; return (arclength, distance)."""
    best_s = 0.0
    best_d = math.inf
    travelled = 0.0
    for i in range(len(points) - 1):
        ax, ay = points[i]
        bx, by = points[i + 1]
        seg_len = math.dist(points[i], points[i + 1])
        if seg_len == 0.0:
            continue
        t = ((p[0] - ax) * (bx - ax) + (p[1] - ay) * (by - ay)) / (seg_len * seg_len)
        t = min(1.0, max(0.0, t))
        qx, qy = ax + t * (bx - ax), ay + t * (by - ay)
        d = math.dist(p, (qx, qy))
        if d < best_d:
            best_d = d
            best_s = travelled + t * seg_len
        travelled += seg_len
    return best_s, best_d


def _point_along_polyline(points, s: float) -> tuple[tuple[float, float], float]:
    """Point and heading at signed arclength s, extrapolating past ends."""
    lengths = _segment_lengths(points)
    total = sum(lengths)
    if s <= 0.0:
        ax, ay = points[0]
        bx, by = _first_distinct(points, forward=True)
        heading = math.atan2(by - ay, bx - ax)
        return (ax + s * math.cos(heading), ay + s * math.sin(heading)), heading
    if s >= total:
        ax, ay = points[-1]
        px, py = _first_distinct(points, forward=False)
        heading = math.atan2(ay - py, ax - px)
        extra = s - total
        return (ax + extra * math.cos(heading), ay + extra * math.sin(heading)), heading
    travelled = 0.0
    for i, seg_len in enumerate(lengths):
        if seg_len == 0.0:
            continue
        if travelled + seg_len >= s:
            t = (s - travelled) / seg_len
            ax, ay = points[i]
            bx, by = points[i + 1]
            heading = math.atan2(by - ay, bx - ax)
            return (ax + t * (bx - ax), ay + t * (by - ay)), heading
        travelled += seg_len
    ax, ay = points[-1]
    px, py = _first_distinct(points, forward=False)
    return (ax, ay), math.atan2(ay - py, ax - px)


def _first_distinct(points, forward: bool):
    if forward:
        for point in points[1:]:
            if point != points[0]:
                return point
        return (points[0][0] + 1.0, points[0][1])
    for point in reversed(points[:-1]):
        if point != points[-1]:
            return point
    return (points[-1][0] - 1.0, points[-1][1])


# --- scene values ------------------------------------------------------------


class _LaneView:
    """Lane as seen by program expressions."""

    def __init__(self, lane: Lane):
        self.id = lane.id
        self.centerline = lane.centerline

    def __repr__(self):
        return f"<lane {self.id}>"


class _IntersectionView:
    def __init__(self, intersection: Intersection, lanes_by_id):
        self.id = intersection.id
        self.is4Way = intersection.is_4way
        self.incomingLanes = [lanes_by_id[i] for i in intersection.incoming_lanes]

    def __repr__(self):
        return f"<intersection {self.id}>"


class _NetworkView:
    def __init__(self, network: RoadNetwork):
        lanes_by_id = {lane.id: _LaneView(lane) for lane in network.lanes}
        self.lanes = list(lanes_by_id.values())
        self.intersections = [
            _IntersectionView(i, lanes_by_id) for i in network.intersections
        ]


class _RoadRegion:
    """The builtin ``road`` region: anywhere on any lane."""

    def __init__(self, network_view: _NetworkView):
        self.lanes = network_view.lanes


_ROAD_DIRECTION = object()


@dataclass(frozen=True)
class BoundBehavior:
    name: str
    args: tuple = ()
    kwargs: tuple = ()  # (name, value) pairs


@dataclass
class _BehaviorHandle:
    name: str
    params: tuple
    definition: ast.BehaviorDef


@dataclass
class _PlacedObject:
    name: str
    class_name: str
    position: tuple
    heading: float
    properties: dict


@dataclass(frozen=True)
class Placement:
    class_name: str
    position: tuple
    heading: float
    properties: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SceneInstance:
    placements: dict
    sampled_constants: dict
    seed: int


class _Rejected(Exception):
    """A require statement evaluated falsy; resample."""


def _distribution(name: str, *args) -> DistributionSpec:
    try:
        return DistributionSpec.of(name, args)
    except (TypeError, ValueError) as exc:
        raise SceneEvaluationError(f"{name}: {exc}") from exc


# --- the evaluator ------------------------------------------------------------


class _SceneEvaluator:
    def __init__(self, program: ast.Program, network: RoadNetwork, rng: random.Random):
        self.program = program
        self.rng = rng
        self.network_view = _NetworkView(network)
        self.env: dict = {}
        self.sampled_constants: dict = {}
        self.placements: dict = {}
        self._install_builtins()

    def _install_builtins(self) -> None:
        env = self.env
        env["network"] = self.network_view
        env["road"] = _RoadRegion(self.network_view)
        env["roadDirection"] = _ROAD_DIRECTION
        env["simulation_time"] = 0.0
        env["filter"] = lambda fn, items: [x for x in items if fn(x)]
        env["distance"] = self._distance
        for name in ast.DIST_FUNCTIONS:
            env[name] = functools.partial(_distribution, name)

    @staticmethod
    def _distance(a, b) -> float:
        pa = a.position if isinstance(a, _PlacedObject) else _as_point(a)
        pb = b.position if isinstance(b, _PlacedObject) else _as_point(b)
        return math.dist(pa, pb)

    # -- expression evaluation ----------------------------------------

    def concrete(self, node, env=None):
        """Evaluate and force distributions to a sampled value."""
        value = self.eval(node, env)
        if isinstance(value, DistributionSpec):
            value = sample_value(value, self.rng)
        return value

    def eval(self, node, env=None):
        env = self.env if env is None else env
        try:
            return self._eval(node, env)
        except _Rejected:
            raise
        except SceneEvaluationError:
            raise
        except (RejectionBudgetExhausted, UnplaceableObject):
            raise
        except Exception as exc:
            raise SceneEvaluationError(
                f"line {getattr(node, 'line', '?')}: cannot evaluate "
                f"{type(node).__name__}: {exc}"
            ) from exc

    def _eval(self, node, env):
        if isinstance(node, (ast.NumberLit, ast.StringLit, ast.BoolLit)):
            return node.value
        if isinstance(node, ast.Name):
            if node.id not in env:
                raise SceneEvaluationError(f"name '{node.id}' is not defined")
            return env[node.id]
        if isinstance(node, ast.Attribute):
            base = self._force(self._eval(node.base, env))
            if node.attr.startswith("_"):
                raise SceneEvaluationError(f"no property '{node.attr}'")
            try:
                return getattr(base, node.attr)
            except AttributeError:
                raise SceneEvaluationError(
                    f"{type(base).__name__.lstrip('_')} has no property '{node.attr}'"
                ) from None
        if isinstance(node, ast.Index):
            base = self._force(self._eval(node.base, env))
            index = self._force(self._eval(node.index, env))
            return base[int(index)]
        if isinstance(node, ast.Call):
            func = self._eval(node.func, env)
            args = []
            for arg in node.args:
                if isinstance(arg, ast.Starred):
                    args.extend(self._force(self._eval(arg.value, env)))
                else:
                    args.append(self._force(self._eval(arg, env)))
            kwargs = {
                kw.name: self._force(self._eval(kw.value, env)) for kw in node.kwargs
            }
            if isinstance(func, _BehaviorHandle):
                return self._bind_behavior(func, args, kwargs)
            if not callable(func):
                raise SceneEvaluationError("value is not callable")
            return func(*args, **kwargs)
        if isinstance(node, ast.Lambda):
            def closure(arg, _node=node, _env=env):
                inner = dict(_env)
                inner[_node.param] = arg
                return self._force(self._eval(_node.body, inner))
            return closure
        if isinstance(node, ast.UnaryOp):
            value = self._force(self._eval(node.operand, env))
            if node.op == "-":
                return -value
            if node.op == "+":
                return +value
            return not value
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node, env)
        if isinstance(node, ast.TupleExpr):
            return tuple(self._force(self._eval(i, env)) for i in node.items)
        if isinstance(node, ast.ListExpr):
            return [self._force(self._eval(i, env)) for i in node.items]
        raise SceneEvaluationError(f"cannot evaluate {type(node).__name__}")

    def _force(self, value):
        if isinstance(value, DistributionSpec):
            return sample_value(value, self.rng)
        return value

    def _eval_binop(self, node: ast.BinOp, env):
        if node.op == "and":
            left = self._force(self._eval(node.left, env))
            return self._force(self._eval(node.right, env)) if left else left
        if node.op == "or":
            left = self._force(self._eval(node.left, env))
            return left if left else self._force(self._eval(node.right, env))
        left = self._force(self._eval(node.left, env))
        right = self._force(self._eval(node.right, env))
        if _built_length(node.op, left, right) > _MAX_SEQUENCE:
            raise SceneEvaluationError(
                f"line {node.line}: '{node.op}' would build a sequence of more "
                f"than {_MAX_SEQUENCE} items"
            )
        result = _BINOPS[node.op](left, right)
        if isinstance(result, float) and not math.isfinite(result):
            raise SceneEvaluationError(
                f"line {node.line}: '{node.op}' gave a non-finite number ({result})"
            )
        return result

    def _bind_behavior(self, handle: _BehaviorHandle, args, kwargs) -> BoundBehavior:
        supplied = len(args) + len(kwargs)
        if supplied != len(handle.params):
            raise SceneEvaluationError(
                f"behavior '{handle.name}' expects {len(handle.params)} "
                f"argument(s), got {supplied}"
            )
        for name in kwargs:
            if name not in handle.params:
                raise SceneEvaluationError(
                    f"behavior '{handle.name}' has no parameter '{name}'"
                )
        return BoundBehavior(handle.name, tuple(args), tuple(sorted(kwargs.items())))

    # -- placement ---------------------------------------------------------

    def place(self, stmt: ast.ObjectDecl) -> _PlacedObject:
        try:
            return self._place(stmt)
        except OverflowError as exc:  # an integer too large for a float
            raise SceneEvaluationError(f"line {stmt.line}: {exc}") from exc

    def _place(self, stmt: ast.ObjectDecl) -> _PlacedObject:
        position = (0.0, 0.0)
        heading = 0.0
        properties: dict = {}
        for spec in stmt.value.specifiers:
            if isinstance(spec, ast.AtSpecifier):
                position = _as_point(self.concrete(spec.position))
            elif isinstance(spec, ast.OnSpecifier):
                position, heading = self._sample_region(self.concrete(spec.region))
            elif isinstance(spec, ast.FollowingSpecifier):
                start = _as_point(self.concrete(spec.start))
                dist = self.concrete(spec.distance)
                if not isinstance(dist, (int, float)):
                    raise SceneEvaluationError("following distance must be a number")
                position, heading = self._follow_road(start, float(dist))
            elif isinstance(spec, ast.WithSpecifier):
                value = self._with_value(spec)
                if spec.name == "heading":
                    if not isinstance(value, (int, float)):
                        raise SceneEvaluationError("heading must be a number")
                    heading = float(value)
                else:
                    properties[spec.name] = value
        placed = _PlacedObject(stmt.name, stmt.value.class_name, position, heading, properties)
        return placed

    def _with_value(self, spec: ast.WithSpecifier):
        if spec.name != "behavior":
            return self.concrete(spec.value)
        node = spec.value
        if isinstance(node, ast.Name):
            return self._behavior_by_name(node.id)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            value = self.concrete(node)
            if isinstance(value, BoundBehavior):
                return value
            if isinstance(value, _BehaviorHandle):
                return BoundBehavior(value.name)
            return value
        raise SceneEvaluationError("behavior property must be a behavior name or call")

    def _behavior_by_name(self, name: str) -> BoundBehavior:
        value = self.env.get(name)
        if isinstance(value, _BehaviorHandle):
            if value.params:
                raise SceneEvaluationError(
                    f"behavior '{name}' expects {len(value.params)} argument(s), got 0"
                )
            return BoundBehavior(name)
        if name in BUILTIN_BEHAVIORS:
            return BoundBehavior(name)
        raise SceneEvaluationError(f"behavior '{name}' is not defined")

    def _sample_region(self, region) -> tuple[tuple, float]:
        if isinstance(region, _LaneView):
            return self._point_on_lane(region)
        if isinstance(region, _IntersectionView):
            if not region.incomingLanes:
                raise UnplaceableObject(
                    f"intersection '{region.id}' has no incoming lanes to place on"
                )
            lane = region.incomingLanes[self.rng.randrange(len(region.incomingLanes))]
            return _point_along_polyline(lane.centerline, _polyline_length(lane.centerline))
        if isinstance(region, _RoadRegion):
            if not region.lanes:
                raise UnplaceableObject("map has no lanes to place on")
            lane = region.lanes[self.rng.randrange(len(region.lanes))]
            return self._point_on_lane(lane)
        raise UnplaceableObject(f"cannot place an object on {region!r}")

    def _point_on_lane(self, lane: _LaneView) -> tuple[tuple, float]:
        s = self.rng.uniform(0.0, _polyline_length(lane.centerline))
        return _point_along_polyline(lane.centerline, s)

    def _follow_road(self, start, dist: float) -> tuple[tuple, float]:
        best_lane = None
        best = (0.0, math.inf)
        for lane in self.network_view.lanes:
            s, d = _project_onto_polyline(lane.centerline, start)
            if d < best[1]:
                best = (s, d)
                best_lane = lane
        if best_lane is None or best[1] > _PLACEMENT_TOLERANCE:
            raise UnplaceableObject(
                f"point ({start[0]:.2f}, {start[1]:.2f}) is not on any lane centerline"
            )
        return _point_along_polyline(best_lane.centerline, best[0] + dist)

    # -- one sampling round -------------------------------------------------

    def run_round(self) -> SceneInstance:
        self.env = {}
        self.sampled_constants = {}
        self.placements = {}
        self._install_builtins()
        for const in self.program.constants:
            value = self.concrete(const.value)
            self.sampled_constants[const.name] = value
            self.env[const.name] = value
        for behavior in self.program.behaviors:
            self.env[behavior.name] = _BehaviorHandle(
                behavior.name, behavior.params, behavior
            )
        for stmt in self.program.spatial:
            if isinstance(stmt, ast.Assign):
                self.env[stmt.name] = self.concrete(stmt.value)
            elif isinstance(stmt, ast.ObjectDecl):
                placed = self.place(stmt)
                self.env[stmt.name] = placed
                self.placements[stmt.name] = Placement(
                    placed.class_name, placed.position, placed.heading, placed.properties
                )
            elif isinstance(stmt, ast.RequireStmt):
                if not self.concrete(stmt.condition):
                    raise _Rejected()
            # terminate-when conditions are recorded in the program text but
            # never evaluated: there is no time to step
        return SceneInstance(dict(self.placements), dict(self.sampled_constants), 0)


def _built_length(op: str, left, right) -> int:
    """Length of the sequence ``left op right`` builds, 0 if none."""
    if op == "+" and isinstance(left, _SEQUENCES) and isinstance(right, _SEQUENCES):
        return len(left) + len(right)
    if op == "*" and isinstance(left, _SEQUENCES) and isinstance(right, int):
        return len(left) * right
    if op == "*" and isinstance(right, _SEQUENCES) and isinstance(left, int):
        return len(right) * left
    return 0


def _as_point(value) -> tuple:
    if isinstance(value, _PlacedObject):
        return value.position
    if (
        isinstance(value, (tuple, list))
        and len(value) == 2
        and all(isinstance(c, (int, float)) for c in value)
    ):
        return (float(value[0]), float(value[1]))
    raise SceneEvaluationError(f"expected a 2D point, got {value!r}")


def instantiate_scene(
    program: ast.Program,
    network: RoadNetwork,
    seed: int,
    max_rejections: int = DEFAULT_MAX_REJECTIONS,
) -> SceneInstance:
    """Sample a concrete scene. Performs at most max_rejections + 1
    rounds; deterministic in (program, network, seed, max_rejections).
    """
    rng = random.Random(seed)
    evaluator = _SceneEvaluator(program, network, rng)
    rounds = max_rejections + 1
    for _ in range(rounds):
        try:
            scene = evaluator.run_round()
        except _Rejected:
            continue
        return SceneInstance(scene.placements, scene.sampled_constants, seed)
    raise RejectionBudgetExhausted(
        f"no sample satisfied every require statement in {rounds} round(s)"
    )


# --- validity ---------------------------------------------------------------


@dataclass
class ValidityReport:
    syntactic: bool
    semantic: bool
    executable: bool
    diagnostics: list
    scene: SceneInstance | None = None

    @property
    def valid(self) -> bool:
        return self.syntactic and self.semantic and self.executable

    def to_json(self) -> dict:
        return {
            "syntactic": self.syntactic,
            "semantic": self.semantic,
            "executable": self.executable,
            "valid": self.valid,
            "diagnostics": [
                {
                    "severity": d.severity,
                    "message": d.message,
                    "line": d.line,
                    "col": d.col,
                    "snippet": d.snippet,
                }
                for d in self.diagnostics
            ],
        }


def check_validity(
    program: ast.Program | str,
    registry: ModelRegistry,
    network: RoadNetwork,
    seed: int,
    max_rejections: int = DEFAULT_MAX_REJECTIONS,
) -> ValidityReport:
    """The three-stage validity check: parse, validate, instantiate. Text
    is parsed first; an ``ast.Program`` is validated as it is, diagnostics
    carrying its nodes' lines (program lines, for compiled sections)."""
    if isinstance(program, str):
        parsed = parse_program(program)
        if not parsed.ok:
            return ValidityReport(False, False, False, parsed.diagnostics)
        program = parsed.program
    diagnostics = validate(program, registry)
    if diagnostics:
        return ValidityReport(True, False, False, diagnostics)
    try:
        scene = instantiate_scene(program, network, seed, max_rejections)
    except (RejectionBudgetExhausted, UnplaceableObject, SceneEvaluationError) as exc:
        return ValidityReport(
            True, True, False,
            [Diagnostic(ERROR, f"execution failed: {exc}", 1, 1)],
        )
    return ValidityReport(True, True, True, [], scene)
