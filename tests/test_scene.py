from __future__ import annotations

import json
import math
import time

import pytest

from scenforge.bundled import bundled_map, example_programs
from scenforge.errors import (
    MalformedMap,
    RejectionBudgetExhausted,
    UnplaceableObject,
)
from scenforge.scene import (
    check_validity,
    filter_four_way,
    instantiate_scene,
    load_map,
)
from scenforge.scenic import default_registry, parse_program


def program_of(source: str):
    result = parse_program(source)
    assert result.ok, [d.message for d in result.diagnostics]
    return result.program


@pytest.fixture(scope="module")
def registry():
    return default_registry()


@pytest.fixture(scope="module")
def cross4():
    return bundled_map("cross4")


# --- map loading -------------------------------------------------------------


def test_cross4_fixture_shape(cross4):
    four_way = filter_four_way(cross4)
    assert len(four_way) == 1
    assert four_way[0].is_4way
    assert len(four_way[0].incoming_lanes) == 4


def test_map_missing_lane_reference(tmp_path):
    path = tmp_path / "bad.map"
    path.write_text(json.dumps({
        "lanes": [{"id": "a", "centerline": [[0, 0], [1, 0]]}],
        "intersections": [{"id": "x", "is_4way": True, "incoming_lanes": ["ghost"]}],
    }))
    with pytest.raises(MalformedMap, match="missing lane 'ghost'"):
        load_map(path)


def test_map_empty_lane_list(tmp_path):
    path = tmp_path / "empty.map"
    path.write_text(json.dumps({"lanes": [], "intersections": []}))
    with pytest.raises(MalformedMap, match="at least one lane"):
        load_map(path)


def test_map_short_centerline(tmp_path):
    path = tmp_path / "short.map"
    path.write_text(json.dumps({"lanes": [{"id": "a", "centerline": [[0, 0]]}]}))
    with pytest.raises(MalformedMap, match="at least 2 points"):
        load_map(path)


def test_filter_four_way_preserves_order(tmp_path):
    path = tmp_path / "two.map"
    path.write_text(json.dumps({
        "lanes": [
            {"id": "a", "centerline": [[0, 0], [1, 0]]},
            {"id": "b", "centerline": [[0, 1], [1, 1]]},
        ],
        "intersections": [
            {"id": "x1", "is_4way": True, "incoming_lanes": ["a"]},
            {"id": "x2", "is_4way": False, "incoming_lanes": ["b"]},
            {"id": "x3", "is_4way": True, "incoming_lanes": ["b"]},
        ],
    }))
    network = load_map(path)
    assert [i.id for i in filter_four_way(network)] == ["x1", "x3"]


def test_filter_four_way_empty_result(tmp_path):
    path = tmp_path / "none.map"
    path.write_text(json.dumps({
        "lanes": [{"id": "a", "centerline": [[0, 0], [1, 0]]}],
        "intersections": [{"id": "x", "is_4way": False, "incoming_lanes": ["a"]}],
    }))
    assert filter_four_way(load_map(path)) == []


# --- instantiation ------------------------------------------------------------


def test_following_road_direction_walks_the_lane(cross4, registry):
    # north_in runs (0,60) -> (0,6); its end is (0,6) heading south
    source = (
        "startLane = network.lanes[0]\n"
        "pt = startLane.centerline[-1]\n"
        "ego = new Car following roadDirection from pt for 10\n"
    )
    scene = instantiate_scene(program_of(source), cross4, seed=1)
    x, y = scene.placements["ego"].position
    assert (x, y) == pytest.approx((0.0, -4.0))
    assert math.isfinite(scene.placements["ego"].heading)
    assert scene.placements["ego"].heading == pytest.approx(-math.pi / 2)


def test_following_backwards_stays_on_lane(cross4):
    source = (
        "startLane = network.lanes[0]\n"
        "pt = startLane.centerline[-1]\n"
        "ego = new Car following roadDirection from pt for -8\n"
    )
    scene = instantiate_scene(program_of(source), cross4, seed=1)
    assert scene.placements["ego"].position == pytest.approx((0.0, 14.0))


def test_following_from_off_map_point_is_unplaceable(cross4):
    source = "ego = new Car following roadDirection from (500, 500) for 5\n"
    with pytest.raises(UnplaceableObject):
        instantiate_scene(program_of(source), cross4, seed=1)


def test_require_false_exhausts_budget(cross4):
    program = program_of("ego = new Car at (0, 0)\nrequire False\n")
    with pytest.raises(RejectionBudgetExhausted):
        instantiate_scene(program, cross4, seed=1, max_rejections=10)


def test_rejection_runs_bounded_rounds(cross4):
    # max_rejections + 1 rounds exactly: count require evaluations via a
    # constant that records draws is overkill; instead time-bound proxy:
    program = program_of("ego = new Car at (0, 0)\nrequire False\n")
    with pytest.raises(RejectionBudgetExhausted, match="11 round"):
        instantiate_scene(program, cross4, seed=1, max_rejections=10)


def test_same_seed_same_scene(cross4):
    source = (
        "SPEED = Normal(10, 1)\n"
        "lane = Uniform(*network.lanes)\n"
        "ego = new Car on lane, with speed SPEED\n"
    )
    program = program_of(source)
    a = instantiate_scene(program, cross4, seed=9)
    b = instantiate_scene(program, cross4, seed=9)
    assert a == b
    c = instantiate_scene(program, cross4, seed=10)
    assert c != a


def test_sampled_constants_recorded(cross4):
    program = program_of("SPEED = Normal(10, 1)\nego = new Car at (0, 0)\n")
    scene = instantiate_scene(program, cross4, seed=3)
    assert set(scene.sampled_constants) == {"SPEED"}
    assert 5 < scene.sampled_constants["SPEED"] < 15


def test_truncated_constants_in_bounds_across_rounds(cross4):
    program = program_of(
        "T = TruncatedNormal(0.95, 0.05, 0.9, 1.0)\n"
        "ego = new Car at (0, 0)\n"
        "require T > 0.93\n"
    )
    for seed in range(30):
        scene = instantiate_scene(program, cross4, seed=seed)
        assert 0.93 < scene.sampled_constants["T"] <= 1.0


def test_on_region_places_on_lane(cross4):
    program = program_of("lane = network.lanes[0]\nego = new Car on lane\n")
    scene = instantiate_scene(program, cross4, seed=5)
    x, y = scene.placements["ego"].position
    assert x == pytest.approx(0.0)
    assert 6.0 <= y <= 60.0


def test_behavior_binding_checks_arity(cross4):
    source = (
        "behavior B(a):\n    wait\n"
        "ego = new Car at (0, 0), with behavior B(1, 2)\n"
    )
    report = check_validity(source, default_registry(), cross4, seed=1)
    # the validator already rejects this statically
    assert report.syntactic and not report.semantic


def test_with_properties_recorded(cross4):
    program = program_of(
        "ego = new Car at (0, 0), with color 'red', with speed 4\n"
    )
    scene = instantiate_scene(program, cross4, seed=0)
    props = scene.placements["ego"].properties
    assert props["color"] == "red"
    assert props["speed"] == 4


# --- check_validity ---------------------------------------------------------------


def test_bicycle_example_is_fully_valid(cross4, registry):
    text = dict(example_programs())["bicycle_collision"]
    report = check_validity(text, registry, cross4, seed=7)
    assert report.syntactic and report.semantic and report.executable
    assert report.valid
    assert report.scene is not None


def test_unquoted_model_is_semantic_failure(cross4, registry):
    source = (
        "TRUCK_MODEL = vehicle.carlamotors.carlacola\n"
        "ego = new Car at (0, 0)\n"
    )
    report = check_validity(source, registry, cross4, seed=1)
    assert report.syntactic
    assert not report.semantic
    assert not report.executable
    assert any(
        d.message == "name 'vehicle' is not defined" for d in report.diagnostics
    )


def test_parse_failure_is_syntactic_failure(cross4, registry):
    report = check_validity("=", registry, cross4, seed=1)
    assert not report.syntactic
    assert not report.valid


def test_unsatisfiable_program_is_execution_failure(cross4, registry):
    source = "ego = new Car at (0, 0)\nrequire False\n"
    report = check_validity(source, registry, cross4, seed=1, max_rejections=5)
    assert report.syntactic and report.semantic
    assert not report.executable
    assert any("execution failed" in d.message for d in report.diagnostics)


# --- evaluator bounds -----------------------------------------------------------


def execution_messages(source, registry, cross4):
    report = check_validity(source, registry, cross4, seed=1)
    assert report.syntactic and report.semantic
    return [d.message for d in report.diagnostics]


@pytest.mark.parametrize(
    "source, message",
    [
        ("X = 1e308 * 10\nego = new Car at (0, X - X)\n",
         "execution failed: line 1: '*' gave a non-finite number (inf)"),
        ("X = 1e308\nego = new Car at (0, X + X)\n",
         "execution failed: line 2: '+' gave a non-finite number (inf)"),
        ("X = 1e308\nY = 1e-10\nego = new Car at (0, -X / Y)\n",
         "execution failed: line 3: '/' gave a non-finite number (-inf)"),
    ],
    ids=["product", "sum", "quotient"],
)
def test_non_finite_arithmetic_is_an_execution_diagnostic(source, message, registry, cross4):
    assert execution_messages(source, registry, cross4) == [message]


def test_finite_arithmetic_near_the_limit_is_valid(registry, cross4):
    report = check_validity(
        "X = 1e308 * 1.5 - 1e308\nego = new Car at (0, X / 1e308)\n", registry, cross4, seed=1
    )
    assert report.valid
    assert report.scene.placements["ego"].position == (0.0, 0.5)


@pytest.mark.parametrize(
    "value",
    ["[0] * 10000000", "10000000 * (0, 1)", "'ab' * 50001", "[0] * 60000 + [1] * 40001"],
    ids=["list-times", "times-tuple", "string", "list-plus"],
)
def test_oversized_sequence_is_rejected_before_it_is_built(value, registry, cross4):
    start = time.perf_counter()
    messages = execution_messages(
        f"X = {value}\nego = new Car at (0, 0)\n", registry, cross4
    )
    assert time.perf_counter() - start < 1.0
    op = "+" if "+" in value else "*"
    assert messages == [
        f"execution failed: line 1: '{op}' would build a sequence of more than 100000 items"
    ]


@pytest.mark.parametrize(
    "value",
    [
        "[0] * 100000",
        "'ab' * 50000",
        "[0] * 60000 + [1] * 40000",
        "[" + ", ".join(str(i) for i in range(5000)) + "]",
    ],
    ids=["list-at-limit", "string-at-limit", "sum-at-limit", "5000-element-list"],
)
def test_sequences_within_the_bound_are_valid(value, registry, cross4):
    report = check_validity(f"X = {value}\nego = new Car at (0, 0)\n", registry, cross4, seed=1)
    assert report.valid, report.diagnostics
