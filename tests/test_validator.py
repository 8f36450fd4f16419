from __future__ import annotations

import random

import pytest

from scenforge.scene import _SceneEvaluator, check_validity
from scenforge.scenic import (
    ModelRegistry,
    ast,
    compile_section,
    default_registry,
    parse_expression,
    parse_program,
    validate,
)
from scenforge.scenic.validator import BUILTIN_FUNCTIONS, BUILTIN_VALUES

UNQUOTED_FRAGMENT = """\
EGO_MODEL = 'vehicle.lincoln.mkz_2017'
EGO_SPEED = 10
EGO_TURN_SIGNAL = 'left'
TRUCK_MODEL = vehicle.carlamotors.carlacola
TRUCK_SPEED = 10
TRUCK_TURN_SIGNAL = 'straight'
"""

QUOTED_FRAGMENT = UNQUOTED_FRAGMENT.replace(
    "= vehicle.carlamotors.carlacola", "= 'vehicle.carlamotors.carlacola'"
)


@pytest.fixture(scope="module")
def registry():
    return default_registry()


def messages(diagnostics):
    return [d.message for d in diagnostics]


def test_unquoted_model_is_an_undefined_name(registry):
    _, diagnostics = compile_section(UNQUOTED_FRAGMENT, "constants", registry)
    assert any(m == "name 'vehicle' is not defined" for m in messages(diagnostics))


def test_quoted_model_in_registry_is_clean(registry):
    _, diagnostics = compile_section(QUOTED_FRAGMENT, "constants", registry)
    assert diagnostics == []


def test_quoted_model_missing_from_registry(registry):
    source = "M = 'vehicle.fake.nothere'"
    _, diagnostics = compile_section(source, "constants", registry)
    assert any("unknown vehicle model" in m for m in messages(diagnostics))


def test_whole_program_validation_needs_exactly_one_ego(registry):
    none = parse_program("X = 1").program
    assert any("ego" in m for m in messages(validate(none, registry)))
    two = parse_program(
        "ego = new Car at (0, 0)\nego = new Car at (1, 1)\n"
    ).program
    assert any("multiple" in m.lower() for m in messages(validate(two, registry)))
    one = parse_program("ego = new Car at (0, 0)").program
    assert validate(one, registry) == []


def test_undefined_name_position_is_reported(registry):
    program = parse_program("ego = new Car at (0, 0)\nrequire missing > 1\n").program
    (diag,) = validate(program, registry)
    assert diag.message == "name 'missing' is not defined"
    assert diag.line == 2


def test_unknown_object_class(registry):
    program = parse_program("ego = new Spaceship at (0, 0)").program
    assert any("not a registered object class" in m for m in messages(validate(program, registry)))


def test_object_class_matching_is_case_insensitive():
    registry = ModelRegistry.create(["vehicle.x.y"], ["CAR"])
    program = parse_program("ego = new Car at (0, 0)").program
    assert validate(program, registry) == []


def test_truncated_normal_bounds_inverted(registry):
    _, diagnostics = compile_section(
        "T = TruncatedNormal(5, 1, 6, 4)", "constants", registry
    )
    assert any("truncation bounds inverted" in m for m in messages(diagnostics))


def test_sigma_must_be_positive(registry):
    _, diagnostics = compile_section("N = Normal(10, 0)", "constants", registry)
    assert any("standard deviation must be positive" in m for m in messages(diagnostics))


def test_distribution_arity_checked(registry):
    _, diagnostics = compile_section("N = Normal(10)", "constants", registry)
    assert any("Normal expects 2 arguments" in m for m in messages(diagnostics))
    _, diagnostics = compile_section("U = Uniform()", "constants", registry)
    assert any("Uniform requires at least one option" in m for m in messages(diagnostics))


@pytest.mark.parametrize(
    "source, message",
    [
        ("N = Normal(mean=10, stddev=1)", "Normal takes positional numeric arguments only"),
        ("U = Uniform('a', k=1)", "Uniform takes no keyword arguments"),
        ("U = Uniform(k=1)", "Uniform takes no keyword arguments"),
    ],
    ids=["fixed-parameters", "uniform", "uniform-keywords-only"],
)
def test_distribution_keywords_are_rejected_before_execution(registry, source, message):
    _, diagnostics = compile_section(source, "constants", registry)
    assert messages(diagnostics) == [message]


def test_degenerate_range_is_legal(registry):
    _, diagnostics = compile_section("R = Range(10, 10)", "constants", registry)
    assert diagnostics == []


def test_folded_arithmetic_reaches_distribution_checks(registry):
    _, diagnostics = compile_section("N = Normal(10, 2 - 2)", "constants", registry)
    assert any("standard deviation" in m for m in messages(diagnostics))


def test_do_target_must_resolve(registry):
    program = parse_program(
        "behavior B():\n    do Missing(1)\n\nego = new Car at (0, 0)\n"
    ).program
    assert any("behavior 'Missing' is not defined" in m for m in messages(validate(program, registry)))


def test_behavior_arity_enforced(registry):
    program = parse_program(
        "behavior B(a, b):\n    wait\n\n"
        "ego = new Car at (0, 0), with behavior B(1)\n"
    ).program
    assert any("expects 2 argument(s)" in m for m in messages(validate(program, registry)))


def test_behavior_kwarg_names_checked(registry):
    program = parse_program(
        "behavior B(a):\n    wait\n\n"
        "ego = new Car at (0, 0), with behavior B(nope=1)\n"
    ).program
    assert any("no parameter 'nope'" in m for m in messages(validate(program, registry)))


def test_duplicate_behavior_reported(registry):
    program = parse_program(
        "behavior B():\n    wait\n\nbehavior B():\n    wait\n\nego = new Car at (0, 0)\n"
    ).program
    assert any("defined more than once" in m for m in messages(validate(program, registry)))


def test_section_env_threads_between_sections(registry):
    constants, diags = compile_section("SPEED = 10", "constants", registry)
    assert not diags
    behaviors, diags = compile_section(
        "behavior Go():\n    do FollowLaneBehavior(SPEED)\n",
        "behaviors",
        registry,
        env={"SPEED"},
    )
    assert not diags
    _, diags = compile_section(
        "ego = new Car at (0, 0), with behavior Go()\n",
        "spatial",
        registry,
        env={"SPEED", "Go"},
        known_behaviors={"Go": ()},
    )
    assert diags == []


def test_spatial_section_requires_ego(registry):
    _, diags = compile_section("x = new Car at (0, 0)", "spatial", registry)
    assert any("ego" in m for m in messages(diags))


def test_validation_is_deterministic(registry):
    program = parse_program(UNQUOTED_FRAGMENT).program
    first = validate(program, registry)
    second = validate(program, registry)
    assert first == second


# --- exact texts of the single-ego rule and of folded parameters -----------------


def triples(diagnostics):
    return [(d.message, d.line, d.col) for d in diagnostics]


NO_EGO = "x = new Car at (0, 0)\nrequire missing > 1\n"
TWO_EGOS = "ego = new Car at (0, 0)\nego = new Truck at (1, 1)\nrequire missing > 1\n"
ONE_EGO = "ego = new Car at (0, 0)\nrequire missing > 1\n"
UNDEFINED = ("name 'missing' is not defined", 2, 9)
UNDEFINED_AFTER_TWO = ("name 'missing' is not defined", 3, 9)
MULTIPLE = ("multiple object declarations bind 'ego'", 1, 1)


def test_ego_rule_exact_texts_for_whole_programs(registry):
    def check(source):
        return triples(validate(parse_program(source).program, registry))

    assert check(NO_EGO) == [UNDEFINED, ("program does not declare an object named 'ego'", 1, 1)]
    assert check(TWO_EGOS) == [UNDEFINED_AFTER_TWO, MULTIPLE]
    assert check(ONE_EGO) == [UNDEFINED]


def test_ego_rule_exact_texts_for_spatial_sections(registry):
    def check(source):
        return triples(compile_section(source, "spatial", registry)[1])

    assert check(NO_EGO) == [
        UNDEFINED, ("spatial section does not declare an object named 'ego'", 1, 1)
    ]
    assert check(TWO_EGOS) == [UNDEFINED_AFTER_TWO, MULTIPLE]
    assert check(ONE_EGO) == [UNDEFINED]


def test_ego_rule_is_not_applied_to_other_sections(registry):
    assert compile_section("X = 1", "constants", registry)[1] == []
    assert compile_section("behavior B():\n    wait\n", "behaviors", registry)[1] == []


SIGMA = ("standard deviation must be positive", 2, 11)


def test_names_fold_from_earlier_constants(registry):
    source = "S = 2 - 2\nN = Normal(1, S)\n"
    assert triples(compile_section(source, "constants", registry)[1]) == [SIGMA]
    program = parse_program(source + "\nego = new Car at (0, 0)\n").program
    assert triples(validate(program, registry)) == [SIGMA]
    # a constants section folds into a later section's distribution checks
    spatial = "ego = new Car at (0, 0), with speed Range(S, 0 - 1)\n"
    program = parse_program("S = 1\n\n" + spatial).program
    assert triples(validate(program, registry)) == [
        ("range bounds inverted (low must not exceed high)", 3, 42)
    ]


def test_zero_divisor_does_not_fold(registry):
    assert compile_section("N = Normal(1, 0 / 0)", "constants", registry)[1] == []
    assert compile_section("R = Range(1 / 0, 0)", "constants", registry)[1] == []
    _, diagnostics = compile_section("S = 1 / 0\nN = Normal(1, S)", "constants", registry)
    assert diagnostics == []


def test_fold_gives_up_past_depth_32(registry):
    at_limit = "N = Normal(1, " + "+ " * 32 + "0)"
    past_limit = "N = Normal(1, " + "+ " * 33 + "0)"
    assert triples(compile_section(at_limit, "constants", registry)[1]) == [
        ("standard deviation must be positive", 1, 11)
    ]
    assert compile_section(past_limit, "constants", registry)[1] == []


def test_fold_number_rules():
    def fold(source, names=None):
        return ast.fold_number(parse_expression(source), names)

    assert fold("-(2 + 3) * 4 / 8") == -2.5
    assert fold("S * 2", {"S": 1.5}) == 3.0
    assert fold("S * 2") is None
    assert fold("S * 2", {"T": 1.0}) is None
    assert fold("1 / (2 - 2)") is None
    assert fold("1" + "0" * 400) is None
    assert fold("1" + "0" * 300) == 1e300
    assert fold("+ " * 32 + "7") == 7.0
    assert fold("+ " * 33 + "7") is None
    assert fold("Normal(1, 2)") is None
    assert fold("'text'") is None


def test_fold_number_gives_none_for_a_non_finite_result():
    def fold(source, names=None):
        return ast.fold_number(parse_expression(source), names)

    assert fold("1e308 * 10") is None
    assert fold("-1e308 * 10") is None
    assert fold("1e308 + 1e308") is None
    assert fold("1 / 1e-320") is None
    assert fold("S * 10", {"S": 1e308}) is None
    assert fold("(1e308 * 10) - (1e308 * 10)") is None  # inf - inf is nan
    assert fold("1e308 * 10 * 0") is None
    assert fold("1e308 * 1") == 1e308
    assert fold("1e308 + 1e308 - 1e308") is None


@pytest.mark.parametrize(
    "call",
    ["Range(1e308 * 10, 0)", "Normal(0, -1e308 * 10)", "TruncatedNormal(0, 1, 1e308 * 10, 0)"],
)
def test_validator_leaves_a_non_finite_fold_to_the_scene(call, registry, cross4):
    # the folder used to hand the validator inf, which it read as inverted
    # bounds or a negative deviation; the evaluator names the real cause
    source = f"X = {call}\nego = new Car at (0, 0)\n"
    result = "-inf" if "-1e308" in call else "inf"
    assert validate(parse_program(source).program, registry) == []
    assert messages(check_validity(source, registry, cross4, seed=1).diagnostics) == [
        f"execution failed: line 1: '*' gave a non-finite number ({result})"
    ]


def test_the_scene_installs_exactly_the_builtins_the_validator_knows(cross4):
    evaluator = _SceneEvaluator(ast.Program(), cross4, random.Random(0))
    assert set(evaluator.env) == BUILTIN_VALUES | BUILTIN_FUNCTIONS
