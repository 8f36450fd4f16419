from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scenforge.bundled import bundled_map, bundled_registry
from scenforge.distributions import (
    DistributionSpec,
    _inverse_normal_cdf,
    _normal_cdf,
    distribution_from_expr,
    distribution_to_source,
    sample_value,
)
from scenforge.errors import SceneEvaluationError
from scenforge.scene import check_validity, instantiate_scene
from scenforge.scenic import ast, compile_section, parse_program, parse_section


def test_range_degenerate_is_exact():
    spec = DistributionSpec.uniform_range(10, 10)
    rng = random.Random(0)
    assert all(sample_value(spec, rng) == 10.0 for _ in range(100))


def test_uniform_choice_single_option():
    spec = DistributionSpec.uniform_choice(["a"])
    assert sample_value(spec, random.Random(1)) == "a"


def test_uniform_choice_is_equiprobable():
    spec = DistributionSpec.uniform_choice(["a", "b", "c", "d"])
    rng = random.Random(5)
    counts = {option: 0 for option in spec.args}
    n = 20_000
    for _ in range(n):
        counts[sample_value(spec, rng)] += 1
    for count in counts.values():
        # 5 sigma of a Binomial(n, 1/4)
        assert abs(count - n / 4) < 5 * math.sqrt(n * 0.25 * 0.75)


def test_truncated_samples_respect_bounds():
    spec = DistributionSpec.truncated_normal(0.95, 0.05, 0.9, 1.0)
    rng = random.Random(11)
    for _ in range(10_000):
        assert 0.9 <= sample_value(spec, rng) <= 1.0


def test_truncated_fallback_region_still_in_bounds():
    # acceptance region ~9 sigma out: rejection cannot land, inverse-CDF
    # fallback must kick in and stay within bounds
    spec = DistributionSpec.truncated_normal(0, 1, 9.0, 9.5)
    rng = random.Random(3)
    for _ in range(50):
        assert 9.0 <= sample_value(spec, rng) <= 9.5


def test_normal_sample_mean_matches_monte_carlo_bound():
    # oracle: standard error of the mean is sigma/sqrt(N); 4 sigma bound
    rng = random.Random(123)
    spec = DistributionSpec.normal(10, 1)
    n = 10_000
    mean = sum(sample_value(spec, rng) for _ in range(n)) / n
    assert abs(mean - 10.0) < 4 / math.sqrt(n)


def test_invalid_parameters_raise():
    with pytest.raises(ValueError):
        DistributionSpec.normal(0, 0)
    with pytest.raises(ValueError):
        DistributionSpec.truncated_normal(0, 1, 2, 2)
    with pytest.raises(ValueError):
        DistributionSpec.uniform_range(3, 2)
    with pytest.raises(ValueError):
        DistributionSpec.uniform_choice([])


@given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
@settings(max_examples=300, deadline=None)
def test_inverse_cdf_inverts_cdf(p):
    z = _inverse_normal_cdf(p)
    assert abs(_normal_cdf(z) - p) < 1e-8


def test_inverse_cdf_edges():
    assert _inverse_normal_cdf(0.5) == pytest.approx(0.0, abs=1e-9)
    assert _inverse_normal_cdf(0.0) == -math.inf
    assert _inverse_normal_cdf(1.0) == math.inf


def _expr_of(source: str):
    result = parse_section(f"X = {source}", "constants")
    assert result.ok
    return result.statements[0].value


@pytest.mark.parametrize(
    "source,expected",
    [
        ("Normal(10, 1)", DistributionSpec.normal(10, 1)),
        (
            "TruncatedNormal(0.95, 0.05, 0.9, 1.0)",
            DistributionSpec.truncated_normal(0.95, 0.05, 0.9, 1.0),
        ),
        ("Range(-5, 5)", DistributionSpec.uniform_range(-5, 5)),
        ("Uniform('a', 'b')", DistributionSpec.uniform_choice(["a", "b"])),
        ("Normal(5 + 5, 2 / 2)", DistributionSpec.normal(10, 1)),
    ],
)
def test_distribution_from_expr(source, expected):
    assert distribution_from_expr(_expr_of(source)) == expected


@pytest.mark.parametrize("source", ["Normal(10)", "Normal(10, 0)", "foo(1)", "10"])
def test_distribution_from_expr_rejects(source):
    assert distribution_from_expr(_expr_of(source)) is None


def test_distribution_to_source_round_trips():
    for spec in (
        DistributionSpec.normal(10, 1),
        DistributionSpec.truncated_normal(0.95, 0.05, 0.9, 1.0),
        DistributionSpec.uniform_range(0, 20),
        DistributionSpec.uniform_choice(["a", "b"]),
    ):
        rendered = distribution_to_source(spec)
        assert distribution_from_expr(_expr_of(rendered)) == spec


def test_sampling_is_deterministic_per_seed():
    spec = DistributionSpec.normal(0, 1)
    a = [sample_value(spec, random.Random(42)) for _ in range(5)]
    b = [sample_value(spec, random.Random(42)) for _ in range(5)]
    assert a == b


# --- runtime messages of constructors the validator cannot fold ----------------


@pytest.mark.parametrize(
    "constants, message",
    [
        ("X = Range(0, 0)\nN = Normal(1, X)\n",
         "Normal: standard deviation must be positive"),
        ("A = Range(5, 5)\nR = Range(A, 0)\n",
         "Range: range bounds inverted (low must not exceed high)"),
        ("A = Range(5, 5)\nT = TruncatedNormal(0, 1, A, A)\n",
         "TruncatedNormal: truncation bounds inverted (low must be less than high)"),
        ("X = Uniform('a')\nN = Normal(X, 1)\n",
         "Normal: could not convert string to float: 'a'"),
    ],
    ids=["stddev", "range-bounds", "truncation-bounds", "not-a-number"],
)
def test_a_sampled_argument_breaks_a_rule_at_execution(constants, message):
    source = constants + "ego = new Car at (0, 0)\n"
    report = check_validity(source, bundled_registry(), bundled_map("cross4"), seed=0)
    assert [(d.message, d.line, d.col) for d in report.diagnostics] == [
        (f"execution failed: {message}", 1, 1)
    ]


# --- one rule, four readers ----------------------------------------------------

NUMBERS = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def distribution_calls(draw):
    """A constructor name and 0-5 literal arguments; strings only for Uniform."""
    name = draw(st.sampled_from(sorted(ast.DIST_FUNCTIONS)))
    values = st.one_of(NUMBERS, st.text("abc", max_size=3)) if name == "Uniform" else NUMBERS
    return name, draw(st.lists(values, max_size=5))


@given(distribution_calls())
@example(("Uniform", []))
@example(("TruncatedNormal", [0.0, -1.0, 2.0, 1.0]))
@settings(max_examples=300, deadline=None)
def test_the_validator_specs_and_scene_apply_one_rule(call):
    name, args = call
    expr_source = f"{name}({', '.join(map(repr, args))})"
    source = f"X = {expr_source}\n"
    _, diagnostics = compile_section(source, "constants", bundled_registry())
    messages = [d.message for d in diagnostics]
    program = parse_program(source).program
    try:
        spec = DistributionSpec.of(name, args)
    except ValueError as exc:
        assert messages == ast.distribution_errors(name, args) and messages[0] == str(exc)
        assert distribution_from_expr(_expr_of(expr_source)) is None
        with pytest.raises(SceneEvaluationError) as raised:
            instantiate_scene(program, bundled_map("cross4"), seed=0)
        assert str(raised.value) == f"{name}: {exc}"
    else:
        assert messages == []
        assert distribution_from_expr(_expr_of(expr_source)) == spec
        instantiate_scene(program, bundled_map("cross4"), seed=0)


def test_an_empty_starred_uniform_fails_at_execution_with_the_rule():
    source = "L = []\nX = Uniform(*L)\nego = new Car at (0, 0)\n"
    report = check_validity(source, bundled_registry(), bundled_map("cross4"), seed=0)
    assert [(d.message, d.line, d.col) for d in report.diagnostics] == [
        ("execution failed: Uniform: Uniform requires at least one option", 1, 1)
    ]
    with pytest.raises(ValueError, match="^Uniform requires at least one option$"):
        DistributionSpec.uniform_choice([])
