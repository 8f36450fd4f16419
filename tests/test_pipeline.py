from __future__ import annotations

import json
from dataclasses import replace

import pytest

from scenforge import prompts
from scenforge.errors import BackendUnavailable, MarkerMissing, RepairExhausted
from scenforge.gateway import Gateway, MemoryCache, PlaybackBackend
from scenforge.pipeline import (
    BASELINE_STRATEGIES,
    PipelineConfig,
    PromptFactory,
    RetrievalSetup,
    max_backend_calls,
    repair_section,
    run_baseline,
    run_pipeline,
    run_report,
    stage_answers,
    stage_objects,
    stage_questions,
    transcript_from_traces,
    write_run_result,
)
from scenforge.distributions import DistributionSpec
from scenforge.reports import load_report
from scenforge.retrieval import LocalHashEmbedder, VectorStore
from scenforge.scene import check_validity
from scenforge.scenic import ast, compile_section, parse_expression
from support import (
    ANSWERS_REPLY,
    CONSTANTS_SECTION,
    CONSTANTS_SECTION_UNQUOTED_TRUCK,
    OBJECTS_REPLY,
    SPATIAL_SECTION,
    CallableBackend,
    bench_module,
    drive,
    happy_transcript,
    has_non_finite_literal,
    playback,
    repair_transcript,
    stage_router,
    write_report,
)


@pytest.fixture
def report(tmp_path):
    return load_report(write_report(tmp_path))


@pytest.fixture
def factory():
    return PromptFactory("default-model")


def gateway_for(transcript_or_backend):
    backend = (
        transcript_or_backend
        if hasattr(transcript_or_backend, "invoke")
        else playback(transcript_or_backend)
    )
    return Gateway(backend, cache=MemoryCache())


# --- individual stages ---------------------------------------------------------


def test_stage_objects_parses_final_answer(report, factory):
    gateway = gateway_for({"r1/objects": [OBJECTS_REPLY]})
    objects = drive(gateway, stage_objects(report, gateway, factory))
    assert objects == ["Cruise AV", "Bicyclist"]


def test_stage_objects_excludes_expert_only_candidates(report, factory):
    # fender and intersection appear in expert lists but not the final block
    gateway = gateway_for({"r1/objects": [OBJECTS_REPLY]})
    objects = drive(gateway, stage_objects(report, gateway, factory))
    assert not any("fender" in o.lower() for o in objects)
    assert not any("intersection" in o.lower() for o in objects)


def test_stage_objects_reprompts_once_for_marker(report, factory):
    gateway = gateway_for(
        {"r1/objects": ["chatty reply without the block", "FINAL ANSWER:\n1. Cruise AV"]}
    )
    objects = drive(gateway, stage_objects(report, gateway, factory))
    assert objects == ["Cruise AV"]


def test_stage_objects_marker_missing_after_reprompt(report, factory):
    gateway = gateway_for({"r1/objects": ["nope", "still nope"]})
    with pytest.raises(MarkerMissing):
        drive(gateway, stage_objects(report, gateway, factory))


def test_stage_questions_appends_templates_for_missing_facets(report, factory):
    gateway = gateway_for({"r1/questions": ["1. What color is the sky?"]})
    questions = drive(
        gateway, stage_questions(report, ["Cruise AV", "Bicyclist"], gateway, factory)
    )
    lowered = " | ".join(q.lower() for q in questions)
    for facet_hint in ("speed", "position", "type"):
        assert facet_hint in lowered
    assert "weather" in lowered
    assert "road" in lowered


def test_stage_questions_deduplicates_case_insensitively(report, factory):
    gateway = gateway_for(
        {"r1/questions": ["1. What was the weather?\n2. WHAT WAS THE WEATHER?"]}
    )
    questions = drive(gateway, stage_questions(report, [], gateway, factory))
    weather = [q for q in questions if "weather" in q.lower()]
    assert len(weather) == 1


def test_stage_questions_zero_model_questions_still_covered(report, factory):
    gateway = gateway_for({"r1/questions": [""]})
    questions = drive(gateway, stage_questions(report, ["Cruise AV"], gateway, factory))
    assert len(questions) >= 5  # 3 facets + weather + road


def test_stage_answers_parses_distributions_and_directs(report, factory):
    gateway = gateway_for({"r1/answers": [ANSWERS_REPLY]})
    answers = drive(gateway, stage_answers(report, ["q"], gateway, factory))
    by_label = {a.label: a for a in answers}
    assert by_label["BIKE_SPEED"].value == DistributionSpec.normal(10, 1)
    assert by_label["weather"].value == "clear"


def test_stage_answers_reformat_reprompt_then_success(report, factory):
    gateway = gateway_for(
        {
            "r1/answers": [
                "BIKE_SPEED = Normal(10 1)\nweather: clear",
                "BIKE_SPEED = Normal(10, 1)",
            ]
        }
    )
    answers = drive(gateway, stage_answers(report, ["q"], gateway, factory))
    by_label = {a.label: a for a in answers}
    assert by_label["BIKE_SPEED"].value == DistributionSpec.normal(10, 1)
    assert by_label["BIKE_SPEED"].source == "reprompt"


def test_the_reformat_reminder_names_the_constructors_as_before(report, factory):
    request = factory.answers_request(report, ["q"])
    reminder = factory.answers_reformat(request, "reply", ["X = Normal(1 2)"]).messages[-1].content
    assert reminder == (
        "These answers were not parseable distribution assignments:\n"
        "X = Normal(1 2)\n"
        "Rewrite only these answers, one per line, each in the exact "
        "form NAME = Normal(mean, stddev) or NAME = "
        "TruncatedNormal(mean, stddev, low, high) or NAME = Range(low, "
        "high) or NAME = Uniform(option, ...)."
    )


def test_the_tutorial_names_each_constructor_as_the_table_gives_it():
    tutorial = " ".join(prompts.LANGUAGE_TUTORIAL.split())
    assert len(prompts.DISTRIBUTION_SIGNATURES) == len(ast.DISTRIBUTIONS)
    for name, signature in zip(ast.DISTRIBUTIONS, prompts.DISTRIBUTION_SIGNATURES):
        assert signature.startswith(f"{name}(") and signature in tutorial


def test_stage_answers_falls_back_to_range(report, factory):
    gateway = gateway_for(
        {
            "r1/answers": [
                "BIKE_SPEED = Normal(10 1)",
                "BIKE_SPEED = Uniform(",
            ]
        }
    )
    answers = drive(gateway, stage_answers(report, ["q"], gateway, factory))
    (answer,) = [a for a in answers if a.label == "BIKE_SPEED"]
    assert answer.source == "fallback"
    assert answer.value == DistributionSpec.uniform_range(0.0, 20.0)


# --- repair -------------------------------------------------------------------


def test_repair_section_fixes_unquoted_model(report, factory, config):
    _, diagnostics = compile_section(
        CONSTANTS_SECTION_UNQUOTED_TRUCK, "constants", config.registry
    )
    assert diagnostics
    gateway = gateway_for(
        {
            "r1/repair:constants": [
                CONSTANTS_SECTION_UNQUOTED_TRUCK.replace(
                    "= vehicle.carlamotors.carlacola",
                    "= 'vehicle.carlamotors.carlacola'",
                )
            ]
        }
    )
    text, statements, attempts = drive(gateway, repair_section(
        "constants", CONSTANTS_SECTION_UNQUOTED_TRUCK, diagnostics, gateway,
        factory, budget=5, registry=config.registry, report_id="r1",
    ))
    assert attempts == 1
    assert "'vehicle.carlamotors.carlacola'" in text
    assert statements is not None


def test_repair_zero_budget_raises_immediately(report, factory, config):
    gateway = gateway_for({})
    with pytest.raises(RepairExhausted):
        drive(gateway, repair_section(
            "constants", "X = ", [], gateway, factory, budget=0,
            registry=config.registry, report_id="r1",
        ))


def test_repair_exhausts_after_exactly_budget_attempts(report, factory, config):
    backend = CallableBackend(lambda req: "STILL = (((")
    gateway = Gateway(backend, cache=MemoryCache())
    _, diagnostics = compile_section("X = ", "constants", config.registry)
    with pytest.raises(RepairExhausted):
        drive(gateway, repair_section(
            "constants", "X = ", diagnostics, gateway, factory, budget=4,
            registry=config.registry, report_id="r1",
        ))
    assert backend.call_count == 4


def test_repair_prompt_carries_compiler_message(report, factory, config):
    prompts_seen = []

    def respond(request):
        prompts_seen.append(request.messages[-1].content)
        return "FIXED = 1"

    gateway = Gateway(CallableBackend(respond), cache=MemoryCache())
    _, diagnostics = compile_section(
        "TRUCK_MODEL = vehicle.carlamotors.carlacola", "constants", config.registry
    )
    drive(gateway, repair_section(
        "constants", "TRUCK_MODEL = vehicle.carlamotors.carlacola", diagnostics,
        gateway, factory, budget=1, registry=config.registry, report_id="r1",
    ))
    prompt = prompts_seen[0]
    assert "name 'vehicle' is not defined" in prompt
    assert "output a modified version" in prompt
    assert "compiler error does not appear" in prompt


# --- whole pipeline runs ------------------------------------------------------------


def test_run_pipeline_happy_path(report, config):
    gateway = gateway_for(happy_transcript())
    result = run_pipeline(report, config, gateway)
    assert result.success
    assert result.validity.valid
    assert result.final_program and "ego" in result.final_program
    assert result.repairs == {
        "constants": 0, "behaviors": 0, "spatial": 0, "program": 0,
    }
    stages = [t.stage for t in result.traces]
    assert stages[:3] == ["objects", "questions", "answers"]
    assert "section:constants" in stages


def test_run_pipeline_success_revalidates_independently(report, config):
    gateway = gateway_for(happy_transcript())
    result = run_pipeline(report, config, gateway)
    assert result.success
    recheck = check_validity(
        result.final_program, config.registry, config.network, config.seed
    )
    assert recheck.valid


def test_run_pipeline_with_injected_error_repairs_once(report, config):
    gateway = gateway_for(repair_transcript())
    result = run_pipeline(report, config, gateway)
    assert result.success
    assert result.repairs["constants"] == 1
    assert result.repairs["behaviors"] == 0
    trace = next(t for t in result.traces if t.stage == "section:constants")
    assert trace.outcome == "repaired"
    assert len(trace.interactions) == 2  # generation + one repair


def test_run_pipeline_unfixable_fails_at_constants(report, config):
    transcript = happy_transcript()
    transcript["r1/section:constants"] = ["BROKEN = ((("]
    transcript["r1/repair:constants"] = ["BROKEN = ((("] * config.section_retry_budget
    gateway = gateway_for(transcript)
    result = run_pipeline(report, config, gateway)
    assert not result.success
    assert result.failure.startswith("section:constants")
    # a package error's own text, without its type
    assert result.failure == (
        "section:constants: constants section still broken after 5 repair attempt(s)"
    )
    assert result.final_program is None
    assert result.repairs["constants"] == config.section_retry_budget


def test_run_pipeline_budget_termination_exact(report, registry, cross4):
    config = PipelineConfig(
        registry=registry, network=cross4, section_retry_budget=3
    )
    backend = CallableBackend(stage_router("BROKEN = ((("))
    gateway = Gateway(backend, cache=MemoryCache())
    result = run_pipeline(report, config, gateway)
    assert not result.success
    assert result.repairs["constants"] == 3
    trace = next(t for t in result.traces if t.stage == "section:constants")
    # one constrained generation plus exactly budget repair attempts
    assert len(trace.interactions) == 1 + 3


def test_run_pipeline_never_panics_on_playback_miss(report, config):
    gateway = gateway_for({})  # no scripted responses at all
    result = run_pipeline(report, config, gateway)
    assert not result.success
    assert result.failure.startswith("objects")


def test_run_pipeline_deterministic_under_playback(report, config):
    first = run_pipeline(report, config, gateway_for(happy_transcript()))
    second = run_pipeline(report, config, gateway_for(happy_transcript()))
    assert first.final_program == second.final_program
    assert first.success and second.success


def test_backend_call_budget_bound(report, config):
    gateway = gateway_for(happy_transcript())
    result = run_pipeline(report, config, gateway)
    bound = max_backend_calls(config, gateway.regeneration_budget)
    assert result.backend_calls <= bound


def test_trace_replay_reproduces_program(report, config):
    result = run_pipeline(report, config, gateway_for(happy_transcript()))
    transcript = transcript_from_traces(result)
    replay_backend = PlaybackBackend(by_digest=transcript["by_digest"])
    replayed = run_pipeline(report, config, Gateway(replay_backend, cache=MemoryCache()))
    assert replayed.final_program == result.final_program


def test_program_level_repair_fixes_unsatisfiable_require(report, config):
    transcript = happy_transcript()
    bad_spatial = SPATIAL_SECTION + "require False\n"
    transcript["r1/section:spatial"] = [bad_spatial]
    transcript["r1/repair:program"] = [
        "SPEED = 5\n\nego = new Car at (0, 0), with speed SPEED\nrequire SPEED > 0\n"
    ]
    gateway = gateway_for(transcript)
    result = run_pipeline(report, config, gateway)
    assert result.success
    assert result.repairs["program"] == 1
    finalize_trace = next(t for t in result.traces if t.stage == "finalize")
    assert finalize_trace.outcome == "repaired"


def test_program_level_repair_exhausts_to_failure(report, registry, cross4):
    config = PipelineConfig(registry=registry, network=cross4, program_retry_budget=2)
    transcript = happy_transcript()
    bad_spatial = SPATIAL_SECTION + "require False\n"
    transcript["r1/section:spatial"] = [bad_spatial]
    transcript["r1/repair:program"] = [
        "ego = new Car at (0, 0)\nrequire False\n",
        "ego = new Car at (0, 0)\nrequire False\n",
    ]
    gateway = gateway_for(transcript)
    result = run_pipeline(report, config, gateway)
    assert not result.success
    assert result.repairs["program"] == 2
    assert result.final_program is not None  # last candidate kept for inspection
    assert not result.validity.executable


def test_valid_program_issues_zero_program_repair_prompts(report, config):
    gateway = gateway_for(happy_transcript())
    result = run_pipeline(report, config, gateway)
    assert result.success
    finalize_trace = next(t for t in result.traces if t.stage == "finalize")
    assert finalize_trace.interactions == []
    assert result.repairs["program"] == 0


def test_pipeline_with_retrieval_uses_hyde_draft(report, config):
    embedder = LocalHashEmbedder()
    store = VectorStore()
    store.upsert("ex1", "SPEED = 5\nego = new Car at (0, 0)", embedder)
    transcript = happy_transcript()
    transcript["r1/hyde_draft"] = ["SPEED = 5\nego = new Car at (0, 0)"]
    gateway = gateway_for(transcript)
    result = run_pipeline(
        report, config, gateway, RetrievalSetup(store=store, embedder=embedder)
    )
    assert result.success
    assert any(t.stage == "retrieve" for t in result.traces)


# --- baselines -----------------------------------------------------------------


VALID_PROGRAM = (
    "SPEED = Normal(5, 1)\n\n"
    "ego = new Car at (0, 0), with speed SPEED\n"
    "require SPEED > 0\n"
)


def test_zero_shot_is_single_call(report, config):
    backend = CallableBackend(lambda req: VALID_PROGRAM)
    gateway = Gateway(backend, cache=MemoryCache())
    result = run_baseline("zero_shot", report, config, gateway)
    assert backend.call_count == 1
    assert result.success
    assert result.validity.valid


def test_failed_baseline_records_validity(report, config):
    backend = CallableBackend(lambda req: "this is not a program")
    gateway = Gateway(backend, cache=MemoryCache())
    result = run_baseline("zero_shot", report, config, gateway)
    assert not result.success
    assert not result.validity.syntactic


def test_few_shot_prompt_contains_fixed_examples(report, config):
    seen = []

    def respond(request):
        seen.append(request.messages[0].content)
        return VALID_PROGRAM

    gateway = Gateway(CallableBackend(respond), cache=MemoryCache())
    run_baseline("few_shot", report, config, gateway)
    assert "Example program 1:" in seen[0]
    assert "Example program 3:" in seen[0]


def test_rag_prompt_contains_retrieved_programs(report, config):
    embedder = LocalHashEmbedder()
    store = VectorStore()
    for i in range(5):
        store.upsert(f"ex{i}", f"X{i} = {i}\nego = new Car at ({i}, 0)", embedder)
    seen = []

    def respond(request):
        seen.append(request.messages[0].content)
        return VALID_PROGRAM

    gateway = Gateway(CallableBackend(respond), cache=MemoryCache())
    result = run_baseline(
        "rag", report, config, gateway, RetrievalSetup(store=store, embedder=embedder)
    )
    assert result.success
    assert seen[0].count("Example program") == config.retrieval_k


def test_rag_hyde_issues_two_calls_draft_then_final(report, config):
    embedder = LocalHashEmbedder()
    store = VectorStore()
    store.upsert("ex", "SPEED = 1\nego = new Car at (0, 0)", embedder)
    stages = []

    def respond(request):
        stages.append(request.stage_tag)
        return VALID_PROGRAM

    backend = CallableBackend(respond)
    gateway = Gateway(backend, cache=MemoryCache())
    result = run_baseline(
        "rag_hyde", report, config, gateway,
        RetrievalSetup(store=store, embedder=embedder),
    )
    assert backend.call_count == 2
    assert stages == ["r1/hyde_draft", "r1/rag_hyde"]
    assert result.success


def test_constrained_baseline_generates_three_sections(report, config):
    replies = {
        "section:constants": "SPEED = Normal(5, 1)",
        "section:behaviors": "behavior Go(s):\n    do FollowLaneBehavior(s)",
        "section:spatial": "ego = new Car at (0, 0), with behavior Go(SPEED)",
    }

    def respond(request):
        stage = request.stage_tag.rsplit("/", 1)[-1]
        return replies[stage]

    backend = CallableBackend(respond)
    gateway = Gateway(backend, cache=MemoryCache())
    result = run_baseline("constrained", report, config, gateway)
    assert backend.call_count == 3
    assert result.success
    assert result.final_program.index("SPEED") < result.final_program.index("behavior")


def test_baselines_never_issue_repair_prompts(report, config):
    # broken output: with repair disabled the run must fail after one call
    backend = CallableBackend(lambda req: "BROKEN = (((")
    gateway = Gateway(backend, cache=MemoryCache())
    result = run_baseline("zero_shot", report, config, gateway)
    assert backend.call_count == 1
    assert not result.success


def test_unknown_baseline_strategy_rejected(report, config):
    with pytest.raises(ValueError):
        run_baseline("dspy", report, config, Gateway(CallableBackend(lambda r: "x"), cache=MemoryCache()))


def test_run_report_dispatches_on_strategy(report, registry, cross4):
    config = PipelineConfig(strategy="zero_shot", registry=registry, network=cross4)
    backend = CallableBackend(lambda req: VALID_PROGRAM)
    result = run_report(report, config, Gateway(backend, cache=MemoryCache()))
    assert result.strategy == "zero_shot"


# --- persistence ------------------------------------------------------------------


def test_write_run_result_files(report, config, tmp_path):
    result = run_pipeline(report, config, gateway_for(happy_transcript()))
    paths = write_run_result(result, tmp_path / "out")
    assert paths["program"].read_text().startswith("BIKE_SPEED")
    trace = paths["trace"].read_text()
    assert '"strategy": "compositional"' in trace
    validity = paths["validity"].read_text()
    assert '"valid": true' in validity


def test_persisted_trace_records_stage_cache_and_conformance(report, config, tmp_path):
    gateway = gateway_for(happy_transcript())
    run_pipeline(report, config, gateway)  # fills the cache
    result = run_pipeline(report, config, gateway)
    trace = json.loads(write_run_result(result, tmp_path)["trace"].read_text())
    assert trace["schema"] == 2
    by_stage = {t["stage"]: t["interactions"] for t in trace["traces"]}
    (objects,) = by_stage["objects"]
    assert objects["stage_tag"] == "r1/objects"
    assert (objects["cache"], objects["from_cache"]) == ("hit", True)
    assert objects["conformance"] is None
    assert objects["token_count"] == len(OBJECTS_REPLY.split())
    (constants,) = by_stage["section:constants"]
    assert constants["conformance"] == "verbatim"


# --- answer values parse as one expression ------------------------------------------

from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from reference_parser import reference_parse_section  # noqa: E402

from scenforge import prompts  # noqa: E402
from scenforge.distributions import distribution_from_expr  # noqa: E402
from scenforge.pipeline import _parse_assignment_value  # noqa: E402
from scenforge.scenic import TokenKind, ast, tokenize  # noqa: E402


def reference_assignment_value(label: str, rhs: str):
    """The answer parse before `parse_expression`: a whole constants-section
    parse of `label = rhs` on the reference parser."""
    result = reference_parse_section(f"{label} = {rhs}", "constants")
    if not result.ok or not result.statements:
        return None
    expr = result.statements[0].value
    spec = distribution_from_expr(expr)
    if spec is not None:
        return spec
    if isinstance(expr, (ast.NumberLit, ast.StringLit)):
        return expr.value
    if prompts.looks_like_distribution(rhs):
        return None
    return rhs


LABELS = ["SPEED", "x_1", "_", "at", "new", "True", "lambda", "not", "with", "Normal"]
RHS_FRAGMENTS = [
    "Normal(10, 1)", "TruncatedNormal(5, 1, 4, 6)", "Range(1, 2)", "Uniform('a', 'b')",
    "new Car", "new Car at (0, 0)", "1 = 2", "Normal(1, 2) x", "lambda v: v * 2",
    "# note", "5", "-3.5", "'red'", "\"it's\"", "(1, 2)", "[1, 2]", "a.b", "f(k=1)",
    "stationary", "about 10 mph", "1,", "(", ")", "=", "not", "and", "*", "1e3", "'open",
]


@st.composite
def answer_lines(draw):
    label = draw(st.sampled_from(LABELS) | st.from_regex(r"[A-Za-z_]\w{0,6}", fullmatch=True))
    rhs = " ".join(draw(st.lists(st.sampled_from(RHS_FRAGMENTS), min_size=1, max_size=4)))
    return f"{label} = {rhs}"


@given(answer_lines())
@example("at = 5")
@example("new = Normal(1, 2)")
@example("X = new Car at (0, 0)")
@example("X = 1 = 2")
@example("X = Normal(1, 2) x")
@example("X = lambda v: v")
@example("X = 5 # note")
@settings(max_examples=300, deadline=None)
def test_answer_value_matches_the_whole_section_parse(line):
    (answer,) = prompts.parse_answers(line)
    assume(answer.is_assignment and not has_non_finite_literal(answer.text))
    assert _parse_assignment_value(answer.label, answer.text) == reference_assignment_value(
        answer.label, answer.text
    )


def tokenize_label_rule(label: str) -> bool:
    """The label check before the keyword lookup: one identifier token."""
    tokens, errors = tokenize(label)
    return not errors and [t.kind for t in tokens] == [TokenKind.IDENT, TokenKind.EOF]


@given(st.sampled_from(LABELS) | st.from_regex(r"[A-Za-z_]\w*", fullmatch=True))
@example("A½")
@example("x²")
@example("_٣")
@example("AⅫ")
@settings(max_examples=500, deadline=None)
def test_answer_labels_are_names_unless_keywords_as_the_scanner_reads_them(label):
    # the labels _parse_assignment_value gets are the ones that match
    # the answer-line pattern
    match = prompts._ASSIGNMENT_LINE.match(f"{label} = 5")
    assume(match is not None and match[1] == label)
    assert (_parse_assignment_value(label, "5") == 5) == tokenize_label_rule(label)


@pytest.mark.parametrize(
    "deep",
    [
        "(" * 100 + "1" + ")" * 100,
        " + ".join(["1"] * 1500),
        "not " * 2000 + "a",
        "-" * 2000 + "1",
    ],
    ids=["parentheses", "sum", "nots", "minuses"],
)
def test_run_report_survives_deeply_nested_replies(report, config, deep):
    transcript = happy_transcript(constants=f"BIKE_SPEED = {deep}\n")
    transcript["r1/answers"] = [ANSWERS_REPLY.replace("Normal(10, 1)", deep)]
    result = run_report(report, config, gateway_for(transcript))
    assert not result.success
    assert result.failure.startswith("section:constants")


# --- integer literals too large for a float ------------------------------------

HUGE = "1" + "0" * 400  # 401 digits
HUGE_NORMAL = f"Normal(10, {HUGE})"


def test_huge_integer_sigma_compiles_without_a_verdict(registry):
    statements, diagnostics = compile_section(f"N = {HUGE_NORMAL}", "constants", registry)
    assert statements is not None
    assert diagnostics == []


def test_huge_integer_arithmetic_is_an_execution_diagnostic(registry, cross4):
    validity = check_validity(
        f"X = {HUGE} * 1.0\nego = new Car at (0, 0)\n", registry, cross4, seed=1
    )
    assert (validity.syntactic, validity.semantic, validity.executable) == (True, True, False)
    assert [d.message for d in validity.diagnostics] == [
        "execution failed: line 1: cannot evaluate BinOp: int too large to convert to float"
    ]


@pytest.mark.parametrize(
    "spatial",
    [
        f"X = {HUGE}\nego = new Car at (0, X)\n",
        f"ego = new Car following roadDirection from (0, 0) for {HUGE}\n",
        f"ego = new Car at (0, 0), with heading {HUGE}\n",
    ],
    ids=["position", "following", "heading"],
)
def test_huge_integer_placement_is_an_execution_diagnostic(spatial, registry, cross4):
    validity = check_validity(spatial, registry, cross4, seed=1)
    assert not validity.executable
    (diagnostic,) = validity.diagnostics
    assert diagnostic.message.endswith(": int too large to convert to float")


def test_huge_integer_answer_is_not_a_distribution():
    assert _parse_assignment_value("BIKE_SPEED", HUGE_NORMAL) is None
    assert distribution_from_expr(parse_expression(HUGE_NORMAL)) is None


def test_run_report_reprompts_a_huge_integer_answer(report, config):
    transcript = happy_transcript()
    transcript["r1/answers"] = [
        ANSWERS_REPLY.replace("Normal(10, 1)", HUGE_NORMAL),
        "BIKE_SPEED = Normal(10, 1)\n",
    ]
    result = run_report(report, config, gateway_for(transcript))
    assert result.success
    assert len(next(t for t in result.traces if t.stage == "answers").interactions) == 2


def test_run_report_repairs_a_huge_integer_constant(report, config):
    transcript = happy_transcript(
        constants=CONSTANTS_SECTION.replace("Normal(10, 1)", HUGE_NORMAL)
    )
    transcript["r1/repair:program"] = [
        "SPEED = 5\n\nego = new Car at (0, 0), with speed SPEED\n"
    ]
    result = run_report(report, config, gateway_for(transcript))
    assert result.success
    assert result.repairs == {
        "constants": 0, "behaviors": 0, "spatial": 0, "program": 1,
    }


# --- non-finite answers ------------------------------------------------------------

NON_FINITE_NORMAL = "Normal(1e308 * 10, 1)"


def test_non_finite_answer_is_not_a_distribution():
    # it folded to Normal(inf, 1), which render_answers wrote into every
    # section prompt as `Normal(inf, 1)`
    assert _parse_assignment_value("BIKE_SPEED", NON_FINITE_NORMAL) is None
    assert distribution_from_expr(parse_expression(NON_FINITE_NORMAL)) is None


def test_run_report_reprompts_a_non_finite_answer(report, config):
    transcript = happy_transcript()
    transcript["r1/answers"] = [
        ANSWERS_REPLY.replace("Normal(10, 1)", NON_FINITE_NORMAL),
        "BIKE_SPEED = Normal(10, 1)\n",
    ]
    result = run_report(report, config, gateway_for(transcript))
    assert result.success
    answers = next(t for t in result.traces if t.stage == "answers")
    assert len(answers.interactions) == 2
    assert "inf" not in json.dumps(result.final_program)


# --- run_report never raises ---------------------------------------------------------

bench_cases = bench_module("cases")

# the traces of a run whose first four stages succeed
_UP_TO_SECTIONS = [
    ("objects", "ok"), ("questions", "ok"), ("answers", "ok"), ("retrieve", "ok"),
]

# stage tag -> the stage the failed run names, the run's (stage, outcome)
# traces, and the backend calls made, the faulting call included
FAULT_STAGES = {
    "objects": ("objects", [("objects", "failed"), ("retrieve", "skipped")], 2),
    "hyde_draft": ("retrieve", [("objects", "ok"), ("retrieve", "failed")], 2),
    "questions": ("questions", [
        ("objects", "ok"), ("questions", "failed"), ("retrieve", "skipped"),
    ], 3),
    "answers": ("answers", [
        ("objects", "ok"), ("questions", "ok"), ("answers", "failed"),
        ("retrieve", "skipped"),
    ], 4),
    "section:constants": ("section:constants", _UP_TO_SECTIONS + [
        ("section:constants", "failed"), ("section:behaviors", "skipped"),
        ("section:spatial", "skipped"),
    ], 7),
    "section:behaviors": ("section:behaviors", _UP_TO_SECTIONS + [
        ("section:constants", "repaired"), ("section:behaviors", "failed"),
        ("section:spatial", "skipped"),
    ], 8),
    "section:spatial": ("section:spatial", _UP_TO_SECTIONS + [
        ("section:constants", "repaired"), ("section:behaviors", "ok"),
        ("section:spatial", "failed"),
    ], 8),
    "repair:constants": ("section:constants", _UP_TO_SECTIONS + [
        ("section:constants", "failed"), ("section:behaviors", "skipped"),
        ("section:spatial", "skipped"),
    ], 8),
    "repair:program": ("finalize", _UP_TO_SECTIONS + [
        ("section:constants", "repaired"), ("section:behaviors", "ok"),
        ("section:spatial", "ok"), ("finalize", "failed"),
    ], 9),
}


def _faulty_backend(case, fault_tag: str) -> CallableBackend:
    def respond(request):
        tag = request.stage_tag.rpartition("/")[2]
        if tag == fault_tag:
            raise RuntimeError(f"fault at {tag}")
        return case.replies[tag]

    return CallableBackend(respond)


def _store() -> RetrievalSetup:
    embedder = LocalHashEmbedder()
    store = VectorStore()
    store.upsert("ex1", "SPEED = 5\nego = new Car at (0, 0)", embedder)
    return RetrievalSetup(store=store, embedder=embedder)


@pytest.mark.parametrize("tag", list(FAULT_STAGES))
def test_a_backend_fault_at_any_stage_fails_the_run_at_that_stage(tag, config):
    case = bench_cases.make_case(1, 0, shape=(1, 1))  # a section and a program repair
    backend = _faulty_backend(case, tag)
    gateway = gateway_for(backend)
    try:
        result = run_report(case.report, config, gateway, _store())
    finally:
        gateway.close()
    stage, traces, calls = FAULT_STAGES[tag]
    assert not result.success
    assert result.final_program is None
    assert result.failure == f"{stage}: RuntimeError: fault at {tag}"
    assert [(t.stage, t.outcome) for t in result.traces] == traces
    assert backend.call_count == calls


@pytest.mark.parametrize("error", [BackendUnavailable, RuntimeError])
@pytest.mark.parametrize("fault_at", [1, 2])
def test_repairs_count_the_repair_replies_in_the_traces(config, error, fault_at):
    case = bench_cases.make_case(1, 0, shape=(1, 0))  # one constants repair
    attempts = []

    def respond(request):
        tag = request.stage_tag.rpartition("/")[2]
        if tag == "repair:constants":
            attempts.append(tag)
            if len(attempts) == fault_at:
                raise error("repair broke")
            return case.replies["section:constants"]  # still broken
        return case.replies[tag]

    gateway = gateway_for(CallableBackend(respond))
    try:
        result = run_report(case.report, config, gateway, _store())
    finally:
        gateway.close()
    assert result.failure.startswith("section:constants: ")
    # a call that raised sent no reply, so only the earlier attempts count
    assert result.repairs == {
        "constants": fault_at - 1, "behaviors": 0, "spatial": 0, "program": 0,
    }
    trace = next(t for t in result.traces if t.stage == "section:constants")
    assert [i.stage_tag for i in trace.interactions] == (
        ["r000000/section:constants"] + ["r000000/repair:constants"] * (fault_at - 1)
    )


@pytest.mark.parametrize(
    "name, stage",
    [("check_validity", "finalize"), ("compile_section", "section:constants")],
)
def test_a_fault_in_compile_or_finalize_fails_the_run(
    monkeypatch, caplog, report, config, name, stage
):
    import scenforge.pipeline as pipeline

    def broken(*args, **kwargs):
        raise RuntimeError(f"{name} broke")

    monkeypatch.setattr(pipeline, name, broken)
    result = run_report(report, config, gateway_for(happy_transcript()))
    assert not result.success
    assert result.failure == f"{stage}: RuntimeError: {name} broke"
    assert [t.outcome for t in result.traces if t.stage == stage] == ["failed"]
    logged = [r for r in caplog.records if r.getMessage() == f"stage {stage} failed"]
    assert len(logged) == 1 and logged[0].exc_info[1].args == (f"{name} broke",)


BASELINE_REPLIES = {
    "section:constants": "SPEED = Normal(5, 1)",
    "section:behaviors": "behavior Go(s):\n    do FollowLaneBehavior(s)",
    "section:spatial": "ego = new Car at (0, 0), with behavior Go(SPEED)",
}


def _baseline_reply(request) -> str:
    return BASELINE_REPLIES.get(request.stage_tag.rpartition("/")[2], VALID_PROGRAM)


def _baseline_run(strategy, report, config, respond):
    gateway = gateway_for(CallableBackend(respond))
    try:
        return run_report(report, replace(config, strategy=strategy), gateway, _store())
    finally:
        gateway.close()


@pytest.mark.parametrize("strategy", BASELINE_STRATEGIES)
def test_a_backend_fault_fails_a_baseline_run_at_its_stage(caplog, report, config, strategy):
    def broken(request):
        raise RuntimeError("backend broke")

    # the constrained baseline's first stage is its constants section
    stage = "section:constants" if strategy == "constrained" else strategy
    result = _baseline_run(strategy, report, config, broken)
    assert not result.success
    assert result.final_program is None
    assert result.failure == f"{stage}: RuntimeError: backend broke"
    assert [t.outcome for t in result.traces if t.stage == stage] == ["failed"]
    logged = [r for r in caplog.records if r.getMessage() == f"stage {stage} failed"]
    assert len(logged) == 1 and logged[0].exc_info[1].args == ("backend broke",)


def test_a_backend_fault_fails_the_constrained_baseline_at_its_section(caplog, report, config):
    def respond(request):
        # the first behaviors reply breaks the format; its regeneration faults
        if request.stage_tag.endswith("/section:behaviors"):
            if len(request.messages) > 1:
                raise RuntimeError("behaviors broke")
            return "prose, not a behavior"
        return _baseline_reply(request)

    result = _baseline_run("constrained", report, config, respond)
    assert result.failure == "section:behaviors: RuntimeError: behaviors broke"
    assert [(t.stage, t.outcome) for t in result.traces] == [
        ("section:constants", "ok"),
        ("section:behaviors", "failed"),
        ("section:spatial", "skipped"),
    ]
    # every call that returned is traced once, the failing stage's in its own trace
    tags = [[i.stage_tag for i in t.interactions] for t in result.traces]
    assert tags == [
        ["r1/section:constants"], ["r1/section:behaviors"], ["r1/section:spatial"],
    ]
    logged = [r for r in caplog.records if r.getMessage() == "stage section:behaviors failed"]
    assert len(logged) == 1


@pytest.mark.parametrize("strategy", BASELINE_STRATEGIES)
def test_a_fault_in_the_check_fails_a_baseline_run(monkeypatch, caplog, report, config, strategy):
    import scenforge.pipeline as pipeline

    def broken(*args, **kwargs):
        raise RuntimeError("check_validity broke")

    monkeypatch.setattr(pipeline, "check_validity", broken)
    result = _baseline_run(strategy, report, config, _baseline_reply)
    assert not result.success
    assert result.final_program is None
    assert result.failure == "validity: RuntimeError: check_validity broke"
    assert [t.outcome for t in result.traces][-1:] == ["failed"]
    assert [t.stage for t in result.traces if t.outcome == "failed"] == ["validity"]
    logged = [r for r in caplog.records if r.getMessage() == "stage validity failed"]
    assert len(logged) == 1
