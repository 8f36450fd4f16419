"""Pipeline orchestration: staged prompting, compiler-feedback repair,
stitching, and the execution check.

The compositional strategy runs four stages: a three-expert panel
identifies scene objects, follow-up questions are collected for every
missing property, the panel answers them (directly or as probability
distributions), and the program is generated by parts under per-section
line constraints, with retrieved examples in the prompt. Each part is
compiled; compiler diagnostics drive a bounded zero-shot repair loop.
The clean section texts, keyed by kind, are stitched in canonical order,
and the whole program must instantiate a scene, with a second bounded
repair loop on failure. Sections are compiled at their lines in the
stitched program, so a clean program is parsed once, by sections, and
checked once: on `ast.program_of` of the compiled statements, the one
rule that groups assignments by value, as parsing text does. Only a
program repair's text is parsed again.

Each stage that makes model calls is a step (see `gateway`). One
executor per run (`_Stages`) runs every strategy's steps in layers
through `Gateway.run`, each layer joined before the next starts:

    1. objects (with its reprompt)  |  HyDE draft and retrieval
    2. questions
    3. answers (with its reformat reprompt)
    4. constants  |  behaviors  |  spatial section generation

A call depends only on earlier layers: the draft on the report alone, a
section prompt on the report, objects, answers and examples, never on
another section's text. So a happy-path run waits on 4 sequential model
round trips instead of 7 (6 without a retrieval store). All stage code
runs on the calling thread; only backend calls may leave it. After the
last layer the sections are compiled and repaired in the fixed order
constants, behaviors, spatial, so names flow from one section into the
next and every repair prompt is the one a sequential run would send.
Finalize then runs as a one-stage layer.

A stage's trace is kept when the caller closes it: traces follow stage
order, not arrival order. A stage's error, or a section that cannot be
repaired, fails the run at that stage with the failure "<stage>: <why>".
The stage is traced "failed", and every stage issued but not yet closed
is traced "skipped" (the behaviors and spatial generations when the
constants section cannot be repaired, the HyDE draft when objects
fails); their replies are cached like any other.

Baseline strategies issue one-shot generations and never see compiler
feedback; they exist for comparison runs. The constrained baseline's
three section generations are one layer, traced and failed per section.
A baseline's validity check is traced as stage "validity" only when it
fails.
"""

from __future__ import annotations

import functools
import json
import logging
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from . import prompts
from .bundled import bundled_map, bundled_registry, example_programs
from .distributions import (
    DistributionSpec,
    distribution_from_expr,
    distribution_to_source,
)
from .errors import (
    ConstraintUnsatisfiable,
    GatewayError,
    MarkerMissing,
    RepairExhausted,
    ScenForgeError,
)
from .gateway import Gateway, Step
from .prompts import PromptFactory, extract_code, section_constraint
from .retrieval import LocalHashEmbedder, VectorStore, hyde_query
from .scene import ValidityReport, check_validity
from .scenic import (
    KEYWORDS,
    SECTION_KINDS,
    ast,
    compile_section,
    has_errors,
    parse_expression,
    parse_section,  # noqa: F401  (bench/tracing.py wraps this name)
    render_diagnostics,
    section_behaviors,
    section_first_line,
    section_names,
    stitch,
)
from .scenic.diagnostics import ERROR, Diagnostic

log = logging.getLogger(__name__)

COMPOSITIONAL = "compositional"
BASELINE_STRATEGIES = ("zero_shot", "few_shot", "rag", "rag_hyde", "constrained")
STRATEGIES = (COMPOSITIONAL,) + BASELINE_STRATEGIES

OUTCOME_OK = "ok"
OUTCOME_REPAIRED = "repaired"
OUTCOME_FAILED = "failed"
OUTCOME_SKIPPED = "skipped"  # issued alongside a stage that failed; unused

TRACE_SCHEMA = 2

DEFAULT_SECTION_RETRY_BUDGET = 5
DEFAULT_PROGRAM_RETRY_BUDGET = 3
DEFAULT_RETRIEVAL_K = 3


@dataclass
class PipelineConfig:
    strategy: str = COMPOSITIONAL
    model_id: str = "default-model"
    section_retry_budget: int = DEFAULT_SECTION_RETRY_BUDGET
    program_retry_budget: int = DEFAULT_PROGRAM_RETRY_BUDGET
    retrieval_k: int = DEFAULT_RETRIEVAL_K
    seed: int = 0
    registry: object = None
    network: object = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.section_retry_budget < 0 or self.program_retry_budget < 0:
            raise ValueError("retry budgets must be >= 0")
        if self.retrieval_k < 1:
            raise ValueError("retrieval_k must be >= 1")
        if self.registry is None:
            self.registry = bundled_registry()
        if self.network is None:
            self.network = bundled_map("cross4")


@dataclass
class RetrievalSetup:
    store: VectorStore | None = None
    embedder: LocalHashEmbedder = field(default_factory=LocalHashEmbedder)


@dataclass
class StageTrace:
    stage: str
    interactions: list  # Completion records, in call order
    diagnostics_fed_back: list
    outcome: str


@dataclass
class RunResult:
    report_id: str
    strategy: str
    final_program: str | None
    validity: ValidityReport
    traces: list
    wall_seconds: float
    success: bool
    failure: str | None = None

    @property
    def backend_calls(self) -> int:
        return sum(
            1
            for trace in self.traces
            for interaction in trace.interactions
            if not interaction.from_cache
        )

    @property
    def repairs(self) -> dict:
        """Repair replies per section kind and for the program: the traced
        calls tagged `repair:<kind>` and `repair:program`; {} for a
        baseline. A repair call that raises records no call, so it is not
        counted."""
        if self.strategy != COMPOSITIONAL:
            return {}
        tags = Counter(
            interaction.stage_tag.rpartition("/")[2]
            for trace in self.traces
            for interaction in trace.interactions
        )
        return {kind: tags[f"repair:{kind}"] for kind in (*SECTION_KINDS, "program")}


@dataclass(frozen=True)
class Answer:
    label: str
    text: str
    value: object  # DistributionSpec, str, float, or None
    source: str    # model | reprompt | fallback


def _failure_message(stage: str, error: Exception) -> str:
    """Why ``stage`` failed: a package error's own text, or for a fault in
    the program its type and message, with the traceback logged."""
    if isinstance(error, ScenForgeError):
        return str(error)
    log.error("stage %s failed", stage, exc_info=error)
    return f"{type(error).__name__}: {error}"


class _StageFailed(Exception):
    """A stage failed the run, whose traces are closed. The message is
    "<stage>: <why>"; ``diagnostics`` are the failed stage's."""

    def __init__(self, message: str, diagnostics):
        super().__init__(message)
        self.diagnostics = list(diagnostics)


class _Stages:
    """One run's stages. ``layer`` runs stages together, ``take`` reads a
    stage's value, ``close`` keeps its trace and ``fail`` fails the run at
    it. Traces are kept in the order the caller closes their stages."""

    def __init__(self, gateway: Gateway):
        self.gateway = gateway
        self.traces: list[StageTrace] = []
        self.events: dict[str, list] = {}  # issued stage -> its calls, until closed
        self._outcomes: dict[str, tuple] = {}  # stage -> (value, error)

    def layer(self, *stages) -> None:
        """Run ``(name, step)`` stages together on the gateway's driver and
        keep each one's calls, and its value or error for ``take``."""
        outcomes = self.gateway.run(*(step for _, step in stages))
        for (name, _), (value, error, calls) in zip(stages, outcomes):
            self.events[name] = calls
            self._outcomes[name] = (value, error)

    def extend(self, name: str, step):
        """Run one more step of the issued stage ``name``, its calls traced
        with the stage's: its value, or its error raised."""
        [(value, error, calls)] = self.gateway.run(step)
        self.events[name] += calls
        if error is not None:
            raise error
        return value

    def take(self, name: str):
        """The stage's value; its error fails the run at ``name``."""
        value, error = self._outcomes[name]
        if error is not None:
            self.fail(name, error)
        return value

    def close(self, name: str, outcome: str = OUTCOME_OK, diagnostics=()) -> None:
        self.traces.append(StageTrace(
            stage=name,
            interactions=self.events.pop(name, []),
            diagnostics_fed_back=[str(d) for d in diagnostics],
            outcome=outcome,
        ))

    def fail(self, name: str, error: Exception, diagnostics=()):
        """Trace ``name`` failed and every other issued, unclosed stage
        skipped, then raise _StageFailed."""
        message = f"{name}: {_failure_message(name, error)}"
        self.close(name, OUTCOME_FAILED, diagnostics)
        for skipped in list(self.events):
            self.close(skipped, OUTCOME_SKIPPED)
        raise _StageFailed(message, diagnostics) from error


# --- stages -------------------------------------------------------------------


def stage_objects(report, gateway: Gateway, factory: PromptFactory) -> Step[list[str]]:
    """Three-expert object identification; parses the FINAL ANSWER block,
    reprompting once before giving up."""
    request = factory.objects_request(report)
    completion = yield from gateway.ask(request)
    items = prompts.parse_final_answer(completion.text)
    if items:
        return items
    followup = factory.objects_followup(request, completion.text)
    completion = yield from gateway.ask(followup)
    items = prompts.parse_final_answer(completion.text)
    if items:
        return items
    raise MarkerMissing(
        f"no '{prompts.FINAL_ANSWER_MARKER}' block after one reprompt"
    )


def stage_questions(report, objects, gateway: Gateway, factory: PromptFactory) -> Step[list[str]]:
    """Property questions, padded with templates so speed/placement/type
    per object plus weather and road setting are always covered."""
    completion = yield from gateway.ask(factory.questions_request(report, objects))
    questions = prompts.parse_questions(completion.text)
    return prompts.ensure_question_coverage(questions, objects)


def _interpret_answers(raw) -> tuple[list[Answer], list[prompts.RawAnswer]]:
    answers: list[Answer] = []
    bad: list[prompts.RawAnswer] = []
    for item in raw:
        if not item.is_assignment:
            answers.append(Answer(item.label, item.text, item.text, "model"))
            continue
        value = _parse_assignment_value(item.label, item.text)
        if value is not None:
            answers.append(Answer(item.label, item.text, value, "model"))
        elif prompts.looks_like_distribution(item.text):
            bad.append(item)
        else:
            answers.append(Answer(item.label, item.text, item.text, "model"))
    return answers, bad


def _parse_assignment_value(label: str, rhs: str):
    # `label = rhs` is an assignment only when the label is a name, not a
    # keyword such as `at`. The label matched `[A-Za-z_]\w*`, which the
    # scanner reads as one word, so it is a name unless it is a keyword.
    if label in KEYWORDS:
        return None
    expr = parse_expression(rhs)
    if expr is None:
        return None
    spec = distribution_from_expr(expr)
    if spec is not None:
        return spec
    if isinstance(expr, (ast.NumberLit, ast.StringLit)):
        return expr.value
    if prompts.looks_like_distribution(rhs):
        return None
    return rhs


def stage_answers(
    report, questions, gateway: Gateway, factory: PromptFactory
) -> Step[list[Answer]]:
    """Expert answers: direct values or distributions. Unparseable
    distribution answers get one reformat reprompt, then a Range fallback
    over the facet default, so the stage is total."""
    request = factory.answers_request(report, questions)
    completion = yield from gateway.ask(request)
    answers, bad = _interpret_answers(prompts.parse_answers(completion.text))
    if bad:
        reprompt = factory.answers_reformat(
            request, completion.text, [f"{a.label} = {a.text}" for a in bad]
        )
        retry = yield from gateway.ask(reprompt)
        fixed, _ = _interpret_answers(prompts.parse_answers(retry.text))
        fixed_by_label = {
            a.label: a for a in fixed if isinstance(a.value, DistributionSpec)
        }
        for item in bad:
            repaired = fixed_by_label.get(item.label)
            if repaired is not None:
                answers.append(
                    Answer(item.label, repaired.text, repaired.value, "reprompt")
                )
            else:
                low, high = prompts.fallback_range(item.label)
                answers.append(
                    Answer(
                        item.label,
                        item.text,
                        DistributionSpec.uniform_range(low, high),
                        "fallback",
                    )
                )
    return answers


def render_answers(answers: list[Answer]) -> str:
    lines = []
    for answer in answers:
        if isinstance(answer.value, DistributionSpec):
            lines.append(f"{answer.label} = {distribution_to_source(answer.value)}")
        elif answer.label and not answer.text.startswith(answer.label):
            lines.append(f"{answer.label}: {answer.value}")
        else:
            lines.append(str(answer.value))
    return "\n".join(lines)


def stage_section(
    kind: str, report, objects, answers_block: str, examples,
    gateway: Gateway, factory: PromptFactory,
) -> Step[str]:
    """Constrained generation of one program section. An exhausted
    constraint budget yields an empty section, which the caller routes
    into repair rather than aborting the run."""
    request = factory.section_request(report, kind, objects, answers_block, examples)
    try:
        completion = yield from gateway.ask_constrained(request, section_constraint(kind))
    except ConstraintUnsatisfiable:
        return ""
    return completion.text


def repair_section(
    kind: str,
    section_text: str,
    diagnostics,
    gateway: Gateway,
    factory: PromptFactory,
    budget: int,
    registry,
    env=(),
    known_behaviors=None,
    report_id: str = "report",
    texts=None,
):
    """Compiler-feedback repair: reprompt with the rendered diagnostics,
    recompile each candidate, stop at the first clean one. Performs
    exactly ``budget`` attempts before raising RepairExhausted. A candidate
    is compiled at its line after the earlier sections in ``texts``."""
    current_text = section_text
    current_diags = list(diagnostics)
    for attempt in range(1, budget + 1):
        request = factory.repair_request(
            report_id, kind, current_text, render_diagnostics(current_diags), attempt
        )
        completion = yield from gateway.ask(request)
        candidate = extract_code(completion.text)
        statements, diags = compile_section(
            candidate, kind, registry, env, known_behaviors,
            section_first_line(texts or {}, kind, candidate),
        )
        if statements is not None and not has_errors(diags):
            return candidate, statements, attempt
        current_text = candidate
        current_diags = diags
    raise RepairExhausted(
        f"{kind} section still broken after {budget} repair attempt(s)",
        current_diags,
    )


def finalize(texts: dict, statements: list, config: PipelineConfig,
             gateway: Gateway, factory: PromptFactory, report_id: str):
    """Stitch the section texts (keyed by kind), check validity (including
    scene instantiation), and run the whole-program repair loop when the
    execution check fails. The first check runs on the compiled
    ``statements``, which carry their lines in the stitched program."""
    program = stitch(texts)
    setting = (config.registry, config.network, config.seed)
    validity = check_validity(ast.program_of(statements), *setting)
    attempts = 0
    while not validity.valid and attempts < config.program_retry_budget:
        attempts += 1
        request = factory.program_repair_request(
            report_id, program, render_diagnostics(validity.diagnostics), attempts
        )
        completion = yield from gateway.ask(request)
        program = extract_code(completion.text)
        validity = check_validity(program, *setting)
    return program, validity, attempts


def _has_store(retrieval: RetrievalSetup) -> bool:
    return retrieval.store is not None and len(retrieval.store) > 0


def _retrieve_examples(report, config, gateway, factory, retrieval) -> Step[list[str]]:
    """One HyDE retrieval per run: draft once, embed the draft, reuse the
    retrieved examples for all three section prompts."""
    request = factory.baseline_request(report, "hyde_draft", _fixed_examples())
    draft = extract_code((yield from gateway.ask(request)).text)
    result = hyde_query(
        retrieval.store, report.narrative, config.retrieval_k, retrieval.embedder, draft
    )
    return [scored.entry.text for scored in result.results]


_FIXED_EXAMPLE_COUNT = 3


@functools.cache
def _fixed_examples() -> tuple[str, ...]:
    # read once: six file reads per draft would delay each run's first round
    return tuple(text for _, text in example_programs()[:_FIXED_EXAMPLE_COUNT])


_EMPTY_SECTION = Diagnostic(ERROR, "empty section (no conforming code lines)", 1, 1, "")


def _run_stages(report, strategy: str, gateway: Gateway, steps, *args) -> RunResult:
    """One report's RunResult: ``steps(stages, *args)`` returns the
    program, its validity and the failure when it is invalid, or a stage
    fails the run and the result names that stage."""
    stages = _Stages(gateway)
    start = time.perf_counter()
    try:
        program, validity, failure = steps(stages, *args)
    except _StageFailed as exc:
        program, failure = None, str(exc)
        validity = ValidityReport(False, False, False, exc.diagnostics)
    return RunResult(
        report_id=report.id,
        strategy=strategy,
        final_program=program,
        validity=validity,
        traces=stages.traces,
        wall_seconds=time.perf_counter() - start,
        success=validity.valid,
        failure=failure,
    )


def run_pipeline(
    report,
    config: PipelineConfig,
    gateway: Gateway,
    retrieval: RetrievalSetup | None = None,
) -> RunResult:
    """Run the compositional strategy end to end for one report.

    Deterministic under a playback backend and fixed seed. Any exception
    in a stage, section compile or repair, or finalize produces a failed
    RunResult naming the stage; nothing escapes.
    """
    log.debug("pipeline start: report=%s strategy=%s", report.id, config.strategy)
    return _run_stages(
        report, COMPOSITIONAL, gateway, _compose, report, config,
        retrieval or RetrievalSetup(),
    )


def _compose(stages: _Stages, report, config, retrieval):
    """The four layers of model calls, then section compile and repair,
    then finalize: (program, validity, failure)."""
    gateway = stages.gateway
    factory = PromptFactory(config.model_id)

    # layer 1: objects | HyDE draft; a failed draft fails the run here,
    # but the draft's trace closes after answers
    draft = ()
    if _has_store(retrieval):
        draft = (("retrieve", _retrieve_examples(report, config, gateway, factory, retrieval)),)
    stages.layer(("objects", stage_objects(report, gateway, factory)), *draft)
    objects = stages.take("objects")
    stages.close("objects")
    examples = stages.take("retrieve") if draft else []

    # layers 2 and 3: questions, then answers
    stages.layer(("questions", stage_questions(report, objects, gateway, factory)))
    questions = stages.take("questions")
    stages.close("questions")
    stages.layer(("answers", stage_answers(report, questions, gateway, factory)))
    answers = stages.take("answers")
    stages.close("answers")
    if draft:
        stages.close("retrieve")

    # layer 4: every section generation at once
    answers_block = render_answers(answers)
    stages.layer(*(
        (f"section:{kind}", stage_section(
            kind, report, objects, answers_block, examples, gateway, factory
        ))
        for kind in SECTION_KINDS
    ))

    # compile and repair in canonical order: a section sees the names and
    # behaviors of the sections before it
    texts: dict[str, str] = {}
    program_statements: list = []
    env: set[str] = set()
    behaviors_map: dict = {}
    for kind in SECTION_KINDS:
        stage = f"section:{kind}"
        text = stages.take(stage)
        statements, diags, count = None, [_EMPTY_SECTION], 0
        try:
            if text.strip():
                statements, diags = compile_section(
                    text, kind, config.registry, env, behaviors_map,
                    section_first_line(texts, kind, text),
                )
            if statements is None or has_errors(diags):
                text, statements, count = stages.extend(stage, repair_section(
                    kind, text, diags, gateway, factory,
                    config.section_retry_budget, config.registry, env,
                    behaviors_map, report.id, texts,
                ))
        except (RepairExhausted, GatewayError) as exc:
            stages.fail(stage, exc, getattr(exc, "diagnostics", diags))
        except Exception as exc:
            stages.fail(stage, exc)
        texts[kind] = text
        program_statements.extend(statements)
        env |= section_names(statements)
        if kind == "behaviors":
            behaviors_map = section_behaviors(statements)
        stages.close(
            stage, OUTCOME_REPAIRED if count else OUTCOME_OK,
            [d.message for d in diags] if count else (),
        )

    stages.layer((
        "finalize",
        finalize(texts, program_statements, config, gateway, factory, report.id),
    ))
    program, validity, program_repairs = stages.take("finalize")
    if not validity.valid:
        finalize_outcome = OUTCOME_FAILED
    elif program_repairs:
        finalize_outcome = OUTCOME_REPAIRED
    else:
        finalize_outcome = OUTCOME_OK
    stages.close(
        "finalize", finalize_outcome, [d.message for d in validity.diagnostics]
    )
    failure = None if validity.valid else "finalize: program failed the validity check"
    return program, validity, failure


def run_baseline(
    strategy: str,
    report,
    config: PipelineConfig,
    gateway: Gateway,
    retrieval: RetrievalSetup | None = None,
) -> RunResult:
    """One-shot baseline strategies; no compiler or execution feedback.
    The constrained baseline's three section generations are one layer.
    Any exception gives a failed RunResult naming the stage."""
    if strategy not in BASELINE_STRATEGIES:
        raise ValueError(f"unknown baseline strategy {strategy!r}")
    return _run_stages(
        report, strategy, gateway, _baseline, strategy, report, config,
        retrieval or RetrievalSetup(),
    )


def _baseline(stages: _Stages, strategy, report, config, retrieval):
    gateway, factory = stages.gateway, PromptFactory(config.model_id)
    if strategy == "constrained":
        layer = [
            (f"section:{kind}", _baseline_section(kind, report, gateway, factory))
            for kind in SECTION_KINDS
        ]
    else:
        layer = [
            (strategy, _one_shot(strategy, report, config, gateway, factory, retrieval))
        ]
    stages.layer(*layer)
    texts = []
    for name, _ in layer:
        texts.append(stages.take(name))
        stages.close(name)
    if strategy == "constrained":
        program = stitch(dict(zip(SECTION_KINDS, texts)))
    else:
        (program,) = texts
    try:
        validity = check_validity(program, config.registry, config.network, config.seed)
    except Exception as exc:  # traced only when it fails
        stages.fail("validity", exc)
    return program, validity, None if validity.valid else "program failed the validity check"


def _one_shot(strategy, report, config, gateway, factory, retrieval) -> Step[str]:
    examples: list[str] = []
    if strategy == "few_shot":
        examples = list(_fixed_examples())
    elif strategy == "rag" and _has_store(retrieval):
        scored = retrieval.store.query_topk(
            report.narrative, config.retrieval_k, retrieval.embedder
        )
        examples = [s.entry.text for s in scored]
    elif strategy == "rag_hyde" and _has_store(retrieval):
        examples = yield from _retrieve_examples(report, config, gateway, factory, retrieval)
    completion = yield from gateway.ask(factory.baseline_request(report, strategy, examples))
    return extract_code(completion.text)


def _baseline_section(kind, report, gateway, factory) -> Step[str]:
    request = factory.baseline_section_request(report, kind)
    return (yield from gateway.ask_constrained(request, section_constraint(kind))).text


def run_report(
    report,
    config: PipelineConfig,
    gateway: Gateway,
    retrieval: RetrievalSetup | None = None,
) -> RunResult:
    if config.strategy == COMPOSITIONAL:
        return run_pipeline(report, config, gateway, retrieval)
    return run_baseline(config.strategy, report, config, gateway, retrieval)


def max_backend_calls(config: PipelineConfig, regeneration_budget: int) -> int:
    """Upper bound on backend calls for one compositional run: the three
    prompting stages with their single reprompts, one HyDE draft, the
    constrained section generations, and both repair loops."""
    stage_calls = 2 + 1 + 2  # objects (+reprompt), questions, answers (+reformat)
    section_calls = len(SECTION_KINDS) * regeneration_budget
    repair_calls = len(SECTION_KINDS) * config.section_retry_budget
    return (
        stage_calls + 1 + section_calls + repair_calls + config.program_retry_budget
    )


# --- persistence ----------------------------------------------------------------


def write_run_result(result: RunResult, out_dir) -> dict:
    """Persist one run: <id>.scenic (when a program exists), <id>.trace,
    and <id>.validity under the output directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    if result.final_program is not None:
        program_path = out / f"{result.report_id}.scenic"
        program_path.write_text(result.final_program, encoding="utf-8")
        paths["program"] = program_path
    trace_doc = {
        "schema": TRACE_SCHEMA,
        "report_id": result.report_id,
        "strategy": result.strategy,
        "success": result.success,
        "wall_seconds": result.wall_seconds,
        "failure": result.failure,
        "repairs": result.repairs,
        "traces": [
            {
                "stage": trace.stage,
                "outcome": trace.outcome,
                "diagnostics_fed_back": trace.diagnostics_fed_back,
                "interactions": [
                    {
                        "stage_tag": i.stage_tag,
                        "digest": i.digest,
                        "text": i.text,
                        "token_count": i.token_count,
                        "latency_seconds": i.latency_seconds,
                        "cache": i.cache,
                        "from_cache": i.from_cache,
                        "conformance": i.conformance,
                    }
                    for i in trace.interactions
                ],
            }
            for trace in result.traces
        ],
    }
    trace_path = out / f"{result.report_id}.trace"
    trace_path.write_text(json.dumps(trace_doc, indent=2), encoding="utf-8")
    paths["trace"] = trace_path
    validity_path = out / f"{result.report_id}.validity"
    validity_path.write_text(
        json.dumps(result.validity.to_json(), indent=2), encoding="utf-8"
    )
    paths["validity"] = validity_path
    return paths


def transcript_from_traces(result: RunResult) -> dict:
    """A by-digest playback transcript that replays this run exactly."""
    by_digest = {}
    for trace in result.traces:
        for interaction in trace.interactions:
            by_digest.setdefault(interaction.digest, interaction.text)
    return {"by_stage": {}, "by_digest": by_digest}
