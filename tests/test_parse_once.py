"""Parse once: the Program built from compiled section statements is the
Program of the stitched text.

`finalize` checks `ast.program_of(statements)` of the clean sections
instead of parsing `stitch(texts)` again. That is a refactor only when,
for every triple of clean sections,

- `program_of` of the section statements equals the stitched parse;
- checking either gives the same verdict and the same sampled scene;
- a failing first check reports exactly the stitched text's diagnostics,
  program line numbers included.

The triples come from hypothesis and from the 21 golden and example
programs, each split into its three sections.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import scenforge.pipeline as pipeline
import scenforge.scene as scene
from scenforge.bundled import bundled_map, bundled_registry, example_program_paths
from scenforge.gateway import Gateway, MemoryCache
from scenforge.pipeline import PipelineConfig, PromptFactory, finalize, run_report
from scenforge.scene import check_validity
from scenforge.scenic import (
    SECTION_KINDS,
    ast,
    compile_section,
    has_errors,
    parse_program,
    section_behaviors,
    section_first_line,
    section_names,
    stitch,
)
from support import CallableBackend, bench_module, drive, happy_reply

SEEDS = (0, 1, 2)
REGISTRY = bundled_registry()
NETWORK = bundled_map("cross4")


def compiled_statements(texts: dict) -> list | None:
    """The sections' statements in canonical order, each compiled as the
    pipeline does, at its line in the stitched program and seeing the
    names and behaviors before it; None when a section does not compile
    clean."""
    env: set[str] = set()
    behaviors: dict = {}
    statements: list = []
    for kind in SECTION_KINDS:
        if kind not in texts:
            continue
        line = section_first_line(texts, kind, texts[kind])
        stmts, diags = compile_section(texts[kind], kind, REGISTRY, env, behaviors, line)
        if stmts is None or has_errors(diags):
            return None
        statements.extend(stmts)
        env |= section_names(stmts)
        if kind == "behaviors":
            behaviors = section_behaviors(stmts)
    return statements


def first_check(texts: dict, statements: list, seed: int):
    """finalize's first ValidityReport: no program repair is allowed."""
    config = PipelineConfig(
        registry=REGISTRY, network=NETWORK, seed=seed, program_retry_budget=0
    )
    gateway = Gateway(CallableBackend(lambda request: ""), cache=MemoryCache())
    try:
        step = finalize(texts, statements, config, gateway, PromptFactory("m"), "r")
        return drive(gateway, step)[1]
    finally:
        gateway.close()


def scene_of(report):
    if report.scene is None:
        return None
    return repr(report.scene.placements), repr(report.scene.sampled_constants)


def assert_parse_once(texts: dict) -> bool:
    """Check the three properties; False when a section is not clean."""
    statements = compiled_statements(texts)
    if statements is None:
        return False
    stitched = stitch(texts)
    program = ast.program_of(statements)
    assert program == parse_program(stitched).program
    for seed in SEEDS:
        direct = check_validity(program, REGISTRY, NETWORK, seed)
        reparsed = check_validity(stitched, REGISTRY, NETWORK, seed)
        assert direct.valid == reparsed.valid
        assert scene_of(direct) == scene_of(reparsed)
        if not reparsed.valid:
            assert first_check(texts, statements, seed).diagnostics == reparsed.diagnostics
    return True


# --- the golden and example programs, split into sections ---------------------------


def split_sections(source: str) -> dict:
    """Each top-level statement's lines, up to the next statement, go to
    its section: assignments before any other statement to constants,
    behavior definitions to behaviors, everything else to spatial."""
    program = parse_program(source).program
    starts = sorted(stmt.line for stmt in program.statements())
    kinds: dict[str, list[str]] = {}
    lines = source.splitlines(keepends=True)
    seen_other = False
    for index, start in enumerate(starts):
        stmt = next(s for s in program.statements() if s.line == start)
        end = starts[index + 1] - 1 if index + 1 < len(starts) else len(lines)
        if isinstance(stmt, ast.BehaviorDef):
            kind = "behaviors"
        elif isinstance(stmt, (ast.ConstantDecl, ast.Assign)) and not seen_other:
            kind = "constants"
        else:
            kind, seen_other = "spatial", True
        kinds.setdefault(kind, []).extend(lines[(0 if index == 0 else start - 1):end])
    return {kind: "".join(chunk) for kind, chunk in kinds.items()}


PROGRAMS = sorted((Path(__file__).parent / "golden").glob("*.scenic")) + example_program_paths()


@pytest.mark.parametrize("path", PROGRAMS, ids=lambda p: p.stem)
def test_sections_of_a_program_check_as_its_stitched_text(path):
    texts = split_sections(path.read_text(encoding="utf-8"))
    if not assert_parse_once(texts):
        pytest.skip(f"{path.name}: a section does not compile clean on its own")


def test_most_programs_compile_clean_by_section():
    assert len(PROGRAMS) == 21
    clean = [
        path for path in PROGRAMS
        if compiled_statements(split_sections(path.read_text(encoding="utf-8"))) is not None
    ]
    assert len(clean) >= 15, sorted(set(PROGRAMS) - set(clean))


# --- hypothesis section triples -------------------------------------------------------

CONSTANT_VALUES = [
    "5", "2.5", "-3", "Normal(10, 1)", "Range(1, 3)", "TruncatedNormal(5, 1, 4, 6)",
    "Uniform('a', 'b')", "'vehicle.lincoln.mkz_2017'", "1e308 * 10",
]
# over names, so not constant-grade: a constants-section `B = A * 2` is
# regrouped as a spatial assignment
NAME_VALUES = ["{} * 2", "{} + 1", "-{}"]


@st.composite
def section_triples(draw) -> dict:
    names: list[str] = []
    constants = []
    for i in range(draw(st.integers(1, 4))):
        if names and draw(st.booleans()):
            value = draw(st.sampled_from(NAME_VALUES)).format(draw(st.sampled_from(names)))
        else:
            value = draw(st.sampled_from(CONSTANT_VALUES))
        constants.append(f"C{i} = {value}\n")
        names.append(f"C{i}")
    refs = st.sampled_from(names + ["5"])

    behaviors = [
        f"behavior B{j}(speed):\n"
        "    do FollowLaneBehavior(speed)\n"
        f"    interrupt when simulation_time > {draw(refs)}:\n"
        f"        take SetBrakeAction({draw(refs)})\n"
        for j in range(draw(st.integers(0, 2)))
    ]

    spatial = []
    if draw(st.booleans()):  # a constant-grade value: regrouped as a constant
        spatial.append(f"s0 = {draw(st.sampled_from(CONSTANT_VALUES))}\n")
        names.append("s0")
    if draw(st.booleans()):
        spatial.append(f"s1 = {draw(st.sampled_from(names))} * 2\n")
    spatial += [
        "intersec = Uniform(*filter(lambda i: i.is4Way, network.intersections))\n",
        "startLane = Uniform(*intersec.incomingLanes)\n",
        # the cross4 lanes have three centerline points
        f"pt = startLane.centerline[{draw(st.sampled_from([-1, 0, 2, 5]))}]\n",
    ]
    behavior = f"B0({draw(refs)})" if behaviors else "StayStillBehavior"
    spatial.append(f"ego = new Car at pt, with behavior {behavior}\n")
    if draw(st.booleans()):
        spatial.append(f"other = new Bicycle following roadDirection from pt for -{draw(refs)}\n")
    if draw(st.booleans()):
        bound = draw(st.sampled_from(["0", "9", "1e9"]))
        spatial.append(f"require {draw(st.sampled_from(names))} > {bound}\n")
    texts = {"constants": "".join(constants), "spatial": "".join(spatial)}
    if behaviors:
        texts["behaviors"] = "\n".join(behaviors)
    return texts


@given(section_triples())
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_clean_section_triples_check_as_their_stitched_text(texts):
    assert_parse_once(texts)


def test_regrouping_by_value_reaches_the_validator():
    # the behavior reads a constants-section name that is regrouped after
    # it, so the whole program is not valid; finalize reports the stitched
    # text's diagnostic, on its program line
    texts = {
        "constants": "A = 2\nB = A * 2\n",
        "behaviors": "behavior Slow(speed):\n    take SetBrakeAction(B)\n",
        "spatial": "ego = new Car at (0, 0), with behavior Slow(A)\n",
    }
    assert assert_parse_once(texts)
    report = check_validity(stitch(texts), REGISTRY, NETWORK, 0)
    assert [(d.message, d.line) for d in report.diagnostics] == [
        ("name 'B' is not defined", 5)
    ]
    statements = compiled_statements(texts)
    assert first_check(texts, statements, 0).diagnostics == report.diagnostics


def test_program_of_groups_assignments_by_value():
    constants = compile_section("A = 2\nB = A * 2\n", "constants", REGISTRY)[0]
    spatial = compile_section(
        "x = 5\nego = new Car at (x, 0)\n", "spatial", REGISTRY, {"A", "B"}
    )[0]
    # sections keep the parser's Assigns; only program_of classifies
    assert [type(s).__name__ for s in constants + spatial] == [
        "Assign", "Assign", "Assign", "ObjectDecl"
    ]
    program = ast.program_of(constants + spatial)
    assert [(type(s).__name__, s.name) for s in program.statements()] == [
        ("ConstantDecl", "A"), ("ConstantDecl", "x"), ("Assign", "B"), ("ObjectDecl", "ego"),
    ]


def test_a_constants_section_name_over_names_is_exported_and_spatial():
    # `B = A * 2` in the constants section still reaches the later
    # sections; in the program it is a spatial assignment
    statements = compile_section("A = 2\nB = A * 2\n", "constants", REGISTRY)[0]
    assert section_names(statements) == {"A", "B"}
    program = ast.program_of(statements)
    assert [(type(s).__name__, s.name) for s in program.statements()] == [
        ("ConstantDecl", "A"), ("Assign", "B")
    ]


def test_a_failing_program_is_checked_once(monkeypatch):
    # the rejection budget is 1,000: one check samples C0 1,001 times
    texts = {
        "constants": "C0 = Normal(10, 1)\n",
        "spatial": "ego = new Car at (0, 0)\nrequire C0 > 1e9\n",
    }
    statements = compiled_statements(texts)
    samples, checks = [], []
    sample_value, check = scene.sample_value, pipeline.check_validity

    def counted_check(*args):
        checks.append(args[0])
        return check(*args)

    monkeypatch.setattr(scene, "sample_value", lambda *a: samples.append(a) or sample_value(*a))
    monkeypatch.setattr(pipeline, "check_validity", counted_check)
    report = first_check(texts, statements, 0)
    assert not report.valid
    assert len(checks) == 1 and isinstance(checks[0], ast.Program)
    assert len(samples) == 1001
    assert report.diagnostics == check_validity(stitch(texts), REGISTRY, NETWORK, 0).diagnostics


SPATIAL = "ego = new Car at (0, 0), with behavior Slow(A)\n"


@pytest.mark.parametrize(
    "repaired, expected",
    [
        ({"repair:constants": "\n\nA = 2\nB = A * 2\n"}, ("name 'B' is not defined", 5)),
        (
            {"repair:spatial": "\r\n\r\n" + SPATIAL + "C = 1e308 * 10\n"},
            ("execution failed: line 10: '*' gave a non-finite number (inf)", 1),
        ),
    ],
    ids=["constants", "spatial"],
)
def test_a_run_checks_its_program_in_program_lines(repaired, expected):
    # sections, a repaired one among them, start after blank lines: the
    # one check reports the stitched text's lines
    replies = {
        "section:constants": "A = (\n" if "repair:constants" in repaired else "A = 2\nB = 1\n",
        "section:behaviors": "\nbehavior Slow(speed):\n    take SetBrakeAction(B)\n",
        "section:spatial": "ego = (\n" if "repair:spatial" in repaired else "\r\n\r\n" + SPATIAL,
        **repaired,
    }

    def respond(request):
        return replies.get(request.stage_tag.rpartition("/")[2]) or happy_reply(request)

    gateway = Gateway(CallableBackend(respond), cache=MemoryCache())
    try:
        config = PipelineConfig(registry=REGISTRY, network=NETWORK, program_retry_budget=0)
        result = run_report(bench_module("cases").make_case(1, 0).report, config, gateway)
    finally:
        gateway.close()
    assert sum(result.repairs.values()) == 1 and not result.success
    stitched = check_validity(result.final_program, REGISTRY, NETWORK, 0).diagnostics
    assert [(d.message, d.line) for d in stitched] == [expected]
    assert result.validity.diagnostics == stitched


@pytest.mark.parametrize("shape, parses", [((0, 0), 0), ((1, 0), 0), ((0, 1), 1), ((1, 1), 1)])
def test_a_clean_program_is_not_parsed_again(monkeypatch, shape, parses):
    # (section repair, program repair): a failing first check already has
    # program lines, so only the program repair's text is parsed
    calls = []

    def counted(text):
        calls.append(text)
        return parse_program(text)

    monkeypatch.setattr(scene, "parse_program", counted)
    case = bench_module("cases").make_case(1, 0, shape=shape)
    router = bench_module("backends").ScriptedRouter()
    router.load([case])
    gateway = Gateway(router, cache=MemoryCache())
    try:
        config = PipelineConfig(registry=REGISTRY, network=NETWORK)
        result = run_report(case.report, config, gateway)
    finally:
        gateway.close()
    assert result.final_program == case.final_program
    assert len(calls) == parses
