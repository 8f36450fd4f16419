"""Prompt construction and completion parsing for the pipeline stages.

Everything here is plain text in, PromptRequest out, parsed values back.
Stage tags are namespaced per report ("<report-id>/<stage>") so scripted
transcripts can address each call of a corpus run unambiguously.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .gateway import ConstraintSpec, PromptRequest
from .scenic.ast import DIST_FUNCTIONS, DISTRIBUTIONS

FINAL_ANSWER_MARKER = "FINAL ANSWER:"

# "Normal(mean, stddev)", ..., "Uniform(option, ...)": how prompts name the constructors
DISTRIBUTION_SIGNATURES = tuple(
    f"{name}({', '.join(params or ('option', '...'))})" for name, params in DISTRIBUTIONS.items()
)

LANGUAGE_TUTORIAL = """\
You write scenario programs in a small probabilistic scene-description
language. A program has three sections, in order:

1. Constants: `NAME = value` lines. Values are numbers, quoted asset
   strings such as 'vehicle.lincoln.mkz_2017', arithmetic, or the
   distributions Normal(mean, stddev), TruncatedNormal(mean, stddev,
   low, high), Range(low, high), and Uniform(option, ...).
2. Behaviors: `behavior Name(params):` blocks whose bodies use
   `take <Action(...)>`, `wait`, `do <Behavior(...)>`, and
   `interrupt when <condition>:` with an indented block. Builtin
   behaviors include FollowLaneBehavior, FollowTrajectoryBehavior,
   LaneChangeBehavior, StayStillBehavior and WalkForwardBehavior;
   builtin actions include SetBrakeAction, SetThrottleAction,
   SetSpeedAction, SetSteerAction, SetTurnSignalAction and
   SetReverseAction.
3. Scene statements: helper assignments over the road network
   (`network.intersections`, `filter(lambda i: i.is4Way, ...)`,
   `Uniform(*choices)`, `lane.centerline[-1]`), object declarations
   `name = new Car at (x, y)` with specifiers `at <point>`,
   `on <region>`, `following roadDirection from <point> for <meters>`,
   `with <property> <value>`, plus `require <condition>` and
   `terminate when <condition>`. Exactly one object must be named ego.

Blocks are indented with four spaces. One statement per line.
"""

# sensible bounds per constant facet when a distribution answer cannot
# be parsed even after a reformat reprompt
DEFAULT_FACET_RANGES = {
    "speed": (0.0, 20.0),
    "distance": (0.0, 50.0),
    "gap": (0.0, 50.0),
    "brake": (0.0, 1.0),
    "threshold": (0.0, 10.0),
    "time": (0.0, 30.0),
}
GENERIC_FACET_RANGE = (0.0, 10.0)

QUESTION_FACETS = ("speed", "placement", "type")

_NUMBERED_ITEM = re.compile(r"^\s*(?:\d+[.)]|[-*])\s+(.*\S)\s*$")
_ASSIGNMENT_LINE = re.compile(r"^\s*([A-Za-z_]\w*)\s*=\s*(\S.*?)\s*$")
_DIRECT_LINE = re.compile(r"^\s*([^:=]{1,60}?)\s*:\s*(\S.*?)\s*$")
_DISTRIBUTION_HINT = re.compile(rf"\b(?:{'|'.join(sorted(DIST_FUNCTIONS))})\s*\(")


@dataclass(frozen=True)
class RawAnswer:
    label: str
    text: str
    is_assignment: bool


def fallback_range(label: str) -> tuple[float, float]:
    lowered = label.lower()
    for facet, bounds in DEFAULT_FACET_RANGES.items():
        if facet in lowered:
            return bounds
    return GENERIC_FACET_RANGE


def looks_like_distribution(text: str) -> bool:
    return _DISTRIBUTION_HINT.search(text) is not None


class PromptFactory:
    """Builds every request the pipeline issues for one model, with the
    sampling defaults of PromptRequest."""

    def __init__(self, model_id: str):
        self.model_id = model_id

    def _request(self, system: str, user_text: str, stage_tag: str) -> PromptRequest:
        return PromptRequest.single(self.model_id, system, user_text, stage_tag)

    # -- stage 1: object identification --------------------------------

    def objects_request(self, report) -> PromptRequest:
        system = (
            "You are a panel of three independent crash reconstruction "
            "experts reviewing a collision report."
        )
        user = (
            "Collision report narrative:\n"
            f"{report.narrative}\n\n"
            "Each expert lists the dynamic and static objects relevant to "
            "reconstructing the scene, labelled EXPERT 1:, EXPERT 2: and "
            "EXPERT 3:. The panel then debates which candidates are real, "
            "distinct scene objects (not parts of other objects, and not "
            "environmental properties). Finish with a line containing "
            f"exactly '{FINAL_ANSWER_MARKER}' followed by a numbered list "
            "of the agreed objects, one per line."
        )
        return self._request(system, user, f"{report.id}/objects")

    def objects_followup(self, request: PromptRequest, previous_text: str) -> PromptRequest:
        reminder = (
            f"Your reply did not contain the '{FINAL_ANSWER_MARKER}' block. "
            f"Respond with only the line '{FINAL_ANSWER_MARKER}' followed by "
            "the numbered list of agreed objects."
        )
        return request.followup(previous_text, reminder)

    # -- stage 2: property questions ------------------------------------

    def questions_request(self, report, objects) -> PromptRequest:
        listing = "\n".join(f"{i + 1}. {obj}" for i, obj in enumerate(objects))
        system = "You prepare structured follow-up questions for crash reconstruction."
        user = (
            "Collision report narrative:\n"
            f"{report.narrative}\n\n"
            f"Relevant objects:\n{listing}\n\n"
            "List the questions that must be answered before the scene can "
            "be reconstructed. Cover the speed, placement and type of every "
            "object, the weather, and the kind of road setting. One "
            "question per line, numbered."
        )
        return self._request(system, user, f"{report.id}/questions")

    # -- stage 3: expert answers -----------------------------------------

    def answers_request(self, report, questions) -> PromptRequest:
        listing = "\n".join(f"{i + 1}. {q}" for i, q in enumerate(questions))
        system = (
            "You are a panel of three crash reconstruction experts answering "
            "property questions about a collision scene."
        )
        user = (
            "Collision report narrative:\n"
            f"{report.narrative}\n\n"
            f"Questions:\n{listing}\n\n"
            "Debate each question, then answer every one of them. Answer "
            "directly where the report pins the value down (for example "
            "'weather: clear' or 'road: 4-way intersection'). Where the "
            "value is uncertain, answer with a constant assignment whose "
            "right side is a probability distribution, using variance for "
            "confidence, for example 'BIKE_SPEED = Normal(10, 1)'. Emit one "
            "answer per line and nothing else after the answers."
        )
        return self._request(system, user, f"{report.id}/answers")

    def answers_reformat(
        self, request: PromptRequest, previous_text: str, bad_lines
    ) -> PromptRequest:
        listing = "\n".join(bad_lines)
        reminder = (
            "These answers were not parseable distribution assignments:\n"
            f"{listing}\n"
            "Rewrite only these answers, one per line, each in the exact "
            f"form {' or '.join(f'NAME = {sig}' for sig in DISTRIBUTION_SIGNATURES)}."
        )
        return request.followup(previous_text, reminder)

    # -- stage 4 and baselines: program generation -------------------------

    def _examples_block(self, examples) -> str:
        if not examples:
            return ""
        blocks = []
        for i, example in enumerate(examples):
            blocks.append(f"Example program {i + 1}:\n{example.rstrip()}")
        return "\n\n".join(blocks) + "\n\n"

    def section_request(
        self, report, kind: str, objects, answers_block: str, examples
    ) -> PromptRequest:
        instructions = {
            "constants": (
                "Write only the constants section: one NAME = value line per "
                "constant, using the distribution answers above where given."
            ),
            "behaviors": (
                "Write only the behaviors section: behavior blocks for the "
                "agents above, using take/wait/do/interrupt statements."
            ),
            "spatial": (
                "Write only the scene section: helper assignments over the "
                "road network, object declarations (exactly one named ego), "
                "require statements, and an optional terminate when line. "
                "Reference the constants and behaviors by name where useful."
            ),
        }[kind]
        listing = "\n".join(f"- {obj}" for obj in objects)
        user = (
            self._examples_block(examples)
            + "Collision report narrative:\n"
            + f"{report.narrative}\n\n"
            + f"Scene objects:\n{listing}\n\n"
            + f"Expert answers:\n{answers_block}\n\n"
            + instructions
            + " Output only code lines."
        )
        return self._request(LANGUAGE_TUTORIAL, user, f"{report.id}/section:{kind}")

    def baseline_request(self, report, strategy: str, examples) -> PromptRequest:
        """A whole program in one shot; tagged "hyde_draft", the HyDE draft."""
        user = (
            self._examples_block(examples)
            + "Collision report narrative:\n"
            + f"{report.narrative}\n\n"
            + "Write one complete scenario program for this report. Output "
            + "only program code."
        )
        return self._request(LANGUAGE_TUTORIAL, user, f"{report.id}/{strategy}")

    def baseline_section_request(self, report, kind: str) -> PromptRequest:
        instructions = {
            "constants": "Write only the constants section of the program.",
            "behaviors": "Write only the behaviors section of the program.",
            "spatial": (
                "Write only the scene section of the program, declaring "
                "exactly one object named ego."
            ),
        }[kind]
        user = (
            "Collision report narrative:\n"
            f"{report.narrative}\n\n"
            f"{instructions} Output only code lines."
        )
        return self._request(LANGUAGE_TUTORIAL, user, f"{report.id}/section:{kind}")

    # -- repair ---------------------------------------------------------

    def repair_request(
        self, report_id: str, kind: str, section_text: str, diagnostics_text: str,
        attempt: int,
    ) -> PromptRequest:
        user = (
            f"A. This is the {kind} section of a scenario program "
            f"(repair attempt {attempt}):\n{section_text}\n\n"
            "B. The compiler raised errors with the program part:\n"
            "Error details below.\n"
            f"{diagnostics_text}\n\n"
            "C. Please output a modified version of the program part so the "
            "compiler error does not appear. Output only code lines."
        )
        return self._request(
            LANGUAGE_TUTORIAL, user, f"{report_id}/repair:{kind}"
        )

    def program_repair_request(
        self, report_id: str, program_text: str, diagnostics_text: str, attempt: int
    ) -> PromptRequest:
        user = (
            f"A. This scenario program failed its execution check "
            f"(repair attempt {attempt}):\n{program_text}\n\n"
            "B. The errors raised while compiling and sampling the program:\n"
            f"{diagnostics_text}\n\n"
            "C. Please output a modified version of the program so the "
            "error does not appear. Output the whole corrected program, "
            "only code lines."
        )
        return self._request(
            LANGUAGE_TUTORIAL, user, f"{report_id}/repair:program"
        )


# --- completion parsing -------------------------------------------------------


def parse_final_answer(text: str) -> list[str] | None:
    """Items of the FINAL ANSWER block, or None when the marker is absent."""
    lines = text.splitlines()
    start = None
    for i, line in enumerate(lines):
        if line.strip().startswith(FINAL_ANSWER_MARKER):
            start = i
            break
    if start is None:
        return None
    items: list[str] = []
    inline = lines[start].strip()[len(FINAL_ANSWER_MARKER):].strip()
    if inline:
        items.extend(_split_inline_enumeration(inline))
    for line in lines[start + 1:]:
        if not line.strip():
            if items:
                break
            continue
        match = _NUMBERED_ITEM.match(line)
        if match is None:
            break
        items.append(match.group(1).strip())
    return items


def _split_inline_enumeration(text: str) -> list[str]:
    parts = re.split(r"\s*\d+[.)]\s*", text)
    return [p.strip() for p in parts if p.strip()]


def parse_questions(text: str) -> list[str]:
    """Numbered, bulleted, or bare question lines, deduplicated
    case-insensitively in order of first appearance."""
    questions: list[str] = []
    seen: set[str] = set()
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        match = _NUMBERED_ITEM.match(line)
        candidate = match.group(1).strip() if match else (
            stripped if stripped.endswith("?") else ""
        )
        if not candidate:
            continue
        key = candidate.lower()
        if key not in seen:
            seen.add(key)
            questions.append(candidate)
    return questions


def ensure_question_coverage(questions: list[str], objects) -> list[str]:
    """Append templated questions for any required facet the model
    skipped: speed/placement/type per object, weather, road setting."""
    covered = [q.lower() for q in questions]

    def is_covered(*needles: str) -> bool:
        return any(all(n in q for n in needles) for q in covered)

    result = list(questions)
    templates = {
        "speed": "What speed was {obj} moving at?",
        "placement": "Where was {obj} positioned when the events began?",
        "type": "What type or model is {obj}?",
    }
    hints = {"speed": ("speed",), "placement": ("where", "position", "placed"), "type": ("type", "model", "kind")}
    for obj in objects:
        needle = obj.lower()
        for facet in QUESTION_FACETS:
            if not any(is_covered(hint, needle) for hint in hints[facet]):
                result.append(templates[facet].format(obj=obj))
    if not is_covered("weather"):
        result.append("What was the weather at the time of the events?")
    if not (is_covered("road") or is_covered("intersection")):
        result.append("What kind of road setting does the scenario take place in?")
    deduped: list[str] = []
    seen: set[str] = set()
    for question in result:
        key = question.lower()
        if key not in seen:
            seen.add(key)
            deduped.append(question)
    return deduped


def parse_answers(text: str) -> list[RawAnswer]:
    """Assignment answers (NAME = ...) and direct answers (label: value)."""
    answers: list[RawAnswer] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        match = _ASSIGNMENT_LINE.match(line)
        if match:
            answers.append(RawAnswer(match.group(1), match.group(2), True))
            continue
        match = _DIRECT_LINE.match(line)
        if match:
            label = re.sub(r"^\s*(?:\d+[.)]|[-*])\s*", "", match.group(1)).strip()
            answers.append(RawAnswer(label, match.group(2), False))
    return answers


def extract_code(text: str) -> str:
    """Program text from a completion: fenced blocks when present,
    otherwise the whole reply."""
    lines = text.splitlines()
    blocks: list[str] = []
    inside = False
    current: list[str] = []
    for line in lines:
        if line.strip().startswith("```"):
            if inside:
                blocks.append("\n".join(current))
                current = []
            inside = not inside
            continue
        if inside:
            current.append(line)
    if inside and current:
        blocks.append("\n".join(current))
    if blocks:
        return "\n\n".join(b.strip("\n") for b in blocks if b.strip()).strip("\n") + "\n"
    return text.strip("\n") + "\n" if text.strip() else ""


# --- section constraints ----------------------------------------------------

_CONSTANTS_LINE = r"[A-Za-z_]\w*\s*=\s*\S.*"
_BEHAVIORS_LINE = r"(?:behavior\s+[A-Za-z_]\w*\s*\([^)]*\)\s*:|\s{2,}\S.*)"
_SPATIAL_LINE = (
    r"(?:[A-Za-z_]\w*\s*=\s*\S.*|require\s+\S.*|terminate\s+when\s+\S.*|\s{2,}\S.*)"
)


def section_constraint(kind: str) -> ConstraintSpec:
    if kind == "constants":
        return ConstraintSpec("constants", _CONSTANTS_LINE, frozenset(), 32)
    if kind == "behaviors":
        return ConstraintSpec("behaviors", _BEHAVIORS_LINE, frozenset({"behavior"}), 64)
    if kind == "spatial":
        return ConstraintSpec("spatial", _SPATIAL_LINE, frozenset(), 64)
    raise ValueError(f"unknown section kind: {kind!r}")
